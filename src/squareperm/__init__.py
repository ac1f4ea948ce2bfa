"""Square permutations, convex permutominoes, and their marked-word codec.

The package provides exact counting (closed forms and refined bivariate
series), an O(n) encoder and three O(n) decoders, the bijection between
convex permutominoes and colored co-indecomposable square permutations,
exact-uniform seeded samplers, and brute-force oracles that audit all of
the above.
"""

from .codec import (
    DecodeMode,
    DecodeStats,
    Failure,
    FailureKind,
    InternalContradiction,
    MarkedWord,
    Success,
    decode,
    encode,
    format_marked_word,
    parse_marked_word,
)
from .perm import (
    ColoredPermutation,
    Corner,
    NotSquare,
    Permutation,
    Slope,
    SubclassReport,
    format_permutation_text,
    free_fixed_points,
    is_square,
    parse_permutation_text,
    subclass_report,
)
from .permutomino import (
    Permutomino,
    format_permutomino_text,
    from_colored_permutation,
    parse_permutomino_text,
    side_profile,
    to_colored_permutation,
)
from .sampler import (
    GridConfig,
    GridPolygon,
    RngStream,
    exact_generic_count,
    exact_generic_polygon_count,
    sample_convex_polygon,
    sample_exterior_config,
    sample_marked_word,
    sample_object,
    substream,
)
from .series import (
    BivariateSeries,
    BoundExceeded,
    CountFamily,
    DomainError,
    count,
    marked_word_series,
    narayana_series,
    square_refined_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
