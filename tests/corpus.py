"""Inputs that more than one test file reads, each built once per process.

A plain module, not fixtures, so parametrized tests can call it and the
smoke job's replay against the installed package (``-o pythonpath=``)
can import it.  Every builder returns a tuple of frozen objects, so no
test can change what the next one reads.  A test whose subject is an
enumeration still calls it, and the timing gates build what they time.
"""

import functools
import itertools

from squareperm.oracle import brute_enumerate, enumerate_permutominoes
from squareperm.perm import ColoredPermutation, free_fixed_points
from squareperm.permutomino import Permutomino, to_colored_permutation
from squareperm.sampler import FAMILY_MODES, sample_object, substream
from squareperm.series import CountFamily, narayana_series

#: the sixteen length-5 patterns whose avoiders are the square permutations
SQUARE_PATTERNS = frozenset(
    [
        (1, 4, 3, 2, 5), (1, 4, 3, 5, 2), (1, 5, 3, 2, 4), (1, 5, 3, 4, 2),
        (2, 4, 3, 1, 5), (2, 4, 3, 5, 1), (2, 5, 3, 1, 4), (2, 5, 3, 4, 1),
        (4, 1, 3, 2, 5), (4, 1, 3, 5, 2), (4, 2, 3, 1, 5), (4, 2, 3, 5, 1),
        (5, 1, 3, 2, 4), (5, 1, 3, 4, 2), (5, 2, 3, 1, 4), (5, 2, 3, 4, 1),
    ]
)

#: (size, samples per family) drawn by ``sample_object`` from ``substream(size, i)``
SEEDED = ((20, 40), (1_000, 4), (100_000, 1))


@functools.cache
def squares(n):
    """The square permutations of size n (n <= 8), in the oracle's scan order."""
    return tuple(brute_enumerate(CountFamily.SQUARE, n))


@functools.cache
def colored_squares(n):
    """Each square of size n once per subset of its free fixed points,
    that subset colored."""
    out = []
    for perm in squares(n):
        free = sorted(free_fixed_points(perm))
        for r in range(len(free) + 1):
            for subset in itertools.combinations(free, r):
                out.append(ColoredPermutation(perm, frozenset(subset)))
    return tuple(out)


@functools.cache
def convex_members(n):
    """The colored permutations of the convex permutominoes of size n (n <= 8)."""
    return tuple(brute_enumerate(CountFamily.CONVEX_PERMUTOMINO, n))


@functools.cache
def walked_permutominoes(n):
    """The convex permutominoes of size n (n <= 5), by the boundary walk."""
    return tuple(enumerate_permutominoes(n))


@functools.cache
def seeded_samples(n, samples):
    """``sample_object(family, n, substream(n, i))`` for each sampled family
    and i < samples, a permutomino taken to its colored permutation."""
    out = []
    for family in FAMILY_MODES:
        for i in range(samples):
            obj = sample_object(family, n, substream(n, i))
            if isinstance(obj, Permutomino):
                obj = to_colored_permutation(obj)
            out.append(obj)
    return tuple(out)


def narayana_reciprocity_check(order: int) -> bool:
    """Check N(txy; 1/y, 1/x) = xy N(t; x, y) on truncations.

    Cleared of denominators, the t^n coefficient of the left side is
    (xy)^n P_n(1/y, 1/x) with P_n the Narayana polynomial, so the check
    is a monomial permutation.
    """
    nar = narayana_series(order)
    return all(
        {(n - j, n - i): c for (i, j), c in nar[n].items()}
        == {(i + 1, j + 1): c for (i, j), c in nar[n].items()}
        for n in range(1, order + 1)
    )
