"""Static ASCII and SVG pictures of permutations and permutominoes.

Output is deterministic byte for byte: fixed styling, fixed attribute
order, integer coordinates only, so golden-file comparisons are stable.
"""

from __future__ import annotations

from .perm import BL, BR, UL, UR, PermLike, as_colored, record_masks
from .permutomino import Permutomino, cyclic_edges

_SCALE = 40
_MARGIN = 20
_PATH_STYLE = (
    (UL, "#1f77b4"),
    (UR, "#d62728"),
    (BL, "#2ca02c"),
    (BR, "#9467bd"),
)


def ascii_permutation(perm: PermLike) -> str:
    """Grid of the plot, top row first; ``o`` point, ``*`` colored point."""
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    blank = b". " * (n - 1) + b"."
    rows = [""] * n
    for x, y in enumerate(values):
        row = bytearray(blank)
        row[2 * x] = ord("*") if x + 1 in cp.colored else ord("o")
        rows[n - y] = row.decode()
    return "\n".join(rows)


def ascii_permutomino(p: Permutomino) -> str:
    """Boundary drawing with +, - and | on a doubled character grid."""
    pts = p.turnpoints
    w = max(x for x, _ in pts)
    h = max(y for _, y in pts)
    grid = [bytearray(b" " * (2 * w + 1)) for _ in range(2 * h + 1)]
    for (x1, y1), (x2, y2) in cyclic_edges(pts):
        if y1 == y2:
            lo, hi = 2 * min(x1, x2), 2 * max(x1, x2) + 1
            grid[2 * (h - y1)][lo:hi] = b"-" * (hi - lo)
        else:
            for cy in range(2 * min(y1, y2), 2 * max(y1, y2) + 1):
                grid[2 * h - cy][2 * x1] = ord("|")
    for x, y in pts:
        grid[2 * (h - y)][2 * x] = ord("+")
    return "\n".join(row.decode().rstrip() for row in grid)


def _svg_header(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def svg_permutation(perm: PermLike) -> str:
    """Points plus the four record paths, one polyline per direction."""
    cp = as_colored(perm)
    values = cp.perm.values
    n = len(values)
    side = 2 * _MARGIN + (n - 1) * _SCALE
    px = lambda i: _MARGIN + (i - 1) * _SCALE
    py = lambda v: side - _MARGIN - (v - 1) * _SCALE
    out = _svg_header(side, side)
    masks = record_masks(values)
    for bit, color in _PATH_STYLE:
        chain = [(px(i + 1), py(values[i])) for i in range(n) if masks[i] & bit]
        if len(chain) > 1:
            points = " ".join(f"{x},{y}" for x, y in chain)
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
    for i, v in enumerate(values, start=1):
        fill = "black" if i not in cp.colored else "white"
        out.append(
            f'<circle cx="{px(i)}" cy="{py(v)}" r="6" fill="{fill}" '
            f'stroke="black" stroke-width="2"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_permutomino(p: Permutomino) -> str:
    pts = p.turnpoints
    w = max(x for x, _ in pts)
    h = max(y for _, y in pts)
    width = 2 * _MARGIN + w * _SCALE
    height = 2 * _MARGIN + h * _SCALE
    px = lambda x: _MARGIN + x * _SCALE
    py = lambda y: height - _MARGIN - y * _SCALE
    out = _svg_header(width, height)
    path = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
    out.append(
        f'<polygon points="{path}" fill="#c6dbef" stroke="black" stroke-width="2"/>'
    )
    for x, y in pts:
        out.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="4" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
