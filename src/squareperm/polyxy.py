"""Exact integer polynomials in two variables, held as plain dicts.

A polynomial maps (x exponent, y exponent) to a nonzero int coefficient;
the zero polynomial is the empty dict.  Everything here is exact integer
arithmetic, no floats.
"""

from __future__ import annotations

from typing import Mapping

Poly = dict[tuple[int, int], int]


def poly(*terms: tuple[int, int, int]) -> Poly:
    """Build a polynomial from (coeff, x_exp, y_exp) terms."""
    out: Poly = {}
    for c, i, j in terms:
        if c:
            out[(i, j)] = out.get((i, j), 0) + c
            if not out[(i, j)]:
                del out[(i, j)]
    return out


def p_add(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]) -> Poly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_sub(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]) -> Poly:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def p_addmul(
    out: Poly, a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]
) -> Poly:
    """out += a * b in place; returns ``out``.  Terms are summed without a
    check, and the zero coefficients left by cancellation are dropped once,
    at the end."""
    get = out.get
    b_terms = b.items()
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b_terms:
            k = (i1 + i2, j1 + j2)
            out[k] = get(k, 0) + c1 * c2
    if 0 in out.values():
        for k in [k for k, c in out.items() if not c]:
            del out[k]
    return out


def p_mul(a: Mapping[tuple[int, int], int], b: Mapping[tuple[int, int], int]) -> Poly:
    return p_addmul({}, a, b)


def p_scale(a: Mapping[tuple[int, int], int], c: int) -> Poly:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def format_poly(a: Mapping[tuple[int, int], int]) -> str:
    """Render like ``2*x^3*y^3 + x^3*y^2 + x^2*y^2``; ``0`` when empty."""
    if not a:
        return "0"
    parts = []
    for (i, j), c in sorted(a.items(), key=lambda kv: (-kv[0][0], -kv[0][1])):
        factors = []
        if abs(c) != 1 or (i == 0 and j == 0):
            factors.append(str(abs(c)))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def poly_to_json(a: Mapping[tuple[int, int], int]) -> dict[str, int]:
    return {f"{i},{j}": c for (i, j), c in sorted(a.items())}
