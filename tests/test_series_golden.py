"""Series output pinned at orders 30 and 45, and differential checks against
the product-and-reciprocal engine the package used before it built each
series from the shape of its generating function, and against the running
powers of (1+x)(1+y) for the word series."""

import contextlib
import hashlib
import io

import pytest

from squareperm import cli, series
from squareperm.polyxy import Poly, p_add, p_mul, p_scale, p_sub, poly

ANALYTIC = ("narayana", "w", "m", "sq", "t-nw", "t-sw")

#: sha256 of the stdout of ``squareperm series --which W --order 30``,
#: text then ``--json``, recorded from the product-and-reciprocal engine
GOLDEN_30 = {
    "narayana": (
        "8b45892a3924aeefc47ef82d043fa9b47a2f8bd0120c5bfa066ac29169f0825e",
        "70c02b20f7b90439e6d3301e828a33b68fecf4932d56053276912fed6ece8c1e",
    ),
    "w": (
        "9c1150384cff72ad674423f7798a7706d6606a25fecb2d9e19ce3748ddd7f466",
        "85580613e0d29570a8955f68ede49ea94fe2d2e5e503bf53456b54b73ccd5009",
    ),
    "m": (
        "3b96f7538733326fdd6c9b0ce1ea7f5efe1547e5cae751504be9922253ce7429",
        "d24dc5f97f33e4f9f5ffc7f60510f6da8426bf9d13035acb004ae518bf479367",
    ),
    "sq": (
        "b62be70044b0dea042b1b0ffd70ad26f5afe5cd7fd00084ea6194c46735687d8",
        "fdbaee9df8739f597e3038db29694e96f220c104c63fd7e977daa036ddbc2204",
    ),
    "t-nw": (
        "7ca98be7c838b01cb58b3693e2e3d3e0cf2445b75971c6e4c3dc5426823cd9d2",
        "f33b3d7a586135e7872cab0430ccf2d3f7bf02a5bda9fc28b0526fd7a7cd5dbc",
    ),
    "t-sw": (
        "07f818f8ccdf43e482b45106efbc3c3c4bbdf4d7835d6517b67517a0bce2fb13",
        "e9559a3372025a81b9bf3d6270c422bb94988aa50460e5b5f84498ad7b52b5f1",
    ),
}


#: sha256 of the stdout of ``squareperm series --which W --order 45``, text
#: then ``--json``, recorded from the engine that summed the failure series in
#: closed form and built the word series from running powers of (1+x)(1+y);
#: ``sq`` and ``t-nw`` at this order are pinned in test_cli.py
GOLDEN_45 = {
    "narayana": (
        "ec7d04878098822275f327cac9cdddf3abbfb0b740e6fa047a7fb4a62b76a5db",
        "d2c5a240069a461a665e9cb7fc988cdaa01e32f339c9473582e61181844b054a",
    ),
    "w": (
        "a8d80471da2c9009fb3c0b2426ce40135cc107d06d521998d699d7ffb658d533",
        "161fa2a532d2b53d461a792d4394ed0e7f4ad0cb3b409bbcefb04615d5095356",
    ),
    "m": (
        "608b128a21bb8fc7bfc6c79af62cd015b8332bab81effefc782d8e824ab80a18",
        "753a4a4887a716e58d729bb70ee4ed968eb0e0418349043b06a07bb8d7a856e3",
    ),
    "t-sw": (
        "8688b11cc0348010fe4e4f01286965f0d2a19f9e159d87d15a9c142986670482",
        "c9824a9e58362552eb47481edc8978c9766278c9922da5d08ca18e305f43a967",
    ),
}


def _series_stdout(which: str, order: int, as_json: bool = False) -> str:
    argv = ["series", "--which", which, "--order", str(order)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv + ["--json"] * as_json) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def text_30():
    return {which: _series_stdout(which, 30) for which in ANALYTIC}


@pytest.mark.parametrize("which", ANALYTIC)
def test_series_output_at_order_30_is_pinned(which, text_30):
    text_digest, json_digest = GOLDEN_30[which]
    assert hashlib.sha256(text_30[which].encode()).hexdigest() == text_digest
    as_json = _series_stdout(which, 30, as_json=True)
    assert hashlib.sha256(as_json.encode()).hexdigest() == json_digest


@pytest.mark.parametrize("which", sorted(GOLDEN_45))
def test_series_output_at_order_45_is_pinned(which):
    text_digest, json_digest = GOLDEN_45[which]
    as_text = _series_stdout(which, 45)
    assert hashlib.sha256(as_text.encode()).hexdigest() == text_digest
    as_json = _series_stdout(which, 45, as_json=True)
    assert hashlib.sha256(as_json.encode()).hexdigest() == json_digest


@pytest.mark.parametrize("which", ANALYTIC)
def test_lower_orders_print_a_prefix_of_order_30(which, text_30):
    lines = text_30[which].splitlines(keepends=True)
    for k in range(2, 31):
        assert _series_stdout(which, k) == "".join(lines[: k + 1]), (which, k)


# -- the product-and-reciprocal engine, over lists of t^n coefficients --


def _old_mul(a: list[Poly], b: list[Poly]) -> list[Poly]:
    out: list[Poly] = [{} for _ in a]
    for i, ci in enumerate(a):
        if ci:
            for j in range(len(a) - i):
                if b[j]:
                    out[i + j] = p_add(out[i + j], p_mul(ci, b[j]))
    return out


def _old_reciprocal(s: list[Poly]) -> list[Poly]:
    assert s[0] == {(0, 0): 1}
    out: list[Poly] = [{(0, 0): 1}]
    for n in range(1, len(s)):
        acc: Poly = {}
        for k in range(1, n + 1):
            if s[k]:
                acc = p_add(acc, p_mul(s[k], out[n - k]))
        out.append(p_scale(acc, -1))
    return out


def _const(order: int, p: Poly) -> list[Poly]:
    return [dict(p)] + [{} for _ in range(order)]


def _t(order: int, p: Poly) -> list[Poly]:
    return [{}, dict(p)] + [{} for _ in range(order - 1)]


def _add(a, b):
    return [p_add(x, y) for x, y in zip(a, b)]


def _sub(a, b):
    return [p_sub(x, y) for x, y in zip(a, b)]


def _scale(a, p):
    return [p_mul(c, p) for c in a]


def _old_w(order):
    step = p_mul(poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 0), (1, 0, 1)))
    return _old_reciprocal(_sub(_const(order, poly((1, 0, 0))), _t(order, step)))


def _old_m(order):
    w = _old_w(order)
    txy = _t(order, poly((1, 1, 1)))
    mid = _t(order, p_mul(poly((1, 0, 0), (1, 1, 0)), poly((1, 0, 1))))
    endpoint = _scale(_old_mul(_old_mul(txy, w), txy), poly((2, 0, 0)))
    interior = _old_mul(_old_mul(_old_mul(_old_mul(txy, w), mid), w), txy)
    return _add(endpoint, interior)


def _old_nw(order):
    nar = list(series.narayana_series(order).coeffs)
    one = _const(order, poly((1, 0, 0)))
    num = _scale(nar, poly((1, 1, 1)))
    mixed = _scale(nar, poly((1, 1, 0), (1, 0, 1), (-1, 1, 1)))
    den = _old_mul(_sub(one, num), _add(one, mixed))
    return _old_mul(num, _old_reciprocal(den))


def _old_sw(order):
    nar = list(series._narayana(order, (1, 1), (0, 0)).coeffs)
    one = _const(order, poly((1, 0, 0)))
    num = _scale(nar, poly((1, 1, 1)))
    den = _old_mul(_sub(one, _scale(nar, poly((1, 0, 1)))), _add(one, nar))
    return _old_mul(num, _old_reciprocal(den))


def _old_sq(order):
    w = _old_w(order)
    txy = _t(order, poly((1, 1, 1)))
    sw_tail = _old_mul(_old_mul(_t(order, poly((1, 0, 0), (1, 0, 1))), w), txy)
    nw_tail = _old_mul(_old_mul(_t(order, poly((1, 1, 0), (1, 0, 1))), w), txy)
    sw_term = _old_mul(_old_sw(order), sw_tail)
    nw_term = _old_mul(_old_nw(order), nw_tail)
    return _sub(_sub(_old_m(order), sw_term), nw_term)


OLD_ENGINE = {
    "w": (series.free_word_series, _old_w),
    "m": (series.marked_word_series, _old_m),
    "sq": (series.square_refined_series, _old_sq),
    "t-nw": (series.nw_failure_series, _old_nw),
    "t-sw": (series.sw_failure_series, _old_sw),
}


# -- the running powers of c = (1+x)(1+y), one product by c per order --

_STEP = poly((1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1))


def _running_w(order):
    out: list[Poly] = [{(0, 0): 1}]
    for _ in range(order):
        out.append(p_mul(out[-1], _STEP))
    return out


def _running_m(order):
    # c^(n-3) (2x^2y^2 c + (n-2)(1+x)x^2y^3) for n >= 3
    powers = _running_w(order)
    ends_step = p_mul(poly((2, 2, 2)), _STEP)
    out: list[Poly] = [{}, {}, poly((2, 2, 2))]
    for n in range(3, order + 1):
        factor = p_add(ends_step, poly((n - 2, 2, 3), (n - 2, 3, 3)))
        out.append(p_mul(powers[n - 3], factor))
    return out[: order + 1]


RUNNING_POWERS = {"w": _running_w, "m": _running_m}


@pytest.mark.parametrize("which", sorted(OLD_ENGINE))
def test_engine_matches_the_product_and_reciprocal_engine(which):
    new, old = OLD_ENGINE[which]
    order = 22
    got, want = new(order), old(order)
    assert got.order == order
    for n in range(order + 1):
        assert got[n] == want[n], (which, n)
    if which in RUNNING_POWERS:
        want = RUNNING_POWERS[which](45)
        for order in range(46):
            got = new(order)
            assert got.order == order
            assert list(got.coeffs) == want[: order + 1], (which, order)
