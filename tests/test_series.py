"""The shared double-series kernel against arithmetic that does not go through it."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from sonsixj.labels import SixJLabels, shelepin, triangle_ok
from sonsixj.series import _rows, series_table
from sonsixj.sixj import c_alpha
from sonsixj.spn import SP_METHODS, SpLabels, sp_admissible, u_sp


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    return prod((a + i for i in range(k)), start=Fraction(1))


def _triad_partner(draw, x, y, top):
    """A third label closing the triangle with x and y, at most top."""
    options = range(abs(x - y), min(x + y, top) + 1, 2)
    assume(len(options) > 0)
    return draw(st.sampled_from(options))


@st.composite
def admissible_labels(draw, top, ns):
    a = draw(st.integers(0, top))
    b = draw(st.integers(0, top))
    e = _triad_partner(draw, a, b, top)
    c = draw(st.integers(0, top))
    f = _triad_partner(draw, a, c, top)
    ds = [d for d in range(top + 1) if triangle_ok(b, d, f) and triangle_ok(c, d, e)]
    assume(ds)
    return SixJLabels(a, b, e, draw(st.sampled_from(ds)), c, f, draw(st.sampled_from(ns)))


@pytest.mark.parametrize("ns", [(4, 6, 8, 10, 12), (5, 7, 9, 11)], ids=["even_n", "odd_n"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_factorial_forms(ns, data):
    lab = data.draw(admissible_labels(24, ns))
    for method in ("A", "B", "C"):
        assert c_alpha(lab, method).value == c_alpha(lab, method + "Factorial").value, method


@st.composite
def sp_labels(draw, max_rank):
    n = draw(st.integers(1, max_rank))
    a, b, c = (draw(st.integers(0, n)) for _ in range(3))
    e = _triad_partner(draw, a, b, n)
    f = _triad_partner(draw, a, c, n)
    ds = [d for d in range(n + 1) if triangle_ok(b, d, f) and triangle_ok(c, d, e)]
    assume(ds)
    lab = SpLabels(a, b, e, draw(st.sampled_from(ds)), c, f, n)
    assume(sp_admissible(lab))
    return lab


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sp_labels(12))
def test_sp_series_agree(lab):
    values = [u_sp(lab, method).value for method in SP_METHODS]
    assert values[0] == values[1] == values[2]


@pytest.mark.parametrize("step", [1, 2])
def test_rows_are_pochhammer_products(step):
    # step 2 rows are doubled half-integer Pochhammers: a (a+2) ... = 2**k (a/2)_k
    args = (-3, 5, 1) if step == 1 else (-3, 5, 7)
    rows = _rows(args, 6, step)
    for k, v in enumerate(rows):
        expected = Fraction(1)
        for a in args:
            expected *= pochhammer(Fraction(a, step), k) * step**k
        assert v == expected, k


def test_series_table_rejects_unknown_method():
    with pytest.raises(ValueError):
        series_table(shelepin(SixJLabels(2, 2, 2, 2, 2, 2, 6)), "D")
