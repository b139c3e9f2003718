"""The shared double-series kernel against arithmetic that does not go through it."""

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from sonsixj import series
from sonsixj.labels import SixJLabels, admissible_sixes, shelepin, triangle_ok
from sonsixj.series import (_block_width, _double_sum, _first_zero, _kernel, _rows, double_sum,
                             series_table)
from sonsixj.sixj import c_alpha, select_method
from sonsixj.spn import SP_METHODS, SpLabels, _sp_array, sp_admissible, u_sp


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


@pytest.mark.parametrize("step", [1, 2])
def test_first_zero_is_where_the_row_vanishes(step):
    for a in range(-12, 4):
        row = _rows((a,), 5, step)
        assert _first_zero(a, step, 5) == (row.index(0) if 0 in row else 6), a


def _lattice_sum(table, two_tau):
    """(sum, nonzero terms, coupling rows that vanish) of the table's double series.

    One product per lattice point, from the Pochhammer rows of the table's own
    arguments (doubled at odd 2 tau, where the sum carries 2**(4 m1 + 2 m2)).
    """
    step = 2 if two_tau % 2 else 1

    def row(p, c, m):
        return _rows([(2 * p + c * two_tau) // (2 // step)], m, step)

    def rows(args, m):
        return [prod(r) for r in zip(*(row(p, c, m) for p, c in args))]

    m1, m2 = table.m1, table.m2
    up1, down1 = rows(table.up1, m1), rows(table.down1, m1)
    up2, down2 = rows(table.up2, m2), rows(table.down2, m2)
    (pu, cu), (pd, cd) = table.couple_up, table.couple_down
    total = nonzero = vanishing = 0
    for x2 in range(m2 + 1):
        couple_up, couple_down = row(pu + x2, cu, m1), row(pd - x2, cd, m1)
        vanishing += (0 in couple_up) + (0 in couple_down)
        for x1 in range(m1 + 1):
            term = prod(((-1) ** (x1 + x2), comb(m1, x1), comb(m2, x2),
                         up1[x1], down1[m1 - x1], up2[x2], down2[m2 - x2],
                         couple_up[x1], couple_down[m1 - x1]))
            total += term
            nonzero += term != 0
    return Fraction(total, 4 ** (2 * m1 + m2) if step == 2 else 1), nonzero, vanishing


@pytest.mark.parametrize("ns, two_tau", [
    ((4, 6, 10), lambda n: n - 2),
    ((5, 7, 11), lambda n: n - 2),
    ((1, 2, 3, 5), lambda n: -2 * n - 2),
], ids=["even_two_tau", "odd_two_tau", "sp_rank"])
def test_double_sum_matches_lattice_sum(ns, two_tau):
    # value and nonzero count of the kernel against the plain lattice sum, by the rule
    # (one block at these sizes) and in x1 blocks of widths 1, 2, 3 and 5
    vanishing = blocked = 0
    for six in list(admissible_sixes(5))[::5]:
        arr = shelepin(SixJLabels(*six, 6))
        for n in ns:
            for method in ("A", "B", "C"):
                table = series_table(arr, method)
                value, nonzero, zeros = _lattice_sum(table, two_tau(n))
                assert double_sum(table, two_tau(n)) == (value, nonzero), (six, n, method)
                for width in (1, 2, 3, 5):
                    boxes = []
                    got = _double_sum(table, two_tau(n), lambda m1, m2: boxes.append((m1, m2)) or width)
                    assert got == (value, nonzero), (six, n, method, width)
                    # blocks, and rows past the first width + 1 summed by differences
                    blocked += bool(boxes) and width <= boxes[0][0] and width < boxes[0][1]
                vanishing += zeros
    assert vanishing  # the first-zero count is exercised at this step
    assert blocked > 100


@pytest.mark.parametrize("method", ["A", "B", "C"])
def test_double_sum_on_a_table_with_an_empty_axis(method):
    # shelepin builds the array of this non-triangular set; method A has m2 = -10,
    # an empty x2 axis, and B and C sum nonempty lattices
    table = series_table(shelepin(SixJLabels(35, 14, 17, 23, 52, 57, 6)), method)
    assert (table.m2 < 0) == (method == "A")
    value, nonzero, _ = _lattice_sum(table, 4)
    assert double_sum(table, 4) == (value, nonzero)


def test_blocked_sum_on_a_box_narrower_than_the_lattice():
    # every row's rising coupling row vanishes below m1, so the summed box stops at
    # top <= m1 - 1 and the Q_i past it multiply each row
    table = series_table(shelepin(SixJLabels(44, 40, 56, 51, 33, 43, 6)), "C")
    value, nonzero, _ = _lattice_sum(table, -32)
    assert value and nonzero
    for width in (1, 2, 3, 5):
        boxes = []
        assert _double_sum(table, -32, lambda m1, m2: boxes.append((m1, m2)) or width) == (value, nonzero)
        assert boxes == [(10, 10)] and table.m1 == 14


def test_blocked_sum_steps_past_a_row_with_no_nonzero_term(monkeypatch):
    # method B of this non-admissible set at n = 17 (m1 = 3, m2 = 20, 2 tau = 15) has
    # rows 15 and 16 with no nonzero term between rows that have one; the blocked
    # rows still advance their differences through them
    table = series_table(shelepin(SixJLabels(1, 27, 22, 4, 12, 17, 17)), "B")
    assert (table.m1, table.m2) == (3, 20)
    value, nonzero, _ = _lattice_sum(table, 15)
    blocked_rows, gaps = series._blocked_rows, []

    def recording(k, g1, weights, live, top, width):
        rows = [x2 for x2, *_ in live]
        gaps.append(sorted(set(range(rows[0], rows[-1] + 1)) - set(rows)))
        return blocked_rows(k, g1, weights, live, top, width)

    monkeypatch.setattr(series, "_blocked_rows", recording)
    for width in (1, 2, 3, 5):
        assert _double_sum(table, 15, lambda m1, m2: width) == (value, nonzero), width
    assert gaps == [[15, 16]] * 3  # width 5 spans the box: one block, no blocked rows


def _row_horner(table, two_tau):
    """(sum, nonzero terms) by one Horner pass per x2 row, one large product per point.

    The double-sum kernel before the x1 blocks, kept as the reference for them.
    """
    k = _kernel(table, two_tau)
    content1 = reduce(gcd, k.g1)
    content2 = reduce(gcd, k.g2)
    if not content1 or not content2:
        return Fraction(0), 0
    m1, step = k.m1, k.step
    g1 = [f // content1 for f in k.g1]
    below = list(accumulate((f != 0 for f in g1), initial=0))
    total = 0
    nonzero = 0
    for x2, f2 in enumerate(k.g2):
        if not f2:
            continue
        p = k.up + step * x2
        q = k.down - step * x2
        hi = _first_zero(p, step, m1)
        lo = m1 + 1 - _first_zero(q, step, m1)
        count = below[hi] - below[lo]
        if count <= 0:
            continue
        nonzero += count
        cd = _rows((q,), m1, step)
        h = 0
        for x1 in range(hi - 1, -1, -1):
            h = g1[x1] * cd[m1 - x1] + (p + x1 * step) * h
        total += f2 // content2 * h
    total *= content1 * content2
    if step == 2:
        return Fraction(total, 1 << (4 * m1 + 2 * k.m2)), nonzero
    return Fraction(total), nonzero


def _production_table(size, n):
    """The table auto evaluates for the balanced labels (size - 4, size, size - 2, size + 2, size - 6, size)."""
    choice = select_method(SixJLabels(size - 4, size, size - 2, size + 2, size - 6, size, n))
    return series_table(shelepin(choice.variant), choice.method)


@pytest.mark.parametrize("table, two_tau", [
    (_production_table(200, 10), 8),
    (_production_table(200, 11), 9),
    (_production_table(400, 10), 8),
    (_production_table(400, 11), 9),
    (series_table(_sp_array(SpLabels(108, 110, 106, 108, 112, 104, 180)), "A"), -362),
], ids=["L200_n10", "L200_n11", "L400_n10", "L400_n11", "sp_rank180"])
def test_blocked_kernel_matches_the_row_horner_at_scale(table, two_tau):
    widths = []

    def rule(m1, m2):
        widths.append((m1, _block_width(m1, m2)))
        return widths[-1][1]

    assert _double_sum(table, two_tau, rule) == _row_horner(table, two_tau)
    [(m1, width)] = widths
    assert width <= m1  # the rule blocks this lattice


def test_series_table_rejects_unknown_method():
    with pytest.raises(ValueError):
        series_table(shelepin(SixJLabels(2, 2, 2, 2, 2, 2, 6)), "D")
