"""SU(2) 6j oracle and the two even-n reduction routes."""

from fractions import Fraction

import pytest

from sonsixj.exact import SurdValue, surd_normalize
from sonsixj.labels import SixJLabels, admissible_sixes
from sonsixj.oracle import _prefactor, sixj_via_su2_pair, sixj_via_su2_triple, su2_6j
from sonsixj.sixj import sixj
from sonsixj.verify import SuiteRangeError, run_oracles

H = Fraction(1, 2)


def test_su2_values():
    assert su2_6j(H, H, 0, H, H, 0) == SurdValue.of_rational(Fraction(-1, 2))
    assert su2_6j(H, H, 1, H, H, 1) == SurdValue.of_rational(Fraction(1, 6))
    assert su2_6j(1, 1, 1, 1, 1, 1) == SurdValue.of_rational(Fraction(1, 6))
    assert su2_6j(2, 1, 1, 1, 1, 1) == SurdValue.of_rational(Fraction(1, 6))
    assert su2_6j(3 * H, 3 * H, 1, 3 * H, 3 * H, 1) == SurdValue.of_rational(Fraction(-11, 60))
    assert su2_6j(1, 2, 3, 2, 1, 2) == surd_normalize(Fraction(1, 105), 21)


def test_su2_triangle_violation_is_zero():
    assert su2_6j(0, 0, 1, 0, 0, 1).is_zero()
    assert su2_6j(3, 1, 1, 1, 1, 1).is_zero()
    # half-integer total in a triad
    assert su2_6j(H, H, H, H, H, H).is_zero()


def test_su2_zero_spin_law():
    # {a b c; 0 c b} = (-1)**(a+b+c) / sqrt((2b+1)(2c+1))
    for a, b, c in [(1, 1, 1), (1, 2, 2), (2, Fraction(3, 2), Fraction(3, 2)), (0, 3, 3)]:
        v = su2_6j(a, b, c, 0, c, b)
        expected = surd_normalize(
            Fraction((-1) ** int(a + b + c), (int(2 * b) + 1) * (int(2 * c) + 1)),
            (int(2 * b) + 1) * (int(2 * c) + 1),
        )
        assert v == expected, (a, b, c)


def test_su2_column_symmetries():
    js = (1, 2, 3, 2, 1, 2)
    ref = su2_6j(*js)
    j1, j2, j3, j4, j5, j6 = js
    assert su2_6j(j2, j1, j3, j5, j4, j6) == ref
    assert su2_6j(j3, j2, j1, j6, j5, j4) == ref
    assert su2_6j(j1, j5, j6, j4, j2, j3) == ref


def test_su2_orthogonality():
    # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta(p, q) / (2p + 1)
    def total(p, q):
        out = Fraction(0)
        for x in range(0, 3):
            s = su2_6j(1, 1, x, 1, 1, p) * su2_6j(1, 1, x, 1, 1, q)
            out += (2 * x + 1) * s.to_rational()
        return out

    assert total(1, 1) == Fraction(1, 3)
    assert total(2, 2) == Fraction(1, 5)
    assert total(1, 2) == 0


def test_reduction_routes_agree():
    for six in admissible_sixes(3):
        for n in (4, 6):
            lab = SixJLabels(*six, n)
            assert sixj_via_su2_triple(lab) == sixj_via_su2_pair(lab), (six, n)


def test_reduction_routes_match_production():
    for six in list(admissible_sixes(3))[::3]:
        for n in (4, 8):
            lab = SixJLabels(*six, n)
            assert sixj(lab).value == sixj_via_su2_triple(lab), (six, n)


def test_pair_route_phase_is_load_bearing():
    # reinstating the dropped alternating phase must change some value
    lab = SixJLabels(2, 2, 0, 2, 2, 2, 6)
    good = sixj_via_su2_pair(lab)
    bad = sixj_via_su2_pair(lab, reinstate_phase=True)
    assert good == sixj_via_su2_triple(lab)
    assert bad != good


def test_reduction_requires_even_n():
    with pytest.raises(ValueError):
        sixj_via_su2_triple(SixJLabels(2, 2, 2, 2, 2, 2, 5))
    with pytest.raises(ValueError):
        sixj_via_su2_pair(SixJLabels(2, 2, 2, 2, 2, 2, 7))


@pytest.mark.parametrize("n", [2, 0])
def test_reduction_rejects_even_n_below_4(n):
    # the shifted SU(2) arguments would go negative; the message names n
    for route in (sixj_via_su2_triple, sixj_via_su2_pair):
        with pytest.raises(ValueError, match=f"oracle routes need n >= 4, got n = {n}$"):
            route(SixJLabels(0, 0, 0, 0, 0, 0, n))
    with pytest.raises(SuiteRangeError, match=f"got n = {n}$"):
        run_oracles(n_values=(4, n), max_label=1)


def test_reduction_inadmissible_is_zero():
    assert sixj_via_su2_triple(SixJLabels(0, 0, 1, 0, 0, 1, 6)).is_zero()
    assert sixj_via_su2_pair(SixJLabels(1, 1, 1, 1, 1, 1, 4)).is_zero()


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_non_int_labels_rejected(bad):
    for i, name in enumerate(SixJLabels._fields):
        fields = [1, 1, 2, 1, 1, 2, 6]
        fields[i] = bad
        lab = SixJLabels(*fields)
        for route in (sixj_via_su2_pair, sixj_via_su2_triple):
            with pytest.raises(ValueError, match=f"label {name} = "):
                route(lab)


def test_n3_equals_su2():
    # SO(3) is SU(2) at integer spin: the only oracle at an odd n, and at Gamma(3/2)
    count = 0
    for six in admissible_sixes(4):
        assert sixj(SixJLabels(*six, 3), allow_n3=True).value == su2_6j(*six), six
        count += 1
    assert count == 570


def test_prefactor_at_large_n():
    # dim(200004, 2) = 100003 * 200003, too large for factor_int when taken whole;
    # (2x + n - 2) / dim(n, x) is 2 / 200003 for each of c, d, e = 2, so the prefactor
    # sqrt((2 / 200003)**3 / 8) is sqrt(200003) / 200003**2
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 200004)
    assert _prefactor(lab) == SurdValue(Fraction(1, 200003**2), Fraction(200003))
