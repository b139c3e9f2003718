"""Symplectic recoupling coefficients for single-column irreps."""

import itertools
import time
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, strategies as st

from sonsixj.exact import SurdValue, surd_normalize
from sonsixj.labels import TRIADS, SixJLabels, admissible_sixes, parity_ok, shelepin, symmetry_orbit
from sonsixj.oracle import su2_6j
from sonsixj.spn import (
    SP_METHODS,
    SpLabels,
    dim_sp,
    sp_admissible,
    sp_renormalized,
    sp_sum_terms,
    sp_symmetry_transform,
    u_sp,
)


def all_sp_labels(n):
    rng = range(n + 1)
    for a, b, e in itertools.product(rng, rng, rng):
        for d, c, f in itertools.product(rng, rng, rng):
            lab = SpLabels(a, b, e, d, c, f, n)
            if sp_admissible(lab):
                yield lab


def test_dim_sp_values():
    assert dim_sp(1, 0) == 1
    assert dim_sp(1, 1) == 2
    assert dim_sp(2, 1) == 4
    assert dim_sp(2, 2) == 5
    assert dim_sp(3, 1) == 6
    assert dim_sp(3, 3) == 14


def test_dim_sp_binomial_identity():
    for n in range(1, 8):
        for nu in range(0, n + 1):
            expected = comb(2 * n, nu) - (comb(2 * n, nu - 2) if nu >= 2 else 0)
            assert dim_sp(n, nu) == expected, (n, nu)


def test_dim_sp_matches_factorial_formula():
    for n in range(1, 41):
        for nu in range(0, n + 1):
            expected = Fraction(2 * factorial(2 * n + 1) * (n - nu + 1),
                                factorial(nu) * factorial(2 * n - nu + 2))
            assert dim_sp(n, nu) == expected, (n, nu)


def test_dim_sp_at_large_rank_is_fast():
    # the factorial form expanded (2n + 1)! through a Fraction: 10 s at n = 3 * 10**5
    start = time.perf_counter()
    for n in (10**5, 3 * 10**5):
        assert dim_sp(n, 2) == comb(2 * n, 2) - 1
        assert dim_sp(n, 5) == comb(2 * n, 5) - comb(2 * n, 3)
    assert time.perf_counter() - start < 1.0


def test_dim_sp_domain_errors():
    with pytest.raises(ValueError):
        dim_sp(0, 0)
    with pytest.raises(ValueError):
        dim_sp(1, -1)
    with pytest.raises(ValueError):
        dim_sp(2, 3)


def test_u_sp_all_zero_labels():
    for n in range(1, 5):
        for method in SP_METHODS:
            out = u_sp(SpLabels(0, 0, 0, 0, 0, 0, n), method)
            assert out.value == SurdValue.of_rational(1), (n, method)


def test_u_sp_vanishing_cases():
    # triad sum exceeds the column budget n
    assert u_sp(SpLabels(0, 0, 0, 2, 2, 2, 1)).value.is_zero()
    # broken triangle
    assert u_sp(SpLabels(1, 1, 0, 0, 0, 0, 2)).value.is_zero()
    # odd triad sum
    assert u_sp(SpLabels(1, 1, 1, 1, 1, 1, 2)).value.is_zero()


def test_u_sp_pinned_value():
    # frozen after the three series variants and the rank-1 reduction agreed
    assert u_sp(SpLabels(1, 1, 2, 1, 1, 2, 2)).value == SurdValue.of_rational(Fraction(3, 4))


def test_u_sp_domain_errors():
    with pytest.raises(ValueError):
        u_sp(SpLabels(0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        u_sp(SpLabels(0, 0, 0, 0, 0, 0, 2), "d")
    with pytest.raises(ValueError):
        u_sp(SpLabels(-1, 1, 0, 1, -1, 0, 2))


def test_methods_agree_exhaustively_small_ranks():
    for n in (1, 2):
        count = 0
        for lab in all_sp_labels(n):
            ref = u_sp(lab, "a").value
            assert u_sp(lab, "b").value == ref, lab
            assert u_sp(lab, "c").value == ref, lab
            assert not ref.is_zero(), lab
            count += 1
        assert count == (8 if n == 1 else 36)


def test_methods_agree_sampled_rank_three():
    sample = list(all_sp_labels(3))[::7]
    for lab in sample:
        ref = u_sp(lab, "a").value
        assert u_sp(lab, "b").value == ref, lab
        assert u_sp(lab, "c").value == ref, lab


def pochhammer(a, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1."""
    return prod((a + i for i in range(k)), start=Fraction(1))


def _so_series_terms(arr, tau, rank, method):
    """The SO(n) double series A/B/C, term by term in Fraction arithmetic, at any tau and rank.

    Written out from the Pochhammer forms independently of the package's
    kernel tables; x1-major, zero terms included."""
    (r11, r12, r13, r14), (r21, r22, r23, r24), (r31, r32, r33, r34) = arr.rows
    a1, a2, a3, a4 = arr.alpha
    b1, b2, _ = arr.beta
    P = pochhammer
    m2 = r13 if method == "a" else r31
    for x1 in range(r11 + 1):
        y1 = r11 - x1
        for x2 in range(m2 + 1):
            y2 = m2 - x2
            if method == "a":
                t = (P(-r14, x1) * P(r22 + 1, x1) * P(r23 + tau, x1)
                     * P(-r21, y1) * P(-a4 - tau, y1) * P(r34 + tau, y1)
                     * P(r24 + tau, x2) * P(-r12 - tau + 1, x2)
                     * P(-a2 - tau, y2) * P(r32 + tau, y2)
                     * P(b2 - b1 + x2 + 1, x1) * P(-r21 - tau - x2 + 1, y1))
            elif method == "b":
                t = (P(-r14, x1) * P(r22 + 1, x1) * P(r23 + tau, x1)
                     * P(-r21, y1) * P(r34 + tau, y1) * P(-a4 - tau, y1)
                     * P(-a2 - tau, x2) * P(-a3 - rank + 3, x2)
                     * P(r24 + tau, y2) * P(a1 + rank - 2, y2)
                     * P(r34 - x2 + 1, y1) * P(-r34 - r11 - tau + x2 + 1, x1))
            else:
                t = (P(-r12, x1) * P(-a3 - tau, x1) * P(-a4 - tau, x1)
                     * P(r32 + tau, y1) * P(r22 + 1, y1) * P(a1 + rank - 2, y1)
                     * P(r23 + tau, x2) * P(r24 + tau, x2)
                     * P(-a2 - tau, y2) * P(-r21 - tau + 1, y2)
                     * P(-r32 - r11 - tau + x2 + 1, x1) * P(r32 - x2 + 1, y1))
            sign = -1 if (x1 + x2) % 2 else 1
            yield (x1, x2), sign * comb(r11, x1) * comb(m2, x2) * t


def test_series_is_formal_continuation():
    # the Sp(2n) terms are the SO(n) series at tau = -n - 1, rank -2n, term by term;
    # the term list is the full x1-major lattice with its zero terms
    zeros = 0
    for lab in list(all_sp_labels(2)) + list(all_sp_labels(3))[::9]:
        arr = shelepin(SixJLabels(*lab.six, 2 * lab.n))
        r11, r13, r31 = arr.r(1, 1), arr.r(1, 3), arr.r(3, 1)
        for method in SP_METHODS:
            terms = list(sp_sum_terms(arr, lab.n, method))
            m2 = r13 if method == "a" else r31
            assert len(terms) == (r11 + 1) * (m2 + 1), (lab, method)
            assert [xy for xy, _ in terms] == [
                (x1, x2) for x1 in range(r11 + 1) for x2 in range(m2 + 1)], (lab, method)
            assert all(type(t) is int for _, t in terms), (lab, method)
            reference = list(_so_series_terms(arr, Fraction(-lab.n - 1), -2 * lab.n, method))
            assert terms == reference, (lab, method)
            zeros += sum(1 for _, t in terms if t == 0)
    assert zeros > 0


# labels of every Sp-admissible set at ranks <= 12: each label is at most a triad half-sum
_SP_SIXES_12 = [six for six in admissible_sixes(12)
                if max(sum(six[i] for i in t) for t in TRIADS) <= 24]


@st.composite
def sp_labels_to_rank_12(draw):
    six = draw(st.sampled_from(_SP_SIXES_12))
    low = max(1, max(sum(six[i] for i in t) for t in TRIADS) // 2)
    return SpLabels(*six, draw(st.integers(low, 12)))


def _signed_prefactor_sq(lab, method):
    """(sign, P) with u_sp = sign * sqrt(P) * (the sum of the series terms).

    Written out from the normalization and the series prefactors with plain
    factorials, independently of the package's ledger and series tables.  The
    series prefactor divides by six factorials r!, by six (n - r + 1)! (the
    SO(n) factors Gamma(r + tau + 1), continued to tau = -n - 1) and by
    (2n + 2 - alpha)! of a leading alpha, per method."""
    n = lab.n
    arr = shelepin(SixJLabels(*lab.six, n))
    (r11, r12, r13, r14), (r21, r22, r23, r24), (r31, r32, r33, r34) = arr.rows
    a1, a2, a3, a4 = arr.alpha
    facts, shifted, lead = {
        "a": ((r11, r12, r13, r14, r21, r33), (r22, r23, r24, r32, r33, r34), a3),
        "b": ((r11, r12, r14, r21, r31, r33), (r12, r22, r23, r24, r33, r34), a1),
        "c": ((r11, r12, r21, r31, r33, r34), (r22, r23, r24, r32, r33, r34), a1),
    }[method]
    f = factorial
    norm = Fraction(dim_sp(n, lab.e) * dim_sp(n, lab.f)
                    * prod(f(r) * f(n + 1 - r) for row in arr.rows for r in row)
                    * prod(f(2 * n + 2 - a) for a in arr.alpha),
                    prod(f(n - a) for a in arr.alpha))
    series = Fraction(f(n - a2) * f(n - a3) * f(n - a4),
                      f(2 * n + 2) * f(n) * f(2 * n + 2 - lead)
                      * prod(f(r) for r in facts) * prod(f(n - r + 1) for r in shifted))
    sign_exp = arr.beta[2] if method == "c" else arr.beta[0]
    return (-1) ** sign_exp, norm * series**2


@given(sp_labels_to_rank_12())
def test_u_sp_is_prefactor_times_termwise_sum(lab):
    # the fused kernel against the termwise series under an independent prefactor
    arr = shelepin(SixJLabels(*lab.six, lab.n))
    for method in SP_METHODS:
        sign, prefactor_sq = _signed_prefactor_sq(lab, method)
        total = sum(term for _, term in sp_sum_terms(arr, lab.n, method))
        assert u_sp(lab, method).value == surd_normalize(sign * total, prefactor_sq), (lab, method)


@pytest.mark.parametrize("lab, expected", [
    (SpLabels(35, 33, 38, 33, 39, 38, 60),
     "53355546888826969511282627/2220201208252097800989308938980000*sqrt(43736461)"),
    (SpLabels(44, 44, 52, 45, 47, 45, 80),
     "-26199718911686776762784927019275/124637821648851263733448860265665206616878976"
     "*sqrt(131297621332839)"),
    (SpLabels(63, 64, 61, 62, 61, 64, 100),
     "456712398485441309273286342393550247522864250840400472/"
     "875868077881964449384411182702037862568209746053061612430583095365575*sqrt(258153677022)"),
    (SpLabels(76, 74, 78, 79, 71, 71, 125),
     "-349483326996270060247509401178315496450084642780489/"
     "314143347298101354931463659359325157066289025381792668845865764270625"
     "*sqrt(217170454346781298)"),
    (SpLabels(90, 90, 84, 84, 84, 86, 150),
     "-1626237277830211445635095559506892665099306333142496586658342639994597453587/"
     "117415858991157526604330297519991508976102212706297889339431147276985523918466586223786210111650"
     "*sqrt(111665282566806265)"),
])
def test_u_sp_pinned_at_large_rank(lab, expected):
    # frozen from the termwise sum, before the series was fused
    for method in SP_METHODS:
        assert str(u_sp(lab, method).value) == expected, method


def test_rank_one_reduces_to_su2():
    # Sp(2) recoupling squares to the SU(2) 6j times both dimensions
    for lab in all_sp_labels(1):
        u = u_sp(lab).value
        w = su2_6j(*(Fraction(x, 2) for x in lab.six))
        de, df = dim_sp(1, lab.e), dim_sp(1, lab.f)
        assert u.square() == w.square() * de * df, lab


def test_column_swap_relation():
    # swapping the last two columns costs no sign once dimensions are stripped
    for lab in list(all_sp_labels(2)) + list(all_sp_labels(3))[::5]:
        swapped, phase = sp_symmetry_transform(lab)
        assert phase == 1, lab
        lhs = u_sp(swapped, "b").value / surd_normalize(
            1, dim_sp(lab.n, lab.b) * dim_sp(lab.n, lab.c))
        rhs = u_sp(lab, "a").value / surd_normalize(
            1, dim_sp(lab.n, lab.e) * dim_sp(lab.n, lab.f))
        assert lhs == rhs, lab


def sp_orbit(lab):
    """The distinct members of the 144-element symmetry orbit, as SpLabels, sorted."""
    return sorted(SpLabels(*member) for member in symmetry_orbit(lab))


def classical_rearrangements(lab):
    """The 24 classical rearrangements of {a b e; d c f}, written out: the columns
    permuted, and the top and bottom entries of two columns exchanged at once."""
    a, b, e, d, c, f = lab.six
    out = []
    for cols in itertools.permutations(((a, d), (b, c), (e, f))):
        for swap in ((), (0, 1), (0, 2), (1, 2)):
            (na, nd), (nb, nc), (ne, nf) = (col[::-1] if i in swap else col for i, col in enumerate(cols))
            out.append(SpLabels(na, nb, ne, nd, nc, nf, lab.n))
    return out


def test_classical_rearrangements_lie_in_the_orbit():
    sets = 0
    for n in range(1, 5):
        for lab in all_sp_labels(n):
            classical = classical_rearrangements(lab)
            assert len(classical) == 24
            assert set(classical) <= set(sp_orbit(lab)), lab
            sets += 1
    assert sets == 493


def test_renormalized_orbit_invariance():
    for lab in [SpLabels(1, 1, 2, 1, 1, 2, 2), SpLabels(1, 2, 1, 2, 1, 1, 2),
                SpLabels(2, 2, 2, 2, 2, 2, 3), SpLabels(1, 2, 3, 2, 1, 3, 3)]:
        members = classical_rearrangements(lab)
        if parity_ok(lab):  # the 144 act on the half-sum array, which needs even triad sums
            members += sp_orbit(lab)
        ref = sp_renormalized(lab, "a")
        for member in members:
            assert sp_renormalized(member, "b") == ref, (lab, member)


def test_u_sp_at_twin_prime_rank():
    # dim_sp(50076, 4) = (n-3)(2n+1)(2n)(2n-1)/12 has the twin primes 2n - 1 = 100151
    # and 2n + 1 = 100153 as factors: too large for factor_int when taken whole
    lab = SpLabels(2, 2, 4, 2, 2, 2, 50076)
    expected = surd_normalize(Fraction(3, 501491110), 9314846920689986)
    assert {u_sp(lab, m).value for m in SP_METHODS} == {expected}
    ref = sp_renormalized(lab)
    for member in sp_orbit(lab)[:6]:
        assert sp_renormalized(member) == ref, member


def test_values_are_real():
    # every radicand stays positive after continuation
    for lab in all_sp_labels(2):
        v = u_sp(lab).value
        assert v.radicand >= 1, lab


@pytest.mark.parametrize("bad", [True, 2.0, Fraction(2), "2", None])
def test_u_sp_rejects_non_int_labels(bad):
    for i, name in enumerate(SpLabels._fields):
        fields = [1, 1, 0, 1, 1, 0, 2]
        fields[i] = bad
        with pytest.raises(ValueError, match=f"label {name} = "):
            u_sp(SpLabels(*fields))
