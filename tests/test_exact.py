"""Exact arithmetic layer: gamma values, surds, factored products."""

import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sonsixj import exact
from sonsixj.exact import (
    FactoredProduct,
    PoleError,
    RadicandMismatchError,
    ResidualSqrtPiError,
    SurdValue,
    factor_int,
    gamma_doubled,
    gamma_ratio_doubled,
    primes_up_to,
    squarefree_decompose,
    surd_normalize,
)


# ---------------------------------------------------------------------------
# gamma at half-integer arguments, passed doubled: gamma_doubled(t) is Gamma(t/2)
# ---------------------------------------------------------------------------

def test_gamma_integer_values():
    assert gamma_doubled(2) == (1, 1, 0)
    assert gamma_doubled(8) == (6, 1, 0)
    assert gamma_doubled(14) == (720, 1, 0)


def test_gamma_half_integer_values():
    assert gamma_doubled(1) == (1, 1, 1)
    assert gamma_doubled(7) == (15, 8, 1)
    assert gamma_doubled(-1) == (-2, 1, 1)
    assert gamma_doubled(-3) == (4, 3, 1)


def test_gamma_pole_raises():
    for t in (0, -6):
        with pytest.raises(PoleError):
            gamma_doubled(t)
        with pytest.raises(PoleError):
            gamma_ratio_doubled([t], [2])


def test_gamma_residual_sqrtpi_raises():
    with pytest.raises(ResidualSqrtPiError):
        FactoredProduct().mul_gamma(1).to_fraction()
    assert FactoredProduct().mul_gamma(6).to_fraction() == 2


@given(st.integers(min_value=-19, max_value=19).filter(lambda m: m % 2 or m > 0))
def test_gamma_recurrence(m):
    # Gamma(x + 1) = x Gamma(x) away from the poles, x = m/2.
    num, den, pi_half = gamma_doubled(m + 2)
    num0, den0, pi_half0 = gamma_doubled(m)
    assert pi_half == pi_half0
    assert Fraction(num, den) == Fraction(num0, den0) * Fraction(m, 2)


def _gamma_by_recurrence(t: int) -> tuple[Fraction, int]:
    """Gamma(t/2) as (coefficient, pi_half), from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi)
    by x Gamma(x) = Gamma(x + 1)."""
    odd = t % 2
    x = Fraction(1, 2) if odd else Fraction(1)
    value = Fraction(1)
    while 2 * x < t:
        value *= x
        x += 1
    while 2 * x > t:
        x -= 1
        value /= x
    return value, odd


@pytest.mark.parametrize("t", [t for t in range(-81, 82) if t > 0 or t % 2])
def test_gamma_doubled_matches_gamma_exact(t):
    num, den, pi_half = gamma_doubled(t)
    assert den > 0 and math.gcd(num, den) == 1 and pi_half == t % 2
    assert (Fraction(num, den), pi_half) == _gamma_by_recurrence(t)


@pytest.mark.parametrize("t", range(-80, 1, 2))
def test_gamma_doubled_poles_raise(t):
    with pytest.raises(PoleError, match=f"gamma pole at {t // 2}$"):
        gamma_doubled(t)


def _ratio_by_residues(nums, dens) -> tuple[Fraction, int]:
    """The Gamma ratio from ``_gamma_by_recurrence``, each argument shifted by one eps.

    At a pole Gamma(-x + eps) = (-1)**x / (x! eps); the powers of eps must cancel or
    leave eps in the numerator, which makes the ratio zero.
    """
    value, pi_half, eps = Fraction(1), 0, 0
    for ts, sign in ((nums, 1), (dens, -1)):
        for t in ts:
            if t <= 0 and t % 2 == 0:
                g, p = Fraction((-1) ** (-t // 2), math.factorial(-t // 2)), 0
                eps -= sign
            else:
                g, p = _gamma_by_recurrence(t)
            value = value * g if sign > 0 else value / g
            pi_half += sign * p
    if eps < 0:
        raise PoleError("unpaired pole")
    return (Fraction(0), 0) if eps > 0 else (value, pi_half)


def _ratio(nums, dens) -> tuple[Fraction, int]:
    """``gamma_ratio_doubled`` as (coefficient, pi_half); its num / den need not be reduced."""
    num, den, pi_half = gamma_ratio_doubled(nums, dens)
    assert den > 0
    return Fraction(num, den), pi_half


def test_gamma_ratio_doubled_matches_gamma_ratio_product():
    cases = [([5, -1], [3]), ([-4], [-2, 7]), ([2], [-2]), ([-3, 1], [-5, 9, 4]),
             ([-2, -8, 3], [-4, -6]), ([-8, 7], [-4, -2, 1]), ([-6, -6], [-2, -10])]
    for nums, dens in cases:
        assert _ratio(nums, dens) == _ratio_by_residues(nums, dens), (nums, dens)


# ---------------------------------------------------------------------------
# pole pairing in gamma ratios
# ---------------------------------------------------------------------------

def test_gamma_ratio_pole_pair():
    # one numerator pole against one denominator pole: (-1)**(x-y) * y!/x!
    assert _ratio([-4], [-8]) == (12, 0)
    assert _ratio([-8], [-4]) == (Fraction(1, 12), 0)
    assert _ratio([-2], [-4]) == (-2, 0)


def test_gamma_ratio_pole_surplus():
    # extra denominator pole kills the product; extra numerator pole is an error
    assert gamma_ratio_doubled([2], [-6]) == (0, 1, 0)
    with pytest.raises(PoleError):
        gamma_ratio_doubled([-6], [2])


def test_gamma_ratio_pairing_independence():
    # two poles on each side: value must not depend on who pairs with whom
    assert _ratio([-2, -8], [-4, -6]) == (Fraction(1, 2), 0)
    assert _ratio([-8, -2], [-6, -4]) == (Fraction(1, 2), 0)


def test_gamma_ratio_mixed_regular_and_poles():
    assert _ratio([7, -4], [1, -8]) == (Fraction(15, 8) * 12, 0)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10),
)
def test_pochhammer_as_gamma_ratio(m, k):
    # (a)_k = Gamma(a + k) / Gamma(a) at a = m/2
    assert _ratio([m + 2 * k], [m]) == (math.prod(Fraction(m, 2) + i for i in range(k)), 0)


def test_pochhammer_values():
    assert _ratio([7], [1]) == (Fraction(15, 8), 0)  # (1/2)_3
    assert _ratio([10], [10]) == (1, 0)  # (5)_0
    assert _ratio([4], [-6]) == (0, 0)  # (-3)_5
    with pytest.raises(PoleError):
        gamma_ratio_doubled([0], [2])  # (1)_-1 = Gamma(0) / Gamma(1)


# ---------------------------------------------------------------------------
# integer factoring and squarefree normal form
# ---------------------------------------------------------------------------

def test_factor_int():
    assert factor_int(2**4 * 3**2 * 17) == {2: 4, 3: 2, 17: 1}
    assert factor_int(1) == {}
    assert factor_int(99991 * 99989) == {99989: 1, 99991: 1}
    assert factor_int(1000003) == {1000003: 1}  # prime cofactor below 10**10
    # a semiprime whose factors are both beyond the trial-division bound
    with pytest.raises(ValueError, match="too large to factor"):
        factor_int(1000003 * 1000033)


def test_factor_int_prime_powers_beyond_the_bound():
    assert factor_int(200003**3) == {200003: 3}
    assert factor_int(2**5 * 3 * 1000003**4) == {2: 5, 3: 1, 1000003: 4}
    assert factor_int(99991**2 * 9999999967**7) == {99991: 2, 9999999967: 7}
    assert surd_normalize(1, Fraction(1, 200003**3)) == SurdValue(Fraction(1, 200003**2), Fraction(200003))
    # a power whose root is itself beyond 10**10 may be composite, and still raises
    for n in ((1000003 * 1000033)**2, (1000003 * 1000033)**3, 1000003**2 * 1000033**2 * 1000037):
        with pytest.raises(ValueError, match="too large to factor"):
            factor_int(n)


@given(st.integers(min_value=1, max_value=100000))
def test_squarefree_decompose_property(n):
    s, q = squarefree_decompose(n)
    assert s * s * q == n
    assert all(e == 1 for e in factor_int(q).values())


def test_squarefree_decompose_values():
    assert squarefree_decompose(72) == (6, 2)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(1) == (1, 1)


# ---------------------------------------------------------------------------
# surd normal form and arithmetic
# ---------------------------------------------------------------------------

def test_surd_normalize_values():
    v = surd_normalize(1, Fraction(8, 9))
    assert (v.coeff, v.radicand) == (Fraction(2, 3), Fraction(2))
    z = surd_normalize(0, 5)
    assert z.is_zero() and z.radicand == 1
    r = surd_normalize(Fraction(3, 4), 1)
    assert r.is_rational() and r.to_rational() == Fraction(3, 4)


@given(
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20),
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(50), max_denominator=20),
)
def test_surd_normalize_idempotent_and_square(c, r):
    v = surd_normalize(c, r)
    again = surd_normalize(v.coeff, v.radicand)
    assert (again.coeff, again.radicand) == (v.coeff, v.radicand)
    assert v.square() == c * c * r


def test_surd_multiplication_cross_radicand():
    assert surd_normalize(1, 2) * surd_normalize(1, 6) == surd_normalize(2, 3)
    assert surd_normalize(1, 2) * surd_normalize(1, 2) == SurdValue.of_rational(2)
    assert surd_normalize(2, 3) * 0 == SurdValue.zero()


def test_surd_division():
    assert surd_normalize(1, 2) / surd_normalize(1, 2) == SurdValue.of_rational(1)
    assert surd_normalize(3, 10) / surd_normalize(1, 5) == surd_normalize(3, 2)
    assert surd_normalize(1, 3) / 2 == surd_normalize(Fraction(1, 2), 3)


def test_surd_addition_same_radicand():
    assert surd_normalize(2, 3) + surd_normalize(1, 3) == surd_normalize(3, 3)
    assert surd_normalize(2, 3) - surd_normalize(2, 3) == SurdValue.zero()
    assert SurdValue.zero() + surd_normalize(1, 7) == surd_normalize(1, 7)


def test_surd_addition_mismatch_raises():
    with pytest.raises(RadicandMismatchError):
        surd_normalize(1, 2) + surd_normalize(1, 3)


def test_surd_sign_abs_str():
    v = surd_normalize(Fraction(-3, 2), 5)
    assert v.sign() == -1
    assert abs(v) == surd_normalize(Fraction(3, 2), 5)
    assert str(abs(v)) == "3/2*sqrt(5)"
    assert str(SurdValue.zero()) == "0"
    assert str(SurdValue.of_rational(Fraction(7, 2))) == "7/2"


# ---------------------------------------------------------------------------
# factored products
# ---------------------------------------------------------------------------

def test_factored_product_to_fraction():
    fp = FactoredProduct()
    fp.mul_factorial(5)
    fp.mul_factorial(7, 2).mul_factorial(6, -2)  # 7**2
    fp.mul_factorial(3).mul_factorial(2, -1)  # 3
    fp.mul_factorial(2, -2)  # 2**-2
    assert fp.to_fraction() == Fraction(120 * 49 * 3, 4)


def test_factored_product_sqrt_surd():
    fp = FactoredProduct()
    fp.mul_factorial(3, 2).mul_factorial(2, -1)  # 3!**2 / 2 = 18
    assert fp.sqrt_surd() == surd_normalize(3, 2)
    fp2 = FactoredProduct()
    fp2.mul_factorial(3, 2).mul_factorial(2, -4)  # 3**2 / 2**2
    assert fp2.sqrt_surd() == SurdValue.of_rational(Fraction(3, 2))


def test_factored_product_factorial_ratio():
    fp = FactoredProduct()
    fp.mul_factorial(10)
    fp.mul_factorial(7, -1)
    assert fp.to_fraction() == 10 * 9 * 8


@pytest.mark.parametrize("e", [-2, -1, 1, 3])
def test_factored_product_gamma_matches_gamma_exact(e):
    for two_x in range(1, 81):
        fp = FactoredProduct().mul_gamma(two_x, e)
        num, den, pi_half = gamma_doubled(two_x)
        assert fp.pi_half == pi_half * e, two_x
        fp.mul_gamma(1, -fp.pi_half)  # Gamma(1/2) = sqrt(pi)
        assert fp.to_fraction() == Fraction(num, den) ** e, two_x


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3000), st.integers(min_value=-8, max_value=8)),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(min_value=0, max_value=1500), st.integers(min_value=-8, max_value=8)),
                max_size=3))
def test_packed_ledger_equals_the_product(factorials, half_gammas):
    # m! ** e for each (m, e), and, in a second ledger joined by *=, Gamma(m + 1/2) ** e
    # with its sqrt(pi) taken back out
    fp, gammas = FactoredProduct(), FactoredProduct()
    expected = Fraction(1)
    for m, e in factorials:
        fp.mul_factorial(m, e)
        expected *= Fraction(math.factorial(m)) ** e
    for m, e in half_gammas:
        gammas.mul_gamma(2 * m + 1, e).mul_gamma(1, -e)  # Gamma(1/2) = sqrt(pi)
        num, den, _ = gamma_doubled(2 * m + 1)
        expected *= Fraction(num, den) ** e
    fp *= gammas
    assert fp.to_fraction() == expected
    assert fp.sqrt_surd().square() == expected


def test_packed_ledger_overflow_raises():
    # the exponent 2**64 of the prime 2 does not fit a signed 64-bit slot; unguarded, it
    # would carry into the slot of 3 and the ledger would read as 3**2
    fp = FactoredProduct().mul_factorial(2, 2**64 - 1).mul_factorial(3)
    with pytest.raises(OverflowError):
        fp.to_fraction()
    with pytest.raises(OverflowError):
        fp.sqrt_surd()
    # slots far from zero in between are fine while the bound stays below 2**63
    assert FactoredProduct().mul_factorial(3, 2**40).mul_factorial(3, -2**40).to_fraction() == 1


def test_factored_product_rejects_nonpositive_factors():
    # Gamma at a negative half-integer raises at once; a pole joins the ledger and
    # raises when the ledger is expanded with its order unbalanced
    for two_x in (-1, -7):
        with pytest.raises(PoleError):
            FactoredProduct().mul_gamma(two_x)
    for fill in (lambda fp: fp.mul_gamma(0), lambda fp: fp.mul_gamma(-2, -1),
                 lambda fp: fp.mul_factorial(-1), lambda fp: fp.mul_factorial(-6, -1)):
        fp = fill(FactoredProduct().mul_factorial(3))
        with pytest.raises(PoleError):
            fp.to_fraction()
        with pytest.raises(PoleError):
            fp.sqrt_surd()


def _mul_pole(fp: FactoredProduct, pole_class: str, k: int, e: int) -> None:
    """Gamma(-k)**e, as the factorial (-k - 1)! or as the Gamma at doubled -2k."""
    if pole_class == "factorial":
        fp.mul_factorial(-k - 1, e)
    else:
        fp.mul_gamma(-2 * k, e)


_POLE_PAIRS = ([((k,), (j,)) for k in range(6) for j in range(6)]
               + [((k1, k2), (j1, j2)) for k1 in (0, 3) for k2 in (1, 4) for j1 in (0, 2) for j2 in (2, 5)]
               + [((k, k), (j, j)) for k in (1, 2) for j in (0, 3)])  # squared: exponent 2


@pytest.mark.parametrize("pole_class", ["factorial", "gamma"])
def test_paired_poles_equal_the_check_side_pole_rule(pole_class):
    # Gamma(-k) over Gamma(-j) among finite factors, against gamma_ratio_doubled on the
    # same doubled arguments: 7, 10 and the -2k over 5, 3 and the -2j
    for ks, js in _POLE_PAIRS:
        nums, dens = [7, 10, *(-2 * k for k in ks)], [5, 3, *(-2 * j for j in js)]
        fp = FactoredProduct().mul_gamma(7).mul_gamma(10).mul_gamma(5, -1).mul_gamma(3, -1)
        for k, e in Counter(ks).items():
            _mul_pole(fp, pole_class, k, e)
        for j, e in Counter(js).items():
            _mul_pole(fp, pole_class, j, -e)
        num, den, pi_half = gamma_ratio_doubled(nums, dens)
        assert fp.pi_half == pi_half, (ks, js)
        fp.mul_gamma(1, -pi_half)  # Gamma(1/2) = sqrt(pi)
        assert fp.to_fraction() == Fraction(num, den), (ks, js)
        square = FactoredProduct()
        square *= fp
        square *= fp
        assert square.sqrt_surd() == SurdValue.of_rational(abs(Fraction(num, den))), (ks, js)
        if num < 0:
            with pytest.raises(ArithmeticError, match="negative"):
                fp.sqrt_surd()


def test_unpaired_poles_raise_at_expansion():
    # a pole with no partner, and a factorial pole against a Gamma pole: the two classes
    # carry different multiples of the shift, so they never pair with each other
    lone = FactoredProduct().mul_gamma(-4).mul_factorial(5)
    crossed = FactoredProduct().mul_factorial(-3).mul_gamma(-4, -1)
    for fp in (lone, crossed):
        with pytest.raises(PoleError, match="unpaired"):
            fp.to_fraction()
        with pytest.raises(PoleError, match="unpaired"):
            fp.sqrt_surd()
    # partners in each class: (-3)! / (-2)! = -1/2 and Gamma(-3) / Gamma(-2) = -1/3
    crossed *= FactoredProduct().mul_factorial(-2, -1).mul_gamma(-6)
    assert crossed.to_fraction() == Fraction(1, 6)


def test_factored_products_in_threads_agree():
    def fill():
        fp = FactoredProduct()
        for m in range(0, 400, 7):
            fp.mul_factorial(m, 1 if m % 2 else -2)
            fp.mul_factorial(m + 1).mul_factorial(m, -1)
        fp.mul_gamma(301, 3).mul_gamma(1, -3)
        return fp.to_fraction(), fp.sqrt_surd()

    expected = fill()
    exact._factorial_packed.cache_clear()
    results = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: results.append(fill())) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert results == [expected] * 4


def _naive_primes(limit):
    return [p for p in range(2, limit + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def test_primes_up_to_across_sieve_rebuilds(monkeypatch):
    monkeypatch.setattr(exact, "_SIEVE", (1, ()))
    assert primes_up_to(1) == () and primes_up_to(2) == (2,)
    for limit in (3000, 100, 7919, 7920, 2500):
        assert list(primes_up_to(limit)) == _naive_primes(limit), limit


def test_primes_up_to_is_thread_safe(monkeypatch):
    # four threads grow an empty sieve at once under a tiny switch interval; a prime
    # table extended in place gave duplicated and missing primes here
    expected = _naive_primes(3000)
    for _ in range(5):
        monkeypatch.setattr(exact, "_SIEVE", (1, ()))
        results = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(list(primes_up_to(3000))))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old_interval)
        assert results == [expected] * 4
