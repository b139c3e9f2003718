"""Exact arithmetic layer: gamma values, pochhammers, surds, factored products."""

import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sonsixj import exact
from sonsixj.exact import (
    FactoredProduct,
    GammaExact,
    PoleError,
    RadicandMismatchError,
    ResidualSqrtPiError,
    SurdValue,
    factor_int,
    gamma_doubled,
    gamma_exact,
    gamma_ratio_doubled,
    gamma_ratio_product,
    pochhammer,
    primes_up_to,
    squarefree_decompose,
    surd_normalize,
)


# ---------------------------------------------------------------------------
# gamma at half-integer arguments
# ---------------------------------------------------------------------------

def test_gamma_integer_values():
    assert gamma_exact(1) == GammaExact(Fraction(1), 0)
    assert gamma_exact(4) == GammaExact(Fraction(6), 0)
    assert gamma_exact(7) == GammaExact(Fraction(720), 0)


def test_gamma_half_integer_values():
    assert gamma_exact(Fraction(1, 2)) == GammaExact(Fraction(1), 1)
    assert gamma_exact(Fraction(7, 2)) == GammaExact(Fraction(15, 8), 1)
    assert gamma_exact(Fraction(-1, 2)) == GammaExact(Fraction(-2), 1)
    assert gamma_exact(Fraction(-3, 2)) == GammaExact(Fraction(4, 3), 1)


def test_gamma_pole_raises():
    with pytest.raises(PoleError):
        gamma_exact(0)
    with pytest.raises(PoleError):
        gamma_exact(-3)


def test_gamma_residual_sqrtpi_raises():
    with pytest.raises(ResidualSqrtPiError):
        gamma_exact(Fraction(1, 2)).to_rational()
    assert gamma_exact(3).to_rational() == 2


@given(st.integers(min_value=-19, max_value=19).filter(lambda m: m % 2 or m > 0))
def test_gamma_recurrence(m):
    # Gamma(x + 1) = x Gamma(x) away from the poles.
    x = Fraction(m, 2)
    lhs = gamma_exact(x + 1)
    rhs = gamma_exact(x) * x
    assert lhs == rhs


def _gamma_by_recurrence(t: int) -> GammaExact:
    """Gamma(t/2) from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) by x Gamma(x) = Gamma(x + 1)."""
    odd = t % 2
    x = Fraction(1, 2) if odd else Fraction(1)
    value = GammaExact(Fraction(1), odd)
    while 2 * x < t:
        value = value * x
        x += 1
    while 2 * x > t:
        x -= 1
        value = value / x
    return value


@pytest.mark.parametrize("t", [t for t in range(-81, 82) if t > 0 or t % 2])
def test_gamma_doubled_matches_gamma_exact(t):
    num, den, pi_half = gamma_doubled(t)
    assert den > 0 and math.gcd(num, den) == 1 and pi_half == t % 2
    assert GammaExact(Fraction(num, den), pi_half) == gamma_exact(Fraction(t, 2))
    assert GammaExact(Fraction(num, den), pi_half) == _gamma_by_recurrence(t)


@pytest.mark.parametrize("t", range(-80, 1, 2))
def test_gamma_doubled_poles_raise(t):
    with pytest.raises(PoleError, match=f"gamma pole at {t // 2}$"):
        gamma_doubled(t)


def test_gamma_ratio_doubled_matches_gamma_ratio_product():
    cases = [([5, -1], [3]), ([-4], [-2, 7]), ([2], [-2]), ([-3, 1], [-5, 9, 4])]
    for nums, dens in cases:
        num, den, pi_half = gamma_ratio_doubled(nums, dens)
        assert den > 0
        want = gamma_ratio_product([Fraction(t, 2) for t in nums], [Fraction(t, 2) for t in dens])
        assert GammaExact(Fraction(num, den), pi_half) == want


# ---------------------------------------------------------------------------
# pole pairing in gamma ratios
# ---------------------------------------------------------------------------

def test_gamma_ratio_pole_pair():
    # one numerator pole against one denominator pole: (-1)**(x-y) * y!/x!
    assert gamma_ratio_product([-2], [-4]).to_rational() == 12
    assert gamma_ratio_product([-4], [-2]).to_rational() == Fraction(1, 12)
    assert gamma_ratio_product([-1], [-2]) == GammaExact(Fraction(-2), 0)


def test_gamma_ratio_pole_surplus():
    # extra denominator pole kills the product; extra numerator pole is an error
    assert gamma_ratio_product([1], [-3]).is_zero()
    with pytest.raises(PoleError):
        gamma_ratio_product([-3], [1])


def test_gamma_ratio_pairing_independence():
    # two poles on each side: value must not depend on who pairs with whom
    v = gamma_ratio_product([-1, -4], [-2, -3]).to_rational()
    assert v == Fraction(1, 2)
    assert gamma_ratio_product([-4, -1], [-3, -2]).to_rational() == v


def test_gamma_ratio_mixed_regular_and_poles():
    v = gamma_ratio_product([Fraction(7, 2), -2], [Fraction(1, 2), -4])
    assert v.to_rational() == Fraction(15, 8) * 12


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10),
)
def test_pochhammer_as_gamma_ratio(m, k):
    a = Fraction(m, 2)
    assert gamma_ratio_product([a + k], [a]).to_rational() == pochhammer(a, k)


# ---------------------------------------------------------------------------
# pochhammer variants
# ---------------------------------------------------------------------------

def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(5, 0) == 1
    assert pochhammer(-3, 5) == 0
    with pytest.raises(ValueError):
        pochhammer(1, -1)


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
    fp.mul_int(7, 2)
    fp.mul_int(3)
    fp.mul_int(2, -2)
    assert fp.to_fraction() == Fraction(120 * 49 * 3, 4)


def test_factored_product_sqrt_surd():
    fp = FactoredProduct()
    fp.mul_int(18)
    assert fp.sqrt_surd() == surd_normalize(3, 2)
    fp2 = FactoredProduct()
    fp2.mul_int(3, 2)
    fp2.mul_int(2, -2)
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
        expected = GammaExact(Fraction(1))
        for _ in range(abs(e)):
            g = gamma_exact(Fraction(two_x, 2))
            expected = expected * g if e > 0 else expected / g
        assert fp.pi_half == expected.sqrtpi_exp, two_x
        fp.mul_gamma(1, -fp.pi_half)  # Gamma(1/2) = sqrt(pi)
        assert fp.to_fraction() == expected.coeff, two_x


def test_factored_product_rejects_nonpositive_factors():
    for two_x in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            FactoredProduct().mul_gamma(two_x)
    for v in (0, -1, -6):
        with pytest.raises(ValueError):
            FactoredProduct().mul_int(v)
        with pytest.raises(ValueError):
            FactoredProduct().mul_int(v, -1)


def test_factored_product_large_int_factor_leaves_the_sieve():
    # mul_int factors join the exponents only on expansion, so 1000003 grows no sieve
    primes_up_to(1000)
    bound = exact._SIEVE[0]
    fp = FactoredProduct().mul_factorial(30).mul_int(2 * 1000003).mul_int(6, -1)
    assert fp.to_fraction() == Fraction(math.factorial(30) * 2 * 1000003, 6)
    fp.mul_int(1000003)
    assert fp.sqrt_surd() == surd_normalize(1000003, Fraction(math.factorial(30), 3))
    assert exact._SIEVE[0] == bound


def test_factored_products_in_threads_agree():
    def fill():
        fp = FactoredProduct()
        for m in range(0, 400, 7):
            fp.mul_factorial(m, 1 if m % 2 else -2)
            fp.mul_int(m + 1)
        fp.mul_gamma(301, 3).mul_gamma(1, -3)
        return fp.to_fraction(), fp.sqrt_surd()

    expected = fill()
    exact._factorial_exponents.cache_clear()
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
