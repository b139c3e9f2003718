"""Independent even-n oracles for the SO(n) 6j symbol.

Two routes that share nothing with the production evaluators:

* ``sixj_via_su2_triple``: a single sum over products of three SU(2) 6j
  coefficients with shifted arguments.
* ``sixj_via_su2_pair``: a single sum over products of two SU(2) 6j
  coefficients against a stretched-basis triangular factor.

The SU(2) 6j itself is computed by the one-sum Racah formula.  All routes are
exact; arguments become quarter-integers for odd n, so the oracles accept even
n only.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import (
    FactoredProduct,
    SurdValue,
    gamma_ratio_product,
    is_half_integer,
)
from .labels import SixJLabels, admissible, require_int_labels
from .sixj import nabla_tilde_0356, threej_zero

HalfInt = Fraction


def _su2_triangle_ok(a: HalfInt, b: HalfInt, c: HalfInt) -> bool:
    if (a + b + c).denominator != 1:
        return False
    return abs(a - b) <= c <= a + b


def su2_6j(j1: HalfInt, j2: HalfInt, j3: HalfInt,
           j4: HalfInt, j5: HalfInt, j6: HalfInt) -> SurdValue:
    """SU(2) 6j coefficient by the Racah single-sum formula; 0 if not coupled."""
    js = [Fraction(j) for j in (j1, j2, j3, j4, j5, j6)]
    if any(j < 0 or not is_half_integer(j) for j in js):
        raise ValueError(f"bad angular momenta {js}")
    j1, j2, j3, j4, j5, j6 = js
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    if not all(_su2_triangle_ok(*t) for t in triads):
        return SurdValue.zero()
    fp = FactoredProduct()
    for a, b, c in triads:
        fp.mul_factorial(int(a + b - c))
        fp.mul_factorial(int(a - b + c))
        fp.mul_factorial(int(-a + b + c))
        fp.mul_factorial(int(a + b + c) + 1, -1)
    ts = [int(sum(t)) for t in triads]
    qs = [int(j1 + j2 + j4 + j5), int(j2 + j3 + j5 + j6), int(j3 + j1 + j6 + j4)]
    total = Fraction(0)
    for t in range(max(ts), min(qs) + 1):
        term = Fraction(factorial(t + 1))
        for ti in ts:
            term /= factorial(t - ti)
        for qi in qs:
            term /= factorial(qi - t)
        total += -term if t % 2 else term
    return fp.sqrt_surd() * total


def _check_even_n(labels: SixJLabels) -> None:
    if labels.n % 2:
        raise ValueError("oracle routes need even n (quarter-integer arguments otherwise)")


def _prefactor(labels: SixJLabels) -> SurdValue:
    n = labels.n
    fp = FactoredProduct()
    for x in (labels.c, labels.d, labels.e):
        # (2x + n - 2) / dim(n, x) = x! (n - 2)! / (x + n - 3)!
        fp.mul_factorial(x)
        fp.mul_factorial(n - 2)
        fp.mul_factorial(x + n - 3, -1)
    fp.mul_int(2, -3)
    return fp.sqrt_surd()


def sixj_via_su2_triple(labels: SixJLabels) -> SurdValue:
    """Oracle: single sum over three SU(2) 6j coefficients (even n)."""
    require_int_labels(labels)
    _check_even_n(labels)
    if not admissible(labels):
        return SurdValue.zero()
    a, b, e, d, c, f = labels.six
    n = labels.n
    q = Fraction(n, 4) - 1
    h = Fraction(n, 2) - 2
    total = SurdValue.zero()
    for lp in range(min(a, b, f) + 1):
        s1 = su2_6j(Fraction(b, 2), Fraction(f, 2) + q, Fraction(d, 2) + q,
                    Fraction(f, 2) + q, Fraction(b, 2) + h, lp + h)
        if s1.coeff == 0:
            continue
        s2 = su2_6j(Fraction(a, 2), Fraction(f, 2) + q, Fraction(c, 2) + q,
                    Fraction(f, 2) + q, Fraction(a, 2) + h, lp + h)
        if s2.coeff == 0:
            continue
        s3 = su2_6j(Fraction(a, 2), Fraction(b, 2) + q, Fraction(e, 2) + q,
                    Fraction(b, 2) + q, Fraction(a, 2) + h, lp + h)
        if s3.coeff == 0:
            continue
        tail = FactoredProduct()
        tail.mul_factorial(lp)
        tail.mul_factorial(n - 3)
        tail.mul_factorial(lp + n - 4, -1)
        term = s1 * s2 * s3 * tail.sqrt_surd() * (2 * lp + n - 3)
        if ((c + d - e) // 2 + f + n + lp) % 2:
            term = -term
        total = total + term
    return _prefactor(labels) * total / threej_zero(n, c, d, e)


def sixj_via_su2_pair(labels: SixJLabels, reinstate_phase: bool = False) -> SurdValue:
    """Oracle: single sum over two SU(2) 6j coefficients (even n).

    reinstate_phase injects a sign (-1)**((g-e)/2) that does NOT belong in this
    route; it exists so tests can confirm the comparison has teeth.
    """
    require_int_labels(labels)
    _check_even_n(labels)
    if not admissible(labels):
        return SurdValue.zero()
    a, b, e, d, c, f = labels.six
    n = labels.n
    q = Fraction(n, 4) - 1
    h = Fraction(n, 2) - 2
    total = SurdValue.zero()
    for g in range(e, a + b + 1, 2):
        s1 = su2_6j(Fraction(c, 2) + q, Fraction(a, 2), Fraction(f, 2) + q,
                    Fraction(b, 2) + h, Fraction(d, 2) + q, Fraction(g, 2) + h)
        if s1.coeff == 0:
            continue
        s2 = su2_6j(Fraction(b, 2), Fraction(a, 2) + h, Fraction(g, 2) + h,
                    Fraction(c, 2) + q, Fraction(d, 2) + q, Fraction(f, 2) + q)
        if s2.coeff == 0:
            continue
        gfac = gamma_ratio_product([Fraction(g - e + n, 2) - 2], [Fraction(n, 2) - 2])
        if gfac.is_zero():
            continue
        lead = (gfac.to_rational() * (g + n - 3) * factorial((g + e) // 2 + n - 4)
                / (factorial((g - e) // 2) * factorial((g + e + n) // 2 - 1)))
        tail = FactoredProduct()
        tail.mul_factorial((a - b + g) // 2)
        tail.mul_factorial((b - a + g) // 2)
        tail.mul_factorial(n - 3)
        tail.mul_factorial((a - b + g) // 2 + n - 4, -1)
        tail.mul_factorial((b - a + g) // 2 + n - 4, -1)
        term = s1 * s2 * tail.sqrt_surd() * lead
        if reinstate_phase and ((g - e) // 2) % 2:
            term = -term
        total = total + term
    pre = _prefactor(labels) * nabla_tilde_0356(n, a, b, e)
    return pre * total / threej_zero(n, c, d, e)
