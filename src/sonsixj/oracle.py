"""Independent even-n oracles for the SO(n) 6j symbol.

Two routes that reduce the symbol to SU(2) 6j coefficients:

* ``sixj_via_su2_triple``: a single sum over products of three SU(2) 6j
  coefficients with shifted arguments.
* ``sixj_via_su2_pair``: a single sum over products of two SU(2) 6j
  coefficients against a stretched-basis triangular factor.

The SU(2) 6j itself is computed by the one-sum Racah formula.  The sums are the
oracles' own, but not all of the arithmetic: the Racah formula's triangle factors,
``_prefactor`` and each route's tail fill ``exact.FactoredProduct`` ledgers, as the
production prefactors do; both routes divide by the production ``threej_zero``, and
the pair route also multiplies by ``nabla_tilde_0356``.  The pair route's leading
Gamma and factorial ratio is one ``exact.gamma_ratio_doubled`` call.  All routes are
exact; arguments become quarter-integers for odd n and the shifted SU(2) arguments go
negative below n = 4, so the oracles accept even n >= 4 only.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exact import (
    FactoredProduct,
    SurdValue,
    gamma_ratio_doubled,
)
from .labels import SixJLabels, admissible, require_int_labels
from .sixj import nabla_tilde_0356, threej_zero

HalfInt = Fraction


def su2_6j(j1: HalfInt, j2: HalfInt, j3: HalfInt,
           j4: HalfInt, j5: HalfInt, j6: HalfInt) -> SurdValue:
    """SU(2) 6j coefficient by the Racah single-sum formula; 0 if not coupled."""
    js = [Fraction(j) for j in (j1, j2, j3, j4, j5, j6)]
    if any(j < 0 or (2 * j).denominator != 1 for j in js):
        raise ValueError(f"bad angular momenta {js}")
    return _su2_6j_doubled(*(int(2 * j) for j in js))


def _su2_6j_doubled(j1: int, j2: int, j3: int, j4: int, j5: int, j6: int) -> SurdValue:
    """``su2_6j`` with every angular momentum doubled, summed in integers."""
    if min(j1, j2, j3, j4, j5, j6) < 0:
        raise ValueError(f"bad angular momenta {[Fraction(j, 2) for j in (j1, j2, j3, j4, j5, j6)]}")
    triads = ((j1, j2, j3), (j1, j5, j6), (j4, j2, j6), (j4, j5, j3))
    for a, b, c in triads:
        if (a + b + c) % 2 or not abs(a - b) <= c <= a + b:
            return SurdValue.zero()
    fp = FactoredProduct()
    for a, b, c in triads:
        fp.mul_factorial((a + b - c) // 2)
        fp.mul_factorial((a - b + c) // 2)
        fp.mul_factorial((b + c - a) // 2)
        fp.mul_factorial((a + b + c) // 2 + 1, -1)
    ts = [(a + b + c) // 2 for a, b, c in triads]
    qs = [(j1 + j2 + j4 + j5) // 2, (j2 + j3 + j5 + j6) // 2, (j3 + j1 + j6 + j4) // 2]
    lo, hi = max(ts), min(qs)  # lo <= hi: each q - t is a triangle excess
    # every term's denominator divides this one
    den = 1
    for ti in ts:
        den *= factorial(hi - ti)
    for qi in qs:
        den *= factorial(qi - lo)
    total = 0
    for t in range(lo, hi + 1):
        d = 1
        for ti in ts:
            d *= factorial(t - ti)
        for qi in qs:
            d *= factorial(qi - t)
        term = factorial(t + 1) * den // d
        total += -term if t % 2 else term
    return fp.sqrt_surd() * Fraction(total, den)


def require_even_n(n: int) -> None:
    """The oracle routes take even n >= 4."""
    if n % 2:
        raise ValueError(f"oracle routes need even n (quarter-integer arguments otherwise), got n = {n}")
    if n < 4:
        raise ValueError(f"oracle routes need n >= 4, got n = {n}")


def _prefactor(labels: SixJLabels) -> SurdValue:
    n = labels.n
    fp = FactoredProduct()
    for x in (labels.c, labels.d, labels.e):
        # (2x + n - 2) / dim(n, x) = x! (n - 2)! / (x + n - 3)!
        fp.mul_factorial(x)
        fp.mul_factorial(n - 2)
        fp.mul_factorial(x + n - 3, -1)
    fp.mul_factorial(2, -3)  # 2**-3, as 2! = 2
    return fp.sqrt_surd()


def sixj_via_su2_triple(labels: SixJLabels) -> SurdValue:
    """Oracle: single sum over three SU(2) 6j coefficients (even n)."""
    require_int_labels(labels)
    require_even_n(labels.n)
    if not admissible(labels):
        return SurdValue.zero()
    a, b, e, d, c, f = labels.six
    n = labels.n
    q = n // 2 - 2  # n/4 - 1 and n/2 - 2, doubled
    h = n - 4
    total = SurdValue.zero()
    for lp in range(min(a, b, f) + 1):
        s1 = _su2_6j_doubled(b, f + q, d + q, f + q, b + h, 2 * lp + h)
        if s1.coeff == 0:
            continue
        s2 = _su2_6j_doubled(a, f + q, c + q, f + q, a + h, 2 * lp + h)
        if s2.coeff == 0:
            continue
        s3 = _su2_6j_doubled(a, b + q, e + q, b + q, a + h, 2 * lp + h)
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
    require_even_n(labels.n)
    if not admissible(labels):
        return SurdValue.zero()
    a, b, e, d, c, f = labels.six
    n = labels.n
    q = n // 2 - 2  # n/4 - 1 and n/2 - 2, doubled
    h = n - 4
    total = SurdValue.zero()
    for g in range(e, a + b + 1, 2):
        s1 = _su2_6j_doubled(c + q, a, f + q, b + h, d + q, g + h)
        if s1.coeff == 0:
            continue
        s2 = _su2_6j_doubled(b, a + h, g + h, c + q, d + q, f + q)
        if s2.coeff == 0:
            continue
        # Gamma((g - e + n)/2 - 2) ((g + e)/2 + n - 4)! / (Gamma(n/2 - 2) ((g - e)/2)!
        # ((g + e + n)/2 - 1)!), rational at even n; each v! is passed as Gamma(v + 1)
        num, den, _ = gamma_ratio_doubled([g - e + n - 4, g + e + 2 * n - 6],
                                          [n - 4, g - e + 2, g + e + n])
        if num == 0:
            continue
        lead = Fraction(num * (g + n - 3), den)
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
