"""SO(n) 6j symbols for symmetric representations, exactly.

The symbol factors as a rational core coefficient times a square root assembled from
four triangular normalization factors.  The core coefficient has several equivalent
expansions; ``c_alpha`` looks up the one it is asked for in ``_EVALUATORS``, one
function per method name:

* three production double sums over Pochhammer symbols in the half-sum array
  parameters (methods ``A``, ``B``, ``C``), evaluated in integer arithmetic by the
  one kernel in ``series`` at rank n (the Sp(2n) coefficients use it at rank -2n),
* three factorial-form double sums written directly in the labels, kept as an
  independent test path (methods ``AFactorial``, ``BFactorial``, ``CFactorial``),
* a triple sum (method ``T3``); these four Gamma-product sums share one loop,
  ``_gamma_sum``, and supply only their prefactors and lattice terms,
* one closed form for stretched (e = a + b) and near-stretched (e = a + b - 2)
  label sets (methods ``StretchedE``, ``NearStretchedE``).

Each method multiplies its value by ``_abcdef(labels)``, a positive rational that
``assemble_sixj`` divides back out.  The production path (the prefactors of ``A``,
``B``, ``C`` and of the closed form, ``threej_zero`` and ``assemble_sixj``) forms its
Gamma and factorial products in one ``exact.FactoredProduct`` ledger per call, with
every Gamma argument passed doubled, as an integer.  The series prefactor
(``series_prefactor``) and the squared root block (``root_block_sq``, four squared
triangular factors from ``_nabla_sq``, a bounded cache of one ledger per (rank,
triad)) take the rank N: ``sixj`` calls them at N = n, ``spn.u_sp`` at N = -2n.  The
Gamma-product sums pass their arguments doubled too, but make each lattice term
and the prefactor one call of the check paths' ``exact.gamma_ratio_doubled``, with
one Fraction per nonzero term; they use neither the ledger nor ``series``.

``select_method`` picks the cheapest production evaluation over the symmetry orbit
(a closed form, ``A`` or ``B``; the check paths are never chosen) by a closed-form
rule on the sorted alpha and beta of ``labels.orbit_key``, so it walks none of the
144 row and column permutations.  ``sixj`` ties everything together with a
``functools.lru_cache`` keyed by ``orbit_key`` (sorted alpha, sorted beta, n), one
entry per symmetry orbit.  ``configure_cache``, ``cache_clear`` and ``cache_info``
resize, empty and report that cache.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, perm
from typing import NamedTuple

from .exact import FactoredProduct, ResidualSqrtPiError, SurdValue, gamma_ratio_doubled
from .labels import (
    RArray,
    SixJLabels,
    admissible,
    array_labels,
    canonical_representative,  # unused here; the benchmark's tracer wraps it under this name
    orbit_key,
    require_int_labels,
    require_ints,
    shelepin,
    triangle_ok,
)
from .series import SeriesTable, double_sum, series_table


def _check_n(n: int, allow_n3: bool) -> None:
    if n >= 4:
        return
    if n == 3 and allow_n3:
        return
    raise ValueError(f"n = {n} unsupported (n >= 4, or n = 3 with allow_n3=True, "
                     "the command-line flag --allow-n3)")


# ---------------------------------------------------------------------------
# dimensions and the scalar 3j symbol
# ---------------------------------------------------------------------------

def dim(n: int, l: int) -> int:
    """Dimension of the symmetric representation with label l >= 0 of SO(n), n >= 2."""
    require_ints((("n", n), ("l", l)))
    if n < 2:
        raise ValueError(f"dim needs n >= 2, got n = {n}")
    if l < 0:
        raise ValueError(f"negative label {l}")
    if l == 0:
        return 1
    # (l + n - 3)! / (n - 2)! without expanding either factorial
    return (2 * l + n - 2) * perm(l + n - 3, l - 1) // factorial(l)


def threej_zero(n: int, l1: int, l2: int, l3: int, allow_n3: bool = False) -> SurdValue:
    """The scalar 3j symbol of three symmetric representations; 0 unless triangular."""
    require_ints(zip(("n", "l1", "l2", "l3"), (n, l1, l2, l3)))
    _check_n(n, allow_n3)
    if min(l1, l2, l3) < 0 or not triangle_ok(l1, l2, l3):
        return SurdValue.zero()
    j = (l1 + l2 + l3) // 2
    fp = FactoredProduct()
    fp.mul_factorial(j + n - 3)
    fp.mul_factorial(n - 3, -1)
    fp.mul_gamma(2 * j + n, -1)
    for l in (l1, l2, l3):
        # (2l + n - 2) / (2 dim(n, l)) = l! (n - 2)! / (2 (l + n - 3)!); the 2s are below
        fp.mul_factorial(l)
        fp.mul_factorial(n - 2)
        fp.mul_factorial(l + n - 3, -1)
        fp.mul_gamma(2 * (j - l) + n - 2)
        fp.mul_factorial(j - l, -1)
    fp.mul_factorial(2, -3)  # 2**-3, as 2! = 2
    fp.mul_gamma(n, -2)
    return fp.sqrt_surd()


# ---------------------------------------------------------------------------
# triangular normalization factors
# ---------------------------------------------------------------------------

def _mul_nabla_sq(fp: FactoredProduct, n: int, a: int, b: int, e: int, inverted: bool = False) -> FactoredProduct:
    """Multiply the ledger by a squared triangular factor; inverted flips the first pair."""
    if not triangle_ok(a, b, e):
        raise ValueError(f"triad ({a}, {b}, {e}) violates the triangle condition")
    sgn = -1 if inverted else 1
    fp.mul_factorial((b + e - a) // 2, sgn)
    fp.mul_factorial((a - b + e) // 2, sgn)
    fp.mul_gamma(b + e - a + n - 2, -sgn)
    fp.mul_gamma(a - b + e + n - 2, -sgn)
    fp.mul_factorial((a + b - e) // 2)
    fp.mul_gamma(a + b + e + n)
    fp.mul_gamma(a + b - e + n - 2, -1)
    fp.mul_factorial((a + b + e) // 2 + n - 3, -1)
    return fp


@lru_cache(maxsize=4096)
def _nabla_sq(n: int, a: int, b: int, e: int) -> FactoredProduct:
    """The squared triangular factor of one triad as a ledger; shared, so never mutated."""
    return _mul_nabla_sq(FactoredProduct(), n, a, b, e)


def nabla_tilde_0356(n: int, a: int, b: int, e: int) -> SurdValue:
    """Stretched-basis triangular factor; rational-surd valued only for even n."""
    if n % 2:
        raise ResidualSqrtPiError("odd n leaves pi**(-1/2)")
    return _mul_nabla_sq(FactoredProduct(), n, a, b, e, inverted=True).sqrt_surd()


# ---------------------------------------------------------------------------
# the rational core coefficient
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CAlpha:
    """Core coefficient value with the labels and method that produced it."""

    value: Fraction
    labels: SixJLabels
    method: str
    terms: int = 0


def _abcdef(labels: SixJLabels) -> Fraction:
    n = labels.n
    prod = 1
    for x in labels.six:
        prod *= 2 * x + n - 2
    return Fraction(prod, 64)


def series_prefactor(arr: RArray, table: SeriesTable, rank: int) -> FactoredProduct:
    """The signed prefactor of the table's double series at rank N (2 tau = N - 2), as a ledger.

    At N = n it is finite; at the Sp(2n) rank N = -2n its poles pair in the ledger.
    """
    _, a2, a3, a4 = arr.alpha
    fp = FactoredProduct()
    fp.mul_factorial(table.lead_alpha + rank - 3)
    fp.mul_factorial(rank - 3, -1)
    for m in table.factorials:
        fp.mul_factorial(m, -1)
    for r in table.shifted:
        fp.mul_gamma(2 * r + rank - 2)  # Gamma(r + tau)
    for a in (a2, a3, a4):
        fp.mul_gamma(2 * a + rank, -1)  # Gamma(a + tau + 1)
    fp.mul_gamma(rank, -3)  # Gamma(tau + 1)**-3
    if table.parity:
        fp.sign = -fp.sign
    return fp


def _c_pochhammer(labels: SixJLabels, variant: str) -> tuple[Fraction, int]:
    n = labels.n
    arr = shelepin(labels)
    table = series_table(arr, variant)
    total, terms = double_sum(table, n - 2)
    if total == 0:
        return Fraction(0), terms
    return series_prefactor(arr, table, n).to_fraction() * total * _abcdef(labels), terms


# ---------------------------------------------------------------------------
# Gamma-product sums (independent test path, written in the labels)
# ---------------------------------------------------------------------------

def _gamma_sum(labels: SixJLabels, pre_nums, pre_dens, sign_exp: int, points) -> tuple[Fraction, int]:
    """A Gamma-product series and its prefactor; returns (value, nonzero terms).

    Every Gamma argument is passed doubled, as the integer t of Gamma(t/2).
    ``points`` yields (s, nums, dens) per lattice point, for the term
    (-1)**s * prod Gamma(nums) / prod Gamma(dens).  Each term is one
    ``gamma_ratio_doubled`` call, so its poles follow that function's one rule; a
    zero term is skipped uncounted, and the rest join the sum as one Fraction each
    and must share one sqrt(pi) exponent.  The sum is multiplied by the Gamma ratio
    of ``pre_nums`` over ``pre_dens`` and (n-3)! = Gamma(n-2), by (-1)**sign_exp and
    by ``_abcdef``.
    """
    total = Fraction(0)
    pi_half = terms = 0
    for s, nums, dens in points:
        num, den, p = gamma_ratio_doubled(nums, dens)
        if not num:
            continue
        terms += 1
        if total and p != pi_half:
            raise ResidualSqrtPiError("inconsistent sqrt(pi) exponent across series terms")
        total += Fraction(-num if s % 2 else num, den)
        pi_half = p
    if not total:
        return Fraction(0), terms
    num, den, p = gamma_ratio_doubled(pre_nums, [*pre_dens, 2 * labels.n - 4])
    if num and p + pi_half:
        raise ResidualSqrtPiError(f"residual sqrt(pi)**{p + pi_half}")
    if sign_exp % 2:
        num = -num
    return Fraction(num, den) * total * _abcdef(labels), terms


def _c_factorial_ab(labels: SixJLabels, variant: str) -> tuple[Fraction, int]:
    a, b, e, d, c, f = labels.six
    n = labels.n
    pre_nums = [a + c + f + 2 * n - 4, a + c - f + n - 2, b + e - a + n - 2, a - b + e + n - 2]
    pre_dens = [a + c + f + n, a + c - f + 2, n, n, n, b + e - a + 2, a - b + e + 2]
    sgn_exp = (b + c - e - f) // 2 if variant == "a" else (a - b - c + d) // 2
    z1_lo = max(0, (e + f - b - c) // 2)
    z1_hi = min((a - c + f) // 2, (d + f - b) // 2)
    if variant == "a":
        z2_lo, z2_hi = max(0, (b + c - e - f) // 2), (b + d - f) // 2
    else:
        z2_lo, z2_hi = 0, min((b - d + f) // 2, (c + f - a) // 2)

    def points():
        for z1 in range(2 * z1_lo, 2 * z1_hi + 1, 2):  # z1 and z2 doubled
            for z2 in range(2 * z2_lo, 2 * z2_hi + 1, 2):
                if variant == "a":
                    nums = [b + d - f + n - 2 + z1, a + c - f + 2 + z1, 2 * f + n - 2 - z1,
                            b + c + e - f + n - 2 - z2, d + f - b + n - 2 + z2,
                            a - c + f + n - 2 + z2, z1 + z2 + 2]
                    dens = [z1 + 2, a - c + f + 2 - z1, d + f - b + 2 - z1,
                            b + c - e - f + 2 + z1, b + c + e - f + n + z1, z2 + 2,
                            b + d - f + 2 - z2, a + c - f + n - 2 - z2, e + f - b - c + 2 + z2,
                            2 * f + n + z2, n - 2 + z1 + z2]
                else:
                    nums = [b + d - f + n - 2 + z1, a + c - f + 2 + z1, 2 * f + n - 2 - z1,
                            2 * f + 2 - z1 - z2, b + c - e + f + n - 2 - z2, 2 * f + n - 2 - z2,
                            b + c + e + f + 2 * n - 4 - z2]
                    dens = [z1 + 2, z2 + 2, a - c + f + 2 - z1, b + c - e - f + 2 + z1,
                            d + f - b + 2 - z1, b + c + e - f + n + z1, 2 * f + n - 2 - z1 - z2,
                            b - d + f + 2 - z2, c + f - a + 2 - z2, b + d + f + n - z2,
                            a + c + f + 2 * n - 4 - z2]
                yield (z1 + z2) // 2, nums, dens

    return _gamma_sum(labels, pre_nums, pre_dens, sgn_exp, points())


def _c_factorial_c(labels: SixJLabels) -> tuple[Fraction, int]:
    a, b, e, d, c, f = labels.six
    n = labels.n
    pre_nums = [c + f - a + n - 2, a - c + f + n - 2, b + e - a + n - 2, a - b + e + n - 2]
    pre_dens = [c + f - a + 2, a - c + f + 2, n, n, n, b + e - a + 2, a - b + e + 2]
    abcd = a + b + c - d + n - 2

    def points():
        for z1 in range(0, 2 * min((a + b - e) // 2, (a + c - f) // 2) + 1, 2):  # doubled
            for z2 in range(0, 2 * min((b - d + f) // 2, (c - d + e) // 2) + 1, 2):
                nums = [abcd - z1, 2 * a + 2 - z1, a + b + c + d + 2 * n - 4 - z1,
                        d + f - b + n - 2 + z2, d + e - c + n - 2 + z2, abcd - z2,
                        abcd - n + 4 - z1 - z2]
                dens = [z1 + 2, z2 + 2, a + b - e + 2 - z1, a + b + e + n - z1,
                        a + c - f + 2 - z1, a + c + f + n - z1, b - d + f + 2 - z2,
                        c - d + e + 2 - z2, a - b - c + d + n - 2 + z2, 2 * d + n + z2,
                        abcd - z1 - z2]
                yield (z1 + z2) // 2, nums, dens

    return _gamma_sum(labels, pre_nums, pre_dens, (a + d - e - f) // 2, points())


def _c_triple(labels: SixJLabels) -> tuple[Fraction, int]:
    a, b, e, d, c, f = labels.six
    n = labels.n
    r11 = (a + b - e) // 2
    r13 = (b + d - f) // 2
    r14 = (c + d - e) // 2
    r21 = (a - c + f) // 2
    pre_nums = [a + b + e + 2 * n - 4, a + b - e + n - 2, b + e - a + n - 2, a - b + e + n - 2,
                d - b + f + n - 2]
    pre_dens = [a + c + f + n, a + c - f + 2, n, n, n, b + e - a + 2, a - b + e + 2,
                b - d + f + 2]
    abe = a + b - e + 2

    def points():
        for z3 in range(0, 2 * r11 + 1, 2):  # z1, z2 and z3 doubled
            for z1 in range(2 * max(0, r11 - r14), 2 * min(r21, r11 - z3 // 2) + 1, 2):
                for z2 in range(0, 2 * min(r13, r11 - z3 // 2) + 1, 2):
                    nums = [2 * a + 2 - z1, c + f - a + n - 2 + z1, 2 * b + 2 - z2, abe - z3,
                            2 * a + 2 * b + d - c - e + n - 2 - z1 - z2 - z3,
                            a + b + c + d + 2 * n - 4 - z2, c - d + e + n - 2 + z3]
                    dens = [z1 + 2, z2 + 2, z3 + 2, c + d - a - b + 2 + z1, a - c + f + 2 - z1,
                            b + d - f + 2 - z2, 2 * a + 2 * b + 2 * n - 4 - z1 - z2,
                            abe - z1 - z3, abe - z2 - z3, 2 * e + n + z3,
                            b + d + f + n - z2, abe + n - 4 - z3]
                    yield r11 + (z1 + z2 + z3) // 2, nums, dens

    return _gamma_sum(labels, pre_nums, pre_dens, 0, points())


# ---------------------------------------------------------------------------
# stretched and near-stretched closed forms
# ---------------------------------------------------------------------------

_STRETCHED_NEEDS = ("stretched closed form needs e = a + b",
                    "near-stretched closed form needs e = a + b - 2")


def _c_stretched(labels: SixJLabels, shift: int) -> tuple[Fraction, int]:
    """Closed form at e = a + b - 2 * shift: stretched (shift 0) or near-stretched (1)."""
    arr = shelepin(labels)
    r = arr.r
    if r(1, 1) != shift:
        raise ValueError(_STRETCHED_NEEDS[shift])
    a, b, e, d, c, f = labels.six
    n = labels.n
    a1, a2, a3, _ = arr.alpha
    fp = FactoredProduct()
    for x in (a - shift, b - shift, r(3, 2), r(2, 3), r(3, 4), r(2, 4)):
        fp.mul_gamma(2 * x + n - 2)  # Gamma(x + tau)
    for two_x in (2 * e + n + 2 * shift, 2 * a3 + n, 2 * a2 + n):
        fp.mul_gamma(two_x, -1)
    fp.mul_gamma(n, -3)
    fp.mul_factorial(a1 + n - 3)
    fp.mul_factorial(n - 3, -1)
    for m in (r(1, 4), r(1, 2), r(2, 1), r(1, 3), r(3, 1)):
        fp.mul_factorial(m, -1)
    value = fp.to_fraction() * _abcdef(labels)
    if shift:
        value *= Fraction(
            2 * a * (c + d - e) * (e - c + d + n - 2)
            * ((c + d - e + n - 4) * (b + d - f) * (a + c - f + n - 4)
               - (c + d + e + 2 * n - 4) * (a - c + f) * (b - d + f))
            + (2 * e + n) * (a - c + f) * (c + f - a + n - 2)
            * ((c + d + e + 2 * n - 4) * (b - d + f) * (a - c + f + n - 4)
               - (b + d - f) * (c + d - e) * (a + c - f + n - 4)),
            64)
    return value, 1 + shift


# ---------------------------------------------------------------------------
# public core-coefficient entry point
# ---------------------------------------------------------------------------

_EVALUATORS = {
    "StretchedE": partial(_c_stretched, shift=0),
    "NearStretchedE": partial(_c_stretched, shift=1),
    "A": partial(_c_pochhammer, variant="A"),
    "B": partial(_c_pochhammer, variant="B"),
    "C": partial(_c_pochhammer, variant="C"),
    "T3": _c_triple,
    "AFactorial": partial(_c_factorial_ab, variant="a"),
    "BFactorial": partial(_c_factorial_ab, variant="b"),
    "CFactorial": _c_factorial_c,
}
METHODS = tuple(_EVALUATORS)


def c_alpha(labels: SixJLabels, method: str = "A", allow_n3: bool = False) -> CAlpha:
    """The rational core coefficient by the requested method, at the literal labels."""
    require_int_labels(labels)
    _check_n(labels.n, allow_n3)
    if method not in _EVALUATORS:
        raise ValueError(f"unknown method {method}")
    if not admissible(labels):
        return CAlpha(Fraction(0), labels, method, 0)
    value, terms = _EVALUATORS[method](labels)
    return CAlpha(value, labels, method, terms)


# ---------------------------------------------------------------------------
# method selection over the symmetry orbit, from the orbit key
# ---------------------------------------------------------------------------

class MethodChoice(NamedTuple):
    method: str
    predicted_terms: int
    variant: SixJLabels


def select_method(labels: SixJLabels) -> MethodChoice:
    """Cheapest (method, orbit variant) pair by predicted terms, in closed form.

    Weighs the production methods only: the closed forms, A and B.  C costs what B
    costs, and T3 and the factorial forms are check paths.  On a variant with array
    (alpha, beta), A sums (r11 + 1)(r13 + 1) terms and B (r11 + 1)(r31 + 1); the
    closed forms apply at r11 = 0 (one term) and r11 = 1 (two).  With
    x0 <= x1 <= x2 <= x3 the sorted alpha and y0 <= y1 <= y2 the sorted beta (the
    fields of ``orbit_key``), and r = y0 - x3:

    * r = 0 gives StretchedE (cost 1) and r = 1 NearStretchedE (cost 2), both at
      beta (y0, y1, y2), alpha (x3, x2, x1, x0);
    * otherwise A costs (r + 1)(y0 - x2 + 1) at beta (y0, y1, y2), alpha
      (x3, x1, x2, x0), and B costs (r + 1)(y1 - x3 + 1) at beta (y0, y2, y1),
      alpha (x3, x2, x1, x0); A wins a tie.

    This is the least (cost, method, variant.six) over the orbit.  Every r_ik >= 0,
    so r11 = b1 - a1 >= r; A's cost is least only at b1 = y0, {a1, a3} = {x3, x2},
    and B's only at a1 = x3, {b1, b3} = {y0, y1}.  Among those arrays the labels
    a = a3 + a4 - b3 and b = a2 + a4 - b2 are least at the variants above, so the
    role-swapped ties (a1 = x2 for A, b1 = y1 for B) never win.  With sorted alpha
    and beta, the labels are admissible exactly when r >= 0; r < 0 raises ValueError.
    """
    require_int_labels(labels)
    x0, x1, x2, x3, y0, y1, y2, n = orbit_key(labels)
    r = y0 - x3
    if r < 0:
        raise ValueError(f"label set {labels.six} is not admissible")
    if r < 2:
        return MethodChoice(("StretchedE", "NearStretchedE")[r], r + 1,
                            array_labels((x3, x2, x1, x0), (y0, y1, y2), n))
    cost_a = (r + 1) * (y0 - x2 + 1)
    cost_b = (r + 1) * (y1 - x3 + 1)
    if cost_a <= cost_b:
        return MethodChoice("A", cost_a, array_labels((x3, x1, x2, x0), (y0, y1, y2), n))
    return MethodChoice("B", cost_b, array_labels((x3, x2, x1, x0), (y0, y2, y1), n))


# ---------------------------------------------------------------------------
# assembly of the full symbol
# ---------------------------------------------------------------------------

def root_block_sq(six: tuple[int, ...], rank: int) -> FactoredProduct:
    """The squared root block of labels (a, b, e, d, c, f) at rank N, as a ledger.

    Positive at N = n; at N = -2n its poles pair, and it is negative on about half the sets.
    """
    a, b, e, d, c, f = six
    fp = FactoredProduct()
    for triad in ((a, b, e), (a, c, f), (b, d, f), (c, d, e)):
        fp *= _nabla_sq(rank, *triad)
    fp.mul_factorial(rank - 3, 4)
    fp.mul_gamma(rank, 8)
    return fp


@dataclass(frozen=True)
class SixJValue:
    value: SurdValue
    labels: SixJLabels
    method_used: str
    predicted_terms: int = 0


def assemble_sixj(c_value: Fraction, labels: SixJLabels) -> SurdValue:
    """Combine the rational core with the four triangular factors into the symbol."""
    if c_value == 0:
        return SurdValue.zero()
    # every evaluator multiplies its value by _abcdef(labels) > 0
    return root_block_sq(labels.six, labels.n).sqrt_surd() * (c_value / _abcdef(labels))


DEFAULT_CACHE_SIZE = 65536


def _evaluate(key: tuple) -> tuple[SurdValue, str, int]:
    """(value, method, predicted terms) of the orbit with this ``orbit_key``.

    Evaluates one member rebuilt from the key; every member selects the same method,
    cost and variant.  The callees are module globals looked up on each call, so a
    wrapper put in their place (as perfbench/tracing.py does) sees every miss.
    """
    labels = array_labels(key[:4], key[4:7], key[7])
    choice = select_method(labels)
    ca = c_alpha(choice.variant, choice.method, allow_n3=True)  # sixj() checked n
    return assemble_sixj(ca.value, choice.variant), choice.method, choice.predicted_terms


_cached_evaluate = lru_cache(maxsize=DEFAULT_CACHE_SIZE)(_evaluate)


def configure_cache(maxsize: int) -> None:
    """Replace the value cache (one entry per symmetry orbit) by an empty one of this size."""
    global _cached_evaluate
    _cached_evaluate = lru_cache(maxsize=min(maxsize, sys.maxsize))(_evaluate)


def cache_clear() -> None:
    _cached_evaluate.cache_clear()


def cache_info():
    """Hits, misses, maxsize and current size of the value cache (``functools`` CacheInfo)."""
    return _cached_evaluate.cache_info()


def sixj(labels: SixJLabels, method: str = "auto", allow_n3: bool = False,
         use_cache: bool = True) -> SixJValue:
    """The 6j symbol of SO(n) for symmetric representations.

    With method="auto" the symmetry orbit is scanned for the cheapest evaluation and
    the result is cached under ``orbit_key(labels)``.  A forced method evaluates at
    the literal labels with no reorientation and no caching.
    """
    require_int_labels(labels)
    _check_n(labels.n, allow_n3)
    if not admissible(labels):
        return SixJValue(SurdValue.zero(), labels, "zero", 0)
    if method != "auto":
        ca = c_alpha(labels, method, allow_n3=allow_n3)
        return SixJValue(assemble_sixj(ca.value, labels), labels, method, ca.terms)
    evaluate = _cached_evaluate if use_cache else _evaluate
    value, method_used, terms = evaluate(orbit_key(labels))
    return SixJValue(value, labels, method_used, terms)
