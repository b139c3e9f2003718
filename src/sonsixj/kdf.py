"""Terminating double hypergeometric series layer.

The rational core coefficient divided by the six-label product admits six
parameterizations as a terminating Kampe de Feriet-type series

    F = sum_{s,t} (a1)_{s+t} / (s! t! (c1)_{s+t})
        * prod_i (b_i)_s (b'_i)_t / prod_j (d_j)_s (d'_j)_t * x^s y^t

with four upper and three lower parameters per axis, at x = y = 1.  This module
is a verification layer over the production double sums: it evaluates the
series generically, generates the six parameter sets with their prefactors,
validates the linear dependencies between parameters, and checks the formal
label-reflection maps that permute the six parameterizations.

The arithmetic is its own: the parameters are formed as doubled integers, the
series sums integer Pochhammer rows over one denominator, and each prefactor is
one ``exact.gamma_ratio_doubled`` call over its Gamma and factorial arguments; none
of it comes from the production ledger or ``series``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact import PoleError, ResidualSqrtPiError, gamma_ratio_doubled
from .labels import SixJLabels, admissible, reflect_labels, require_int_labels, shelepin

VARIANTS = ("1a", "1b", "2a", "2b", "3a", "3b")
DEPENDENCY_FAMILY = {"1a": "bala", "2a": "bala", "3b": "bala",
                     "1b": "balb", "2b": "balb", "3a": "balb"}


class IndefinitePrefactorError(ValueError):
    """A prefactor factorial or gamma argument left the definable domain."""


@dataclass(frozen=True)
class KdFParams:
    a1: Fraction
    c1: Fraction
    b: tuple[Fraction, Fraction, Fraction, Fraction]
    d: tuple[Fraction, Fraction, Fraction]
    b_prime: tuple[Fraction, Fraction, Fraction, Fraction]
    d_prime: tuple[Fraction, Fraction, Fraction]
    x: Fraction = field(default_factory=lambda: Fraction(1))
    y: Fraction = field(default_factory=lambda: Fraction(1))


def _nonpositive_int(u) -> bool:
    """u, an int or a Fraction, is an integer <= 0."""
    return u.denominator == 1 and u.numerator <= 0


def _axis_max(uppers) -> int:
    """Largest summation index allowed by the nonpositive-integer uppers."""
    stops = [-u.numerator for u in uppers if _nonpositive_int(u)]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive integer upper parameter")
    return min(stops)


def _pochhammer_row(uppers, lowers, top: int, x=1) -> tuple[list[int], int]:
    """prod (u)_k / prod (l)_k * x**k for k = 0..top, as integer weights over one denominator.

    Returns ([w_0, ..., w_top], den) with the k-th value w_k / den.  Each parameter
    is an int or a Fraction, read as numerator and denominator (a half-integer's is
    its doubled value over 2); no lower (l)_k may vanish for k <= top.
    """
    nums = [1]
    dens = [1]
    num = den = 1
    for k in range(top):
        for u in uppers:
            num *= u.numerator + k * u.denominator
            den *= u.denominator
        for v in lowers:
            num *= v.denominator
            den *= v.numerator + k * v.denominator
        num *= x.numerator
        den *= x.denominator
        nums.append(num)
        dens.append(den)
    # each den divides the last: it is a prefix of the same product
    return [w * (den // d) for w, d in zip(nums, dens)], den


def kdf_eval(p: KdFParams) -> Fraction:
    """Evaluate the terminating series exactly.

    Each axis and the coupled (a1)_{s+t} / (c1)_{s+t} become one integer row over a
    common denominator, so the double sum runs in integers and one Fraction is made.
    """
    smax = _axis_max(p.b)
    tmax = _axis_max(p.b_prime)
    for dj in p.d:
        if _nonpositive_int(dj) and -dj.numerator < smax:
            raise PoleError(f"denominator parameter {dj} vanishes inside the s-rectangle")
    for dj in p.d_prime:
        if _nonpositive_int(dj) and -dj.numerator < tmax:
            raise PoleError(f"denominator parameter {dj} vanishes inside the t-rectangle")
    if _nonpositive_int(p.c1) and -p.c1.numerator < smax + tmax:
        raise PoleError(f"coupled denominator parameter {p.c1} vanishes inside the rectangle")
    srow, sden = _pochhammer_row(p.b, (*p.d, 1), smax, p.x)  # the lower 1 gives s!
    trow, tden = _pochhammer_row(p.b_prime, (*p.d_prime, 1), tmax, p.y)
    crow, cden = _pochhammer_row((p.a1,), (p.c1,), smax + tmax)
    total = sum(w * sum(map(mul, trow, crow[s:])) for s, w in enumerate(srow))
    return Fraction(total, sden * tden * cden)


def _series_params(six: tuple[int, ...], n: int, variant: str) -> KdFParams:
    """Parameter lists from (possibly formal, negative) labels.

    Every quantity is formed doubled, as an integer, and halved into a Fraction
    once at the end; h(x) = x + n - 2 is 2 (x/2 + tau).
    """
    a, b, e, d, c, f = six
    al = [c + d + e, b + d + f, a + c + f, a + b + e]
    be = [a + b + c + d, a + d + e + f, b + c + e + f]
    (r11, r12, r13, r14), (r21, r22, r23, r24), (r31, r32, r33, r34) = (
        tuple(bi - ak for ak in al) for bi in be)
    a1_, a2_, a3_, a4_ = al
    b1_, b2_, b3_ = be

    def h(x):
        return x + n - 2

    if variant == "1a":
        a1 = b2_ - b1_ + 2
        c1 = h(b2_) - b1_
        bb = (-r11, -r14, h(r23), r22 + 2)
        dd = (a1, h(a4_) - r11 + 2, -h(r34) - r11 + 2)
        bp = (h(r21), h(r24), -r13, -h(r12) + 2)
        dp = (a1, -h(r32) - r13 + 2, h(a2_) - r13 + 2)
    elif variant == "1b":
        a1 = -r11 - h(r23) + 2
        c1 = -r11 - r23
        bb = (-r11, -r21, -h(a4_), h(r34))
        dd = (a1, a1_ - a4_ + 2, -r11 - r22)
        bp = (-r23, -r13, h(r32), -h(a2_))
        dp = (a1, -r13 - h(r24) + 2, h(a3_) - a2_)
    elif variant == "2a":
        a1 = -h(r34) - r11 + 2
        c1 = -r34 - r11
        bb = (-r11, -r14, h(r23), r22 + 2)
        dd = (a1, b2_ - b1_ + 2, h(a4_) - r11 + 2)
        bp = (-r34, -r31, -h(a2_), -a3_ - 2 * n + 6)
        dp = (-h(r14) - r31 + 2, -h(r24) - r31 + 2, -b3_ - 2 * n + 6)
    elif variant == "2b":
        a1 = a1_ - a4_ + 2
        c1 = h(a1_) - a4_
        bb = (-r11, -r21, h(r34), -h(a4_))
        dd = (a1, -r11 - h(r23) + 2, -r11 - r22)
        bp = (h(r14), h(r24), -r31, a1_ + 2 * n - 4)
        dp = (a1, h(a2_) - r31 + 2, a3_ - r31 + 2 * n - 4)
    elif variant == "3a":
        a1 = -h(r32) - r11 + 2
        c1 = -r32 - r11
        bb = (-r11, -r12, -h(a3_), -h(a4_))
        dd = (a1, -b1_ - 2 * n + 6, -r11 - r22)
        bp = (-r32, -r31, h(r24), h(r23))
        dp = (a1, h(a2_) - r31 + 2, h(b2_) - b3_)
    elif variant == "3b":
        a1 = a1_ - a2_ + 2
        c1 = h(a1_) - a2_
        bb = (-r11, h(r32), a1_ + 2 * n - 4, r22 + 2)
        dd = (a1, h(a3_) - r11 + 2, h(a4_) - r11 + 2)
        bp = (h(r12), -r31, -h(a2_), -h(r21) + 2)
        dp = (a1, -h(r24) - r31 + 2, -h(r23) - r31 + 2)
    else:
        raise ValueError(f"unknown variant {variant}")
    halve = lambda t: tuple(Fraction(v, 2) for v in t)
    return KdFParams(Fraction(a1, 2), Fraction(c1, 2), halve(bb), halve(dd),
                     halve(bp), halve(dp))


def _prefactor(labels: SixJLabels, variant: str) -> Fraction:
    """The variant's prefactor as one ``gamma_ratio_doubled`` call.

    Factorials are listed by plain integer v and join the ratio as Gamma(v + 1),
    doubled 2v + 2; every Gamma argument is doubled (upper-case names, h(X) = X + n - 2
    is 2 (x + tau)).  A pole among the arguments, a factorial of a negative integer
    included, raises IndefinitePrefactorError; the powers of sqrt(pi) must cancel,
    ResidualSqrtPiError if they do not.
    """
    n = labels.n
    arr = shelepin(labels)
    r = arr.r
    a1_, a2_, a3_, a4_ = arr.alpha
    b1_, b2_, b3_ = arr.beta
    A2, A3, A4 = 2 * a2_, 2 * a3_, 2 * a4_
    A1, B1, B2, B3 = 2 * a1_, 2 * b1_, 2 * b2_, 2 * b3_

    def R(i, k):
        return 2 * r(i, k)

    def h(x):
        return x + n - 2

    if variant == "1a":
        sgn_exp = 0
        fnums = [a3_ + n - 3]
        fdens = [r(1, 1), r(1, 2), r(1, 3), r(1, 4), r(3, 3), b2_ - b1_]
        gnums = [h(R(2, 1)), h(R(2, 2)), h(R(2, 3)), h(R(2, 4)), h(R(3, 3)),
                 h(R(3, 4)) + R(1, 1), h(R(3, 2)) + R(1, 3)]
        gdens = [h(A3) + 2, h(B2) - B1, h(A2) - R(1, 3) + 2, h(A4) - R(1, 1) + 2]
    elif variant == "1b":
        sgn_exp = a1_ - a3_
        fnums = [a3_ + n - 3, r(1, 1) + r(2, 2), r(1, 1) + r(2, 3)]
        fdens = [r(1, 1), r(1, 2), r(1, 3), r(2, 1), r(2, 2), r(2, 3), r(3, 3),
                 a1_ - a4_]
        gnums = [h(R(1, 2)), h(R(2, 2)), h(R(3, 2)), h(R(3, 3)), h(R(3, 4)),
                 R(1, 3) + h(R(2, 4)), R(1, 1) + h(R(2, 3))]
        gdens = [h(A2) + 2, h(A3) + 2, h(A4) + 2, h(A3) - A2]
    elif variant == "2a":
        sgn_exp = b1_ - b3_
        fnums = [r(3, 4) + r(1, 1), b3_ + n - 3]
        fdens = [r(1, 1), r(1, 2), r(1, 4), r(3, 1), r(3, 3), r(3, 4), b2_ - b1_]
        gnums = [h(R(1, 2)), h(R(2, 2)), h(R(2, 3)), h(R(3, 3)),
                 h(R(2, 4)) + R(3, 1), h(R(3, 4)) + R(1, 1)]
        gdens = [h(A2) + 2, h(A3) + 2, h(A4) - R(1, 1) + 2]
    elif variant == "2b":
        sgn_exp = 0
        fnums = [a1_ + n - 3, a3_ + n - 3, r(1, 1) + r(2, 2)]
        fdens = [r(1, 1), r(1, 2), r(2, 1), r(2, 2), r(3, 1), r(3, 3),
                 a3_ - r(3, 1) + n - 3, a1_ - a4_]
        gnums = [h(R(1, 2)), h(R(1, 4)), h(R(2, 2)), h(R(2, 4)), h(R(3, 3)),
                 h(R(3, 4)), R(1, 1) + h(R(2, 3))]
        gdens = [h(A3) + 2, h(A4) + 2, h(A1) - A4, h(A2) - R(3, 1) + 2]
    elif variant == "3a":
        sgn_exp = b1_ - b3_
        fnums = [b1_ + n - 3, r(1, 1) + r(2, 2), r(1, 1) + r(3, 2)]
        fdens = [r(1, 1), r(1, 2), r(2, 1), r(2, 2), r(3, 1), r(3, 2), r(3, 3),
                 r(3, 4)]
        gnums = [h(R(2, 1)), h(R(2, 2)), h(R(2, 3)), h(R(2, 4)), h(R(3, 3)),
                 h(R(3, 4)), h(R(3, 2)) + R(1, 1)]
        gdens = [h(A3) + 2, h(A4) + 2, h(A2) - R(3, 1) + 2, h(B2) - B3]
    elif variant == "3b":
        sgn_exp = 0
        fnums = [a1_ + n - 3]
        fdens = [r(1, 1), r(2, 1), r(3, 1), r(3, 3), r(3, 4), a1_ - a2_]
        gnums = [h(R(1, 2)), h(R(2, 2)), h(R(3, 2)), h(R(3, 3)), h(R(3, 4)),
                 h(R(2, 3)) + R(3, 1), h(R(2, 4)) + R(3, 1)]
        gdens = [h(A2) + 2, h(A3) - R(1, 1) + 2, h(A4) - R(1, 1) + 2,
                 h(A1) - A2]
    else:
        raise ValueError(f"unknown variant {variant}")

    nums = gnums + [2 * v + 2 for v in fnums]
    dens = gdens + [2 * v + 2 for v in fdens] + [2 * n - 4, n, n, n]  # (n-3)! Gamma(n/2)**3
    for t in nums + dens:
        if t <= 0 and t % 2 == 0:
            raise IndefinitePrefactorError(f"gamma at {t // 2} in variant {variant} prefactor")
    num, den, pi_half = gamma_ratio_doubled(nums, dens)
    if pi_half != 0:
        raise ResidualSqrtPiError(f"residual sqrt(pi)**{pi_half}")
    return Fraction(-num if sgn_exp % 2 else num, den)


def kdf_params_for(labels: SixJLabels, variant: str) -> tuple[KdFParams, Fraction]:
    """Series parameters and prefactor for one of the six parameterizations."""
    if not admissible(labels):
        raise ValueError(f"labels {labels} not admissible")
    if labels.n < 3:
        raise ValueError(f"KdF series need n >= 3, got n = {labels.n}")
    pre = _prefactor(labels, variant)
    return _series_params(labels.six, labels.n, variant), pre


def kdf_c_alpha(labels: SixJLabels, variant: str) -> Fraction:
    """Core coefficient via a series parameterization (cross-check path)."""
    require_int_labels(labels)
    params, pre = kdf_params_for(labels, variant)
    series = kdf_eval(params)
    n = labels.n
    prod = 1
    for x in labels.six:
        prod *= 2 * x + n - 2
    return pre * series * Fraction(prod, 64)


def check_balance(p: KdFParams, n: int | None = None) -> bool:
    """Both series axes balanced, with the documented common value."""
    lhs = p.c1 - p.a1
    s_axis = 1 + sum(p.b) - sum(p.d)
    t_axis = 1 + sum(p.b_prime) - sum(p.d_prime)
    if lhs != s_axis or lhs != t_axis:
        return False
    return n is None or lhs == Fraction(n, 2) - 2


def check_dependencies(p: KdFParams, family: str) -> bool:
    """Linear relations among parameters for the stated family."""
    a1 = p.a1
    if not (p.d[0] == a1 and p.d_prime[0] == a1):
        return False
    # c1 - a1 is tau - 1, so n is recoverable from the parameters themselves
    n4 = p.c1 - a1 + 2  # equals n/2, as a Fraction
    n = 2 * n4
    if family == "bala":
        for j in (1, 2):
            if p.d[j] + p.d_prime[j] != a1 + 1:
                return False
        for i in (0, 1, 2):
            if p.b[i] + p.b_prime[i] != p.c1:
                return False
        return p.b[3] + p.b_prime[3] == p.c1 - n + 4
    if family == "balb":
        if p.d[1] + p.d_prime[1] != a1 + 1:
            return False
        if p.d[2] + p.d_prime[2] != a1 + n - 3:
            return False
        return all(p.b[i] + p.b_prime[i] == p.c1 for i in range(4))
    raise ValueError(f"unknown dependency family {family}")


# Formal label substitutions x -> -x - n + 2 relating the six parameterizations:
# single reflections pair (1a,2a) and (1b,2b); the three-label reflection pairs
# (1a,3b) and (1b,3a).  Self-pairs record which single reflection fixes a variant.
_REFLECTION_FOR_PAIR = {
    ("1a", "2a"): "f", ("2a", "1a"): "f",
    ("1b", "2b"): "d", ("2b", "1b"): "d",
    ("1a", "3b"): "cdf", ("3b", "1a"): "cdf",
    ("1b", "3a"): "cdf", ("3a", "1b"): "cdf",
    ("1a", "1a"): "d", ("2a", "2a"): "d", ("3b", "3b"): "d",
    ("1b", "1b"): "f", ("2b", "2b"): "f", ("3a", "3a"): "f",
}


def _param_key(p: KdFParams, swap_axes: bool = False):
    if swap_axes:
        return (p.a1, p.c1, tuple(sorted(p.b_prime)), tuple(sorted(p.d_prime)),
                tuple(sorted(p.b)), tuple(sorted(p.d)))
    return (p.a1, p.c1, tuple(sorted(p.b)), tuple(sorted(p.d)),
            tuple(sorted(p.b_prime)), tuple(sorted(p.d_prime)))


def hook_reflection_map_check(labels: SixJLabels, pair: tuple[str, str]) -> bool:
    """True iff the source variant at reflected labels matches the target at the originals.

    Matching is at the level of parameter multisets, allowing the primed and
    unprimed axes to interchange (a symmetry of the series itself).
    """
    sub = _REFLECTION_FOR_PAIR.get((pair[0], pair[1]))
    if sub is None:
        raise ValueError(f"undocumented variant pair {pair}")
    reflected = reflect_labels(labels, sub)
    src = _series_params(reflected.six, labels.n, pair[0])
    dst = _series_params(labels.six, labels.n, pair[1])
    want = _param_key(dst)
    return _param_key(src) == want or _param_key(src, swap_axes=True) == want
