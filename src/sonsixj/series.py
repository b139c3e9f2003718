"""The core double series of the 6j-symbol, one kernel at rank n and at rank -2n.

Each production method (``A``, ``B``, ``C``) is a terminating double sum

    sum_{x1=0}^{m1} sum_{x2=0}^{m2} (-1)**(x1+x2) C(m1, x1) C(m2, x2)
        prod_{u in up1} (u)_{x1} prod_{v in down1} (v)_{m1-x1}
        prod_{u in up2} (u)_{x2} prod_{v in down2} (v)_{m2-x2}
        (p + s x2)_{x1} (q - s x2)_{m1-x1}

over the half-sum array.  Every Pochhammer argument is an integer plus a
multiple of tau, so a method is a table of (integer, tau coefficient) pairs.
SO(n) has 2 tau = n - 2; the Sp(2n) series are the same tables continued to
the formal rank -2n, 2 tau = -2n - 2.

Arguments are kept doubled, 2 (p + c tau) = 2p + c (2 tau), so every row is an
integer.  When 2 tau is even they are halved back and the terms are the exact
integers; when 2 tau is odd every term carries the same power of two, 2**(4 m1
+ 2 m2), and the sum is divided by it once at the end.

``double_sum`` sums each x2 row over x1 by Horner's rule on the rising coupling
row (p + s x2)_{x1}, so a lattice point costs one large product, and counts the
nonzero terms from where the rows first vanish.  ``termwise`` yields every term
unfused; it is the reference the kernel is tested against.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, gcd
from operator import mul
from typing import Iterator, NamedTuple

from .labels import RArray


class SeriesTable(NamedTuple):
    """Pochhammer arguments of one method as (integer, tau coefficient) pairs.

    ``up1`` rows run to x1, ``down1`` rows to m1 - x1, ``up2`` to x2 and
    ``down2`` to m2 - x2.  The two coupling rows are (integer, tau coefficient,
    slope in x2): ``couple_up`` runs to x1 and ``couple_down`` to m1 - x1.

    The prefactor of the sum is read from the same table: ``factorials`` are the
    six r_ik whose factorials divide it, ``shifted`` the six r_ik that enter as
    Gamma(r_ik + tau), ``lead_alpha`` the alpha of its leading factorial, and
    its sign is (-1)**parity.
    """

    m1: int
    m2: int
    up1: tuple[tuple[int, int], ...]
    down1: tuple[tuple[int, int], ...]
    up2: tuple[tuple[int, int], ...]
    down2: tuple[tuple[int, int], ...]
    couple_up: tuple[int, int, int]
    couple_down: tuple[int, int, int]
    factorials: tuple[int, ...]
    shifted: tuple[int, ...]
    lead_alpha: int
    parity: int


def series_table(arr: RArray, method: str) -> SeriesTable:
    """The argument table of method ``A``, ``B`` or ``C`` on the half-sum array."""
    (r11, r12, r13, r14), (r21, r22, r23, r24), (r31, r32, r33, r34) = arr.rows
    a1, a2, a3, a4 = arr.alpha
    b1, b2, b3 = arr.beta
    if method == "A":
        return SeriesTable(
            r11, r13,
            up1=((-r14, 0), (r22 + 1, 0), (r23, 1)),
            down1=((-r21, 0), (-a4, -1), (r34, 1)),
            up2=((r24, 1), (1 - r12, -1)),
            down2=((-a2, -1), (r32, 1)),
            couple_up=(b2 - b1 + 1, 0, 1),
            couple_down=(1 - r21, -1, -1),
            factorials=(r11, r12, r13, r14, r21, r33),
            shifted=(r22, r23, r24, r32, r33, r34),
            lead_alpha=a3, parity=(a1 - a3) % 2)
    if method == "B":
        return SeriesTable(
            r11, r31,
            up1=((-r14, 0), (r22 + 1, 0), (r23, 1)),
            down1=((-r21, 0), (r34, 1), (-a4, -1)),
            up2=((-a2, -1), (1 - a3, -2)),
            down2=((r24, 1), (a1, 2)),
            couple_up=(1 - r34 - r11, -1, 1),
            couple_down=(r34 + 1, 0, -1),
            factorials=(r11, r12, r14, r21, r31, r33),
            shifted=(r12, r22, r23, r24, r33, r34),
            lead_alpha=a1, parity=(b1 - b3) % 2)
    if method == "C":
        return SeriesTable(
            r11, r31,
            up1=((-r12, 0), (-a3, -1), (-a4, -1)),
            down1=((r32, 1), (r22 + 1, 0), (a1, 2)),
            up2=((r23, 1), (r24, 1)),
            down2=((-a2, -1), (1 - r21, -1)),
            couple_up=(1 - r32 - r11, -1, 1),
            couple_down=(r32 + 1, 0, -1),
            factorials=(r11, r12, r21, r31, r33, r34),
            shifted=(r22, r23, r24, r32, r33, r34),
            lead_alpha=a1, parity=(b1 - b3) % 2)
    raise ValueError(f"unknown series method {method!r}")


def _rows(args, kmax: int, step: int) -> list[int]:
    """[prod_a a (a + step) ... (a + (k-1) step) for k = 0..kmax]."""
    factors = None
    for a in args:
        seq = range(a, a + step * kmax, step)
        factors = seq if factors is None else map(mul, factors, seq)
    return list(accumulate(factors, mul, initial=1))


class _Kernel(NamedTuple):
    """A table at one tau, in units of 1/step: the x1 and x2 factors, with binomial
    and sign, and each coupling row's (argument at x2 = 0, change per unit of x2)."""

    m1: int
    m2: int
    step: int
    g1: list[int]
    g2: list[int]
    up: tuple[int, int]
    down: tuple[int, int]


def _kernel(table: SeriesTable, two_tau: int) -> _Kernel:
    step = 2 if two_tau % 2 else 1

    def arg(p: int, c: int) -> int:
        return (2 * p + c * two_tau) // (2 // step)

    def factors(up, down, m: int) -> list[int]:
        u = _rows([arg(p, c) for p, c in up], m, step)
        d = _rows([arg(p, c) for p, c in down], m, step)
        return [comb(m, x) * u[x] * d[m - x] * (-1 if x % 2 else 1) for x in range(m + 1)]

    (pu, cu, su), (pd, cd, sd) = table.couple_up, table.couple_down
    return _Kernel(table.m1, table.m2, step,
                   factors(table.up1, table.down1, table.m1),
                   factors(table.up2, table.down2, table.m2),
                   (arg(pu, cu), step * su), (arg(pd, cd), step * sd))


def _coupling(k: _Kernel, x2: int) -> list[int]:
    """(p + s x2)_{x1} (q - s x2)_{m1-x1} for x1 = 0..m1."""
    cu = _rows((k.up[0] + k.up[1] * x2,), k.m1, k.step)
    cd = _rows((k.down[0] + k.down[1] * x2,), k.m1, k.step)
    return list(map(mul, cu, reversed(cd)))


def _first_zero(a: int, step: int, kmax: int) -> int:
    """The least k with (a)_k = 0 in steps of step, or kmax + 1 if k <= kmax has none.

    a (a + step) ... (a + (k-1) step) first vanishes at k = -a/step + 1, when step
    divides a <= 0.
    """
    if a <= 0 and a % step == 0:
        return min(-a // step + 1, kmax + 1)
    return kmax + 1


def double_sum(table: SeriesTable, two_tau: int) -> tuple[Fraction, int]:
    """The double sum of the table at the given 2 tau, and its number of nonzero terms.

    Each x2 row is summed over x1 by Horner's rule on the ratio of its rising
    coupling row: with p the row's argument at this x2 and cd[j] = (q)_j its
    falling row, in steps of ``step``,

        h = g1[x1] cd[m1 - x1] + (p + x1 step) h    for x1 = m1, ..., 0,

    so each lattice point costs one large product.  The loop starts below the
    rising row's first zero, where every later term vanishes.  The nonzero terms
    are counted from integers: a term is nonzero iff g1[x1] is, x1 lies below the
    rising row's first zero and m1 - x1 below the falling row's.  A row with none
    is skipped.  The x1 and x2 factors share most of their digits, so their common
    divisors are taken out first and multiplied back once at the end.
    """
    k = _kernel(table, two_tau)
    content1 = reduce(gcd, k.g1)
    content2 = reduce(gcd, k.g2)
    if not content1 or not content2:
        return Fraction(0), 0
    m1, step = k.m1, k.step
    g1 = [f // content1 for f in k.g1]
    below = list(accumulate((f != 0 for f in g1), initial=0))  # nonzero g1 below x1
    total = 0
    nonzero = 0
    for x2, f2 in enumerate(k.g2):
        if not f2:
            continue
        p = k.up[0] + k.up[1] * x2
        q = k.down[0] + k.down[1] * x2
        hi = _first_zero(p, step, m1)  # x1 < hi: (p)_{x1} != 0
        lo = m1 + 1 - _first_zero(q, step, m1)  # x1 >= lo: (q)_{m1-x1} != 0
        count = below[hi] - below[lo]  # <= 0 when hi <= lo: no x1 has both rows nonzero
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


def termwise(table: SeriesTable, two_tau: int) -> Iterator[tuple[tuple[int, int], int]]:
    """Yield ((x1, x2), term) for every lattice point, x1-major, zero terms included.

    The unfused reference for ``double_sum``: one product per term.  Needs an even
    2 tau, where every term is an exact integer.
    """
    if two_tau % 2:
        raise ValueError("termwise series terms need an even 2 tau")
    k = _kernel(table, two_tau)
    couple = [_coupling(k, x2) for x2 in range(k.m2 + 1)]
    for x1, f1 in enumerate(k.g1):
        for x2, f2 in enumerate(k.g2):
            yield (x1, x2), f1 * f2 * couple[x2][x1]

