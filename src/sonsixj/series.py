"""The core double series of the 6j-symbol, one kernel at rank n and at rank -2n.

Each production method (``A``, ``B``, ``C``) is a terminating double sum

    sum_{x1=0}^{m1} sum_{x2=0}^{m2} (-1)**(x1+x2) C(m1, x1) C(m2, x2)
        prod_{u in up1} (u)_{x1} prod_{v in down1} (v)_{m1-x1}
        prod_{u in up2} (u)_{x2} prod_{v in down2} (v)_{m2-x2}
        (p + x2)_{x1} (q - x2)_{m1-x1}

over the half-sum array.  Every Pochhammer argument is an integer plus a
multiple of tau, so a method is a table of (integer, tau coefficient) pairs; only
this module reads it, here and in the sum's prefactor (``series_prefactor``).
SO(n) has 2 tau = n - 2; the Sp(2n) series are the same tables continued to
the formal rank -2n, 2 tau = -2n - 2.

Arguments are kept doubled, 2 (p + c tau) = 2p + c (2 tau), so every row is an
integer.  When 2 tau is even they are halved back and the terms are the exact
integers; when 2 tau is odd every term carries the same power of two, 2**(4 m1
+ 2 m2), and the sum is divided by it once at the end.

``double_sum`` sums the rows that hold a nonzero term.  The coupling rows are
the only factors that tie x1 to x2, and each of their factors is linear in x2, so
the sum over a block of x1, with the coupling factors outside the block taken
out, is a polynomial in x2 of degree at most the block's width.  Small lattices
are one block, every row summed directly by Horner's rule at one large product
per lattice point; large ones are cut into blocks whose rows after the first
few are advanced by differences, one addition per lattice point, and joined by
one large product per block.  The nonzero terms are counted from where the rows
first vanish.  ``termwise`` yields every term unfused; it is the reference the
kernel is tested against.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, isqrt, prod
from operator import mul, sub
from typing import Iterator, NamedTuple

from .exact import FactoredProduct
from .labels import RArray


class SeriesTable(NamedTuple):
    """Pochhammer arguments of one method as (integer, tau coefficient) pairs.

    ``up1`` rows run to x1, ``down1`` rows to m1 - x1, ``up2`` to x2 and
    ``down2`` to m2 - x2.  The two coupling rows are given at x2 = 0: ``couple_up``
    runs to x1 and gains 1 per unit of x2, ``couple_down`` runs to m1 - x1 and loses 1.

    ``series_prefactor`` reads the prefactor of the sum from the same table:
    ``factorials`` are the six r_ik whose factorials divide it, ``shifted`` the six
    r_ik that enter as Gamma(r_ik + tau), ``lead_alpha`` the alpha of its leading
    factorial, and its sign is (-1)**parity.
    """

    m1: int
    m2: int
    up1: tuple[tuple[int, int], ...]
    down1: tuple[tuple[int, int], ...]
    up2: tuple[tuple[int, int], ...]
    down2: tuple[tuple[int, int], ...]
    couple_up: tuple[int, int]
    couple_down: tuple[int, int]
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
            couple_up=(b2 - b1 + 1, 0),
            couple_down=(1 - r21, -1),
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
            couple_up=(1 - r34 - r11, -1),
            couple_down=(r34 + 1, 0),
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
            couple_up=(1 - r32 - r11, -1),
            couple_down=(r32 + 1, 0),
            factorials=(r11, r12, r21, r31, r33, r34),
            shifted=(r22, r23, r24, r32, r33, r34),
            lead_alpha=a1, parity=(b1 - b3) % 2)
    raise ValueError(f"unknown series method {method!r}")


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


def _rows(args, kmax: int, step: int) -> list[int]:
    """[prod_a a (a + step) ... (a + (k-1) step) for k = 0..kmax]."""
    factors = None
    for a in args:
        seq = range(a, a + step * kmax, step)
        factors = seq if factors is None else map(mul, factors, seq)
    return list(accumulate(factors, mul, initial=1))


class _Kernel(NamedTuple):
    """A table at one tau, in units of 1/step: the x1 and x2 factors, with binomial and
    sign, and the coupling arguments at x2 = 0 (``up`` gains one step per x2, ``down`` loses one)."""

    m1: int
    m2: int
    step: int
    g1: list[int]
    g2: list[int]
    up: int
    down: int


def _kernel(table: SeriesTable, two_tau: int) -> _Kernel:
    step = 2 if two_tau % 2 else 1

    def arg(p: int, c: int) -> int:
        return (2 * p + c * two_tau) // (2 // step)

    def factors(up, down, m: int) -> list[int]:
        u = _rows([arg(p, c) for p, c in up], m, step)
        d = _rows([arg(p, c) for p, c in down], m, step)
        return [comb(m, x) * u[x] * d[m - x] * (-1 if x % 2 else 1) for x in range(m + 1)]

    return _Kernel(table.m1, table.m2, step,
                   factors(table.up1, table.down1, table.m1),
                   factors(table.up2, table.down2, table.m2),
                   arg(*table.couple_up), arg(*table.couple_down))


def _coupling(k: _Kernel, x2: int) -> list[int]:
    """(p + x2)_{x1} (q - x2)_{m1-x1} for x1 = 0..m1, in units of 1/step."""
    cu = _rows((k.up + k.step * x2,), k.m1, k.step)
    cd = _rows((k.down - k.step * x2,), k.m1, k.step)
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

    Row x2 of the sum is g2[x2] S(x2), with

        S(x2) = sum_{x1} g1[x1] prod_{i < x1} P_i prod_{x1 <= i < m1} Q_i,

    the coupling factors P_i = p + i step and Q_i = q + (m1 - 1 - i) step, and p, q
    the row's coupling arguments (doubled, in steps of 2, when 2 tau is odd).
    Only the rows with a nonzero term are summed, and only x1 < top, where top - 1
    is the largest x1 of a nonzero term.  The block identity: for blocks [a, b)
    tiling [0, top) and end = min(top, m1),

        S(x2) = prod_{end <= i < m1} Q_i sum_k prod_{i < a_k} P_i prod_{b_k <= i < end} Q_i W_k(x2),
        W_k(x2) = sum_{a <= x1 < b} g1[x1] prod_{a <= i < x1} P_i prod_{x1 <= i < min(b, m1)} Q_i,

    and every term of W_k has min(b, m1) - a factors linear in x2, so W_k is a
    polynomial of degree <= b - a in x2.  ``_blocked_rows`` sums the first b - a + 1
    rows of each W_k directly and every later row by backward differences.

    The block width is ``_block_width``, one closed-form rule in the live box's
    extent m1 = top - 1 by m2 = last live row - first: blocks of width
    isqrt(3 (m1 + m2) / 2) once min(m1, m2) >= 44, else one block, where each row is
    summed directly by Horner's rule, one large product per point:

        h = g1[x1] (q)_{m1 - x1} + P_{x1} h    for x1 = top - 1, ..., 0.

    The rule was set on the balanced ladder (labels L - 6..L + 2 at the variant auto
    picks, n = 7, 10, 11 and 50, best of 7, blocked time over one block's): 1.04-1.13
    at m1 = m2 = 30, 0.96-1.05 at 35 and 0.91-1.00 at 40, where the Sp(2n) series at
    rank 125 read 1.00-1.11; 0.81-0.94 at 45 (rank 150: 0.85-0.98) and 0.73-0.82 at
    55.  The best width is flat within a few percent over 8-12 at m = 45, 12-20 at
    95, 16-24 at 145-195, 20-40 at 295 and 32-40 at 395, and 12-16 on unbalanced
    boxes of 32-45 by 108-250.

    The nonzero terms are counted from integers: a term is nonzero iff g1[x1] is, x1
    lies below the rising row's first zero and m1 - x1 below the falling row's.  The x1
    and x2 factors share most of their digits, so their common divisors are taken out
    first and multiplied back once at the end.
    """
    return _double_sum(table, two_tau, _block_width)


def _block_width(m1: int, m2: int) -> int:
    """The x1 block width for a live box of m1 + 1 by m2 + 1 lattice points; a width
    above m1 is one block (see ``double_sum`` for the measurements)."""
    return isqrt(3 * (m1 + m2) // 2) if min(m1, m2) >= 44 else m1 + 1


def _block(g1: list[int], rows, a: int, b: int, m1: int, step: int) -> list[int]:
    """W(x2) of the block [a, b) at each row record (x2, p, q, hi, lo), by Horner's rule:

        sum_{a <= x1 < b} g1[x1] prod_{a <= i < x1} P_i prod_{x1 <= i < min(b, m1)} Q_i.

    Terms from x1 = hi on hold the row's zero factor P_{hi - 1} once it lies in the
    block, so they are left out.
    """
    end = min(b, m1)
    shift = (m1 - end) * step
    out = []
    for _, p, q, hi, _ in rows:
        qin = _rows((q + shift,), end - a, step)  # qin[j] = Q_{end-j} ... Q_{end-1}
        h = 0
        for x1 in range((hi if a < hi <= b else b) - 1, a - 1, -1):
            h = g1[x1] * qin[end - x1] + (p + x1 * step) * h
        out.append(h)
    return out


def _windows(seq: list[int], width: int) -> list[int]:
    """[prod(seq[s:s + width]) for every s], in about log2(width) passes."""
    if width <= 1:
        return seq if width else [1] * len(seq)
    half = _windows(seq, width // 2)
    win = list(map(mul, half, half[width // 2:]))
    return list(map(mul, win, seq[width - 1:])) if width % 2 else win


def _backward(values: list[int]) -> list[int]:
    """The backward differences [nabla^d v, ..., nabla v, v] at the last of d + 1 values."""
    out = []
    while values:
        out.append(values[-1])
        values = list(map(sub, values[1:], values[:-1]))
    return out[::-1]


def _double_sum(table: SeriesTable, two_tau: int, block_width) -> tuple[Fraction, int]:
    """``double_sum`` with the block width chosen by ``block_width(m1, m2)`` of the live box."""
    k = _kernel(table, two_tau)
    content1 = gcd(*k.g1)
    content2 = gcd(*k.g2)
    if not content1 or not content2:  # a zero or empty axis: gcd() is 0
        return Fraction(0), 0
    m1, step = k.m1, k.step
    g1 = [f // content1 for f in k.g1]
    below = list(accumulate((f != 0 for f in g1), initial=0))  # nonzero g1 below x1
    weights, live = [], []  # g2[x2] / content2 and (x2, p, q, hi, lo) of every row with a nonzero term
    nonzero = top = 0  # x1 < top in every nonzero term
    for x2, f2 in enumerate(k.g2):
        if not f2:
            continue
        p = k.up + step * x2
        q = k.down - step * x2
        hi = _first_zero(p, step, m1)  # x1 < hi: (p)_{x1} != 0
        lo = m1 + 1 - _first_zero(q, step, m1)  # x1 >= lo: (q)_{m1-x1} != 0
        count = below[hi] - below[lo]  # <= 0 when hi <= lo: no x1 has both rows nonzero
        if count > 0:
            nonzero += count
            if hi > top:
                top = hi
            weights.append(f2 // content2)
            live.append((x2, p, q, hi, lo))
    if not live:
        return Fraction(0), 0
    width = block_width(top - 1, live[-1][0] - live[0][0])
    if width < top:
        total = _blocked_rows(k, g1, weights, live, top, width)
    else:
        total = sum(map(mul, weights, _block(g1, live, 0, m1 + 1, m1, step)))
    total *= content1 * content2
    if step == 2:
        return Fraction(total, 1 << (4 * m1 + 2 * k.m2)), nonzero
    return Fraction(total), nonzero


def _blocked_rows(k: _Kernel, g1: list[int], weights, live, top: int, width: int) -> int:
    """sum g2[x2] S(x2) over the rows with a nonzero term, S summed over x1 < top in
    blocks of the width; ``weights`` and ``live`` are those rows' g2[x2] / content2
    and records (x2, p, q, hi, lo), in order of x2.

    By the block identity of ``double_sum``: the first width + 1 rows sum every W_k
    directly by ``_block``; each later row advances the blocks' backward
    differences, one addition per lattice point, and joins the blocks by an outer
    Horner's rule, H <- (prod of the Q_i past the block) W_k + (prod of its P_i) H,
    one large product per block.  Blocks past the one holding the row's zero P_i,
    or before the one holding its zero Q_i, are zero there and skipped.  The row's
    arguments move by one step per unit of x2, so P_i and Q_i at row x2 are the
    terms i + x2 of two fixed sequences, and each block's product of them is a
    window product computed once per lattice.
    """
    m1, step = k.m1, k.step
    end = min(top, m1)
    edges = [*range(0, top, width), top]
    blocks = list(zip(edges, edges[1:]))
    span = range(m1 + k.m2 + 1)
    up = [k.up + t * step for t in span]  # P_i at row x2 is up[i + x2]
    down = [k.down + (m1 - 1 - t) * step for t in span]  # Q_i is down[i + x2]
    up_win, down_win = _windows(up, width), _windows(down, width)
    tail = _windows(down, end - blocks[-1][0])  # the Q_i of the last block
    far = _windows(down, m1 - end)
    first, last = live[0][0], live[-1][0]
    seeds = []  # records of the rows summed directly, live or not; _block reads no lo
    for x2 in range(first, min(first + width, last) + 1):
        p = k.up + step * x2
        seeds.append((x2, p, k.down - step * x2, _first_zero(p, step, m1), 0))
    seeded = [_block(g1, seeds, a, b, m1, step) for a, b in blocks]
    # a block of degree d is fixed by its last d + 1 directly summed rows
    diffs = [_backward(values[a - min(b, m1) - 1:]) for values, (a, b) in zip(seeded, blocks)]
    total = j = 0  # live[j] is the next live row
    for x2 in range(first, last + 1):
        if x2 <= first + width:
            w = [values[x2 - first] for values in seeded]
        else:
            diffs = [list(accumulate(d)) for d in diffs]
            w = [d[-1] for d in diffs]
        if x2 < live[j][0]:
            continue
        _, _, _, hi, lo = live[j]
        f2 = weights[j]
        j += 1
        # blocks from x1 = hi on hold P_{hi-1} = 0 in their P prefix, and blocks that
        # end by x1 = lo hold Q_{lo-1} = 0 in every term: both are zero on this row
        right = min((hi - 1) // width, len(blocks) - 1)
        left = lo // width
        a, b = blocks[right]
        if right == len(blocks) - 1:
            h, qpast = w[right], tail[a + x2]
        else:
            qpast = prod(down[b + x2:end + x2])
            h = w[right] * qpast
            qpast *= down_win[a + x2]
        for i in range(right - 1, left - 1, -1):
            s = blocks[i][0] + x2
            h = qpast * w[i] + up_win[s] * h
            if i > left:
                qpast *= down_win[s]
        if left:
            h *= prod(up[x2:x2 + blocks[left][0]])
        total += f2 * far[end + x2] * h
    return total


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

