"""Label arrays for SO(n) 6j symbols and their 144-element symmetry orbit.

A 6j symbol of symmetric representations carries six nonnegative integer labels
arranged as {a b e; d c f}.  The triangle structure of the four coupled triads
(a,b,e), (a,c,f), (b,d,f), (c,d,e) is captured by a rectangular array r[i][k] =
beta_i - alpha_k built from the triad half-sums; row and column permutations of
that array act on the labels and generate an orbit of up to 3! * 4! = 144
equivalent symbols.  Those permutations rearrange alpha and beta independently, so
sorted alpha, sorted beta and n (``orbit_key``) identify an orbit completely.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, NamedTuple


class ParityError(ValueError):
    """A triad label sum is odd, so the half-sum array does not exist."""


class SixJLabels(NamedTuple):
    """Labels {a b e; d c f} of SO(n); n is carried along with the six labels."""

    a: int
    b: int
    e: int
    d: int
    c: int
    f: int
    n: int

    @property
    def six(self) -> tuple[int, int, int, int, int, int]:
        return (self.a, self.b, self.e, self.d, self.c, self.f)

    def replace_six(self, six: Iterable[int]) -> "SixJLabels":
        a, b, e, d, c, f = six
        return type(self)(a, b, e, d, c, f, self.n)


TRIADS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (4, 3, 2))  # indices into (a,b,e,d,c,f)


def require_ints(fields: Iterable[tuple[str, object]]) -> None:
    """Raise ValueError naming the first (name, value) pair whose value is not an int.

    bool is rejected too, although it subclasses int.
    """
    for name, value in fields:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"label {name} = {value!r} is not an int")


def require_int_labels(labels: NamedTuple) -> None:
    """Raise ValueError naming the first field (a label or n) that is not an int.

    Fields that are exactly ``int`` pass at once; any other field sends the whole
    set through ``require_ints``, which accepts int subclasses other than bool.
    """
    for x in labels:
        if type(x) is not int:
            require_ints(zip(labels._fields, labels))
            return


def triangle_ok(l1: int, l2: int, l3: int) -> bool:
    """Triangle condition for one triad: even sum and all pairwise differences bounded."""
    if (l1 + l2 + l3) % 2:
        return False
    return l1 + l2 >= l3 and l2 + l3 >= l1 and l3 + l1 >= l2


def parity_ok(labels: SixJLabels) -> bool:
    """All four triad sums even."""
    a, b, e, d, c, f, _ = labels
    return not ((c + d + e) | (b + d + f) | (a + c + f) | (a + b + e)) & 1


def admissible(labels: SixJLabels) -> bool:
    """Nonnegative labels satisfying all four triangle conditions.

    The triads are written out: |x - y| <= z <= x + y for each, with an even sum.
    Those inequalities already force every label to be nonnegative, and the four
    triad sums add up to twice the label sum, so three even sums make the fourth even.
    """
    a, b, e, d, c, f, _ = labels
    return (abs(a - b) <= e <= a + b and abs(a - c) <= f <= a + c
            and abs(b - d) <= f <= b + d and abs(c - d) <= e <= c + d
            and not (a + b + e) % 2 and not (a + c + f) % 2 and not (b + d + f) % 2)


def admissible_sixes(max_label: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Every admissible (a, b, e, d, c, f) with labels <= max_label, in lexicographic order.

    Each label after b runs only over the range its triads allow, so nothing of the
    (max_label + 1)**6 product is built and then thrown away.  Steps of 2 keep
    a + b + e and c + d + e even, so a + b + c + d is even and f's range fits both triads.
    """
    top = max_label + 1
    for a in range(top):
        for b in range(top):
            for e in range(abs(a - b), min(a + b, max_label) + 1, 2):
                for d in range(top):
                    for c in range(abs(d - e), min(d + e, max_label) + 1, 2):
                        for f in range(max(abs(a - c), abs(b - d)),
                                       min(a + c, b + d, max_label) + 1, 2):
                            yield a, b, e, d, c, f


@dataclass(frozen=True)
class RArray:
    """Triad half-sum array: alpha_k from the four triads, beta_i from label pair sums.

    The rectangular entries r[i][k] = beta_i - alpha_k are the twelve triangle slacks
    (halved); the array is admissible exactly when all of them are nonnegative.
    """

    alpha: tuple[int, int, int, int]
    beta: tuple[int, int, int]

    def __post_init__(self) -> None:
        if sum(self.alpha) != sum(self.beta):
            raise ValueError("alpha and beta totals disagree")

    def r(self, i: int, k: int) -> int:
        """Entry r[i][k], 1-based."""
        return self.beta[i - 1] - self.alpha[k - 1]

    @property
    def rows(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(tuple(b - a for a in self.alpha) for b in self.beta)

    def labels(self, n: int) -> SixJLabels:
        return array_labels(self.alpha, self.beta, n)


def array_labels(alpha: tuple[int, ...], beta: tuple[int, ...], n: int) -> SixJLabels:
    """The labels {a b e; d c f} of the half-sum array (alpha, beta): the inverse of ``shelepin``.

    Takes plain tuples, so that no ``RArray`` is built per rearrangement.
    """
    a1, a2, a3, a4 = alpha
    b1, b2, b3 = beta
    return SixJLabels(a3 + a4 - b3, a2 + a4 - b2, a1 + a4 - b1, a1 + a2 - b3, a1 + a3 - b2, a2 + a3 - b1, n)


def shelepin(labels: SixJLabels) -> RArray:
    """Half-sum array of the label set; raises ParityError on odd triad sums."""
    if not parity_ok(labels):
        raise ParityError(f"odd triad sum in {labels.six}")
    a, b, e, d, c, f = labels.six
    alpha = ((c + d + e) // 2, (b + d + f) // 2, (a + c + f) // 2, (a + b + e) // 2)
    beta = ((a + b + c + d) // 2, (a + d + e + f) // 2, (b + c + e + f) // 2)
    return RArray(alpha, beta)


def orbit_variants(labels: SixJLabels) -> list[SixJLabels]:
    """All 144 row/column rearrangements as label sets (with repetitions), rows outermost."""
    arr = shelepin(labels)
    n = labels.n
    return [array_labels(alpha, beta, n)
            for beta in permutations(arr.beta) for alpha in permutations(arr.alpha)]


def symmetry_orbit(labels: SixJLabels) -> frozenset[SixJLabels]:
    """Distinct label sets reachable by array rearrangements; size divides 144."""
    return frozenset(orbit_variants(labels))


def canonical_representative(labels: SixJLabels) -> SixJLabels:
    """Lexicographically smallest (a, b, e, d, c, f) in the orbit."""
    return min(symmetry_orbit(labels), key=lambda ls: ls.six)


def orbit_key(labels: SixJLabels) -> tuple[int, ...]:
    """(*sorted(alpha), *sorted(beta), n): equal exactly for label sets of one orbit.

    Raises ParityError on odd triad sums, like ``shelepin``.
    """
    a, b, e, d, c, f, n = labels
    t1, t2, t3, t4 = c + d + e, b + d + f, a + c + f, a + b + e
    if (t1 | t2 | t3 | t4) & 1:  # one test of the four parities
        raise ParityError(f"odd triad sum in {labels.six}")
    return (*sorted((t1 // 2, t2 // 2, t3 // 2, t4 // 2)),
            *sorted(((a + b + c + d) // 2, (a + d + e + f) // 2, (b + c + e + f) // 2)), n)


_POSITIONS = {"a": 0, "b": 1, "e": 2, "d": 3, "c": 4, "f": 5}


def reflect_labels(labels: SixJLabels, names: str) -> SixJLabels:
    """Formal substitution x -> -x - n + 2 applied to the named label positions."""
    six = list(labels.six)
    n = labels.n
    for ch in names:
        i = _POSITIONS[ch]
        six[i] = -six[i] - n + 2
    return labels.replace_six(six)
