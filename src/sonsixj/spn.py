"""Recoupling coefficients of Sp(2n) with six antisymmetric irreps.

A single-column irrep of Sp(2n) is labelled by its column height nu.  The
recoupling coefficient for six such irreps is a rescaled orthogonal 6j-symbol
continued to rank -2n.  The double sums are the SO(n) series of methods A, B
and C themselves: the one kernel in ``series`` evaluated at rank -2n, where
tau = -n - 1, so that every Pochhammer factor is an exact integer and any term
whose factorial-ratio expansion needs a negative-argument factorial in a
denominator is zero.

Conventions fixed throughout: the overall sign of ``u_sp`` is (-1)**beta1
(with the companion exponent beta2 entering the column-swap relation of
``sp_symmetry_transform``, whose phase then collapses to +1).  Under this
pair of choices the dimension-renormalized symbol ``sp_renormalized`` is
real and invariant under all 24 classical rearrangements of the label
array, with no residual sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .exact import FactoredProduct, SurdValue
from .labels import RArray, SixJLabels, admissible, require_int_labels, shelepin
from .series import double_sum, series_table, termwise

__all__ = [
    "SP_METHODS",
    "SpLabels",
    "SpU",
    "dim_sp",
    "sp_admissible",
    "sp_renormalized",
    "sp_sum_terms",
    "sp_symmetry_orbit",
    "sp_symmetry_transform",
    "u_sp",
]

SP_METHODS = ("a", "b", "c")


class SpLabels(SixJLabels):
    """Labels {a b e; d c f} of Sp(2n); each entry is a column height."""

    __slots__ = ()


@dataclass(frozen=True)
class SpU:
    """One symplectic recoupling coefficient together with its inputs."""

    value: SurdValue
    labels: SpLabels
    method: str


def dim_sp(n: int, nu: int) -> int:
    """Dimension of the height-nu single-column irrep of Sp(2n)."""
    if n < 1:
        raise ValueError("rank n must be a positive integer")
    if not 0 <= nu <= n:
        raise ValueError(f"column height {nu} outside 0..{n}")
    # 2 (n - nu + 1) (2n + 1)! / (nu! (2n - nu + 2)!), with (2n + 2)! = (2n + 2) (2n + 1)!
    d, rem = divmod((n - nu + 1) * comb(2 * n + 2, nu), n + 1)
    if rem or d <= 0:
        raise AssertionError(f"dimension formula gave {d} with remainder {rem} over {n + 1}")
    return d


def _mul_dim_sp(fp: FactoredProduct, n: int, nu: int) -> FactoredProduct:
    """Multiply the ledger by dim_sp(n, nu) = 2 (n - nu + 1) (2n + 1)! / (nu! (2n - nu + 2)!)."""
    fp.mul_factorial(2)
    fp.mul_factorial(n - nu + 1)
    fp.mul_factorial(n - nu, -1)
    fp.mul_factorial(2 * n + 1)
    fp.mul_factorial(nu, -1)
    fp.mul_factorial(2 * n - nu + 2, -1)
    return fp


def _sp_array(labels: SpLabels) -> RArray | None:
    """The half-sum array of Sp-admissible labels, None for any other labels."""
    if not admissible(labels):
        return None
    arr = shelepin(labels)
    return arr if max(arr.alpha) <= labels.n else None


def sp_admissible(labels: SpLabels) -> bool:
    """True when all four triads couple and every triad half-sum fits in n."""
    return _sp_array(labels) is not None


def sp_sum_terms(arr: RArray, n: int, method: str) -> Iterator[tuple[tuple[int, int], int]]:
    """Yield ((x1, x2), term) for the double factorial series of one method.

    Terms are exact integers including the binomial weights and the
    (-1)**(x1+x2) sign; zero terms (a Pochhammer range crossing zero) are
    yielded as zeros so callers can align term lists positionally.  They are
    the SO(n) series of methods A, B, C continued to rank -2n, x1-major.
    """
    if method not in SP_METHODS:
        raise ValueError(f"unknown method {method!r}")
    return termwise(series_table(arr, method.upper()), -2 * n - 2)


def _norm_sq(labels: SpLabels, arr: RArray) -> FactoredProduct:
    """The ledger of d_e d_f times the normalization product, the square of the root block.

    Every factorial argument here is nonnegative for admissible labels: the
    triad half-sums obey alpha_k <= n, and each r_ik is at most the smallest
    label in a pair bounded by an alpha, so r_ik <= n as well.
    """
    n = labels.n
    fp = FactoredProduct()
    _mul_dim_sp(fp, n, labels.e)
    _mul_dim_sp(fp, n, labels.f)
    for row in arr.rows:
        for rik in row:
            if rik < 0 or n + 1 - rik < 0:
                raise AssertionError(f"normalization factorial argument below zero: r={rik}, n={n}")
            fp.mul_factorial(rik)
            fp.mul_factorial(n + 1 - rik)
    for ak in arr.alpha:
        if n - ak < 0:
            raise AssertionError(f"normalization factorial argument below zero: alpha={ak}, n={n}")
        fp.mul_factorial(2 * n + 2 - ak)
        fp.mul_factorial(n - ak, -1)
    return fp


def u_sp(labels: SpLabels, method: str = "a") -> SpU:
    """Recoupling coefficient of Sp(2n) for six single-column irreps.

    The three methods differ only in which double factorial series carries
    the sum; their values agree exactly.  Inadmissible couplings (a broken
    triad, or any triad half-sum exceeding n) give an exact zero, not an
    error.
    """
    if method not in SP_METHODS:
        raise ValueError(f"unknown method {method!r}")
    require_int_labels(labels)
    n = labels.n
    if n < 1:
        raise ValueError("rank n must be a positive integer")
    if any(x < 0 for x in labels.six):
        raise ValueError(f"negative column height in {labels.six}")
    arr = _sp_array(labels)
    if arr is None:
        return SpU(SurdValue.zero(), labels, method)
    _, a2, a3, a4 = arr.alpha
    table = series_table(arr, method.upper())
    # the integer terms of sp_sum_terms, summed by the fused kernel
    total, _ = double_sum(table, -2 * n - 2)
    if total == 0:
        return SpU(SurdValue.zero(), labels, method)
    # the rational prefactor joins the root block squared, so the factorials cancel
    # as exponents and nothing of size n! is expanded
    fp = _norm_sq(labels, arr)
    for m in (2 * n + 2, n, 2 * n + 2 - table.lead_alpha, *table.factorials):
        fp.mul_factorial(m, -2)
    for v in table.shifted:
        fp.mul_factorial(n - v + 1, -2)
    for a in (a2, a3, a4):
        fp.mul_factorial(n - a, 2)
    sign_exp = arr.beta[2] if method == "c" else arr.beta[0]
    return SpU(fp.sqrt_surd() * (-total if sign_exp % 2 else total), labels, method)


def sp_symmetry_transform(labels: SpLabels) -> tuple[SpLabels, int]:
    """Swap the b/e and c/f label pairs; return the new labels and the phase.

    The phase relates the two dimension-renormalized coefficients:

        u(a,e,b; d,f,c) / sqrt(d_b d_c) = phase * u(a,b,e; d,c,f) / sqrt(d_e d_f)

    with exponent beta2 - beta1 + (b + c - e - f)/2 evaluated on the input
    labels.  Under the sign conventions of this module that exponent is
    always even, so the phase is identically +1; it is still computed from
    the formula rather than hard-coded.
    """
    a, b, e, d, c, f = labels.six
    arr = shelepin(labels)
    exponent = arr.beta[1] - arr.beta[0] + (b + c - e - f) // 2
    swapped = SpLabels(a, e, b, d, f, c, labels.n)
    return swapped, (-1 if exponent % 2 else 1)


def sp_symmetry_orbit(labels: SpLabels) -> list[SpLabels]:
    """The 24 rearrangements under which the renormalized symbol is invariant.

    Columns of the array {a b e; d c f} may be permuted freely, and the top
    and bottom entries of any two columns may be exchanged simultaneously.
    """
    a, b, e, d, c, f = labels.six
    cols = ((a, d), (b, c), (e, f))
    out = []
    for p0, p1, p2 in (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ):
        ordered = (cols[p0], cols[p1], cols[p2])
        for swap in ((), (0, 1), (0, 2), (1, 2)):
            arranged = [
                (lo, hi) if i in swap else (hi, lo)
                for i, (hi, lo) in enumerate(ordered)
            ]
            (na, nd), (nb, nc), (ne, nf) = arranged
            out.append(SpLabels(na, nb, ne, nd, nc, nf, labels.n))
    return out


def sp_renormalized(labels: SpLabels, method: str = "a") -> SurdValue:
    """u_sp / sqrt(d_e d_f): real and invariant under all 24 rearrangements."""
    coeff = u_sp(labels, method)
    if coeff.value.is_zero():
        return SurdValue.zero()
    fp = FactoredProduct()
    _mul_dim_sp(fp, labels.n, labels.e)
    _mul_dim_sp(fp, labels.n, labels.f)
    return coeff.value / fp.sqrt_surd()
