"""Recoupling coefficients of Sp(2n) with six antisymmetric irreps.

A single-column irrep of Sp(2n) is labelled by its column height nu.  The
recoupling coefficient for six such irreps is the orthogonal 6j-symbol of the
formal group SO(N) at N = -2n, computed by the SO(N) code itself: the series of
methods A, B and C in ``series`` at tau = -n - 1, where every term is an exact
integer, and ``series.series_prefactor`` and ``sixj.root_block_sq`` at N = -2n,
whose poles pair in the ledger.  With C the signed series and Q the squared root
block, negative on about half the label sets, u_sp = C sqrt(d_e d_f |Q|).

The sign is derived, not chosen: the series' sign parity times the sign of the
prefactor's residues, which comes out as (-1)**beta1 for series a and b and
(-1)**beta3 for c.  With it, the column-swap relation of ``sp_symmetry_transform``
has phase +1, and ``sp_renormalized`` is real and invariant, with no residual
sign, under all 144 rearrangements of ``labels.symmetry_orbit``, which contain the
24 classical rearrangements of the label array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .exact import FactoredProduct, SurdValue
from .labels import RArray, SixJLabels, admissible, require_int_labels, shelepin
from .series import double_sum, series_prefactor, series_table, termwise
from .sixj import root_block_sq

__all__ = [
    "SP_METHODS",
    "SpLabels",
    "SpU",
    "dim_sp",
    "sp_admissible",
    "sp_renormalized",
    "sp_sum_terms",
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


def _mul_dims_ef(fp: FactoredProduct, labels: SpLabels) -> FactoredProduct:
    """Multiply the ledger by d_e d_f, each dim_sp(n, nu) = 2 (n - nu + 1) (2n + 1)! / (nu! (2n - nu + 2)!)."""
    n = labels.n
    for nu in (labels.e, labels.f):
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
    table = series_table(arr, method.upper())
    # the integer terms of sp_sum_terms, summed by the fused kernel
    total, _ = double_sum(table, -2 * n - 2)
    if total == 0:
        return SpU(SurdValue.zero(), labels, method)
    # the SO(N) prefactor and root block at N = -2n, in one ledger under the square
    # root, so the factorials cancel as exponents and nothing of size n! is expanded
    fp = series_prefactor(arr, table, -2 * n)
    if fp.sign < 0:
        total = -total
    fp *= fp  # the prefactor squared, positive
    fp *= root_block_sq(labels.six, -2 * n)
    fp.sign = 1  # |Q|: Q < 0 on about half the label sets
    return SpU(_mul_dims_ef(fp, labels).sqrt_surd() * total, labels, method)


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


def sp_renormalized(labels: SpLabels, method: str = "a") -> SurdValue:
    """u_sp / sqrt(d_e d_f): real and invariant under all 144 rearrangements of the array."""
    value = u_sp(labels, method).value
    if value.is_zero():  # d_e or d_f may be undefined off the admissible sets
        return value
    return value / _mul_dims_ef(FactoredProduct(), labels).sqrt_surd()
