"""Exact recoupling coefficients for symmetric representations of SO(n).

The package computes 6j symbols of SO(n) restricted to symmetric (single-row)
representations, exactly, together with the rational core coefficient they are
assembled from, the 144-element symmetry orbit of the label array, terminating
double hypergeometric cross-checks, and the continuation to antisymmetric
recoupling for Sp(2n).
"""
from __future__ import annotations

from .exact import (
    PoleError,
    RadicandMismatchError,
    ResidualSqrtPiError,
    SurdValue,
    surd_normalize,
)
from .kdf import KdFParams, kdf_c_alpha, kdf_eval, kdf_params_for
from .labels import RArray, SixJLabels, admissible, canonical_representative, shelepin, symmetry_orbit, triangle_ok
from .oracle import sixj_via_su2_pair, sixj_via_su2_triple, su2_6j
from .sixj import CAlpha, SixJValue, c_alpha, dim, select_method, sixj, threej_zero
from .spn import SpLabels, SpU, dim_sp, sp_renormalized, sp_symmetry_transform, u_sp
from .verify import SuiteReport, run_suite

__all__ = [
    "PoleError",
    "RadicandMismatchError",
    "ResidualSqrtPiError",
    "SurdValue",
    "surd_normalize",
    "RArray",
    "SixJLabels",
    "admissible",
    "canonical_representative",
    "shelepin",
    "symmetry_orbit",
    "triangle_ok",
    "CAlpha",
    "SixJValue",
    "c_alpha",
    "dim",
    "select_method",
    "sixj",
    "threej_zero",
    "KdFParams",
    "kdf_c_alpha",
    "kdf_eval",
    "kdf_params_for",
    "su2_6j",
    "sixj_via_su2_pair",
    "sixj_via_su2_triple",
    "SpLabels",
    "SpU",
    "dim_sp",
    "sp_renormalized",
    "sp_symmetry_transform",
    "u_sp",
    "SuiteReport",
    "run_suite",
]
