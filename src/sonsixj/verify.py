"""Self-verification suites: every cross-check the package makes about itself.

Each suite exercises one family of identities at a configurable scale and
returns a SuiteReport; the command-line ``verify`` kind and the acceptance
tests both run these functions, so the checks exist in exactly one place.
A suite is one function ``run_x(report, <range>)`` registered by ``@_suite(name)``,
which adds it to SUITES in definition order and makes ``run_x(<range>)`` create,
time and return the report.  The suites over every admissible label set at every
n draw their label sets from ``_grid``.  A suite names a symmetry orbit only by
``labels.orbit_key``, the key the value cache uses.  All comparisons are exact
(rational or surd equality); there are no tolerances anywhere.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterator, Sequence

from .exact import SurdValue, surd_normalize
from .kdf import (
    DEPENDENCY_FAMILY,
    IndefinitePrefactorError,
    VARIANTS,
    check_balance,
    check_dependencies,
    hook_reflection_map_check,
    kdf_c_alpha,
    kdf_params_for,
)
from .labels import SixJLabels, admissible, admissible_sixes, orbit_key, shelepin, symmetry_orbit
from .oracle import require_even_n, sixj_via_su2_pair, sixj_via_su2_triple, su2_6j
from .sixj import CLOSED_FORMS, METHODS, c_alpha, cache_clear, select_method, sixj
from .spn import (
    SpLabels,
    dim_sp,
    sp_admissible,
    sp_renormalized,
    sp_symmetry_transform,
    u_sp,
)

__all__ = [
    "SUITES",
    "SuiteRangeError",
    "SuiteReport",
    "run_cross_formula",
    "run_kdf",
    "run_oracles",
    "run_performance",
    "run_rationality",
    "run_so4",
    "run_sp",
    "run_stretched",
    "run_suite",
    "run_symmetry",
]

ALL_EVALUATORS = tuple(m for m in METHODS if m not in CLOSED_FORMS)  # A, B, C, T3 and the factorial forms
MAX_MISMATCHES = 20  # mismatch lines a report keeps

# ratio of an SO(4) 6j-symbol to the squared spin-half-label 6j-symbol,
# measured on the smallest nonzero case (the all-zero labels) and frozen
SO4_RATIO = Fraction(1)


class SuiteRangeError(ValueError):
    """A suite does not take its range; raised before the suite runs any check."""


@dataclass
class SuiteReport:
    """Outcome of one verification suite."""

    suite: str
    checks: int = 0
    mismatches: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def fail(self, message: str) -> None:
        if len(self.mismatches) < MAX_MISMATCHES:
            self.mismatches.append(message)
        elif len(self.mismatches) == MAX_MISMATCHES:
            self.mismatches.append("... further mismatches suppressed")

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        line = f"suite {self.suite}: {self.checks} checks, {state} ({self.elapsed:.1f}s)"
        if self.notes:
            line += " [" + "; ".join(self.notes) + "]"
        return line


def random_admissible(rng: random.Random, n: int, max_label: int) -> SixJLabels:
    """One label set drawn uniformly from the admissible sets with labels <= max_label.

    Six labels are drawn uniformly from 0..max_label until they are admissible, so
    the draws range over exactly ``admissible_sixes(max_label)``.
    """
    while True:
        lab = SixJLabels(*(rng.randrange(max_label + 1) for _ in range(6)), n)
        if admissible(lab):
            return lab


SUITES: dict[str, Callable[..., SuiteReport]] = {}


def _suite(name: str) -> Callable[[Callable[..., None]], Callable[..., SuiteReport]]:
    """Register ``body(report, <range>)`` in SUITES as the suite ``name``.

    The registered runner takes the range, creates the report, times the body and
    returns the report; its signature lists the range only, as the CLI reads it.
    """

    def register(body: Callable[..., None]) -> Callable[..., SuiteReport]:
        @wraps(body)
        def run(*args, **kwargs) -> SuiteReport:
            report = SuiteReport(name)
            t0 = time.perf_counter()
            body(report, *args, **kwargs)
            report.elapsed = time.perf_counter() - t0
            return report

        sig = inspect.signature(body)
        run.__signature__ = sig.replace(parameters=list(sig.parameters.values())[1:],
                                        return_annotation=SuiteReport)
        SUITES[name] = run
        return run

    return register


def _require_so_n(n_values: Sequence[int]) -> None:
    """Raise SuiteRangeError naming the least n if it is below 4, as the SO(n) suites need."""
    if any(n < 4 for n in n_values):
        raise SuiteRangeError(f"the SO(n) suites need n >= 4, got n = {min(n_values)}")


def _grid(report: SuiteReport, n_values: Sequence[int], max_label: int) -> Iterator[SixJLabels]:
    """Every admissible label set with labels <= max_label at every n, n outermost;
    notes the grid's size in the report once.  Rejects n < 4 before yielding anything."""
    _require_so_n(n_values)
    sets = list(admissible_sixes(max_label))
    report.notes.append(f"{len(sets)} label sets, n in {list(n_values)}")
    return (SixJLabels(*six, n) for n in n_values for six in sets)


@_suite("cross-formula")
def run_cross_formula(
    report: SuiteReport, n_values: Sequence[int] = (4, 5, 6, 7, 8, 9), max_label: int = 6
) -> None:
    """All seven core evaluators agree exactly on every admissible label set."""
    for lab in _grid(report, n_values, max_label):
        ref = c_alpha(lab, ALL_EVALUATORS[0]).value
        report.checks += 1
        for method in ALL_EVALUATORS[1:]:
            got = c_alpha(lab, method).value
            if got != ref:
                report.fail(f"{lab.six} n={lab.n}: {method} gave {got}, A gave {ref}")


@_suite("oracles")
def run_oracles(
    report: SuiteReport, n_values: Sequence[int] = (4, 6, 8), max_label: int = 4
) -> None:
    """Production values equal both independently assembled even-n routes.

    Also demands that injecting the known-spurious alternating sign into the
    second route breaks the agreement somewhere, so the comparison has teeth.
    The sign can only matter at some n >= 6 with labels >= 1: at n = 4 and at
    labels <= 0 the route's sum has one nonzero term, so elsewhere it is noted.
    """
    try:
        for n in n_values:
            require_even_n(n)
    except ValueError as exc:
        raise SuiteRangeError(str(exc)) from None
    broke = 0
    for lab in _grid(report, n_values, max_label):
        ref = sixj(lab).value
        report.checks += 1
        via3 = sixj_via_su2_triple(lab)
        if via3 != ref:
            report.fail(f"{lab.six} n={lab.n}: triple route gave {via3}, sixj gave {ref}")
        via2 = sixj_via_su2_pair(lab)
        if via2 != ref:
            report.fail(f"{lab.six} n={lab.n}: pair route gave {via2}, sixj gave {ref}")
        if sixj_via_su2_pair(lab, reinstate_phase=True) != ref:
            broke += 1
    if broke:
        report.notes.append(f"reinstated sign broke {broke} cases")
    elif max_label >= 1 and any(n >= 6 for n in n_values):
        report.fail("reinstated alternating sign never changed any value")
    else:
        report.notes.append("reinstated sign not checked: one nonzero term per sum at n = 4 or labels <= 0")


@_suite("symmetry")
def run_symmetry(
    report: SuiteReport,
    count: int = 200,
    max_label: int = 10,
    n_values: Sequence[int] = tuple(range(4, 13)),
    seed: int = 20260819,
) -> None:
    """The 6j-symbol is exactly invariant over each full symmetry orbit.

    Every orbit variant is evaluated with a forced method (no cache, no
    canonicalization) so the invariance is a property of the formulas, not
    of the lookup key.  A draw is keyed by ``orbit_key``, so no orbit is walked
    twice.  A range of fewer than ``count`` orbits (the keys of the admissible
    sets, counted up to ``count``, at each n) is drawn until each has come up.
    """
    _require_so_n(n_values)
    rng = random.Random(seed)
    per_n: set[tuple[int, ...]] = set()  # the range's orbits at one n, keyed at n = 0
    for six in admissible_sixes(max_label):
        per_n.add(orbit_key(SixJLabels(*six, 0)))
        if len(per_n) == count:
            break
    target = min(count, len(per_n) * len(set(n_values)))
    seen: set[tuple[int, ...]] = set()
    while len(seen) < target:
        n = rng.choice(list(n_values))
        lab = random_admissible(rng, n, max_label)
        key = orbit_key(lab)
        if key in seen:
            continue
        seen.add(key)
        orbit = sorted(symmetry_orbit(lab), key=lambda v: v.six)
        ref = sixj(lab, method="A").value
        spot = ("B", "C", "T3")
        for idx, variant in enumerate(orbit):
            report.checks += 1
            got = sixj(variant, method="A").value
            if got != ref:
                report.fail(f"{lab.six} n={n} orbit variant {variant.six}: A broke")
            if idx < 3:
                method = spot[idx]
                got2 = sixj(variant, method=method).value
                if got2 != ref:
                    report.fail(f"{lab.six} n={n} orbit variant {variant.six}: {method} broke")
        if sixj(lab).value != ref:
            report.fail(f"{lab.six} n={n}: auto-selected value differs from forced A")
    report.notes.append(f"{len(seen)} orbits" + (", every orbit the range holds" if len(seen) < count else ""))


@_suite("rationality")
def run_rationality(
    report: SuiteReport, n_values: Sequence[int] = (5, 7, 9), max_label: int = 6
) -> None:
    """For odd n every core coefficient is exactly rational (no residual surd).

    An evaluator that raises an ArithmeticError is recorded as a mismatch, and the
    suite goes on.
    """
    for lab in _grid(report, n_values, max_label):
        report.checks += 1
        for method in ("A", "B", "C", "T3"):
            try:
                value = c_alpha(lab, method).value
            except ArithmeticError as exc:  # a residual sqrt(pi), say
                report.fail(f"{lab.six} n={lab.n} {method}: {type(exc).__name__}: {exc}")
                continue
            if not isinstance(value, Fraction):
                report.fail(f"{lab.six} n={lab.n} {method}: non-rational {value!r}")


@_suite("stretched")
def run_stretched(
    report: SuiteReport, n_values: Sequence[int] = (4, 5, 6, 7, 8, 9), max_label: int = 8
) -> None:
    """Closed forms for boundary couplings equal the general evaluator."""
    _require_so_n(n_values)
    cases = []  # (six, CLOSED_FORMS[r11]) for every set with r11 at most 1
    for six in admissible_sixes(max_label):
        r11 = shelepin(SixJLabels(*six, 4)).r(1, 1)
        if r11 < len(CLOSED_FORMS):
            cases.append((six, CLOSED_FORMS[r11]))
    stretched = sum(method == CLOSED_FORMS[0] for _, method in cases)
    report.notes.append(f"{stretched} stretched, {len(cases) - stretched} near-stretched sets")
    for n in n_values:
        for six, method in cases:
            lab = SixJLabels(*six, n)
            report.checks += 1
            closed = c_alpha(lab, method).value
            general = c_alpha(lab, "A").value
            if closed != general:
                report.fail(f"{six} n={n}: {method} gave {closed}, A gave {general}")


@_suite("so4")
def run_so4(report: SuiteReport, count: int = 100, max_label: int = 6) -> None:
    """At n = 4 the 6j-symbol is the square of the half-label spin 6j-symbol.

    The proportionality constant is measured on the first nonzero case in
    lexicographic order and must equal the frozen SO4_RATIO = 1 everywhere.
    """
    measured: Fraction | None = None
    nonzero = 0
    for six in admissible_sixes(max_label):
        lab = SixJLabels(*six, 4)
        value = sixj(lab).value
        w_sq = su2_6j(*[Fraction(x, 2) for x in six]).square()
        report.checks += 1
        if w_sq == 0:
            if not value.is_zero():
                report.fail(f"{six}: spin 6j vanishes but SO(4) value is {value}")
            continue
        if not value.is_rational():
            report.fail(f"{six}: SO(4) value not rational: {value}")
            continue
        ratio = value.to_rational() / w_sq
        if measured is None:
            measured = ratio
            report.notes.append(f"measured constant {measured} on {six}")
        if ratio != measured:
            report.fail(f"{six}: ratio {ratio} differs from measured {measured}")
        nonzero += 1
        if nonzero >= count and measured is not None:
            break
    if measured != SO4_RATIO:
        report.fail(f"measured constant {measured} differs from frozen {SO4_RATIO}")
    report.notes.append(f"{nonzero} nonzero cases")


@_suite("kdf")
def run_kdf(report: SuiteReport, n_values: Sequence[int] = (4, 6, 8), max_label: int = 4) -> None:
    """Every double-series variant reproduces the core coefficient exactly.

    Variants whose prefactor is undefined on a label set are skipped (the
    series representation does not exist there); balance and parameter
    dependencies are asserted on every parameter set that is built, and the
    reflection maps are asserted for the four documented variant pairs.
    """
    skipped = 0
    for lab in _grid(report, n_values, max_label):
        six, n = lab.six, lab.n
        ref = c_alpha(lab, "A").value
        for variant in VARIANTS:
            try:
                params, _ = kdf_params_for(lab, variant)
            except IndefinitePrefactorError:
                skipped += 1
                continue
            report.checks += 1
            if not check_balance(params, n):
                report.fail(f"{six} n={n} {variant}: balance relations broke")
                continue
            if not check_dependencies(params, DEPENDENCY_FAMILY[variant]):
                report.fail(f"{six} n={n} {variant}: dependency relations broke")
                continue
            got = kdf_c_alpha(lab, variant)
            if got != ref:
                report.fail(f"{six} n={n} {variant}: series gave {got}, core {ref}")
        for pair in (("1a", "2a"), ("1b", "2b"), ("1a", "3b"), ("1b", "3a")):
            report.checks += 1
            if not hook_reflection_map_check(lab, pair):
                report.fail(f"{six} n={n}: reflection map failed for {pair}")
    report.notes.append(f"{skipped} undefined-prefactor skips")


@_suite("sp")
def run_sp(report: SuiteReport, n_values: Sequence[int] = (1, 2, 3)) -> None:
    """Exhaustive symplectic checks for small rank.

    Methods agree everywhere; the coefficient vanishes exactly when a triad
    half-sum exceeds n; the column-swap relation holds with its computed
    phase; the renormalized symbol is invariant over the 144 rearrangements of
    the array; all values are real.  Here n is the Sp(2n) rank, and the labels
    run over every height up to it.

    No orbit is walked: each Sp-admissible set's symbol by series c is compared
    once with its orbit's reference, series a on the first set met with its
    ``labels.orbit_key``.  That covers every rearrangement, since each is itself
    Sp-admissible with heights up to n: a label is at most the half-sum of a
    triad holding it, and that is at most n.
    """
    if any(n < 1 for n in n_values):
        raise SuiteRangeError(f"the sp suite needs ranks n >= 1, got n = {min(n_values)}")
    for n in n_values:
        labs = [SpLabels(*six, n) for six in admissible_sixes(n)]
        admissible_count = 0
        refs: dict[tuple[int, ...], SurdValue] = {}  # orbit_key: the orbit's reference
        for lab in labs:
            va = u_sp(lab, "a").value
            report.checks += 1
            for method in ("b", "c"):
                got = u_sp(lab, method).value
                if got != va:
                    report.fail(f"{lab.six} n={n}: method {method} gave {got}, a gave {va}")
            if va.radicand < 1:
                report.fail(f"{lab.six} n={n}: non-real value {va}")
            if sp_admissible(lab):
                admissible_count += 1
                if va.is_zero():
                    report.fail(f"{lab.six} n={n}: admissible coupling vanished")
                swapped, phase = sp_symmetry_transform(lab)
                lhs = u_sp(swapped, "b").value / surd_normalize(
                    1, dim_sp(n, lab.b) * dim_sp(n, lab.c)
                )
                rhs = va / surd_normalize(1, dim_sp(n, lab.e) * dim_sp(n, lab.f))
                if lhs != rhs * phase:
                    report.fail(f"{lab.six} n={n}: column-swap relation broke")
                key = orbit_key(lab)
                if key not in refs:
                    refs[key] = sp_renormalized(lab, "a")
                report.checks += 1
                if sp_renormalized(lab, "c") != refs[key]:
                    report.fail(f"{lab.six} n={n}: renormalized symbol differs from its orbit's")
            else:
                if not va.is_zero():
                    report.fail(f"{lab.six} n={n}: out-of-range coupling is nonzero: {va}")
        report.notes.append(f"n={n}: {len(labs)} triad-coupled sets, {admissible_count} admissible "
                            f"in {len(refs)} orbits")


@_suite("performance")
def run_performance(report: SuiteReport, n: int = 10, seed: int = 4853) -> None:
    """A large-label evaluation finishes fast and term predictions are bounds."""
    cache_clear()  # so the timed call below is a cache miss
    big = SixJLabels(96, 100, 98, 102, 94, 100, n)
    t0 = time.perf_counter()
    value = sixj(big)
    dt = time.perf_counter() - t0
    report.checks += 1
    report.notes.append(f"labels ~100 evaluation: {dt * 1000:.0f} ms via {value.method_used}")
    if dt >= 1.0:
        report.fail(f"large-label evaluation took {dt:.2f}s (budget 1s)")
    choice = select_method(big)
    actual = c_alpha(choice.variant, choice.method).terms
    report.checks += 1
    if actual > value.predicted_terms:
        report.fail(f"nonzero terms {actual} exceed prediction {value.predicted_terms}")
    rng = random.Random(seed)
    for _ in range(50):
        lab = random_admissible(rng, n, 20)
        choice = select_method(lab)
        result = c_alpha(choice.variant, choice.method)
        report.checks += 1
        if result.terms > choice.predicted_terms:
            report.fail(f"{lab.six}: nonzero terms {result.terms} exceed "
                        f"prediction {choice.predicted_terms}")


def run_suite(name: str, **kwargs) -> SuiteReport:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}") from None
    return fn(**kwargs)
