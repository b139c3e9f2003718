"""Verification suites: how a suite reports what goes wrong inside it."""

import importlib
import random

import pytest

from sonsixj.exact import ResidualSqrtPiError
from sonsixj.labels import SixJLabels, admissible, admissible_sixes, orbit_key, symmetry_orbit
from sonsixj.spn import SpLabels, sp_admissible
from sonsixj.verify import (
    SuiteRangeError,
    random_admissible,
    run_cross_formula,
    run_kdf,
    run_oracles,
    run_rationality,
    run_sp,
    run_stretched,
    run_symmetry,
)

verify_mod = importlib.import_module("sonsixj.verify")


def test_rationality_records_an_evaluator_error_and_goes_on(monkeypatch):
    # the package rebinds sonsixj.sixj to the function, so fetch the module by name
    sixj_mod = importlib.import_module("sonsixj.sixj")

    def residual(labels):
        raise ResidualSqrtPiError("residual sqrt(pi)**1")

    monkeypatch.setitem(sixj_mod._EVALUATORS, "T3", residual)
    report = run_rationality(n_values=(5, 7), max_label=1)
    assert report.ok is False
    assert report.checks == 2 * len(list(admissible_sixes(1)))  # every set at every n was checked
    assert report.mismatches[0] == "(0, 0, 0, 0, 0, 0) n=5 T3: ResidualSqrtPiError: residual sqrt(pi)**1"
    assert all(" T3: " in line for line in report.mismatches[:-1])


def test_draws_keep_every_label_within_max_label():
    rng = random.Random(20260819)  # the symmetry suite's seed
    for _ in range(500):
        lab = random_admissible(rng, 6, 10)
        assert admissible(lab) and max(lab.six) <= 10, lab


def test_draws_range_over_exactly_the_admissible_sets():
    rng = random.Random(7)
    for top in (0, 1, 2):
        expected = set(admissible_sixes(top))
        # 40 uniform draws per set miss a given set with probability below e**-39
        drawn = {random_admissible(rng, 4, top).six for _ in range(40 * len(expected))}
        assert drawn == expected, top


def test_symmetry_stops_once_a_small_range_is_drawn():
    # labels <= 1 at one n give 8 admissible sets in 3 orbits, fewer than the 200 asked for
    report = run_symmetry(max_label=1, n_values=(4,))
    assert report.ok
    assert "3 orbits, every orbit the range holds" in report.notes


@pytest.mark.parametrize("kwargs", [
    dict(max_label=1, n_values=(4,)),
    dict(max_label=2, n_values=(4, 5)),
    dict(count=40, max_label=6, n_values=(4, 5, 6)),
])
def test_symmetry_walks_each_drawn_orbit_once(monkeypatch, kwargs):
    walked = []

    def recording_orbit(lab):
        walked.append(orbit_key(lab))
        return symmetry_orbit(lab)

    monkeypatch.setattr(verify_mod, "symmetry_orbit", recording_orbit)
    report = run_symmetry(**kwargs)
    assert report.ok
    assert len(set(walked)) == len(walked)
    assert report.notes[-1].startswith(f"{len(walked)} orbits")


@pytest.mark.parametrize("n", range(1, 7))
def test_sp_admissible_sets_are_whole_orbits(n):
    # run_sp compares each Sp-admissible set with its orbit's reference and walks no
    # orbit; that covers every rearrangement only because the orbits stay in range
    sets = {six for six in admissible_sixes(n) if sp_admissible(SpLabels(*six, n))}
    orbits = {}
    for six in sets:
        key = orbit_key(SixJLabels(*six, n))
        if key not in orbits:
            orbits[key] = {v.six for v in symmetry_orbit(SixJLabels(*six, n))}
    assert set().union(*orbits.values()) == sets
    assert len(orbits) == (3, 8, 18, 36, 66, 115)[n - 1]


def test_sp_compares_every_set_with_its_orbits_reference(monkeypatch):
    # (1, 1, 2, 1, 1, 2) has a three-member orbit at rank 2, with value 3/4 on it
    assert len(symmetry_orbit(SixJLabels(1, 1, 2, 1, 1, 2, 2))) == 3
    renormalized = verify_mod.sp_renormalized

    def flipped(lab, method="a"):
        value = renormalized(lab, method)
        return -value if lab.six == (1, 2, 1, 1, 2, 1) else value

    assert run_sp(n_values=(2,)).ok
    monkeypatch.setattr(verify_mod, "sp_renormalized", flipped)
    report = run_sp(n_values=(2,))
    assert report.ok is False
    assert report.mismatches == ["(1, 2, 1, 1, 2, 1) n=2: renormalized symbol differs from its orbit's"]


@pytest.mark.parametrize("suite, n_values", [
    (run_cross_formula, (4, 3)), (run_symmetry, (3,)), (run_rationality, (5, 1)),
    (run_stretched, (2, 4)), (run_kdf, (3,)), (run_sp, (1, 0)),
])
def test_suites_reject_an_unsupported_n_before_any_check(suite, n_values):
    bad = min(n_values)
    with pytest.raises(SuiteRangeError, match=f"got n = {bad}$"):
        suite(n_values=n_values)


def test_oracles_demand_the_injected_sign_only_where_it_can_matter(monkeypatch):
    small = run_oracles(n_values=(4,), max_label=3)
    assert small.ok and any("not checked" in note for note in small.notes)
    assert run_oracles(n_values=(4, 6), max_label=1).ok

    pair = verify_mod.sixj_via_su2_pair
    monkeypatch.setattr(verify_mod, "sixj_via_su2_pair", lambda lab, reinstate_phase=False: pair(lab))
    toothless = run_oracles(n_values=(4, 6), max_label=1)
    assert toothless.mismatches == ["reinstated alternating sign never changed any value"]
