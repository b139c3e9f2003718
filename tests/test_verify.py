"""Verification suites: how a suite reports what goes wrong inside it."""

import importlib
import random

from sonsixj.exact import ResidualSqrtPiError
from sonsixj.labels import admissible, admissible_sixes
from sonsixj.verify import random_admissible, run_oracles, run_rationality, run_symmetry


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
    # labels <= 1 at one n give 8 admissible sets, fewer than the 200 asked for
    report = run_symmetry(max_label=1, n_values=(4,))
    assert report.ok
    assert "8 orbits, every draw the range holds" in report.notes


def test_oracles_demand_the_injected_sign_only_where_it_can_matter(monkeypatch):
    small = run_oracles(n_values=(4,), max_label=3)
    assert small.ok and any("not checked" in note for note in small.notes)
    assert run_oracles(n_values=(4, 6), max_label=1).ok

    verify_mod = importlib.import_module("sonsixj.verify")
    pair = verify_mod.sixj_via_su2_pair
    monkeypatch.setattr(verify_mod, "sixj_via_su2_pair", lambda lab, reinstate_phase=False: pair(lab))
    toothless = run_oracles(n_values=(4, 6), max_label=1)
    assert toothless.mismatches == ["reinstated alternating sign never changed any value"]
