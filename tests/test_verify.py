"""Verification suites: how a suite reports what goes wrong inside it."""

import dataclasses
import importlib
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sonsixj.exact import ResidualSqrtPiError, SurdValue, surd_normalize
from sonsixj.labels import SixJLabels, admissible, admissible_sixes, orbit_key, symmetry_orbit
from sonsixj.spn import SpLabels, sp_admissible
from sonsixj.verify import (
    MAX_MISMATCHES,
    SUITES,
    SuiteRangeError,
    SuiteReport,
    random_admissible,
    run_cross_formula,
    run_kdf,
    run_oracles,
    run_rationality,
    run_sp,
    run_stretched,
    run_suite,
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


def _shift(out):
    """``out`` with another value; ``out`` is a value or a record holding one in ``.value``."""
    if isinstance(out, Fraction):
        return out + 1
    if isinstance(out, SurdValue):
        return SurdValue.of_rational(1) if out.is_zero() else -out
    return dataclasses.replace(out, value=_shift(out.value))


def _shifted(when, **fields):
    """A stand-in factory: the original, changed on the calls ``when`` accepts.

    The change replaces ``fields`` of the result, or with no fields applies ``_shift``.
    """

    def patch(original):
        def stand_in(*args, **kwargs):
            out = original(*args, **kwargs)
            if not when(*args, **kwargs):
                return out
            return dataclasses.replace(out, **fields) if fields else _shift(out)

        return stand_in

    return patch


def _method_is(name, default):
    return _shifted(lambda lab, method=default, **_: method == name)


def _returns(value):
    return lambda original: lambda *args, **kwargs: value


def _always(*args, **kwargs):
    return True


def _at(six):
    return lambda lab, *args, **kwargs: lab.six == six


_ZEROS = (0, 0, 0, 0, 0, 0)
_ONES = (1, 1, 0, 1, 1, 0)  # admissible, and its orbit has other members
_TINY = dict(n_values=(4,), max_label=0)


# (suite, its range, the name the suite imports, stand-in factory, text of one mismatch)
_BROKEN = [
    ("cross-formula", _TINY, "c_alpha", _method_is("T3", "A"), "T3 gave"),
    ("oracles", _TINY, "sixj_via_su2_pair",
     _shifted(lambda lab, reinstate_phase=False: not reinstate_phase), "pair route gave"),
    ("symmetry", dict(max_label=1, n_values=(4,)), "sixj",
     _shifted(lambda lab, method="auto", **_: method == "A" and lab.six == _ONES), ": A broke"),
    ("symmetry", dict(max_label=1, n_values=(4,)), "sixj", _method_is("B", "auto"), ": B broke"),
    ("symmetry", dict(max_label=1, n_values=(4,)), "sixj", _method_is("auto", "auto"),
     "auto-selected value differs from forced A"),
    ("rationality", dict(n_values=(5,), max_label=0), "c_alpha",
     _shifted(lambda lab, method="A", **_: method == "C", value=0.5), "C: non-rational 0.5"),
    ("stretched", _TINY, "c_alpha", _method_is("StretchedE", "A"), "StretchedE gave"),
    ("so4", dict(max_label=1), "su2_6j",
     lambda original: lambda *js: SurdValue.zero() if not any(js) else original(*js),
     "spin 6j vanishes but SO(4) value is 1"),
    ("so4", dict(max_label=1), "sixj", _shifted(_at(_ZEROS), value=surd_normalize(1, 2)),
     "SO(4) value not rational: 1*sqrt(2)"),
    ("so4", dict(max_label=1), "sixj", _shifted(_at(_ONES)), "differs from measured 1"),
    ("so4", dict(max_label=1), "sixj", _shifted(_always), "measured constant -1 differs from frozen 1"),
    ("kdf", dict(n_values=(4,), max_label=1), "check_balance", _returns(False), "balance relations broke"),
    ("kdf", dict(n_values=(4,), max_label=1), "check_dependencies", _returns(False),
     "dependency relations broke"),
    ("kdf", dict(n_values=(4,), max_label=1), "kdf_c_alpha", _shifted(_always), "series gave"),
    ("kdf", dict(n_values=(4,), max_label=1), "hook_reflection_map_check", _returns(False),
     "reflection map failed"),
    ("sp", dict(n_values=(2,)), "u_sp", _method_is("b", "a"), "method b gave"),
    ("sp", dict(n_values=(2,)), "u_sp",
     _shifted(lambda lab, method="a": method == "a" and lab.six == _ZEROS,
              value=SurdValue(Fraction(1), Fraction(-1))), "non-real value"),
    ("sp", dict(n_values=(2,)), "u_sp",
     _shifted(lambda lab, method="a": method == "a" and lab.six == _ZEROS, value=SurdValue.zero()),
     "admissible coupling vanished"),
    ("sp", dict(n_values=(2,)), "sp_symmetry_transform",
     lambda original: lambda lab: (original(lab)[0], -original(lab)[1]), "column-swap relation broke"),
    ("sp", dict(n_values=(2,)), "u_sp",
     _shifted(lambda lab, method="a": not sp_admissible(lab)), "out-of-range coupling is nonzero"),
    ("performance", {}, "time", lambda original: SimpleNamespace(perf_counter=itertools.count(step=2).__next__),
     "large-label evaluation took 2.00s (budget 1s)"),
    ("performance", {}, "sixj", _shifted(_always, predicted_terms=0), "nonzero terms"),
    ("performance", {}, "select_method",
     lambda original: lambda lab: original(lab)._replace(predicted_terms=0), ": nonzero terms"),
]


@pytest.mark.parametrize("suite, kwargs, name, patch, text", _BROKEN,
                         ids=[f"{case[0]}-{case[4]}" for case in _BROKEN])
def test_each_suite_reports_a_wrong_value(monkeypatch, suite, kwargs, name, patch, text):
    monkeypatch.setattr(verify_mod, name, patch(getattr(verify_mod, name)))
    report = run_suite(suite, **kwargs)
    assert not report.ok
    assert any(text in line for line in report.mismatches), report.mismatches


def test_a_report_keeps_the_first_mismatches_and_marks_the_rest():
    report = SuiteReport("demo")
    for i in range(MAX_MISMATCHES + 5):
        report.fail(f"mismatch {i}")
    assert report.mismatches == [f"mismatch {i}" for i in range(MAX_MISMATCHES)] + [
        "... further mismatches suppressed"]
    assert report.summary().startswith(f"suite demo: 0 checks, {MAX_MISMATCHES + 1} MISMATCHES")


def test_run_suite_names_the_suites_on_an_unknown_name():
    with pytest.raises(ValueError) as info:
        run_suite("nope")
    assert str(info.value) == f"unknown suite 'nope'; choose from {', '.join(SUITES)}"
