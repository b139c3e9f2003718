"""Verification suites: how a suite reports what goes wrong inside it."""

import importlib

from sonsixj.exact import ResidualSqrtPiError
from sonsixj.verify import admissible_sets, run_rationality


def test_rationality_records_an_evaluator_error_and_goes_on(monkeypatch):
    # the package rebinds sonsixj.sixj to the function, so fetch the module by name
    sixj_mod = importlib.import_module("sonsixj.sixj")

    def residual(labels):
        raise ResidualSqrtPiError("residual sqrt(pi)**1")

    monkeypatch.setitem(sixj_mod._EVALUATORS, "T3", residual)
    report = run_rationality(n_values=(5, 7), max_label=1)
    assert report.ok is False
    assert report.checks == 2 * len(admissible_sets(1))  # every set at every n was checked
    assert report.mismatches[0] == "(0, 0, 0, 0, 0, 0) n=5 T3: ResidualSqrtPiError: residual sqrt(pi)**1"
    assert all(" T3: " in line for line in report.mismatches[:-1])
