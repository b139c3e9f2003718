"""The module attributes perfbench/tracing.py replaces to time each layer."""

import contextlib
import importlib
import io

import pytest

from sonsixj.labels import SixJLabels
from sonsixj.spn import SpLabels

HOOKS = {
    "sixj": ("canonical_representative", "select_method", "c_alpha", "assemble_sixj",
             "cache_clear"),
    "cli": ("sixj", "render_exact", "render_decimal"),
    "spn": ("sp_sum_terms", "double_sum"),
}


@pytest.mark.parametrize("module, attr", [(m, a) for m, attrs in HOOKS.items() for a in attrs])
def test_hook_exists(module, attr):
    # the package rebinds sonsixj.sixj to the function, so fetch modules by name
    assert callable(getattr(importlib.import_module(f"sonsixj.{module}"), attr))


def test_sixj_calls_module_level_callees(monkeypatch):
    sixj_mod = importlib.import_module("sonsixj.sixj")
    calls = {name: 0 for name in ("select_method", "c_alpha", "assemble_sixj")}

    def counting(name):
        original = getattr(sixj_mod, name)

        def stand_in(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return stand_in

    for name in calls:
        monkeypatch.setattr(sixj_mod, name, counting(name))
    sixj_mod.cache_clear()
    lab = SixJLabels(2, 2, 2, 2, 2, 2, 6)
    first = sixj_mod.sixj(lab)
    assert calls == {"select_method": 1, "c_alpha": 1, "assemble_sixj": 1}  # miss
    assert sixj_mod.sixj(lab) == first
    assert calls == {"select_method": 1, "c_alpha": 1, "assemble_sixj": 1}  # hit
    sixj_mod.cache_clear()
    sixj_mod.sixj(lab)
    assert calls == {"select_method": 2, "c_alpha": 2, "assemble_sixj": 2}


def test_u_sp_calls_module_level_double_sum(monkeypatch):
    spn_mod = importlib.import_module("sonsixj.spn")
    calls = []
    original = spn_mod.double_sum

    def stand_in(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spn_mod, "double_sum", stand_in)
    assert not spn_mod.u_sp(SpLabels(1, 1, 2, 1, 1, 2, 2), "b").value.is_zero()
    assert len(calls) == 1
    assert spn_mod.u_sp(SpLabels(0, 0, 0, 2, 2, 2, 1)).value.is_zero()  # inadmissible
    assert len(calls) == 1


def test_cli_calls_module_level_sixj_and_renderers(monkeypatch):
    cli_mod = importlib.import_module("sonsixj.cli")
    names = HOOKS["cli"]
    calls = {name: 0 for name in names}

    def counting(name):
        original = getattr(cli_mod, name)

        def stand_in(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return stand_in

    for name in names:
        monkeypatch.setattr(cli_mod, name, counting(name))
    for argv in (["sixj", "--n", "6", "--format", "json", "--", "2", "2", "2", "2", "2", "2"],
                 ["sweep", "--n", "4", "--max-label", "0"]):
        before = dict(calls)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli_mod.main(argv) == 0
        assert len(out.getvalue().splitlines()) == 1
        assert {name: calls[name] - before[name] for name in names} == dict.fromkeys(names, 1), argv
