"""Quick tests of the benchmark itself:  python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import subprocess
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from sonsixj import SixJLabels, SpLabels, admissible, select_method  # noqa: E402
from sonsixj.spn import sp_admissible  # noqa: E402

import spec  # noqa: E402
from workloads import WORKLOADS, Large, Ops, admissible_sets, orbit_key  # noqa: E402


def _inputs(name: str, seed: int, cycles: int) -> list:
    wl = WORKLOADS[name](seed, Ops())
    return [lab for i in range(cycles) for lab in wl.inputs(i)]


def test_generators_are_deterministic_per_seed():
    for name in WORKLOADS:
        assert _inputs(name, 7, 2) == _inputs(name, 7, 2)
        assert _inputs(name, 7, 2) != _inputs(name, 8, 2)


def test_generators_emit_only_admissible_inputs():
    for name in WORKLOADS:
        for seed in (0, 1):
            for lab in _inputs(name, seed, 3):
                if isinstance(lab, SpLabels):
                    assert sp_admissible(lab), lab
                else:
                    assert admissible(lab), lab


def test_admissible_sets_match_the_package():
    ours = set(admissible_sets(4))
    theirs = {six for six in product(range(5), repeat=6) if admissible(SixJLabels(*six, 6))}
    assert ours == theirs


def test_large_inputs_are_distinct_orbits_with_large_lattices():
    labels = _inputs("large", 3, 1)
    assert len({orbit_key(lab.six, lab.n) for lab in labels}) == len(labels)
    for lab in labels:
        assert select_method(lab).predicted_terms >= Large.MIN_LATTICE, lab


def _run(*args: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def test_tiny_end_to_end_pass_prints_every_metric_name():
    for trace, metrics in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
        code, out = _run("--workload", "crosscheck", "--seed", "5", "--seconds", "1",
                         "--trace", str(trace))
        assert code == 0, out
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = [m[0] for m in metrics]
        assert list(result["metrics"]) == names
        for name in names:
            assert name in out.split("\n{")[0]


def test_repeated_cycles_must_reproduce_the_checked_cycle():
    wl = WORKLOADS["sp"](1, Ops())
    assert wl.check(0, wl.cycle(0)) == 0
    results = wl.cycle(1)
    assert wl.check(1, results) == 0
    labels, coeff = results[3].item
    results[3] = results[3]._replace(item=(labels, coeff.__class__(-coeff.value, labels, coeff.method)))
    assert wl.check(1, results) == 1
