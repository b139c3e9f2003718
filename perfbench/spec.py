"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is the one source of the workload
names, metric names, units and bounds; this module reads it and adds what
the harness needs besides.
"""
from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 0

_BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS: int = _BENCHMARK["run_seconds"]
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in _BENCHMARK["workloads"]}
# (name, unit, better, bound).  failed_frac is printed with these but is not
# listed: it is 0 at a correct commit, and the run's JSON already carries
# "attempted" and "failed".
END_TO_END = tuple((m["name"], m["unit"], m["better"], m["bound"]) for m in _BENCHMARK["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"], m["better"]) for m in _BENCHMARK["per_layer"])

EVALUATORS = ("A", "B", "C", "T3", "AFactorial", "BFactorial", "CFactorial")

# Self time in seconds of each traced layer: the metric name is the span name
# plus "_s".
TIMED_LAYERS = (
    "labels.canonical",
    "sixj.select",
    "sixj.sum",
    "sixj.assemble",
    *(f"sixj.c_alpha.{m}" for m in EVALUATORS),
    "kdf.series",
    "oracle.su2_routes",
    "spn.sum",
    "spn.u_sp",
    "cli.render",
)

# Counts that must repeat exactly between two traced passes on one seed.
EXACT_COUNTS = (
    "labels.canonical_calls",
    "sixj.cache_hits",
    "sixj.cache_misses",
    "sixj.terms_predicted",
    "sixj.terms_realized",
    "sixj.result_bits",
    "kdf.undefined_skips",
    "spn.terms",
)
