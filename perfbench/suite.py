"""Run every workload over several seeds and report the spread of each metric.

    python3 perfbench/suite.py                          # every workload, default seed
    python3 perfbench/suite.py --seeds 1 2 3 4 5 --workloads large
    python3 perfbench/suite.py --trace 1                # per-layer metrics
    python3 perfbench/suite.py --record-digests         # store the default seed's digests

Each run is ``perfbench/run.py`` in a fresh interpreter, one after another.  For every
metric the report gives the median over the runs and the spread: the
distance between the first and third quartile as a share of the median,
which for an end-to-end metric must stay below its bound.  All runs are
saved in ``perfbench/out/suite.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spec import DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    return json.loads(lines[-1])


def report(runs: dict[str, list[dict]], trace: int) -> None:
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    for workload, results in runs.items():
        good = [r for r in results if r.get("correct")]
        attempted = sum(r.get("attempted", 0) for r in results)
        failed = sum(r.get("failed", 0) for r in results)
        print(f"\n{workload}: {len(good)} of {len(results)} runs correct, "
              f"failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
        if not good:
            continue
        for name, first in good[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in good]
            median = statistics.median(values)
            line = f"  {name:30s} median {median:12.6g} {first['unit']:6s}"
            if len(values) >= 2 and median:
                s = spread(values)
                line += f"  spread {s:7.4f}"
                if not trace:
                    line += f"  bound {bounds[name]:.2f}  spread/bound {s / bounds[name]:.2f}"
            print(line)


def record_digests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS as CLASSES, Ops, digest

    digests = {}
    for name, cls in CLASSES.items():
        wl = cls(DEFAULT_SEED, Ops())
        wl.inputs(0)
        results = wl.cycle(0)
        if wl.check(0, results):
            raise SystemExit(f"{name}: the first cycle fails its check; not recording")
        digests[name] = digest(wl.digest_lines(results))
        print(f"{name}: {digests[name]}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=[DEFAULT_SEED])
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for workload in args.workloads:
        for seed in args.seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            result["seed"] = seed
            runs[workload].append(result)
            brief = "  ".join(f"{k}={v['value']:.5g}" for k, v in result.get("metrics", {}).items()
                              if not args.trace)
            print(f"{workload} seed {seed}: correct={result.get('correct')} {brief}"
                  f"{result.get('error', '')}", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "suite.json").write_text(json.dumps(runs, indent=1) + "\n")
    report(runs, args.trace)
    return 0 if all(r.get("correct") for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
