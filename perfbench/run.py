"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large --seed 3 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off: the
set-up time of fresh interpreters, then cycles of the workload for
``--seconds`` of timed work, each cycle checked against an independent route
outside the timed region.  With ``--trace 1`` it runs a fixed, seeded share
of the workload four times, each in a fresh interpreter: untraced, traced,
untraced, traced.  It reports the per-layer metrics of the first traced pass
and the tracing overhead; the two traced passes must give identical counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
machine it ran on is written under ``perfbench/out/``: numbers from different
machines are not comparable.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_RUNS = 7
SETUP_CODE = ("import sonsixj\n"
              "print(sonsixj.sixj(sonsixj.SixJLabels(2, 2, 2, 2, 2, 2, 6)).value)")
SETUP_VALUE = "9/400"

_clock = time.perf_counter
_START = _clock()


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def _remaining() -> float:
    left = DEADLINE_S - (_clock() - _START)
    if left <= 0:
        raise BenchError("ran out of time")
    return left


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "loadavg_at_start": list(os.getloadavg()),
        "note": "numbers from different machines are not comparable",
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns the latency, that percentile and the sample count; with fewer than
    11 samples it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def block_tail(cycle_latencies: list[list[float]], block: int) -> tuple[float, float, int, int]:
    """The median over blocks of ``block`` consecutive cycles of each block's tail.

    A block holds a fixed amount of work, so the tail's percentile does not
    change with the number of cycles that fit into a run.  Returns the
    latency, the first block's percentile and sample count, and the number of
    complete blocks."""
    tails = [tail([x for lat in cycle_latencies[k:k + block] for x in lat])
             for k in range(0, len(cycle_latencies) - block + 1, block)]
    return statistics.median(t[0] for t in tails), tails[0][1], tails[0][2], len(tails)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Fresh interpreters from spawn to exit, each importing sonsixj and computing
    one trivial symbol.  The first launch writes bytecode and is not counted."""
    times = []
    for k in range(SETUP_RUNS + 1):
        t0 = _clock()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=_remaining())
        elapsed = _clock() - t0
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_VALUE:
            raise BenchError(f"set-up run failed: {proc.stderr.strip() or proc.stdout.strip()}")
        if k:
            times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# the end-to-end run
# ---------------------------------------------------------------------------

def digest_matches(wl, results) -> bool:
    """The default seed's first cycle against its stored digest."""
    from workloads import digest

    stored = json.loads(DIGESTS.read_text()).get(wl.name)
    if stored is not None and stored == digest(wl.digest_lines(results)):
        return True
    print(f"digest mismatch on {wl.name} (stored {stored})", file=sys.stderr)
    return False


def run_end_to_end(args) -> dict:
    from spec import DEFAULT_SEED
    from workloads import WORKLOADS, Ops

    setup = measure_setup()
    wl = WORKLOADS[args.workload](args.seed, Ops())
    wl.warm_up()
    cycle_latencies: list[list[float]] = []
    attempted = failed = 0
    elapsed = checking = 0.0
    cycle_s = []
    cycles = 0
    # at least one block of the tail, then until --seconds of timed work
    while cycles < wl.TAIL_CYCLES or elapsed < args.seconds:
        wl.inputs(cycles)
        t0 = _clock()
        results = wl.cycle(cycles)
        cycle_s.append(_clock() - t0)
        elapsed += cycle_s[-1]
        attempted += len(results)
        cycle_latencies.append([r.latency for r in results if r.latency is not None])
        if cycles == 0:
            # after a fixed amount of work and before any check, so that
            # neither the number of cycles nor the check code shows
            rss = peak_rss_mb()
        t0 = _clock()
        bad = wl.check(cycles, results)
        if cycles == 0 and args.seed == DEFAULT_SEED and not bad and not digest_matches(wl, results):
            bad = len(results)
        failed += bad
        checking += _clock() - t0
        cycles += 1
        _remaining()
    latencies = [x for lat in cycle_latencies for x in lat]
    if not latencies:
        raise BenchError("no result succeeded")
    tail_ms, tail_pct, samples, blocks = block_tail(cycle_latencies, wl.TAIL_CYCLES)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup),
            "throughput_per_s": (attempted - failed) / elapsed,
            "latency_ms_p50": 1000 * statistics.median(latencies),
            "latency_ms_tail": 1000 * tail_ms,
            "peak_rss_mb": rss,
        },
        "info": {
            "failed_frac": failed / attempted,
            "tail_percentile": tail_pct,
            "tail_block_samples": samples,
            "tail_blocks": blocks,
            "cycles": cycles,
            "timed_s": elapsed,
            "check_s": checking,
            "cycle_s": cycle_s,
            "setup_runs_s": setup,
        },
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_pass(args) -> dict:
    """One pass in this interpreter: a fixed number of cycles, traced or not."""
    from tracing import Tracer
    from workloads import WORKLOADS, Ops

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.pass_mode == "traced" else None
    wl = cls(args.seed, Ops(tracer))
    cycles = cls.trace_cycles(args.seconds)
    for i in range(cycles):
        wl.inputs(i)
    results = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = _clock()
        for i in range(cycles):
            results.append(wl.cycle(i))
        wall = _clock() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "wall_s": wall,
        "attempted": sum(len(r) for r in results),
        # every pass computes the same values, so the first one checks them
        "failed": sum(wl.check(i, r) for i, r in enumerate(results)) if args.pass_index == 0 else 0,
        "layers": {},
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}_{args.pass_index}.json")
    return record


def run_traced(args) -> dict:
    from spec import EXACT_COUNTS

    records = []
    # alternating, so that drift in the machine's speed falls on both sides
    for index, mode in enumerate(("plain", "traced", "plain", "traced")):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
               "--pass", mode, "--pass-index", str(index)]
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=_remaining())
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass failed: {proc.stderr.strip()[-2000:]}")
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    plain, first, plain2, second = records
    unsteady = [name for name in EXACT_COUNTS if first["layers"][name] != second["layers"][name]]
    metrics = dict(first["layers"])
    metrics["bench.trace_overhead_frac"] = ((first["wall_s"] + second["wall_s"])
                                            / (plain["wall_s"] + plain2["wall_s"]) - 1)
    return {
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": metrics,
        "info": {
            "counts_repeat": not unsteady,
            "counts_differing": unsteady,
            "pass_wall_s": [r["wall_s"] for r in records],
        },
        "self_check_failed": bool(unsteady),
    }


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one pass of a traced run, in a fresh interpreter
    p.add_argument("--pass", dest="pass_mode", choices=("plain", "traced"), default=None)
    p.add_argument("--pass-index", type=int, default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sonsixj" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'sonsixj'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sonsixj

    if Path(sonsixj.__file__).resolve().parent != SRC / "sonsixj":
        print(f"perfbench: imported sonsixj from {sonsixj.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spec import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.pass_mode is not None:
        print(json.dumps(run_pass(args)))
        return 0

    machine = machine_record()
    try:
        outcome = run_traced(args) if args.trace else run_end_to_end(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, *_ in (END_TO_END if not args.trace else PER_LAYER)}
    correct = outcome["failed"] == 0 and not outcome.get("self_check_failed", False)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"machine: python {machine['python']}, nproc {machine['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in machine['loadavg_at_start'])} "
          f"({machine['note']})")
    for name, value in outcome["metrics"].items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    info = outcome["info"]
    if not args.trace:
        print(f"  {'failed_frac':30s} {info['failed_frac']:14.6g} "
              f"({outcome['failed']} of {outcome['attempted']})")
        print(f"  tail is p{info['tail_percentile']:.2f} of {info['tail_block_samples']} samples, "
              f"median of {info['tail_blocks']} blocks; "
              f"{info['cycles']} cycles in {info['timed_s']:.2f} s timed, "
              f"checks took {info['check_s']:.2f} s")
    elif not info["counts_repeat"]:
        print(f"  exact counts differ between the two traced passes: {info['counts_differing']}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "correct": correct,
              "attempted": outcome["attempted"], "failed": outcome["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in outcome["metrics"].items()},
              "info": info}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
