"""Seeded inputs, timed cycles and correctness checks for the four workloads.

A workload runs in cycles.  ``inputs(i)`` makes cycle i's inputs from the
seed (outside any timing), ``cycle(i)`` evaluates them and returns one
``Result`` per result, and ``check(i, results)`` compares the values with an
independent route, outside the timed region, and returns the number that
failed.  The same seed always gives the same inputs.

Every cycle starts with an empty value cache.  Where cycles repeat their
inputs (``PERIOD``), only the first period goes through the independent
route, which costs about as much as the timed work; later cycles must then
reproduce its results exactly.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import random
import time
from contextlib import nullcontext
from itertools import product
from typing import NamedTuple

from sonsixj import (
    SixJLabels,
    SpLabels,
    c_alpha,
    kdf_c_alpha,
    sixj,
    sixj_via_su2_pair,
    sixj_via_su2_triple,
    u_sp,
)
from sonsixj import cli
from sonsixj.cli import parse_exact, render_exact
from sonsixj.kdf import IndefinitePrefactorError

from spec import EVALUATORS

KDF_VARIANTS = ("1a", "1b", "2a", "2b", "3a", "3b")
TRIADS = ((0, 1, 2), (0, 4, 5), (1, 3, 5), (4, 3, 2))  # (a,b,e) (a,c,f) (b,d,f) (c,d,e)

_clock = time.perf_counter
_NO_SPAN = nullcontext()


class Result(NamedTuple):
    latency: float | None  # seconds; None when the result failed or was not timed alone
    item: object
    error: str | None = None


# ---------------------------------------------------------------------------
# label arithmetic of the benchmark's own, independent of the package
# ---------------------------------------------------------------------------

def triads_ok(six) -> bool:
    """Nonnegative labels whose four triads have even sums and obey the triangle rule."""
    if min(six) < 0:
        return False
    for i, j, k in TRIADS:
        x, y, z = six[i], six[j], six[k]
        if (x + y + z) % 2 or x > y + z or y > x + z or z > x + y:
            return False
    return True


def half_sums(six) -> tuple[list[int], list[int]]:
    """Triad half-sums alpha (four) and label-pair half-sums beta (three)."""
    a, b, e, d, c, f = six
    alpha = [(c + d + e) // 2, (b + d + f) // 2, (a + c + f) // 2, (a + b + e) // 2]
    beta = [(a + b + c + d) // 2, (a + d + e + f) // 2, (b + c + e + f) // 2]
    return alpha, beta


def orbit_key(six, n: int) -> tuple:
    """Complete invariant of the 144-element symmetry orbit: every label set in one
    orbit, and only those, share sorted alpha, sorted beta and n."""
    alpha, beta = half_sums(six)
    return tuple(sorted(alpha)), tuple(sorted(beta)), n


def admissible_sets(max_label: int) -> list[tuple[int, ...]]:
    """Every admissible six-tuple with labels <= max_label, in lexicographic order."""
    return [six for six in product(range(max_label + 1), repeat=6) if triads_ok(six)]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


class Ops:
    """The calls a workload makes; a traced pass swaps in timed versions."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        if tracer is None:
            self.sixj = sixj
            self.u_sp = u_sp
        else:
            self.sixj = tracer.wrap_sixj(sixj)
            self.u_sp = tracer.wrap(u_sp, "spn.u_sp")

    def clear_cache(self) -> None:
        """Empty the package's value cache, and the tracer's mirror of it."""
        # the package rebinds the name sonsixj.sixj to the function, so fetch the module by name
        importlib.import_module("sonsixj.sixj").cache_clear()
        if self.tracer is not None:
            self.tracer.clear_cache_mirror()

    def span(self, name: str):
        return _NO_SPAN if self.tracer is None else self.tracer.span(name)

    def set_result(self, result_id: int) -> None:
        if self.tracer is not None:
            self.tracer.result_id = result_id

    def count(self, name: str, amount: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)

    def row_done(self) -> None:
        if self.tracer is not None:
            self.tracer.row_done()


def _timed_call(fn, arg) -> Result:
    t0 = _clock()
    try:
        out = fn(arg)
    except Exception as exc:  # a raised exception is a failed result, not a crash
        return Result(None, (arg, None), repr(exc))
    return Result(_clock() - t0, (arg, out))


class _Workload:
    name = ""
    PER_CYCLE = 1
    PERIOD = 0  # cycle i repeats the inputs of cycle i - PERIOD; 0: fresh inputs every cycle
    TAIL_CYCLES = 1  # the tail is taken over blocks of this many cycles
    TRACE_CYCLES_PER_SECOND = 1.0  # sizes a traced pass to about a quarter of --seconds

    def __init__(self, seed: int, ops: Ops) -> None:
        self.ops = ops
        self.rng = random.Random(f"{self.name}:{seed}")
        self._cycles: list[list] = []
        self._verified: dict[int, list] = {}  # cycle i % PERIOD -> its checked results

    @classmethod
    def trace_cycles(cls, seconds: int) -> int:
        return max(1, round(seconds * cls.TRACE_CYCLES_PER_SECOND))

    def warm_up(self) -> None:
        """Untimed work before the first cycle; most workloads need none."""

    def inputs(self, i: int) -> list:
        if self.PERIOD:
            i %= self.PERIOD
        while len(self._cycles) <= i:
            self._cycles.append(self._draw_cycle())
        return self._cycles[i]

    def _draw_cycle(self) -> list:
        raise NotImplementedError

    def _evaluate(self, arg):
        raise NotImplementedError

    def cycle(self, i: int) -> list[Result]:
        self.ops.clear_cache()
        out = []
        for k, arg in enumerate(self.inputs(i)):
            self.ops.set_result(i * self.PER_CYCLE + k)
            out.append(_timed_call(self._evaluate, arg))
        return out

    def check(self, i: int, results: list[Result]) -> int:
        """How many results raised or disagree with an independent route, or
        differ from the checked results of the cycle they repeat."""
        reference = self._verified.get(i % self.PERIOD) if self.PERIOD else None
        if reference is not None:
            return abs(len(results) - len(reference)) + sum(
                r.error is not None or r.item != ref for r, ref in zip(results, reference))
        failed = self._check_route(i, results)
        if self.PERIOD and not failed:
            self._verified[i % self.PERIOD] = [r.item for r in results]
        return failed

    def _check_route(self, i: int, results: list[Result]) -> int:
        return sum(r.error is not None or not self._agrees(*r.item) for r in results)

    def _agrees(self, arg, out) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# table: the sweep CLI, in process
# ---------------------------------------------------------------------------

class _RowSink:
    """Stands in for stdout during a sweep and timestamps every completed row."""

    def __init__(self, on_row) -> None:
        self.rows: list[str] = []
        self.stamps: list[float] = []
        self._parts: list[str] = []
        self._on_row = on_row

    def write(self, text: str) -> int:
        self._parts.append(text)
        if "\n" in text:
            now = _clock()
            lines = "".join(self._parts).split("\n")
            self._parts = [lines.pop()]
            for line in lines:
                self.rows.append(line)
                self.stamps.append(now)
                self._on_row()
        return len(text)

    def flush(self) -> None:
        pass


class Table(_Workload):
    """``sonsixj sweep --kind sixj`` over every admissible label set at one n.

    The seed draws one even n from 6..20 and one odd n from 7..21, a narrow
    band, so that seeds change the values but hardly the cost; cycles sweep
    them in turn.  The value cache is emptied before every cycle, so each
    cycle does the same work: the first row of every orbit misses the cache
    and the others hit it.
    """

    name = "table"
    MAX_LABEL = 6
    PERIOD = 2
    TAIL_CYCLES = 2  # one even and one odd sweep
    TRACE_CYCLES_PER_SECOND = 1 / 12  # one even and one odd sweep in a traced pass of 25 s

    def __init__(self, seed: int, ops: Ops) -> None:
        super().__init__(seed, ops)
        self.ns = (self.rng.randrange(6, 21, 2), self.rng.randrange(7, 22, 2))
        self.sets = admissible_sets(self.MAX_LABEL)
        self.PER_CYCLE = len(self.sets)

    def n(self, i: int) -> int:
        return self.ns[i % 2]

    def inputs(self, i: int) -> list[SixJLabels]:
        return [SixJLabels(*six, self.n(i)) for six in self.sets]

    def _argv(self, n_list: str) -> list[str]:
        return ["sweep", "--kind", "sixj", "--n", n_list,
                "--max-label", str(self.MAX_LABEL), "--jobs", "1"]

    def warm_up(self) -> None:
        """One sweep at both n; every timed cycle then starts with an empty value cache.

        A table builder sweeps many n in one process; without this the first
        timed sweeps alone pay for growing the heap and filling the package's
        inner caches, which the value cache does not cover."""
        with contextlib.redirect_stdout(_RowSink(lambda: None)):
            cli.main(self._argv(",".join(map(str, self.ns))))

    def cycle(self, i: int) -> list[Result]:
        """The first row's latency also covers the sweep's task generation, so
        it is left out of the latencies; the rest run from row to row."""
        argv = self._argv(str(self.n(i)))
        sink = _RowSink(self.ops.row_done)
        error = None
        self.ops.clear_cache()
        self.ops.set_result(i * self.PER_CYCLE)
        with self.ops.span("cli.sweep"), contextlib.redirect_stdout(sink):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash fails every row it did not write
                code, error = None, repr(exc)
            self.ops.row_done()  # a row the sweep began but never wrote
        if code != 0 and error is None:
            error = f"sweep exited with {code}"
        stamps = sink.stamps
        out = [Result(stamps[k] - stamps[k - 1] if k else None, row)
               for k, row in enumerate(sink.rows)]
        out += [Result(None, None, error or "missing row")] * (self.PER_CYCLE - len(out))
        return out

    def _check_route(self, i: int, results: list[Result]) -> int:
        """Rows in order, exact strings round-trip, one value per orbit, and that
        value equals a forced evaluation by another production method."""
        expected = [(six, self.n(i)) for six in self.sets]
        failed = max(0, len(results) - len(expected))
        orbits: dict[tuple, list] = {}
        for (six, n), r in zip(expected, results):
            try:
                row = json.loads(r.item)
                ok = (r.error is None and row["kind"] == "sixj" and row["n"] == n
                      and tuple(row["labels"]) == six
                      and render_exact(parse_exact(row["value_exact"])) == row["value_exact"])
            except (TypeError, ValueError, KeyError):
                ok = False
            if not ok:
                failed += 1
                continue
            fields = (row["value_exact"], row["method_used"], row["predicted_terms"])
            orbits.setdefault(orbit_key(six, n), []).append((six, n, fields))
        for members in orbits.values():
            six, n, fields = members[0]
            alt = "B" if fields[1] == "A" else "A"
            ref = render_exact(sixj(SixJLabels(*six, n), method=alt).value)
            failed += sum(1 for _, _, f in members if f != fields or f[0] != ref)
        return failed

    def digest_lines(self, results: list[Result]):
        for r in results:
            row = json.loads(r.item)
            yield (f"{row['labels']} {row['n']} {row['value_exact']} "
                   f"{row['method_used']} {row['predicted_terms']}")


# ---------------------------------------------------------------------------
# large: sixj on balanced large labels, every orbit distinct
# ---------------------------------------------------------------------------

class Large(_Workload):
    """``sixj(labels)`` (auto, cache on): one seeded batch, two symbols per rung
    of the label ladder, evaluated in every cycle."""

    name = "large"
    RUNGS = ((40, 7), (100, 10), (100, 50), (200, 10), (200, 11))  # (label size, n)
    PER_RUNG = 2
    PER_CYCLE = PER_RUNG * len(RUNGS)
    PERIOD = 1
    TAIL_CYCLES = 4  # 16 of 40 samples on the two top rungs: the tail falls inside them
    MIN_LATTICE = 200  # the cheapest summation lattice of every input is at least this
    TRACE_CYCLES_PER_SECOND = 0.1

    def __init__(self, seed: int, ops: Ops) -> None:
        super().__init__(seed, ops)
        self._seen: set[tuple] = set()

    def _draw(self, size: int, n: int) -> SixJLabels:
        """Six labels within max(4, size/20) of size, of an orbit new to this run,
        so that it misses the cache."""
        spread = max(4, size // 20)
        while True:
            six = tuple(size + self.rng.randint(-spread, spread) for _ in range(6))
            if triads_ok(six):
                key = orbit_key(six, n)
                if key not in self._seen:
                    self._seen.add(key)
                    return SixJLabels(*six, n)

    def _draw_cycle(self) -> list[SixJLabels]:
        return [self._draw(size, n) for size, n in self.RUNGS for _ in range(self.PER_RUNG)]

    def _evaluate(self, labels):
        return self.ops.sixj(labels)

    def _agrees(self, labels, value) -> bool:
        """The same symbol by a production method auto did not choose, at the literal labels."""
        alt = "B" if value.method_used == "A" else "A"
        return sixj(labels, method=alt).value == value.value

    def digest_lines(self, results: list[Result]):
        for r in results:
            labels, value = r.item
            yield (f"{list(labels.six)} {labels.n} {render_exact(value.value)} "
                   f"{value.method_used} {value.predicted_terms}")


# ---------------------------------------------------------------------------
# sp: symplectic recoupling coefficients at large rank
# ---------------------------------------------------------------------------

class Sp(_Workload):
    """``u_sp(labels)`` (method a): one seeded batch, four coefficients per rank,
    evaluated in every cycle."""

    name = "sp"
    RANKS = (60, 80, 100, 125, 150)
    PER_RANK = 4
    PER_CYCLE = PER_RANK * len(RANKS)
    PERIOD = 1
    TAIL_CYCLES = 10
    TRACE_CYCLES_PER_SECOND = 2.0

    @staticmethod
    def admissible(six, n: int) -> bool:
        """Triads couple and every triad half-sum fits in n."""
        return triads_ok(six) and max(half_sums(six)[0]) <= n

    def _draw(self, n: int) -> SpLabels:
        """Column heights within n/20 of 3n/5, so every triad half-sum stays below n."""
        height, spread = 3 * n // 5, n // 20
        while True:
            six = tuple(height + self.rng.randint(-spread, spread) for _ in range(6))
            if self.admissible(six, n):
                return SpLabels(*six, n)

    def _draw_cycle(self) -> list[SpLabels]:
        return [self._draw(n) for n in self.RANKS for _ in range(self.PER_RANK)]

    def _evaluate(self, labels):
        return self.ops.u_sp(labels)

    def _agrees(self, labels, coeff) -> bool:
        """The coefficient again by series b and by series c."""
        return u_sp(labels, "b").value == coeff.value == u_sp(labels, "c").value

    def digest_lines(self, results: list[Result]):
        for r in results:
            labels, coeff = r.item
            yield f"{list(labels.six)} {labels.n} {render_exact(coeff.value)} {coeff.method}"


# ---------------------------------------------------------------------------
# crosscheck: every independent evaluator on small labels
# ---------------------------------------------------------------------------

class Crosscheck(_Workload):
    """One label set at an even and one at an odd n per cycle, through every route."""

    name = "crosscheck"
    N_VALUES = (6, 7)
    MAX_LABEL = 5
    PER_CYCLE = len(N_VALUES)
    TAIL_CYCLES = 100
    TRACE_CYCLES_PER_SECOND = 13.0

    def __init__(self, seed: int, ops: Ops) -> None:
        super().__init__(seed, ops)
        self.sets = admissible_sets(self.MAX_LABEL)

    def _draw_cycle(self) -> list[SixJLabels]:
        return [SixJLabels(*self.rng.choice(self.sets), n) for n in self.N_VALUES]

    def _evaluate(self, labels) -> dict:
        span = self.ops.span
        values: dict[str, object] = {}
        for method in EVALUATORS:
            with span(f"sixj.c_alpha.{method}"):
                values[method] = c_alpha(labels, method)
        for variant in KDF_VARIANTS:
            try:
                with span("kdf.series"):
                    values[variant] = kdf_c_alpha(labels, variant)
            except IndefinitePrefactorError:  # the series does not exist on this label set
                self.ops.count("kdf.undefined_skips")
        if labels.n % 2 == 0:
            with span("oracle.su2_routes"):
                values["su2_triple"] = sixj_via_su2_triple(labels)
                values["su2_pair"] = sixj_via_su2_pair(labels)
        return values

    def _agrees(self, labels, values) -> bool:
        """All seven evaluators and every defined series agree on the core value;
        both oracles agree with the production symbol at even n."""
        core = values["A"].value
        if not all(values[m].value == core for m in EVALUATORS):
            return False
        if not all(values[v] == core for v in KDF_VARIANTS if v in values):
            return False
        if labels.n % 2:
            return True
        symbol = sixj(labels, method="A").value
        return values["su2_triple"] == symbol and values["su2_pair"] == symbol

    def digest_lines(self, results: list[Result]):
        for r in results:
            labels, values = r.item
            terms = " ".join(str(values[m].terms) for m in EVALUATORS)
            yield f"{list(labels.six)} {labels.n} {values['A'].value} {terms}"


WORKLOADS = {cls.name: cls for cls in (Table, Large, Sp, Crosscheck)}
