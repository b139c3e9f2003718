"""Spans around the package's layers, recorded from the benchmark's side.

A span is ``[name, start, end, parent, result_id]``: start and end come from
``time.perf_counter``, parent is the index of the enclosing span (or None) and
result_id names the workload result the work belongs to.  Spans stay in
memory and are written out once, when the pass ends.

Layers the package calls internally are reached by replacing the module
attribute the caller looks up (``sonsixj.sixj.select_method`` is what
``sixj()`` calls) with a timing wrapper for the length of a traced pass.
The package itself is not changed.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from spec import EXACT_COUNTS, TIMED_LAYERS
from workloads import orbit_key

_clock = time.perf_counter


def result_bits(value) -> int:
    """Bits in the numerator, denominator and radicand of an exact surd."""
    q, r = value.coeff, value.radicand
    return sum(x.bit_length() for x in (q.numerator, q.denominator, r.numerator, r.denominator))


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.result_id: int | None = None
        self._stack: list[int] = []
        self._seen_orbits: set[tuple] = set()
        self._open_row: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, self.result_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name: str, after=None):
        """fn timed as span ``name``; ``after(result)`` updates counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(out)
            return out

        return traced

    # -- the sixj entry point and the sweep's rows -----------------------------

    def wrap_sixj(self, fn):
        """Span "sixj" with the cache mirrored from the orbit key.

        Every label set of one orbit shares a value, and the package caches
        by orbit, so a key seen before in this pass is a cache hit.  Forced
        methods bypass the cache and are not counted.
        """

        timed = self.wrap(fn, "sixj")

        def traced(labels, method="auto", **kwargs):
            if method == "auto":
                key = orbit_key(labels.six, labels.n)
                self.count("sixj.cache_hits" if key in self._seen_orbits else "sixj.cache_misses")
                self._seen_orbits.add(key)
            out = timed(labels, method, **kwargs)
            self.count("sixj.result_bits", result_bits(out.value))
            return out

        return traced

    def wrap_row_sixj(self, fn):
        """sixj as the sweep calls it: the first call of each row opens a "cli.row" span."""
        inner = self.wrap_sixj(fn)

        def traced(labels, *args, **kwargs):
            if self._open_row is None:
                self._open_row = self.begin("cli.row")
            return inner(labels, *args, **kwargs)

        return traced

    def clear_cache_mirror(self) -> None:
        """The package's value cache was emptied: every orbit is new again."""
        self._seen_orbits.clear()

    def row_done(self) -> None:
        """The sweep wrote a row: close its span."""
        if self._open_row is not None:
            self.end(self._open_row)
            self._open_row = None
            if self.result_id is not None:
                self.result_id += 1

    # -- installing the wrappers -------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _materialized_sp_sum(self, fn):
        def traced(arr, n, method):
            idx = self.begin("spn.sum")
            try:
                terms = list(fn(arr, n, method))
            finally:
                self.end(idx)
            self.count("spn.terms", len(terms))
            return iter(terms)

        return traced

    def install(self) -> None:
        """Wrap the layer functions the package calls internally."""
        # the package rebinds the name sonsixj.sixj to the function, so fetch modules by name
        sixj_mod, cli_mod, spn_mod = (importlib.import_module(f"sonsixj.{m}")
                                      for m in ("sixj", "cli", "spn"))
        self._patch(sixj_mod, "canonical_representative",
                    self.wrap(sixj_mod.canonical_representative, "labels.canonical",
                              lambda _: self.count("labels.canonical_calls")))
        self._patch(sixj_mod, "select_method",
                    self.wrap(sixj_mod.select_method, "sixj.select",
                              lambda choice: self.count("sixj.terms_predicted", choice.predicted_terms)))
        self._patch(sixj_mod, "c_alpha",
                    self.wrap(sixj_mod.c_alpha, "sixj.sum",
                              lambda ca: self.count("sixj.terms_realized", ca.terms)))
        self._patch(sixj_mod, "assemble_sixj", self.wrap(sixj_mod.assemble_sixj, "sixj.assemble"))
        self._patch(cli_mod, "sixj", self.wrap_row_sixj(cli_mod.sixj))
        self._patch(cli_mod, "render_exact", self.wrap(cli_mod.render_exact, "cli.render"))
        self._patch(cli_mod, "render_decimal", self.wrap(cli_mod.render_decimal, "cli.render"))
        self._patch(spn_mod, "sp_sum_terms", self._materialized_sp_sum(spn_mod.sp_sum_terms))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results -------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def first_row_s(self) -> float:
        """Summed over sweeps: from the sweep's start to the end of its first row."""
        total = 0.0
        sweep_start = None
        for name, start, end, _, _ in self.spans:
            if name == "cli.sweep":
                sweep_start = start
            elif name == "cli.row" and sweep_start is not None:
                total += end - sweep_start
                sweep_start = None
        return total

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, which needs an untraced pass."""
        self_s = self.self_times()
        out: dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_LAYERS}
        for name in EXACT_COUNTS:
            out[name] = self.counts.get(name, 0)
        lookups = out["sixj.cache_hits"] + out["sixj.cache_misses"]
        out["sixj.cache_hit_ratio"] = out["sixj.cache_hits"] / lookups if lookups else 0.0
        predicted = out["sixj.terms_predicted"]
        out["sixj.terms_useful_ratio"] = out["sixj.terms_realized"] / predicted if predicted else 0.0
        out["cli.first_row_s"] = self.first_row_s()
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "result_id"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "notes": "spn.u_sp self time is an estimate: u_sp minus the sp_sum_terms "
                                "generation timed inside it"}, fh)
