"""In-memory spans around the calls into each gldx layer.

The wrappers live here, not in the package: ``Tracer.installed()``
swaps them onto the package's classes and module names for the length
of one traced pass and restores the originals afterwards.  A span has a
name, start, end, parent span and operation id; a layer's self time is
its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter

import numpy as np

import gldx.cli as cli
import gldx.exponents as exponents

LAYERS = (
    "cli",
    "exponents.floor",
    "exponents.floor_batch",
    "exponents.inner_scan",
    "exponents.refine",
    "exponents.stack_value",
    "exponents.polish",
    "optimizer.line_search",
    "optimizer.rho_search",
    "simulator.exact",
    "simulator.mc",
    "simulator.good_code",
)

COUNTS = (
    "exponents.floor.calls",
    "exponents.floor.distinct_qy",
    "exponents.floor_batch.rows",
    "exponents.inner_scan.calls",
    "exponents.inner_scan.stacks",
    "exponents.inner_scan.min_inner_res",
    "exponents.refine.calls",
    "exponents.stack_value.calls",
    "exponents.polish.calls",
    "optimizer.line_search.calls",
    "optimizer.line_search.probes",
    "optimizer.rho_search.probes",
    "simulator.exact.calls",
    "simulator.exact.outputs",
    "simulator.mc.trials",
    "simulator.good_code.outputs",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.floor_args: list[tuple[int, np.ndarray]] = []
        self.inner_res: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(math.nan)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        counts = self.counts
        ev, solver = exponents.CompetitorScoreEvaluator, exponents.ConfusionExponentSolver

        def floor_arg(_, q_y):
            counts["exponents.floor.calls"] += 1
            self.floor_args.append((self.op, np.array(q_y, dtype=np.float64)))

        def exact_outputs(code, m, channel, *_, **__):
            counts["simulator.exact.calls"] += 1
            counts["simulator.exact.outputs"] += channel.output_size**code.blocklength

        def mc_trials(code, m, channel, metric, trials, *_, **__):
            counts["simulator.mc.trials"] += int(trials)

        def good_code_outputs(report):
            counts["simulator.good_code.outputs"] += report.n_checked

        def stack_calls(*_):
            counts["exponents.stack_value.calls"] += 1

        def batch_rows(_, rows):
            counts["exponents.floor_batch.rows"] += len(rows)

        wrappers = [
            (ev, "value", lambda f: self._span("exponents.floor", f, before=floor_arg)),
            (ev, "value_batch", lambda f: self._span("exponents.floor_batch", f, before=batch_rows)),
            (solver, "solve", self._solve),
            (solver, "stack_value", lambda f: self._span("exponents.stack_value", f, before=stack_calls)),
            (exponents, "golden_section_minimize", lambda f: self._search("optimizer.line_search", f)),
            (exponents, "concave_search_rho", lambda f: self._search("optimizer.rho_search", f)),
            (cli, "exact_error_probability", lambda f: self._span("simulator.exact", f, before=exact_outputs)),
            (cli, "monte_carlo_error", lambda f: self._span("simulator.mc", f, before=mc_trials)),
            (cli, "check_good_code", lambda f: self._span("simulator.good_code", f, after=good_code_outputs)),
        ]
        saved = []
        try:
            for owner, attr, make in wrappers:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, make(orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def call(self, op: int, fn, *args):
        """Run one operation under a root ``cli`` span."""
        self.op = op
        try:
            return self._span("cli", fn)(*args)
        finally:
            self.op = -1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before`` sees the arguments, ``after`` the result."""

        def wrapper(*args, **kw):
            if before is not None:
                before(*args, **kw)
            i = self.begin(name)
            try:
                result = fn(*args, **kw)
            finally:
                self.finish(i)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _search(self, name: str, fn):
        """A 1-D search in a span, counting calls and objective probes."""

        def search(objective, *args, **kw):
            def probe(t):
                self.counts[name + ".probes"] += 1
                return objective(t)

            self.counts[name + ".calls"] += 1
            return self._span(name, fn)(probe, *args, **kw)

        return search

    def _solve(self, orig):
        def solve(solver, coupling, counts=None, *, refine=None, skip_grid=False, **kw):
            if skip_grid:
                name = "exponents.polish"
            elif solver.grid.refine if refine is None else refine:
                name = "exponents.refine"
            else:
                name = "exponents.inner_scan"
            self.counts[name + ".calls"] += 1
            sol = self._span(name, orig)(solver, coupling, counts, refine=refine, skip_grid=skip_grid, **kw)
            if name == "exponents.inner_scan" and solver.score_eval.mode != "const":
                # The scan enumerates one grid kernel per positive coupling cell.
                cells = int(np.count_nonzero(np.asarray(coupling) > 0))
                n_opt = math.comb(sol.inner_resolution + solver.l - 1, solver.l - 1)
                self.counts["exponents.inner_scan.stacks"] += n_opt**cells
                self.inner_res.append(sol.inner_resolution)
            return sol

        return solve

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time, in seconds, summed over all spans."""
        start = np.array(self.starts)
        dur = np.array(self.ends) - start
        parent = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        names = np.array(self.names)
        return {layer: float(own[names == layer].sum()) for layer in LAYERS}

    def count_metrics(self) -> dict[str, int]:
        counts = {name: int(self.counts[name]) for name in COUNTS}
        # Distinct floor arguments per operation, keyed as the floor memo
        # keys them (rounded to 12 digits); each operation builds its own
        # evaluator, so distinct keys are counted per operation.
        distinct = 0
        by_op: dict[int, list[np.ndarray]] = {}
        for op, q in self.floor_args:
            by_op.setdefault(op, []).append(q)
        for rows in by_op.values():
            distinct += len({tuple(r) for r in np.round(np.stack(rows), 12)})
        counts["exponents.floor.distinct_qy"] = distinct
        counts["exponents.inner_scan.min_inner_res"] = min(self.inner_res, default=0)
        return counts

    def save(self, path) -> None:
        """Write the spans as arrays (``names`` indexes ``layers``)."""
        index = {layer: j for j, layer in enumerate(LAYERS)}
        np.savez(
            path,
            layers=np.array(LAYERS),
            names=np.array([index[n] for n in self.names], dtype=np.int16),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            parents=np.array(self.parents, dtype=np.int64),
            ops=np.array(self.ops, dtype=np.int32),
        )
