"""Error-exponent objectives for stochastic metric decoding.

The expurgated exponent of a constant-composition code under a
generalized likelihood decoder is a nested optimization: an inner
infimum over channel-behavior kernels given a codeword coupling, an
outer infimum over couplings with both marginals pinned to the code
composition, and (in the penalized form) a supremum over a tilting
parameter rho.  This module turns those objectives into concrete grid
computations on top of the optimizer module:

* ``competitor_score_exponent``: the typical score accumulated by the
  crowd of wrong codewords at a given output composition, as a function
  of the rate;
* ``pairwise_confusion_exponent``: the exponential cost of confusing a
  particular pair coupling, combining channel divergence, conditional
  information, and a clipped score deficit;
* ``expurgated_exponent`` / ``maxmin_exponent``: the constrained and
  penalized outer forms, which coincide for metrics affine in the joint
  type;
* ``exponent_form``: picks the form sanctioned for the metric at hand
  and reports the gap between the two as a diagnostic.

Values live on the extended real line; +inf is produced by support
analysis (a forbidden cell carrying unavoidable mass), never by
floating-point overflow.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import (
    Channel,
    Distribution,
    DistributionError,
    JointDistribution,
    compositions,
    entropy_rows,
    mutual_information_stack,
)
from .metrics import Metric
from .optimizer import (
    INFO_SLACK,
    GridSpec,
    InfeasibleGridError,
    concave_search_rho,
    digits,
    enumerate_margin_tables,
    golden_section_minimize,
    largest_resolution,
    margin_counts,
    move_directions,
    ordered_chunk_map,
)

_FLOOR_BUDGET = 300_000  # grid kernels one competitor-floor scan may enumerate
_INNER_BUDGET = 2_000_000  # kernel stacks one inner scan may enumerate
_CHUNK_SIZE = 1 << 18  # kernel stacks per scan chunk; fixed so workers cannot matter
_REFINE_TOL = 1e-7  # a descent sweep gaining less than this ends the descent
_MAX_REFINE_SWEEPS = 500
_GRID_SENTINEL = (np.array([np.iinfo(np.int64).max]), np.array([math.nan]))


@dataclass(frozen=True)
class ExponentQuery:
    """One exponent computation: rate, composition, channel, metric.

    ``rho_max`` caps the search over the tilting parameter.
    """

    rate: float
    composition: Distribution
    channel: Channel
    metric: Metric
    rho_max: float = 64.0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise DistributionError(f"rate must be >= 0, got {self.rate}")
        if self.rho_max < 1:
            raise DistributionError(f"rho_max must be >= 1, got {self.rho_max}")
        if self.composition.size != self.channel.input_size:
            raise DistributionError("composition size does not match channel input")
        if (
            self.metric.x_size != self.channel.input_size
            or self.metric.y_size != self.channel.output_size
        ):
            raise DistributionError("metric shape does not match channel")


@dataclass
class ExponentResult:
    """Outcome of an exponent computation.

    ``value`` is in nats and satisfies value >= -rate.  ``argmin`` is
    the minimizing codeword-pair coupling.  ``rho_star`` and
    ``boundary_flag`` describe the tilting search when one ran;
    ``gap`` is constrained-form minus penalized-form when both were
    computed.  ``form`` says which form ``value`` came from.
    """

    value: float
    argmin: np.ndarray | None
    rho_star: float | None
    boundary_flag: bool
    gap: float | None
    resolution: int
    form: str
    expurgated_value: float | None = None
    maxmin_value: float | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "rho_star": self.rho_star,
            "boundary_flag": self.boundary_flag,
            "gap": self.gap,
            "argmin": None if self.argmin is None else [[float(v) for v in r] for r in self.argmin],
            "resolution": self.resolution,
            "form": self.form,
            "expurgated": self.expurgated_value,
            "maxmin": self.maxmin_value,
            "note": self.note,
        }


class CompetitorScoreEvaluator:
    """Supremum of score minus information over output-conditional kernels.

    For a fixed output composition q_y, evaluates

        sup { score(joint) - I(input; output) } + rate

    over kernels (one input distribution per output symbol) whose
    mutual information with q_y stays at or below the rate.  The
    independent kernel is always feasible, so the value is finite
    unless the score is -inf on the whole feasible set.

    Kernels are enumerated on the rational grid with denominator
    ``resolution`` (capped so the enumeration stays within
    ``_FLOOR_BUDGET`` points).  The grid supremum never exceeds the
    true supremum.  Two metric families short-circuit exactly: a
    constant metric gives value + rate (the independent kernel is
    optimal), and the empirical-mutual-information metric gives rate
    (score cancels the information term on the feasible set); all
    three entry points then return that one base value.

    Otherwise one kernel, the one-row ``_scan``, computes every value,
    so a composition reads the same bits through each entry point and
    in any batch; the entry points differ only in their memos:

    * ``value(q)``: one composition, memoized on q rounded to 12 digits
      (a later q with the same key gets the first one's value);
    * ``value_batch(rows)``: one scan per bitwise-distinct row, not
      memoized;
    * ``value_grid(counts, den)``: integer compositions ``counts / den``,
      memoized per denominator on an exact integer key; misses go
      through ``value_batch``.
    """

    def __init__(self, metric: Metric, rate: float, y_size: int, resolution: int):
        if resolution < 2:
            raise DistributionError(f"grid resolution must be >= 2, got {resolution}")
        if rate < 0:
            raise DistributionError(f"rate must be >= 0, got {rate}")
        if metric.y_size != y_size:
            raise DistributionError("metric output size does not match y_size")
        self.metric = metric
        self.rate = float(rate)
        self.y_size = y_size
        self.kx = metric.x_size
        self._memo: dict[tuple, float] = {}
        # den -> (sorted integer keys, values at those keys)
        self._grid_memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._base: float | None = None
        if not metric.is_affine:
            self.mode = "emi"
            self._base = self.rate
            return
        cells = metric.cells
        finite = cells[np.isfinite(cells)]
        if finite.size == cells.size and np.all(cells == cells.flat[0]):
            self.mode = "const"
            self._base = float(cells.flat[0]) + self.rate
            return
        self.mode = "scan"
        k = largest_resolution(resolution, self.kx, y_size, _FLOOR_BUDGET)
        opts_counts = compositions(k, self.kx)
        opts = opts_counts.astype(np.float64) / k
        n_opt = opts.shape[0]
        row_h = entropy_rows(opts)
        # Per-option, per-output score with -inf awareness.
        neg = np.isneginf(cells)
        cfin = np.where(neg, 0.0, cells)
        sfin = opts @ cfin  # (n_opt, y_size)
        sbad = (opts > 0).astype(np.float64) @ neg.astype(np.float64) > 0
        kern = digits(np.arange(n_opt**y_size), n_opt, y_size)  # option per output
        self._row_entropy = row_h[kern]  # (n_kern, y_size)
        self._kernel_rows = opts[kern]  # (n_kern, y_size, kx)
        ycols = np.arange(y_size)
        self._score_fin = sfin[kern, ycols]  # (n_kern, y_size)
        self._score_bad = sbad[kern, ycols].astype(np.float64)

    def value(self, q_y) -> float:
        """Value at one output composition (an array or a list of floats), memoized."""
        if self._base is not None:
            return self._base
        q = q_y if isinstance(q_y, list) else np.asarray(q_y, dtype=np.float64).tolist()
        try:
            # np.round(q, 12) entry by entry: rint(v * 1e12) / 1e12.
            key = tuple([round(v * 1e12) / 1e12 for v in q])
        except (ValueError, OverflowError):
            key = None  # a nan or inf entry: np.round's key would never hit either
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out = float(self._scan(np.array(q, dtype=np.float64)[None, :])[0])
        if key is not None:
            self._memo[key] = out
        return out

    def value_batch(self, rows: np.ndarray) -> np.ndarray:
        """Values for a stack of output compositions; not memoized.

        Each bitwise-distinct row is scanned once, alone, so a row's
        value does not depend on the other rows in ``rows``.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if self._base is not None:
            return np.full(rows.shape[0], self._base)
        distinct, inverse = np.unique(rows, axis=0, return_inverse=True)
        out = np.array([self._scan(q[None, :])[0] for q in distinct])
        return out[inverse.reshape(-1)]

    def value_grid(self, counts: np.ndarray, den: int) -> np.ndarray:
        """Values at the integer compositions ``counts / den``, memoized.

        Each row of ``counts`` sums to ``den`` and is keyed by its digits
        in base den+1.  Missing keys are evaluated once through
        ``value_batch`` and merged in before the lookup, so every lookup
        hits its key.  Keys that would overflow int64 skip the memo.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if self._base is not None:
            return np.full(counts.shape[0], self._base)
        den = int(den)
        if (den + 1) ** self.y_size > 2**62:
            return self.value_batch(counts / den)
        keys = counts @ (den + 1) ** np.arange(self.y_size, dtype=np.int64)
        # The memo ends in a sentinel key above every real key, so each
        # searchsorted position indexes an entry.
        known, vals = self._grid_memo.get(den, _GRID_SENTINEL)
        pos = np.searchsorted(known, keys)
        miss = known[pos] != keys
        if miss.any():
            new, first = np.unique(keys[miss], return_index=True)
            at = np.searchsorted(known, new)
            known = np.insert(known, at, new)
            vals = np.insert(vals, at, self.value_batch(counts[miss][first] / den))
            # Threads scanning in parallel may miss the same keys and
            # overwrite each other's merge; a lost update only means
            # recomputing values that are bitwise equal, so no lock.
            self._grid_memo[den] = (known, vals)
            pos = np.searchsorted(known, keys)
        return vals[pos]

    def _scan(self, qys: np.ndarray) -> np.ndarray:
        # (B, y_size) -> (B,) grid suprema; kernel-chunked for memory.
        b = qys.shape[0]
        n_kern = self._row_entropy.shape[0]
        best = np.full(b, -math.inf)
        qpos = (qys > 0).astype(np.float64)
        step = max(1, (1 << 21) // max(b * self.kx, 1))
        with np.errstate(invalid="ignore"):
            for s in range(0, n_kern, step):
                e = min(s + step, n_kern)
                cond_h = qys @ self._row_entropy[s:e].T  # (B, C)
                marg = np.tensordot(qys, self._kernel_rows[s:e], axes=([1], [1]))
                info = np.maximum(entropy_rows(marg) - cond_h, 0.0)
                score_fin = qys @ self._score_fin[s:e].T
                bad = qpos @ self._score_bad[s:e].T > 0
                score = np.where(bad, -math.inf, score_fin)
                obj = np.where(info <= self.rate + INFO_SLACK, score - info, -math.inf)
                np.maximum(best, obj.max(axis=1), out=best)
        return best + self.rate


def competitor_score_exponent(
    rate: float,
    q_y: Distribution,
    channel: Channel,
    metric: Metric,
    resolution: int,
) -> float:
    """Score floor of the wrong-codeword crowd at output composition q_y.

    Grid evaluation at the given resolution; see
    CompetitorScoreEvaluator for the exact objective and the exact
    special cases.
    """
    if q_y.size != channel.output_size:
        raise DistributionError("q_y size does not match channel output")
    ev = CompetitorScoreEvaluator(metric, rate, channel.output_size, resolution)
    return ev.value(q_y.p)


@dataclass
class InnerSolution:
    value: float
    kernels: dict[tuple[int, int], np.ndarray] | None
    inner_resolution: int
    note: str = ""


class ConfusionExponentSolver:
    """Inner infimum of the pairwise-confusion objective.

    Given a coupling of two codewords (a joint over input pairs with
    both marginals equal to the composition), minimizes over one
    output distribution per positive-mass pair cell:

        sum_cells weight * D(cell kernel || channel row)
        + [max(score(joint with first word), competitor floor)
           - score(joint with second word)]_+

    The divergence part separates across cells; the clipped deficit
    couples cells only through the output-side marginals.  An
    exhaustive grid scan over per-cell kernels (chunked, deterministic)
    is followed by coordinate-descent refinement of the best point:
    ``_descend`` moves mass between two outputs of one kernel at a time.

    The scan asks for the competitor floor (and, for a non-affine
    metric, the two information terms) only on stacks that can still
    win.  A stack's total is ``dsum + bracket`` with ``bracket >= 0``,
    and for an affine metric ``bracket >= [g1 - g2]_+`` because the
    floor only raises ``max(g1, floor)``; so ``lb = dsum + [g1 - g2]_+``
    (``dsum`` alone for a non-affine metric, +inf where ``g2 = -inf``)
    is a lower bound that needs no floor.  Rounding is monotone, so
    ``lb <= total`` holds in floating point too.  Each chunk evaluates
    its least-``lb`` stack exactly and keeps the stacks with ``lb`` at
    most that total: the minimum and every stack tying it survive, so
    the value and the first argmin equal those of the full scan.

    ``solve`` describes the positive cells once per call as tuples
    ``(x, xp, weight, channel row x as a list, metric row x, -inf
    indices of row x, metric row xp, -inf indices of row xp)``; the
    metric entries are None for a non-affine metric.
    """

    def __init__(
        self,
        channel: Channel,
        metric: Metric,
        rate: float,
        grid: GridSpec,
        score_eval: CompetitorScoreEvaluator,
    ):
        self.channel = channel
        self.metric = metric
        self.rate = float(rate)
        self.grid = grid
        self.score_eval = score_eval
        self.W = channel.matrix
        self.l = channel.output_size
        self.kx = channel.input_size
        self._per_res: dict[int, tuple] = {}
        self._inner_res: dict[int, int] = {}  # cell count -> inner resolution
        self._dirs: dict[int, list[np.ndarray]] = {}  # cell count -> descent directions
        self._wrows = self.W.tolist()
        if metric.is_affine:
            cells = metric.cells
            self._mneg = np.isneginf(cells)
            self._mfin = np.where(self._mneg, 0.0, cells)
            # Per input: finite metric row and the outputs where it is -inf.
            self._score_rows = [
                (self._mfin[x], tuple(np.flatnonzero(self._mneg[x]).tolist())) for x in range(self.kx)
            ]
        else:
            self._mneg = None
            self._mfin = None
            self._score_rows = [(None, None)] * self.kx

    # -- per-resolution tables ------------------------------------------

    def _tables(self, k_in: int) -> tuple:
        cached = self._per_res.get(k_in)
        if cached is not None:
            return cached
        counts = compositions(k_in, self.l)
        opts = counts.astype(np.float64) / k_in
        n_opt = opts.shape[0]
        # Divergence of each grid kernel against each channel row.
        dopt = np.empty((self.kx, n_opt))
        with np.errstate(divide="ignore", invalid="ignore"):
            logopts = np.where(opts > 0, np.log(np.where(opts > 0, opts, 1.0)), 0.0)
            for x in range(self.kx):
                wrow = self.W[x]
                lw = np.where(wrow > 0, np.log(np.where(wrow > 0, wrow, 1.0)), 0.0)
                contrib = np.where(opts > 0, opts * (logopts - lw[None, :]), 0.0)
                fin = np.maximum(contrib.sum(axis=1), 0.0)
                hole = ((opts > 0) & (wrow == 0)[None, :]).any(axis=1)
                dopt[x] = np.where(hole, math.inf, fin)
        if self.metric.is_affine:
            gsc = np.empty((self.kx, n_opt))
            for x in range(self.kx):
                fin = opts @ self._mfin[x]
                bad = ((opts > 0) & self._mneg[x][None, :]).any(axis=1)
                gsc[x] = np.where(bad, -math.inf, fin)
        else:
            gsc = None
        out = (counts, opts, dopt, gsc)
        self._per_res[k_in] = out
        return out

    def inner_resolution(self, n_cells: int) -> int:
        """Largest denominator whose full scan fits the budget."""
        k_in = self._inner_res.get(n_cells)
        if k_in is None:
            k_in = largest_resolution(self.grid.resolution, self.l, n_cells, _INNER_BUDGET)
            self._inner_res[n_cells] = k_in
        return k_in

    def _cells(self, coupling: np.ndarray) -> list[tuple]:
        """The positive cells of a coupling, in row-major order (see the class docstring)."""
        return [
            (x, xp, float(coupling[x, xp]), self._wrows[x], *self._score_rows[x], *self._score_rows[xp])
            for x in range(self.kx)
            for xp in range(self.kx)
            if coupling[x, xp] > 0
        ]

    # -- exhaustive scan -------------------------------------------------

    def solve(
        self,
        coupling: np.ndarray,
        counts: np.ndarray | None = None,
        *,
        refine: bool | None = None,
        warm: dict[tuple[int, int], np.ndarray] | None = None,
        skip_grid: bool = False,
        max_sweeps: int | None = None,
        line_tol: float | None = None,
    ) -> InnerSolution:
        """Inner minimum for one coupling.

        ``counts`` (integer table summing to the outer resolution) makes
        each scanned output composition an integer vector over resolution
        * inner resolution, floored through ``value_grid``; without it the
        floor comes from ``value_batch`` on float compositions.  Either way
        the floor is the evaluator's one-row scan, asked only for the
        stacks the pruning keeps.
        ``skip_grid`` starts refinement from ``warm`` kernels
        (missing cells start at the channel row) without scanning.  The
        outer polish uses it for every solve: first from the kernels the
        scan in ``_prepare`` found, which refines the very stack a second
        scan would find, then from the kernels of its last accepted step.
        """
        do_refine = self.grid.refine if refine is None else refine
        cells = self._cells(coupling)
        if not cells:
            raise DistributionError("empty coupling")
        s = len(cells)
        k_in = self.inner_resolution(s)
        note = "" if k_in >= self.grid.resolution else f"inner grid capped at 1/{k_in}"
        if self.score_eval.mode == "const":
            # Constant score: both word scores cancel, the floor sits
            # exactly rate above them, so the clipped deficit is rate for
            # every kernel stack; the divergence infimum is 0 at the
            # channel rows.
            stack = np.stack([self.W[c[0]] for c in cells])
            return InnerSolution(self.rate, self._stack_dict(cells, stack), k_in, note)
        if skip_grid:
            warm = warm or {}
            stack = np.array([warm.get((c[0], c[1]), self.W[c[0]]) for c in cells])
        else:
            value, picks = self._scan(cells, counts, k_in)
            if not math.isfinite(value):
                # Support analysis: every kernel combination is forbidden, so
                # the continuous infimum is +inf as well (grid vertices cover
                # every support pattern).
                return InnerSolution(
                    math.inf, None, k_in, "support-forced +inf: no kernel avoids a forbidden cell"
                )
            stack = self._tables(k_in)[1][picks]
        if skip_grid or do_refine:
            value, stack = self._refine_stack(cells, stack, max_sweeps, line_tol)
        return InnerSolution(value, self._stack_dict(cells, stack), k_in, note)

    @staticmethod
    def _stack_dict(cells, stack) -> dict[tuple[int, int], np.ndarray]:
        return {(c[0], c[1]): stack[r].copy() for r, c in enumerate(cells)}

    def _scan(self, cells, counts, k_in) -> tuple[float, np.ndarray]:
        opt_counts, opts, dopt, gsc = self._tables(k_in)
        n_opt = opts.shape[0]
        s = len(cells)
        n_combo = n_opt**s
        w = np.array([c[2] for c in cells])
        dvec = [w[r] * dopt[cells[r][0]] for r in range(s)]
        affine = self.metric.is_affine
        if affine:
            gx = [w[r] * gsc[cells[r][0]] for r in range(s)]
            gxp = [w[r] * gsc[cells[r][1]] for r in range(s)]
        wopts = [w[r] * opts for r in range(s)]
        if counts is not None:
            cvec = np.array(
                [int(round(counts[cells[r][0], cells[r][1]])) for r in range(s)], dtype=np.int64
            )
            den = int(self.grid.resolution) * k_in

        def column(table: np.ndarray, r: int, start: int, stop: int) -> np.ndarray:
            # table[digit r of i] for i in [start, stop), without the digits:
            # digit r is (i // run) % n_opt, so it cycles through the table
            # in runs of n_opt**(s-1-r) consecutive indices.
            run = n_opt ** (s - 1 - r)
            first = start // run
            n_runs = (stop - 1) // run + 1 - first
            vals = np.tile(np.roll(table, -(first % n_opt)), -(-n_runs // n_opt))[:n_runs]
            return np.repeat(vals, run)[start - first * run : stop - first * run]

        def chunk(start: int, stop: int) -> tuple[float, int]:
            c = stop - start
            dsum = np.zeros(c)
            for r in range(s):
                dsum += column(dvec[r], r, start, stop)
            if affine:
                g1 = np.zeros(c)
                g2 = np.zeros(c)
                for r in range(s):
                    g1 += column(gx[r], r, start, stop)
                    g2 += column(gxp[r], r, start, stop)
                # [g1 - g2]_+ <= [max(g1, floor) - g2]_+: a floor-free bound.
                with np.errstate(invalid="ignore"):
                    lb = dsum + np.where(np.isneginf(g2), math.inf, np.maximum(g1 - g2, 0.0))
            else:
                lb = dsum  # the bracket is >= 0

            def totals(rows: np.ndarray) -> np.ndarray:
                # The exact total at some of the chunk's rows, by the
                # expressions a full-chunk evaluation uses, row by row.
                b = rows.shape[0]
                d = digits(start + rows, n_opt, s).T
                if counts is not None:
                    qy_int = np.zeros((b, self.l), dtype=np.int64)
                    for r in range(s):
                        qy_int += cvec[r] * opt_counts[d[r]]
                    floor = self.score_eval.value_grid(qy_int, den)
                else:
                    qy = np.zeros((b, self.l))
                    for r in range(s):
                        qy += wopts[r][d[r]]
                    floor = self.score_eval.value_batch(qy)
                if affine:
                    h1, h2 = g1[rows], g2[rows]
                else:
                    jxy = np.zeros((b, self.kx, self.l))
                    jxpy = np.zeros((b, self.kx, self.l))
                    for r in range(s):
                        jxy[:, cells[r][0], :] += wopts[r][d[r]]
                        jxpy[:, cells[r][1], :] += wopts[r][d[r]]
                    h1 = mutual_information_stack(jxy)
                    h2 = mutual_information_stack(jxpy)
                with np.errstate(invalid="ignore"):
                    bracket = np.where(
                        np.isneginf(h2),
                        math.inf,
                        np.maximum(np.maximum(h1, floor) - h2, 0.0),
                    )
                    return dsum[rows] + bracket

            # Prune, exactly: lb <= total holds after rounding (rounding is
            # monotone), so every row reaching or tying the chunk's minimum
            # has lb <= minimum <= incumbent and is kept, and the value and
            # first argmin are those of the full chunk.  The incumbent is
            # the chunk's own, so no worker count can change it.
            incumbent = float(totals(np.array([int(np.argmin(lb))]))[0])
            keep = np.flatnonzero(lb <= incumbent)
            total = totals(keep)
            j = int(np.argmin(total))
            return float(total[j]), start + int(keep[j])

        results = ordered_chunk_map(chunk, n_combo, _CHUNK_SIZE, self.grid.workers)
        best_v, best_i = math.inf, -1
        for v, i in results:
            if v < best_v:
                best_v, best_i = v, i
        if best_i < 0 or not math.isfinite(best_v):
            return math.inf, np.zeros(s, dtype=np.int64)
        return best_v, digits(best_i, n_opt, s)

    # -- refinement -------------------------------------------------------

    def stack_value(self, cells, stack: np.ndarray) -> float:
        """Objective at one kernel stack (row r is the cell-r kernel).

        The result is bit for bit what an all-numpy evaluation gives, so
        the descent takes the same path either way:

        * the divergence and the output marginal are summed in Python
          floats over ``stack.tolist()``, term by term in cell order, as
          ``wt * v * log(v / w)`` and ``wt * v``; per-call numpy overhead
          on rows of 2-4 entries costs far more than the arithmetic;
        * an affine score keeps numpy's dot per row (``row.dot(m)``, the
          BLAS call ``np.dot`` makes), because a plain-float dot differs
          from it in the last bit on many short vectors (BLAS may fuse or
          reorder the products); a row is checked for its forbidden
          outputs only when its metric row has a -inf entry;
        * a non-affine score takes both joints through one
          ``mutual_information_stack`` call: its reductions run row by
          row, so each joint's value does not depend on the other, and
          numpy's log is kept because it can differ from ``math.log``.
        """
        rows = stack.tolist()
        qy = [0.0] * self.l
        total_d = 0.0
        for c, row in zip(cells, rows):
            wt, wrow = c[2], c[3]
            for y, v in enumerate(row):
                qy[y] += wt * v
                if v <= 0:
                    continue
                if wrow[y] <= 0:
                    return math.inf
                total_d += wt * v * math.log(v / wrow[y])
        if self._mfin is not None:
            g1 = g2 = 0.0
            for r, (x, xp, wt, _, mx, neg_x, mxp, neg_xp) in enumerate(cells):
                row = rows[r]
                dot = None
                if g1 != -math.inf:
                    if neg_x and any(row[y] > 0 for y in neg_x):
                        g1 = -math.inf
                    else:
                        dot = float(stack[r].dot(mx))
                        g1 += wt * dot
                if g2 != -math.inf:
                    if neg_xp and any(row[y] > 0 for y in neg_xp):
                        g2 = -math.inf
                    else:
                        if dot is None or xp != x:
                            dot = float(stack[r].dot(mxp))
                        g2 += wt * dot
        else:
            joints = [[[0.0] * self.l for _ in range(self.kx)] for _ in range(2)]
            for c, row in zip(cells, rows):
                wt, first, second = c[2], joints[0][c[0]], joints[1][c[1]]
                for y, v in enumerate(row):
                    t = wt * v
                    first[y] += t
                    second[y] += t
            g1, g2 = mutual_information_stack(np.array(joints)).tolist()
        if g2 == -math.inf:
            return math.inf
        floor = self.score_eval.value(qy)
        top = max(g1, floor)
        bracket = max(top - g2, 0.0) if top != -math.inf else 0.0
        return max(total_d, 0.0) + bracket

    def _refine_stack(
        self, cells, stack: np.ndarray, max_sweeps: int | None, line_tol: float | None
    ) -> tuple[float, np.ndarray]:
        dirs = self._dirs.get(len(cells))
        if dirs is None:
            # Each direction moves mass from output y2 to output y1 of one row.
            unit = np.eye(stack.size).reshape((-1,) + stack.shape)
            dirs = [
                unit[r * self.l + y1] - unit[r * self.l + y2]
                for r in range(len(cells))
                for y1 in range(self.l)
                for y2 in range(y1 + 1, self.l)
            ]
            for d in dirs:
                d.flags.writeable = False
            self._dirs[len(cells)] = dirs
        sweeps = _MAX_REFINE_SWEEPS if max_sweeps is None else max_sweeps
        line_tol = _REFINE_TOL * 1e-2 if line_tol is None else line_tol

        def f(cand: np.ndarray) -> float:
            return self.stack_value(cells, cand)

        return _descend(f, stack, f(stack), dirs, sweeps, line_tol, eps=1e-15)


def _descend(f, x, cur, dirs, sweeps, line_tol, *, eps, radius=math.inf, rel_tol=0.0, commit=None):
    """Coordinate descent of ``f`` from ``x`` (where f equals ``cur``) along ``dirs``.

    Each direction d is searched over the steps t in [lo, hi] that keep
    x + t*d nonnegative and |t| <= ``radius``, by golden section to the
    tolerance max(line_tol, (hi - lo) * rel_tol); a range no wider than
    ``eps`` is skipped.  A nonzero step that gains more than ``eps``
    moves x to max(x + t*d, 0).  When given, ``commit(x_new, cur)``
    first re-evaluates that point, and the step is taken only if the
    value it returns is below ``cur``; a rejected step leaves x, and
    whatever commit keeps, as they were.  At most ``sweeps`` sweeps
    run, and a sweep gaining less than ``_REFINE_TOL`` ends the descent.
    Returns the final value and point.
    """
    for _ in range(sweeps):
        gain = 0.0
        for d in dirs:
            lo, hi = -radius, radius
            for i in np.flatnonzero(d):
                step = -x.flat[i] / d.flat[i]
                if d.flat[i] > 0:
                    lo = max(lo, step)
                else:
                    hi = min(hi, step)
            if hi - lo <= eps:
                continue
            t, f_best = golden_section_minimize(
                lambda s: f(np.maximum(x + s * d, 0.0)), lo, hi, max(line_tol, (hi - lo) * rel_tol)
            )
            if f_best < cur - eps and t != 0.0:
                cand = np.maximum(x + t * d, 0.0)
                new = f_best if commit is None else commit(cand, cur)
                if new < cur:
                    gain += cur - new
                    cur, x = new, cand
        if gain < _REFINE_TOL:
            break
    return cur, x


def _as_grid(resolution: int | GridSpec) -> GridSpec:
    return resolution if isinstance(resolution, GridSpec) else GridSpec(resolution)


def pairwise_confusion_exponent(
    coupling: JointDistribution,
    rate: float,
    channel: Channel,
    metric: Metric,
    resolution: int | GridSpec,
) -> float:
    """Confusion cost of one codeword-pair coupling at the given rate.

    The coupling must have equal row and column marginals (both are the
    code composition) within 1e-9.  Returns +inf when support analysis
    forces every kernel into a forbidden cell.
    """
    grid = _as_grid(resolution)
    p = coupling.p
    if p.shape[0] != p.shape[1] or p.shape[0] != channel.input_size:
        raise DistributionError("coupling must be square over the channel input alphabet")
    rm = p.sum(axis=1)
    cm = p.sum(axis=0)
    if np.max(np.abs(rm - cm)) > 1e-9:
        raise DistributionError(
            f"coupling marginals disagree by {np.max(np.abs(rm - cm)):.3e} (limit 1e-9)"
        )
    ev = CompetitorScoreEvaluator(metric, rate, channel.output_size, grid.resolution)
    solver = ConfusionExponentSolver(channel, metric, rate, grid, ev)
    return solver.solve(p).value


# ---------------------------------------------------------------------------
# Outer forms.


@dataclass
class _Pipeline:
    couplings: list[np.ndarray]
    kernels: list[dict[tuple[int, int], np.ndarray] | None]
    info: np.ndarray
    confusion: np.ndarray
    solver: ConfusionExponentSolver
    inner_note: str


def _prepare(query: ExponentQuery, grid: GridSpec) -> _Pipeline:
    k = grid.resolution
    comp_counts = margin_counts(query.composition, k)
    tables = [t for t in enumerate_margin_tables(comp_counts, comp_counts)]
    if not tables:
        raise InfeasibleGridError(
            f"no couplings with both marginals at resolution {k}: resolution too coarse"
        )
    couplings = [t.astype(np.float64) / k for t in tables]
    info = mutual_information_stack(np.stack(couplings))
    ev = CompetitorScoreEvaluator(
        query.metric, query.rate, query.channel.output_size, k
    )
    solver = ConfusionExponentSolver(query.channel, query.metric, query.rate, grid, ev)
    vals = np.empty(len(tables))
    kernels = []
    note = ""
    for i, (t, p) in enumerate(zip(tables, couplings)):
        sol = solver.solve(p, t, refine=False)
        vals[i] = sol.value
        kernels.append(sol.kernels)
        if sol.note and not note:
            note = sol.note
    return _Pipeline(couplings, kernels, info, vals, solver, note)


def _polish_coupling(
    pipe: _Pipeline,
    query: ExponentQuery,
    grid: GridSpec,
    start: int,
    rho: float | None,
) -> tuple[np.ndarray, float]:
    """Continuous descent of the outer objective from a grid coupling.

    Objective is confusion + information (constrained form, rho None)
    or confusion + rho*(information - rate) (penalized form).  The
    information cap applies only to the constrained form and is
    enforced by step rejection.  The inner solve starts from the grid
    kernels ``_prepare`` found for the start coupling and is warm-started
    from the last accepted step's kernels thereafter.  Returns the final
    coupling and value.
    """
    solver = pipe.solver
    rate = query.rate
    p = pipe.couplings[start]
    first = solver.solve(p, None, skip_grid=True, warm=pipe.kernels[start])
    warm = first.kernels

    def objective(conf: float, joint: np.ndarray) -> float:
        info = float(mutual_information_stack(joint[None])[0])
        if rho is None:
            if info > rate + INFO_SLACK:
                return math.inf
            return conf + info
        return conf + rho * (info - rate)

    def probe(joint: np.ndarray) -> float:
        if not np.any(joint.sum(axis=1) * joint.sum(axis=0)):
            return math.inf
        sol = solver.solve(joint, None, skip_grid=True, warm=warm, max_sweeps=2, line_tol=1e-4)
        return objective(sol.value, joint)

    def commit(joint: np.ndarray, cur: float) -> float:
        nonlocal warm
        sol = solver.solve(joint, None, skip_grid=True, warm=warm, max_sweeps=8, line_tol=1e-6)
        value = objective(sol.value, joint)
        if value < cur:
            warm = sol.kernels
        return value

    cur, p = _descend(
        probe, p, objective(first.value, p), move_directions(p.shape[0]), 2, 1e-4,
        eps=1e-12, radius=1.5 / grid.resolution, rel_tol=1e-3, commit=commit,
    )
    final = solver.solve(p, None, skip_grid=True, warm=warm)
    return p, min(cur, objective(final.value, p))


def _expurgated_from(pipe: _Pipeline, query: ExponentQuery, grid: GridSpec) -> ExponentResult:
    """The constrained-form result, with ``expurgated_value`` set to its value."""
    rate = query.rate
    feas = pipe.info <= rate + INFO_SLACK
    if not np.any(feas):
        raise InfeasibleGridError(
            f"no coupling satisfies the information cap {rate:g} at resolution "
            f"{grid.resolution}: resolution too coarse"
        )
    objective = np.where(feas, pipe.confusion + pipe.info - rate, math.inf)
    i_star = int(np.argmin(objective))
    value = float(objective[i_star])
    argmin = pipe.couplings[i_star]
    note = pipe.inner_note
    if not math.isfinite(value):
        value = math.inf
        note = "support-forced +inf: every feasible coupling hits a forbidden cell"
    elif grid.refine:
        p, polished = _polish_coupling(pipe, query, grid, i_star, rho=None)
        if polished - rate < value:
            value, argmin = polished - rate, p
    return ExponentResult(
        value=value, argmin=argmin, rho_star=None, boundary_flag=False, gap=None,
        resolution=grid.resolution, form="constrained", expurgated_value=value, note=note,
    )


def _maxmin_from(pipe: _Pipeline, query: ExponentQuery, grid: GridSpec) -> ExponentResult:
    """The penalized-form result, with ``maxmin_value`` set to its value."""
    rate, conf, info = query.rate, pipe.confusion, pipe.info
    value, argmin, rho_star, boundary = math.inf, None, None, False
    note = "support-forced +inf: every coupling hits a forbidden cell"
    if np.any(np.isfinite(conf)):
        rho_star, value, boundary = concave_search_rho(
            lambda rho: float(np.min(conf + rho * (info - rate))), 1.0, query.rho_max, 1e-9
        )
        i_star = int(np.argmin(conf + rho_star * (info - rate)))
        argmin, note = pipe.couplings[i_star], pipe.inner_note
        if grid.refine and math.isfinite(value):
            p, polished = _polish_coupling(pipe, query, grid, i_star, rho=rho_star)
            if polished < value:
                value, argmin = polished, p
    return ExponentResult(
        value=value, argmin=argmin, rho_star=rho_star, boundary_flag=boundary, gap=None,
        resolution=grid.resolution, form="penalized", maxmin_value=value, note=note,
    )


def expurgated_exponent(query: ExponentQuery, resolution: int | GridSpec) -> ExponentResult:
    """Constrained form: min over couplings with capped information.

    Minimizes confusion + information - rate over couplings whose
    mutual information stays at or below the rate, both marginals
    pinned to the composition.  The reported value never falls below
    -rate; the result has no penalized-form fields.
    """
    grid = _as_grid(resolution)
    return _expurgated_from(_prepare(query, grid), query, grid)


def maxmin_exponent(query: ExponentQuery, resolution: int | GridSpec) -> ExponentResult:
    """Penalized form: sup over tilting of the unconstrained min.

    For each rho in [1, rho_max], minimizes confusion +
    rho*(information - rate) over all couplings with pinned marginals;
    the concave search over rho returns the best tilting.
    ``boundary_flag`` warns that the supremum sat against rho_max,
    meaning the true supremum may be at even larger tilting.  The
    result has no constrained-form fields.
    """
    grid = _as_grid(resolution)
    return _maxmin_from(_prepare(query, grid), query, grid)


def exponent_form(query: ExponentQuery, resolution: int | GridSpec) -> ExponentResult:
    """Both forms at once, returning the one sanctioned for the metric.

    Metrics affine in the joint type allow the exchange of the tilting
    supremum with the coupling minimum, so the constrained form is the
    exponent and the gap (constrained minus penalized) is a diagnostic
    near zero.  For other metrics the penalized form is the honest
    lower bound and is returned, with the gap, the tilting search and
    both values filled in; the two forms share one grid scan.
    """
    grid = _as_grid(resolution)
    pipe = _prepare(query, grid)
    exp_res = _expurgated_from(pipe, query, grid)
    max_res = _maxmin_from(pipe, query, grid)
    both_inf = math.isinf(exp_res.value) and math.isinf(max_res.value)
    return dataclasses.replace(
        exp_res if query.metric.is_affine else max_res,
        rho_star=max_res.rho_star, boundary_flag=max_res.boundary_flag,
        gap=None if both_inf else exp_res.value - max_res.value,
        expurgated_value=exp_res.value, maxmin_value=max_res.value,
    )


def rate_sweep(query: ExponentQuery, rates: Iterable[float], resolution: int | GridSpec) -> list[ExponentResult]:
    """exponent_form at each rate; rates must be sorted ascending.

    Caches that depend on the rate are rebuilt per rate, so each entry
    matches an independent direct call exactly.
    """
    rates = [float(r) for r in rates]
    if any(b < a for a, b in zip(rates, rates[1:])):
        raise DistributionError("rates must be sorted ascending")
    out = []
    for r in rates:
        out.append(exponent_form(dataclasses.replace(query, rate=r), resolution))
    return out


def exchanged_objective(
    triple: np.ndarray,
    rho: float,
    rate: float,
    composition: Distribution,
    channel: Channel,
    metric: Metric,
    score_eval: CompetitorScoreEvaluator,
) -> float:
    """The exchanged outer objective on a joint over (input, pair, output).

    For a triple joint q with both input-side marginals equal to the
    composition, evaluates

        -E_q ln[ W(out|in) comp(in) comp(pair) ] - H(q)
        + rho * (I(in; pair) - rate) + clipped score deficit.

    Affine metrics make every term convex in q on the fixed-marginal
    set, which is what justifies exchanging the tilting supremum with
    the coupling minimum; the midpoint-convexity property tests probe
    exactly this expression.  ``score_eval`` supplies the competitor
    floor at the rate and resolution it was built for.  Requires
    rho >= 0.
    """
    if rho < 0:
        raise DistributionError(f"rho must be >= 0, got {rho}")
    q = np.asarray(triple, dtype=np.float64)
    kx = channel.input_size
    l = channel.output_size
    if q.shape != (kx, kx, l):
        raise DistributionError(f"triple shape {q.shape} does not match ({kx}, {kx}, {l})")
    w = channel.matrix
    comp = composition.p
    lin = 0.0
    for x in range(kx):
        for xp in range(kx):
            for y in range(l):
                v = q[x, xp, y]
                if v <= 0:
                    continue
                if w[x, y] <= 0 or comp[x] <= 0 or comp[xp] <= 0:
                    return math.inf
                lin -= v * math.log(w[x, y] * comp[x] * comp[xp])
    neg_entropy = -float(entropy_rows(q.reshape(-1)))
    pair = q.sum(axis=2)
    penalty = rho * (float(mutual_information_stack(pair[None])[0]) - rate)
    joint_first = q.sum(axis=1)
    joint_second = q.sum(axis=0)
    g1 = metric.score_array(joint_first)
    g2 = metric.score_array(joint_second)
    if g2 == -math.inf:
        return math.inf
    floor = score_eval.value(q.sum(axis=(0, 1)))
    top = max(g1, floor)
    bracket = max(top - g2, 0.0) if top != -math.inf else 0.0
    return lin + neg_entropy + penalty + bracket
