"""Exponent objectives: score floor, pairwise confusion, outer forms.

Frozen numbers in this file were produced by this implementation and
cross-checked against the brute-force oracles in gldx.oracles; the
oracle agreement itself is covered in test_oracle_equivalence.py.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gldx import (
    AffineMetric,
    Channel,
    CompetitorScoreEvaluator,
    ConfusionExponentSolver,
    Distribution,
    DistributionError,
    ExponentQuery,
    GridSpec,
    InfeasibleGridError,
    JointDistribution,
    competitor_score_exponent,
    compositions,
    constant_metric,
    emi_metric,
    exchanged_objective,
    exponent_form,
    expurgated_exponent,
    matched_metric,
    maxmin_exponent,
    mismatched_metric,
    pairwise_confusion_exponent,
    rate_sweep,
)
from gldx.exponents import _CHUNK_SIZE, _descend, _prepare
from gldx.measures import mutual_information, mutual_information_stack
from gldx.optimizer import digits, enumerate_margin_tables, margin_counts, ordered_chunk_map


class TestQueryValidation:
    def test_negative_rate(self, bsc, unif2):
        with pytest.raises(DistributionError):
            ExponentQuery(-0.1, unif2, bsc, matched_metric(bsc))

    def test_rho_max_floor(self, bsc, unif2):
        with pytest.raises(DistributionError):
            ExponentQuery(0.1, unif2, bsc, matched_metric(bsc), rho_max=0.5)

    def test_shape_mismatches(self, bsc, wide, unif2):
        with pytest.raises(DistributionError):
            ExponentQuery(0.1, Distribution.uniform(3), bsc, matched_metric(bsc))
        with pytest.raises(DistributionError):
            ExponentQuery(0.1, unif2, bsc, matched_metric(wide))


class TestScoreFloor:
    def test_constant_metric_exact(self, bsc):
        # independent kernel is optimal: value is the constant plus the rate
        got = competitor_score_exponent(0.25, Distribution([0.3, 0.7]), bsc, constant_metric(2, 2, 0.4), 16)
        assert got == 0.4 + 0.25

    def test_emi_metric_exact(self, bsc):
        got = competitor_score_exponent(0.17, Distribution([0.5, 0.5]), bsc, emi_metric(2, 2), 16)
        assert got == 0.17

    def test_monotone_in_rate(self, bsc):
        m = matched_metric(bsc)
        qy = Distribution([0.4, 0.6])
        vals = [competitor_score_exponent(r, qy, bsc, m, 12) for r in (0.05, 0.2, 0.5)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_batch_matches_scalar(self, bsc, wide):
        # one kernel behind all three entry points: a composition reads
        # the same bits whichever entry point asks for it
        for ch, den in ((bsc, 40), (wide, 24)):
            ev = CompetitorScoreEvaluator(matched_metric(ch), 0.3, ch.output_size, 12)
            counts = compositions(den, ch.output_size)
            rng = np.random.default_rng(31)
            rows = np.vstack([rng.dirichlet(np.ones(ch.output_size), size=40), counts / den])
            singles = np.array([ev.value(r) for r in rows])
            assert np.array_equal(ev.value_batch(rows), singles)
            assert np.array_equal(ev.value_grid(counts, den), singles[40:])

    def test_batch_height_invisible(self, bsc):
        # a row's value cannot depend on how many rows ride along with it
        ev = CompetitorScoreEvaluator(matched_metric(bsc), 0.3, 2, 12)
        rng = np.random.default_rng(33)
        rows = rng.dirichlet(np.ones(2), size=100)
        full = ev.value_batch(rows)
        head = ev.value_batch(rows[:7])
        assert np.array_equal(full[:7], head)

    def test_batch_row_ignores_rows_equal_to_12_digits(self, bsc):
        # a and b round to the same 12 digits but differ in their bits;
        # b is scanned as itself, not as the a that precedes it
        a, b = np.array([0.3, 0.7]), np.array([0.3 + 3e-13, 0.7 - 3e-13])
        ev = CompetitorScoreEvaluator(matched_metric(bsc), 0.3, 2, 12)
        assert np.array_equal(np.round(a, 12), np.round(b, 12)) and not np.array_equal(a, b)
        assert ev.value_batch(np.stack([a, b]))[1] == ev.value_batch(b[None])[0] == ev.value(b)

    def test_size_mismatch(self, bsc):
        with pytest.raises(DistributionError):
            competitor_score_exponent(0.1, Distribution.uniform(3), bsc, matched_metric(bsc), 8)

    @pytest.mark.parametrize("chan, rate, den", [("bsc", 0.3, 256), ("wide", 0.1, 56)])
    def test_grid_matches_batch(self, request, chan, rate, den):
        # two overlapping calls: the first fills the memo, the second
        # mixes memo hits with new keys
        ch = request.getfixturevalue(chan)
        ev = CompetitorScoreEvaluator(matched_metric(ch), rate, ch.output_size, 8)
        counts = compositions(den, ch.output_size)
        n = counts.shape[0]
        head = ev.value_grid(counts[: 2 * n // 3], den)
        tail = ev.value_grid(counts[n // 3 :], den)
        want = ev.value_batch(counts / den)
        assert np.array_equal(head, want[: 2 * n // 3])
        assert np.array_equal(tail, want[n // 3 :])

    def test_grid_memo_shared_by_threads(self, wide):
        # threads that miss the same keys race to store their merges; a
        # lost update may recompute values but never changes one
        ev = CompetitorScoreEvaluator(matched_metric(wide), 0.1, 3, 8)
        counts = compositions(40, 3)
        want = ev.value_batch(counts / 40)
        rng = np.random.default_rng(5)
        picks = [rng.choice(counts.shape[0], 200, replace=False) for _ in range(16)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda i: ev.value_grid(counts[i], 40), picks, timeout=120))
        finally:
            sys.setswitchinterval(old)
        for i, g in zip(picks, got):
            assert np.array_equal(g, want[i])

    def test_grid_overflow_falls_back_to_batch(self, bsc):
        ev = CompetitorScoreEvaluator(matched_metric(bsc), 0.3, 2, 12)
        got = ev.value_grid(np.array([[2**31, 2**31]]), 2**32)
        assert np.array_equal(got, ev.value_batch(np.array([[0.5, 0.5]])))

    @pytest.mark.parametrize(
        "metric, base", [(constant_metric(2, 2, 0.4), 0.4 + 0.25), (emi_metric(2, 2), 0.25)]
    )
    def test_short_circuit_base_value(self, metric, base):
        ev = CompetitorScoreEvaluator(metric, 0.25, 2, 16)
        counts = compositions(8, 2)
        assert ev.value(np.array([0.3, 0.7])) == base
        assert np.all(ev.value_batch(counts / 8) == base)
        assert np.all(ev.value_grid(counts, 8) == base)


def _numpy_stack_value(solver, cells, stack, memo):
    """The all-numpy objective that ``stack_value`` must match bit for bit.

    Cells are (x, xp, weight) triples; the floor is a one-row scan
    memoized in ``memo`` on ``np.round(q, 12)``.
    """
    total_d = 0.0
    for r, (x, _, wt) in enumerate(cells):
        row = stack[r]
        wrow = solver.W[x]
        for y in range(solver.l):
            v = row[y]
            if v <= 0:
                continue
            if wrow[y] <= 0:
                return math.inf
            total_d += wt * v * math.log(v / wrow[y])
    w = np.array([c[2] for c in cells])
    qy = (w[:, None] * stack).sum(axis=0)
    if solver.metric.is_affine:
        g1 = g2 = 0.0
        for r, (x, xp, wt) in enumerate(cells):
            row = stack[r]
            pos = row > 0
            if np.any(pos & solver._mneg[x]):
                g1 = -math.inf
            if g1 != -math.inf:
                g1 += wt * float(np.dot(row, solver._mfin[x]))
            if np.any(pos & solver._mneg[xp]):
                g2 = -math.inf
            if g2 != -math.inf:
                g2 += wt * float(np.dot(row, solver._mfin[xp]))
    else:
        jxy = np.zeros((solver.kx, solver.l))
        jxpy = np.zeros((solver.kx, solver.l))
        for r, (x, xp, wt) in enumerate(cells):
            jxy[x] += wt * stack[r]
            jxpy[xp] += wt * stack[r]
        g1 = float(mutual_information_stack(jxy[None])[0])
        g2 = float(mutual_information_stack(jxpy[None])[0])
    if g2 == -math.inf:
        return math.inf
    ev = solver.score_eval
    if ev.mode == "scan":
        key = tuple(np.round(qy, 12))
        if key not in memo:
            memo[key] = float(ev._scan(qy[None, :])[0])
        floor = memo[key]
    else:
        floor = ev._base
    top = max(g1, floor)
    bracket = max(top - g2, 0.0) if top != -math.inf else 0.0
    return max(total_d, 0.0) + bracket


def _sample_stacks(rng, n, rows, l):
    """Kernel stacks, about a third of their entries zeroed, some on a coarse grid."""
    out = []
    for i in range(n):
        st = rng.dirichlet(np.ones(l), size=rows) * (rng.random((rows, l)) > 0.3)
        st[st.sum(axis=1) == 0, rng.integers(l)] = 1.0
        st /= st.sum(axis=1, keepdims=True)
        out.append(np.round(st * 8) / 8 if i % 4 == 0 else st)
    return out


_BSC = [[0.9, 0.1], [0.1, 0.9]]
_WIDE = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
_Z = [[1.0, 0.0], [0.2, 0.8]]


class TestStackValue:
    @pytest.mark.parametrize(
        "name, matrix, metric",
        [
            ("bsc-matched", _BSC, lambda ch: matched_metric(ch, beta=2.0)),
            ("bsc-mismatched", _BSC, lambda ch: mismatched_metric([[0.85, 0.15], [0.15, 0.85]])),
            ("wide-matched", _WIDE, lambda ch: matched_metric(ch)),
            ("wide-emi", _WIDE, lambda ch: emi_metric(2, 3)),
            # A zero channel entry: mass on it makes the divergence +inf,
            # and the matched metric has a -inf cell there.
            ("z-matched", _Z, lambda ch: matched_metric(ch)),
            ("z-emi", _Z, lambda ch: emi_metric(2, 2)),
            # -inf metric cells on a channel of full support.
            ("bsc-forbidden", _BSC, lambda ch: mismatched_metric([[1.0, 0.0], [0.3, 0.7]])),
            ("wide-forbidden", _WIDE, lambda ch: mismatched_metric([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6]])),
        ],
    )
    def test_matches_numpy_objective(self, name, matrix, metric):
        ch = Channel.from_matrix(matrix)
        m = metric(ch)
        rng = np.random.default_rng(sum(map(ord, name)))
        couplings = [
            np.array([[0.4, 0.1], [0.1, 0.4]]),
            np.array([[0.5, 0.0], [0.0, 0.5]]),
            np.array([[0.25, 0.25], [0.25, 0.25]]),
            np.array([[0.3, 0.2], [0.2, 0.3]]),
        ]
        seen = {"inf": 0, "finite": 0}
        for rate in (0.1, 0.3):
            ev = CompetitorScoreEvaluator(m, rate, ch.output_size, 8)
            solver = ConfusionExponentSolver(ch, m, rate, GridSpec(8), ev)
            memo = {}
            for coupling in couplings:
                cells = solver._cells(coupling)
                triples = [c[:3] for c in cells]
                for stack in _sample_stacks(rng, 40, len(cells), ch.output_size):
                    want = _numpy_stack_value(solver, triples, stack, memo)
                    assert solver.stack_value(cells, stack) == want
                    seen["finite" if math.isfinite(want) else "inf"] += 1
        assert seen["finite"] > 0
        assert (seen["inf"] > 0) == name.startswith(("z-", "bsc-forbidden", "wide-forbidden"))

    def test_floor_key_is_numpy_round(self, wide):
        ev = CompetitorScoreEvaluator(matched_metric(wide), 0.1, 3, 8)
        rng = np.random.default_rng(5)
        rows = [rng.dirichlet(np.ones(3)) for _ in range(50)]
        # entries less than half a unit of the 12th digit apart round together
        rows += [np.array([0.25, 0.25, 0.5]), np.array([0.25 + 4e-13, 0.25, 0.5 - 4e-13])]
        # ties where rint(v * 1e12) / 1e12 and Python's round(v, 12) disagree
        rows.append(np.array([0.0409735239375, 0.2997118905385, 0.659315185124]))
        for q in rows:
            ev.value(q)
            ev.value(q.tolist())
        def hexes(key):
            return tuple(float(v).hex() for v in key)

        assert {hexes(k) for k in ev._memo} == {hexes(np.round(q, 12)) for q in rows}
        assert len(ev._memo) == len(rows) - 1


def _unpruned_scan(solver, cells, counts, k_in):
    """The inner scan with every stack's exact total, as it was before pruning.

    A copy of the chunk reduction of ``ConfusionExponentSolver._scan``
    that evaluates the floor on all stacks.  Returns the value, the
    picks and how many stacks reach the value.
    """
    opt_counts, opts, dopt, gsc = solver._tables(k_in)
    n_opt = opts.shape[0]
    s = len(cells)
    w = np.array([c[2] for c in cells])
    dvec = [w[r] * dopt[cells[r][0]] for r in range(s)]
    affine = solver.metric.is_affine
    if affine:
        gx = [w[r] * gsc[cells[r][0]] for r in range(s)]
        gxp = [w[r] * gsc[cells[r][1]] for r in range(s)]
    wopts = [w[r] * opts for r in range(s)]
    if counts is not None:
        cvec = np.array([int(round(counts[c[0], c[1]])) for c in cells], dtype=np.int64)
        den = int(solver.grid.resolution) * k_in

    def chunk(start, stop):
        c = stop - start
        digs = digits(np.arange(start, stop), n_opt, s).T
        dsum = np.zeros(c)
        for r in range(s):
            dsum += dvec[r][digs[r]]
        if counts is not None:
            qy_int = np.zeros((c, solver.l), dtype=np.int64)
            for r in range(s):
                qy_int += cvec[r] * opt_counts[digs[r]]
            floor = solver.score_eval.value_grid(qy_int, den)
        else:
            qy = np.zeros((c, solver.l))
            for r in range(s):
                qy += wopts[r][digs[r]]
            floor = solver.score_eval.value_batch(qy)
        if affine:
            g1 = np.zeros(c)
            g2 = np.zeros(c)
            for r in range(s):
                g1 += gx[r][digs[r]]
                g2 += gxp[r][digs[r]]
        else:
            jxy = np.zeros((c, solver.kx, solver.l))
            jxpy = np.zeros((c, solver.kx, solver.l))
            for r in range(s):
                jxy[:, cells[r][0], :] += wopts[r][digs[r]]
                jxpy[:, cells[r][1], :] += wopts[r][digs[r]]
            g1 = mutual_information_stack(jxy)
            g2 = mutual_information_stack(jxpy)
        with np.errstate(invalid="ignore"):
            bracket = np.where(np.isneginf(g2), math.inf, np.maximum(np.maximum(g1, floor) - g2, 0.0))
            total = dsum + bracket
        j = int(np.argmin(total))
        return float(total[j]), start + j, int(np.count_nonzero(total == total[j]))

    results = ordered_chunk_map(chunk, n_opt**s, _CHUNK_SIZE, 1)
    best_v, best_i = math.inf, -1
    for v, i, _ in results:
        if v < best_v:
            best_v, best_i = v, i
    ties = sum(n for v, _, n in results if v == best_v)
    if best_i < 0 or not math.isfinite(best_v):
        return math.inf, np.zeros(s, dtype=np.int64), ties
    return best_v, digits(best_i, n_opt, s), ties


def _scan_cases(channel, metric, rate, k):
    """(solver, cells, counts, k_in) for every coupling ``_prepare`` scans."""
    ev = CompetitorScoreEvaluator(metric, rate, channel.output_size, k)
    solver = ConfusionExponentSolver(channel, metric, rate, GridSpec(k), ev)
    margins = margin_counts(Distribution.uniform(channel.input_size), k)
    for t in enumerate_margin_tables(margins, margins):
        cells = solver._cells(t / k)
        yield solver, cells, t, solver.inner_resolution(len(cells))


_SCAN_METRICS = {
    "matched1": lambda ch: matched_metric(ch),
    "matched2": lambda ch: matched_metric(ch, beta=2.0),
    "mismatched": lambda ch: mismatched_metric(
        [[0.85, 0.15], [0.15, 0.85]] if ch.output_size == 2 else [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]]
    ),
    "emi": lambda ch: emi_metric(ch.input_size, ch.output_size),
}


class TestPrunedScan:
    @pytest.mark.parametrize("floor_path", ["grid", "batch"])
    @pytest.mark.parametrize("rate", [0.1, 0.3])
    @pytest.mark.parametrize("metric", sorted(_SCAN_METRICS))
    @pytest.mark.parametrize("matrix, k", [(_BSC, 16), (_WIDE, 8)], ids=["bsc-k16", "wide-k8"])
    def test_matches_unpruned_scan(self, matrix, k, metric, rate, floor_path):
        # With counts the floor goes through value_grid; without them
        # (as in pairwise_confusion_exponent) through value_batch.
        ch = Channel.from_matrix(matrix)
        for solver, cells, t, k_in in _scan_cases(ch, _SCAN_METRICS[metric](ch), rate, k):
            counts = t if floor_path == "grid" else None
            want_v, want_picks, _ = _unpruned_scan(solver, cells, counts, k_in)
            got_v, got_picks = solver._scan(cells, counts, k_in)
            assert got_v == want_v
            assert got_picks.tolist() == want_picks.tolist()

    @pytest.mark.parametrize("floor_path", ["grid", "batch"])
    def test_tied_minimum_returns_first_stack(self, floor_path):
        # Two equal channel rows; on the uniform coupling at k=4 two
        # stacks share the minimum total.
        ch = Channel.from_matrix([[0.7, 0.3], [0.7, 0.3]])
        m = mismatched_metric([[0.85, 0.15], [0.15, 0.85]])
        solver, cells, t, k_in = next(
            c for c in _scan_cases(ch, m, 0.1, 4) if c[2].tolist() == [[1, 1], [1, 1]]
        )
        counts = t if floor_path == "grid" else None
        want_v, want_picks, ties = _unpruned_scan(solver, cells, counts, k_in)
        assert ties == 2 and math.isfinite(want_v)
        got_v, got_picks = solver._scan(cells, counts, k_in)
        assert got_v == want_v
        assert got_picks.tolist() == want_picks.tolist()

    @pytest.mark.parametrize("metric", ["matched1", "emi"])
    def test_picks_do_not_depend_on_workers(self, wide, unif2, metric):
        query = ExponentQuery(0.1, unif2, wide, _SCAN_METRICS[metric](wide))
        one, four = (_prepare(query, GridSpec(8, workers=w)) for w in (1, 4))
        assert one.confusion.tolist() == four.confusion.tolist()
        for a, b in zip(one.kernels, four.kernels):
            assert a.keys() == b.keys()
            assert all(a[key].tolist() == b[key].tolist() for key in a)

    def test_floor_asked_on_few_stacks(self, wide, unif2, monkeypatch):
        rows = []
        orig = CompetitorScoreEvaluator.value_grid

        def counted(self, counts, den):
            rows.append(len(counts))
            return orig(self, counts, den)

        monkeypatch.setattr(CompetitorScoreEvaluator, "value_grid", counted)
        pipe = _prepare(ExponentQuery(0.1, unif2, wide, matched_metric(wide)), GridSpec(8))
        stacks = 0
        for p in pipe.couplings:
            s = int(np.count_nonzero(p))
            stacks += len(compositions(pipe.solver.inner_resolution(s), wide.output_size)) ** s
        assert stacks == 5_042_898
        assert 5 * sum(rows) < stacks


class TestPairwiseConfusion:
    def test_nonnegative_and_monotone_in_rate(self, bsc, unif2):
        m = matched_metric(bsc)
        coupling = JointDistribution([[0.3, 0.2], [0.2, 0.3]])
        lo = pairwise_confusion_exponent(coupling, 0.05, bsc, m, 8)
        hi = pairwise_confusion_exponent(coupling, 0.3, bsc, m, 8)
        assert 0.0 <= lo <= hi + 1e-9

    def test_constant_metric_equals_rate(self, bsc):
        # divergence part sits at 0 on the channel rows; the clipped
        # deficit is exactly the rate for every kernel choice
        m = constant_metric(2, 2, -1.0)
        for cpl in ([[0.5, 0.0], [0.0, 0.5]], [[0.25, 0.25], [0.25, 0.25]]):
            got = pairwise_confusion_exponent(JointDistribution(cpl), 0.2, bsc, m, 8)
            assert got == 0.2

    def test_noiseless_off_diagonal_infinite(self, noiseless):
        # finite divergence forces output = input, where the second
        # word's score hits a forbidden cell
        m = matched_metric(noiseless)
        off = JointDistribution([[0.25, 0.25], [0.25, 0.25]])
        assert pairwise_confusion_exponent(off, 0.2, noiseless, m, 8) == math.inf

    def test_noiseless_diagonal_finite(self, noiseless):
        m = matched_metric(noiseless)
        diag = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert pairwise_confusion_exponent(diag, 0.2, noiseless, m, 8) == 0.0


class TestDescend:
    def test_rejected_commit_leaves_the_point(self):
        # The probe sees a gain toward x[0] = 0.9, but the re-evaluation
        # reads higher, so the step must not be taken.
        x = np.array([0.5, 0.5])
        proposed = []

        def commit(cand, *_):
            proposed.append(cand)
            return 1.0

        def f(z):
            return (z[0] - 0.9) ** 2

        cur, end = _descend(f, x, f(x), [np.array([1.0, -1.0])], 2, 1e-6, eps=1e-12, commit=commit)
        assert proposed and proposed[0][0] > 0.8
        assert cur == f(x)
        assert np.array_equal(end, x)


class TestOuterForms:
    def test_bsc_matched_frozen(self, bsc, unif2):
        query = ExponentQuery(0.1, unif2, bsc, matched_metric(bsc))
        res = exponent_form(query, 8)
        assert res.expurgated_value == pytest.approx(0.12314355189689047, abs=1e-12)
        assert res.maxmin_value == pytest.approx(0.11111926448503395, abs=1e-12)
        assert res.form == "constrained"
        assert res.value == res.expurgated_value
        assert res.gap == pytest.approx(res.expurgated_value - res.maxmin_value, abs=1e-15)
        assert not res.boundary_flag

    @pytest.mark.parametrize("case, k", [("bsc", 16), ("wide", 8)])
    def test_prepared_info_matches_one_joint_calls(self, bsc, wide, unif2, case, k):
        # one stack call over all couplings gives each coupling's own value
        channel = bsc if case == "bsc" else wide
        pipe = _prepare(ExponentQuery(0.1, unif2, channel, matched_metric(channel)), GridSpec(k))
        want = [mutual_information(JointDistribution(p)) for p in pipe.couplings]
        assert len(want) > 1 and pipe.info.tolist() == want

    def test_bsc_matched_k16_forms_agree(self, bsc, unif2):
        query = ExponentQuery(0.1, unif2, bsc, matched_metric(bsc))
        res = exponent_form(query, 16)
        assert res.expurgated_value == pytest.approx(0.1231435513142097, abs=1e-12)
        assert res.maxmin_value == pytest.approx(0.1231435513142097, abs=1e-12)

    def test_mismatched_frozen(self, bsc, unif2):
        m = mismatched_metric([[0.85, 0.15], [0.15, 0.85]])
        res = exponent_form(ExponentQuery(0.2, unif2, bsc, m), 8)
        assert res.expurgated_value == pytest.approx(0.03589828949336804, abs=1e-12)
        assert res.maxmin_value == pytest.approx(0.03589828949336804, abs=1e-12)

    def test_wide_refined_pinned(self, wide, unif2):
        # Three outputs give the refinement three directions per kernel row.
        res = exponent_form(ExponentQuery(0.1, unif2, wide, matched_metric(wide, beta=1.0)), 4)
        assert res.expurgated_value == res.maxmin_value == 0.05725996415589854
        assert res.rho_star == 1.0
        assert res.argmin.tolist() == [
            [0.2890570162034178, 0.21094298379658225],
            [0.21094298379658225, 0.2890570162034178],
        ]

    @pytest.mark.parametrize(
        "rate, want, argmin",
        [
            (0.1, 0.12314355131420984, [[0.25, 0.25], [0.25, 0.25]]),
            (
                0.3,
                0.006396414418823215,
                [[0.2433197321803234, 0.2566802678196766], [0.2566802678196766, 0.2433197321803234]],
            ),
        ],
    )
    def test_bsc_emi_refined_pinned(self, bsc, unif2, rate, want, argmin):
        # Pinned before the emi objective took both joints through one
        # mutual-information call; refinement and polish both run.
        res = exponent_form(ExponentQuery(rate, unif2, bsc, emi_metric(2, 2)), GridSpec(8, refine=True))
        assert res.form == "penalized"
        assert res.value == res.expurgated_value == res.maxmin_value == want
        assert res.rho_star == 1.0 and res.gap == 0.0
        assert res.argmin.tolist() == argmin

    def test_each_margin_table_scanned_once(self, bsc, unif2, monkeypatch):
        scans = []
        orig = ConfusionExponentSolver._scan

        def counted(self, cells, counts, k_in):
            scans.append(counts)
            return orig(self, cells, counts, k_in)

        monkeypatch.setattr(ConfusionExponentSolver, "_scan", counted)
        exponent_form(ExponentQuery(0.1, unif2, bsc, matched_metric(bsc)), GridSpec(8, refine=True))
        margins = margin_counts(unif2, 8)
        assert len(scans) == len(list(enumerate_margin_tables(margins, margins)))

    def test_weak_duality_random(self, unif2):
        rng = np.random.default_rng(43)
        from conftest import random_channel

        for _ in range(3):
            ch = random_channel(rng, 2, 2)
            m = matched_metric(ch, beta=float(rng.uniform(0.5, 2.0)))
            res = exponent_form(ExponentQuery(0.2, unif2, ch, m), 8)
            assert res.maxmin_value <= res.expurgated_value + 1e-9

    def test_constant_metric_both_zero(self, bsc, unif2):
        query = ExponentQuery(0.3, unif2, bsc, constant_metric(2, 2, 0.7))
        res = exponent_form(query, 8)
        assert res.expurgated_value == 0.0
        assert res.maxmin_value == 0.0

    def test_emi_reports_penalized_form(self, bsc, unif2):
        res = exponent_form(ExponentQuery(0.1, unif2, bsc, emi_metric(2, 2)), 8)
        assert res.form == "penalized"
        assert res.value == res.maxmin_value
        # duality still applies: penalized never above constrained
        assert res.maxmin_value <= res.expurgated_value + 1e-9

    def test_value_never_below_minus_rate(self, unif2):
        rng = np.random.default_rng(47)
        from conftest import random_channel

        for _ in range(3):
            ch = random_channel(rng, 2, 2)
            m = matched_metric(ch, beta=2.0)
            rate = float(rng.uniform(0.05, 0.5))
            res = expurgated_exponent(ExponentQuery(rate, unif2, ch, m), 8)
            assert res.value >= -rate - 1e-12


class TestSupportInfinity:
    def test_noiseless_expurgated_infinite(self, noiseless, unif2):
        # R below ln 2: every feasible coupling carries off-diagonal mass
        query = ExponentQuery(0.2, unif2, noiseless, matched_metric(noiseless))
        res = expurgated_exponent(query, 16)
        assert res.value == math.inf
        assert "support-forced" in res.note

    def test_noiseless_maxmin_boundary(self, noiseless, unif2):
        query = ExponentQuery(0.2, unif2, noiseless, matched_metric(noiseless))
        res = maxmin_exponent(query, 16)
        # only the diagonal coupling is finite: value rho_max*(ln 2 - R)
        assert res.value == pytest.approx(64.0 * (math.log(2) - 0.2), abs=1e-9)
        assert res.boundary_flag
        assert res.rho_star == pytest.approx(64.0, abs=1e-6)

    def test_all_forbidden_metric(self, bsc, unif2):
        # second word's score is -inf for every coupling
        m = AffineMetric(np.full((2, 2), -math.inf))
        res = expurgated_exponent(ExponentQuery(0.1, unif2, bsc, m), 8)
        assert res.value == math.inf
        assert "support-forced" in res.note


class TestGridFeasibility:
    def test_coarse_grid_rejected(self, bsc, unif2):
        # k=6 pins margins at (3,3); the most independent table still has
        # information above this rate, so the constrained form is empty
        query = ExponentQuery(0.05, unif2, bsc, matched_metric(bsc))
        with pytest.raises(InfeasibleGridError, match="resolution"):
            expurgated_exponent(query, 6)
        # the penalized form has no information cap and stays solvable
        res = maxmin_exponent(query, 6)
        assert math.isfinite(res.value)

    def test_off_grid_composition_rejected(self, bsc):
        query = ExponentQuery(0.2, Distribution([1 / 3, 2 / 3]), bsc, matched_metric(bsc))
        with pytest.raises(InfeasibleGridError) as err:
            expurgated_exponent(query, 8)
        assert err.value.suggestion is not None


class TestRateSweep:
    def test_matches_direct_calls(self, bsc, unif2):
        query = ExponentQuery(0.1, unif2, bsc, matched_metric(bsc))
        rates = [0.1, 0.3]
        swept = rate_sweep(query, rates, 8)
        for r, res in zip(rates, swept):
            direct = exponent_form(ExponentQuery(r, unif2, bsc, matched_metric(bsc)), 8)
            assert res.expurgated_value == direct.expurgated_value
            assert res.maxmin_value == direct.maxmin_value

    def test_exponent_nonincreasing_in_rate(self, bsc, unif2):
        query = ExponentQuery(0.1, unif2, bsc, matched_metric(bsc))
        swept = rate_sweep(query, [0.1, 0.25, 0.45], 8)
        vals = [r.expurgated_value for r in swept]
        assert vals[0] >= vals[1] - 1e-9 >= vals[2] - 2e-9

    def test_unsorted_rejected(self, bsc, unif2):
        query = ExponentQuery(0.1, unif2, bsc, matched_metric(bsc))
        with pytest.raises(DistributionError):
            rate_sweep(query, [0.3, 0.1], 8)


class TestDeterminism:
    def test_repeat_call_identical(self, bsc, unif2):
        query = ExponentQuery(0.15, unif2, bsc, matched_metric(bsc))
        a = exponent_form(query, GridSpec(8, workers=1))
        b = exponent_form(query, GridSpec(8, workers=1))
        assert a.value == b.value
        assert np.array_equal(a.argmin, b.argmin)

    def test_workers_invisible(self, bsc, unif2):
        query = ExponentQuery(0.15, unif2, bsc, matched_metric(bsc))
        a = exponent_form(query, GridSpec(8, workers=1))
        b = exponent_form(query, GridSpec(8, workers=8))
        assert a.value == b.value
        assert a.rho_star == b.rho_star
        assert np.array_equal(a.argmin, b.argmin)

    def test_workers_share_floor_memo(self, wide, unif2):
        # the 2x3 inner scans run in seven chunks that fill one floor memo
        query = ExponentQuery(0.1, unif2, wide, matched_metric(wide))
        a = exponent_form(query, GridSpec(8, refine=False, workers=1))
        b = exponent_form(query, GridSpec(8, refine=False, workers=4))
        assert a.value == b.value
        assert a.expurgated_value == b.expurgated_value
        assert a.maxmin_value == b.maxmin_value
        assert a.rho_star == b.rho_star
        assert np.array_equal(a.argmin, b.argmin)


class TestExchangedObjective:
    # Pinned before its negative entropy moved onto entropy_rows; both
    # triples have input-side marginals (1/2, 1/2) and zero cells.
    def test_pinned(self, bsc, wide, unif2):
        t_bsc = np.array([[[0.30, 0.05], [0.10, 0.05]], [[0.0, 0.15], [0.05, 0.30]]])
        t_wide = np.array(
            [[[0.20, 0.05, 0.0], [0.10, 0.05, 0.10]], [[0.10, 0.05, 0.10], [0.05, 0.0, 0.20]]]
        )
        for chan, triple, want in ((bsc, t_bsc, 0.5475377659420246), (wide, t_wide, 0.1601184216921031)):
            metric = matched_metric(chan)
            ev = CompetitorScoreEvaluator(metric, 0.1, chan.output_size, 8)
            assert exchanged_objective(triple, 1.5, 0.1, unif2, chan, metric, ev) == want
