"""Margin grids, swap directions, and the 1-D searches."""

import math

import numpy as np
import pytest

from gldx import Distribution, InfeasibleGridError, golden_section_minimize
from gldx.optimizer import (
    concave_search_rho,
    digits,
    enumerate_margin_tables,
    integral_counts,
    largest_resolution,
    margin_counts,
    move_directions,
    nearest_grid_composition,
    ordered_chunk_map,
)
from gldx.oracles import _naive_tables


class TestMarginCounts:
    def test_exact(self):
        c = margin_counts(Distribution([0.25, 0.75]), 8)
        assert c.tolist() == [2, 6]

    def test_off_grid_raises_with_suggestion(self):
        with pytest.raises(InfeasibleGridError) as err:
            margin_counts(Distribution([1 / 3, 2 / 3]), 8)
        assert err.value.suggestion.tolist() == [3, 5]
        assert err.value.suggestion.sum() == 8

    def test_nearest_composition_sums_to_k(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            c = nearest_grid_composition(p, 11)
            assert c.sum() == 11
            assert np.all(c >= 0)


class TestGridRules:
    @pytest.mark.parametrize("base, width", [(2, 1), (2, 10), (3, 4), (7, 3), (15, 2)])
    def test_digits_match_unravel_index(self, base, width):
        idx = np.arange(base**width)
        want = np.stack(np.unravel_index(idx, (base,) * width), axis=-1)
        assert np.array_equal(digits(idx, base, width), want)
        assert np.array_equal(digits(idx[5:], base, width), want[5:])
        assert np.array_equal(digits(int(idx[-1]), base, width), want[-1])

    @pytest.mark.parametrize(
        "limit, parts, power, budget",
        [
            (16, 2, 4, 300_000),
            (16, 3, 2, 300_000),
            (16, 3, 4, 2_000_000),
            (64, 2, 2, 4),
            (16, 2, 1, 1),
            (1, 2, 2, 10**9),
        ],
    )
    def test_largest_resolution_matches_scan(self, limit, parts, power, budget):
        fits = [k for k in range(2, limit + 1) if math.comb(k + parts - 1, parts - 1) ** power <= budget]
        assert largest_resolution(limit, parts, power, budget) == max(fits, default=1)

    def test_integral_counts_tolerance_edge(self):
        k = 4
        exact = integral_counts(np.array([0.25, 0.75]), k)
        assert exact.dtype == np.int64 and exact.tolist() == [1, 3]
        for off, within in ((0.9e-9, True), (1.1e-9, False)):
            got = integral_counts(np.array([0.25 + off / k, 0.75 - off / k]), k)
            assert (got is not None) == within
            if within:
                assert got.tolist() == [1, 3]

    @pytest.mark.parametrize("margin", [(2, 3, 1), (3, 3, 2)])
    def test_margin_tables_match_brute_force(self, margin):
        want = [np.array(t) for t in _naive_tables(list(margin))]
        got = list(enumerate_margin_tables(np.array(margin), np.array(margin)))
        assert len(got) == len(want) > 1
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestMarginTables:
    def test_margins_hold(self):
        rows = np.array([3, 5])
        cols = np.array([4, 4])
        tables = list(enumerate_margin_tables(rows, cols))
        assert tables
        for t in tables:
            assert np.array_equal(t.sum(axis=1), rows)
            assert np.array_equal(t.sum(axis=0), cols)

    def test_count_2x2(self):
        # 2x2 tables are determined by the (0,0) entry: max(0, r0+c0-k)..min(r0, c0)
        tables = list(enumerate_margin_tables(np.array([3, 5]), np.array([4, 4])))
        assert len(tables) == 4

    def test_lex_order(self):
        tables = list(enumerate_margin_tables(np.array([2, 2]), np.array([2, 2])))
        keys = [tuple(t.reshape(-1)) for t in tables]
        assert keys == sorted(keys)

    def test_mismatched_totals_empty(self):
        assert list(enumerate_margin_tables(np.array([3, 3]), np.array([4, 4]))) == []


class TestRefinement:
    def test_moves_preserve_margins(self):
        dirs = move_directions(3)
        assert len(dirs) == math.comb(3, 2) ** 2
        for d in dirs:
            assert np.array_equal(d.sum(axis=1), np.zeros(3))
            assert np.array_equal(d.sum(axis=0), np.zeros(3))


class TestGoldenSection:
    def test_quadratic(self):
        x, f = golden_section_minimize(lambda t: (t - 0.3) ** 2, -1.0, 1.0, 1e-10)
        assert x == pytest.approx(0.3, abs=1e-8)
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_boundary_minimum_exact(self):
        x, f = golden_section_minimize(lambda t: t, 2.0, 5.0, 1e-10)
        assert x == 2.0 and f == 2.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t, 1.0, 0.0, 1e-6)

    def test_concave_rho_search(self):
        # piecewise-affine concave: min of two lines, peak at their crossing
        rho_star, val, boundary = concave_search_rho(
            lambda r: min(2.0 + 0.5 * r, 10.0 - 1.5 * r), 1.0, 64.0, 1e-12
        )
        assert rho_star == pytest.approx(4.0, abs=1e-6)
        assert val == pytest.approx(4.0, abs=1e-9)
        assert not boundary

    def test_boundary_flag(self):
        rho_star, _, boundary = concave_search_rho(lambda r: r, 1.0, 8.0, 1e-12)
        assert boundary
        assert rho_star == pytest.approx(8.0, abs=1e-6)


class TestOrderedChunkMap:
    def test_chunk_boundaries_fixed(self):
        calls = []
        ordered_chunk_map(lambda s, e: calls.append((s, e)), 10, 4, 1)
        assert calls == [(0, 4), (4, 8), (8, 10)]

    def test_worker_count_invisible(self):
        fn = lambda s, e: sum(range(s, e))
        assert ordered_chunk_map(fn, 1000, 7, 1) == ordered_chunk_map(fn, 1000, 7, 8)

    def test_empty(self):
        assert ordered_chunk_map(lambda s, e: 1, 0, 4, 2) == []
