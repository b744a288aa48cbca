"""Margin grids, swap directions, and the 1-D searches."""

import math

import numpy as np
import pytest

from gldx import Distribution, InfeasibleGridError, golden_section_minimize
from gldx.optimizer import (
    concave_search_rho,
    enumerate_margin_tables,
    margin_counts,
    move_directions,
    nearest_grid_composition,
    ordered_chunk_map,
)


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
