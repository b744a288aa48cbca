"""Decoding metrics: affine cell tables and the empirical-MI score."""

import math

import numpy as np
import pytest

from gldx import (
    AffineMetric,
    Channel,
    JointDistribution,
    MetricError,
    constant_metric,
    emi_metric,
    matched_metric,
    metric_from_json,
    mismatched_metric,
    mutual_information,
)


class TestAffineMetric:
    def test_score_is_cell_sum(self):
        m = AffineMetric(np.array([[1.0, 2.0], [3.0, 4.0]]))
        j = JointDistribution([[0.1, 0.2], [0.3, 0.4]])
        want = 0.1 * 1 + 0.2 * 2 + 0.3 * 3 + 0.4 * 4
        assert m.score(j) == pytest.approx(want, abs=1e-15)

    def test_forbidden_cell(self):
        m = AffineMetric(np.array([[0.0, -math.inf], [0.0, 0.0]]))
        hit = JointDistribution([[0.5, 0.5], [0.0, 0.0]])
        miss = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
        assert m.score(hit) == -math.inf
        assert math.isfinite(m.score(miss))

    def test_rejects_nan_and_posinf(self):
        with pytest.raises(MetricError):
            AffineMetric(np.array([[math.nan, 0.0]]))
        with pytest.raises(MetricError):
            AffineMetric(np.array([[math.inf, 0.0]]))

    def test_shape_mismatch(self):
        m = AffineMetric(np.zeros((2, 2)))
        with pytest.raises(MetricError):
            m.score(JointDistribution(np.full((2, 3), 1.0 / 6)))

    def test_is_affine(self):
        assert AffineMetric(np.zeros((2, 2))).is_affine
        assert not emi_metric(2, 2).is_affine


class TestMatched:
    def test_cells_are_log_channel(self, bsc):
        m = matched_metric(bsc)
        assert np.allclose(m.cells, np.log(bsc.matrix))

    def test_beta_scales(self, bsc):
        m1 = matched_metric(bsc, beta=1.0)
        m2 = matched_metric(bsc, beta=2.0)
        assert np.allclose(m2.cells, 2.0 * m1.cells)

    def test_zero_entry_forbidden(self, noiseless):
        m = matched_metric(noiseless)
        assert m.cells[0, 1] == -math.inf
        assert m.cells[0, 0] == 0.0

    def test_beta_must_be_positive(self, bsc):
        with pytest.raises(MetricError):
            matched_metric(bsc, beta=0.0)


class TestMismatched:
    def test_accepts_matrix_and_channel(self, bsc):
        k = [[0.8, 0.2], [0.3, 0.7]]
        m1 = mismatched_metric(k)
        m2 = mismatched_metric(Channel.from_matrix(k))
        assert np.array_equal(m1.cells, m2.cells)

    def test_rejects_negative_kernel(self):
        with pytest.raises(MetricError):
            mismatched_metric([[1.2, -0.2], [0.5, 0.5]])


class TestConstantAndEmi:
    def test_constant_scores_everything_equally(self):
        m = constant_metric(2, 3, value=-1.3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            j = JointDistribution(rng.dirichlet(np.ones(6)).reshape(2, 3))
            assert m.score(j) == pytest.approx(-1.3, abs=1e-15)

    def test_constant_must_be_finite(self):
        with pytest.raises(MetricError):
            constant_metric(2, 2, value=math.inf)

    def test_emi_score_is_mutual_information(self):
        m = emi_metric(2, 3)
        rng = np.random.default_rng(4)
        j = JointDistribution(rng.dirichlet(np.ones(6)).reshape(2, 3))
        assert m.score(j) == pytest.approx(mutual_information(j), abs=1e-15)

    def test_emi_shape_check(self):
        with pytest.raises(MetricError):
            emi_metric(2, 2).score(JointDistribution(np.full((2, 3), 1.0 / 6)))


class TestFromJson:
    def test_all_kinds(self, bsc):
        matched = metric_from_json({"kind": "matched", "beta": 2.0}, bsc)
        assert np.allclose(matched.cells, 2.0 * np.log(bsc.matrix))
        mm = metric_from_json(
            {"kind": "mismatched", "kernel": [[0.8, 0.2], [0.3, 0.7]]}, bsc
        )
        assert mm.is_affine
        const = metric_from_json({"kind": "constant", "value": 0.5}, bsc)
        assert const.cells[0, 0] == 0.5
        emi = metric_from_json({"kind": "emi"}, bsc)
        assert not emi.is_affine

    def test_matched_needs_channel(self):
        with pytest.raises(MetricError):
            metric_from_json({"kind": "matched"})

    def test_unknown_kind(self, bsc):
        with pytest.raises(MetricError):
            metric_from_json({"kind": "nope"}, bsc)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "matched", "betta": 2},
            {"kind": "mismatched", "kernel": [[0.8, 0.2], [0.3, 0.7]], "value": 1.0},
            {"kind": "constant", "value": 0.5, "beta": 2.0},
            {"kind": "emi", "beta": 1.0},
            {"kind": "matched", "beta": "2"},
            {"kind": "mismatched", "kernel": [[0.8, 0.2], [0.3, 0.7]], "beta": True},
            {"kind": "constant", "value": "0.5"},
        ],
    )
    def test_rejects_unread_or_mistyped_field(self, bsc, spec):
        # Each used to build a metric: unread fields were ignored and
        # float() parsed strings and booleans.
        with pytest.raises(MetricError):
            metric_from_json(spec, bsc)

    def test_kernel_shape_must_match_channel(self, bsc):
        spec = {"kind": "mismatched", "kernel": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]}
        with pytest.raises(MetricError):
            metric_from_json(spec, bsc)

    def test_kernel_rows_must_be_stochastic(self, bsc):
        spec = {"kind": "mismatched", "kernel": [[0.9, 0.2], [0.5, 0.5]]}
        with pytest.raises(MetricError):
            metric_from_json(spec, bsc)
