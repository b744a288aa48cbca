"""Probability objects and information measures."""

import math

import numpy as np
import pytest

from gldx import (
    Channel,
    Distribution,
    DistributionError,
    JointDistribution,
    compositions,
    entropy,
    mutual_information,
)
from gldx.measures import mutual_information_stack
from gldx.oracles import _mutual_information


class TestDistribution:
    def test_validates_sum(self):
        with pytest.raises(DistributionError):
            Distribution(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            Distribution(np.array([-0.1, 1.1]))

    def test_rejects_nan(self):
        with pytest.raises(DistributionError):
            Distribution(np.array([math.nan, 1.0]))

    def test_tiny_residue_normalized(self):
        d = Distribution(np.array([0.5, 0.5 + 1e-13]))
        assert d.p.sum() == 1.0

    def test_frozen(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.p[0] = 0.9

    def test_point_mass_entropy_zero(self):
        assert entropy(Distribution(np.eye(4)[2])) == 0.0


class TestJoint:
    def test_product(self):
        j = JointDistribution(np.outer([0.5, 0.5], [0.25, 0.75]))
        assert mutual_information(j) == 0.0


class TestChannel:
    def test_from_json_roundtrip(self, bsc):
        obj = {"input_size": 2, "output_size": 2, "matrix": bsc.matrix.tolist()}
        again = Channel.from_json(obj)
        assert np.array_equal(again.matrix, bsc.matrix)

    def test_from_json_reports_bad_row(self):
        obj = {"input_size": 2, "output_size": 2, "matrix": [[0.9, 0.1], [0.6, 0.6]]}
        with pytest.raises(DistributionError, match="row 1"):
            Channel.from_json(obj)

    def test_from_json_shape_mismatch(self):
        obj = {"input_size": 2, "output_size": 3, "matrix": [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(DistributionError):
            Channel.from_json(obj)

    def test_zero_entries_allowed(self, noiseless):
        assert noiseless.matrix[0, 1] == 0.0

    def test_from_matrix_rejects_bad_row_sum(self):
        with pytest.raises(DistributionError, match="sum"):
            Channel.from_matrix([[0.9, 0.1], [0.6, 0.6]])

    def test_from_matrix_rejects_nan(self):
        with pytest.raises(DistributionError, match="NaN"):
            Channel.from_matrix([[0.9, 0.1], [math.nan, 1.0]])


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Distribution.uniform(2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_quarter(self):
        # direct evaluation: -(0.25 ln 0.25 + 0.75 ln 0.75)
        want = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert entropy(Distribution([0.25, 0.75])) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.562335, abs=1e-6)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            h = entropy(Distribution(p))
            assert 0.0 <= h <= math.log(5) + 1e-12


class TestMutualInformation:
    def test_identity_coupling(self):
        j = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j) == pytest.approx(math.log(2), abs=1e-15)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            j = JointDistribution(rng.dirichlet(np.ones(6)).reshape(2, 3))
            assert mutual_information(j) >= 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(6)).reshape(2, 3)
        px, py = p.sum(axis=1), p.sum(axis=0)
        direct = sum(
            p[x, y] * math.log(p[x, y] / (px[x] * py[y]))
            for x in range(2)
            for y in range(3)
            if p[x, y] > 0
        )
        assert mutual_information(JointDistribution(p)) == pytest.approx(direct, abs=1e-12)

    def test_stack_matches_scalar(self):
        rng = np.random.default_rng(11)
        stack = rng.dirichlet(np.ones(6), size=20).reshape(20, 2, 3)
        stack[0] = [[0.5, 0.0, 0.0], [0.0, 0.25, 0.25]]
        want = [_mutual_information(j.tolist()) for j in stack]
        assert np.allclose(mutual_information_stack(stack), want, rtol=0, atol=1e-14)


class TestTypes:
    def test_composition_count(self):
        # stars and bars: C(n + k - 1, k - 1)
        assert compositions(6, 3).shape[0] == math.comb(8, 2)
        assert compositions(0, 4).shape[0] == 1

    def test_lex_order_and_sum(self):
        c = compositions(4, 3)
        assert np.all(c.sum(axis=1) == 4)
        keys = [tuple(r) for r in c]
        assert keys == sorted(keys)

    def test_read_only(self):
        c = compositions(3, 2)
        with pytest.raises(ValueError):
            c[0, 0] = 5
