"""Codebooks, the randomized decoder, error probabilities, expurgation."""

import math

import numpy as np
import pytest

from gldx import (
    Codebook,
    Distribution,
    DistributionError,
    SimConfig,
    check_good_code,
    constant_metric,
    emi_metric,
    empirical_exponent,
    exact_error_probability,
    gld_decode,
    gld_posterior,
    half_expurgate,
    kept_indices,
    markov_bound_check,
    matched_metric,
    monte_carlo_error,
    sample_code,
)
from gldx.simulator import _inverse_cdf, nearest_valid_blocklength


class TestCodebook:
    def test_rejects_mixed_composition(self):
        with pytest.raises(DistributionError, match="word 1"):
            Codebook(np.array([[0, 1], [1, 1]]), Distribution.uniform(2))

    def test_rejects_out_of_range_symbol(self):
        with pytest.raises(DistributionError):
            Codebook(np.array([[0, 2]]), Distribution.uniform(2))

    def test_rejects_non_integral_composition(self):
        with pytest.raises(DistributionError, match="not integral"):
            Codebook(np.array([[0, 1, 0]]), Distribution.uniform(2))

    def test_rate(self):
        code = Codebook([[0, 1], [1, 0]], Distribution.uniform(2))
        assert code.rate == pytest.approx(math.log(2) / 2, abs=1e-15)

    def test_words_frozen(self):
        code = Codebook([[0, 1], [1, 0]], Distribution.uniform(2))
        with pytest.raises(ValueError):
            code.words[0, 0] = 1


class TestSimConfig:
    def test_effective_epsilon_floor(self):
        # 2 ln 2 / n dominates at short blocks, the 0.01 floor at long ones
        assert SimConfig(6, 4, 10, 0).effective_epsilon() == pytest.approx(2 * math.log(2) / 6)
        assert SimConfig(1000, 4, 10, 0).effective_epsilon() == 0.01
        assert SimConfig(6, 4, 10, 0, epsilon=0.2).effective_epsilon() == 0.2

    def test_validation(self):
        with pytest.raises(DistributionError):
            SimConfig(0, 4, 10, 0)
        with pytest.raises(DistributionError):
            SimConfig(6, 1, 10, 0)
        with pytest.raises(DistributionError):
            SimConfig(6, 4, 10, 0, epsilon=-0.1)


class TestSampling:
    def test_words_have_the_composition(self, unif2):
        code = sample_code(unif2, 8, 5, np.random.default_rng(1))
        for w in code.words:
            assert np.bincount(w, minlength=2).tolist() == [4, 4]

    def test_seeded_reproducibility(self, unif2):
        a = sample_code(unif2, 8, 5, np.random.default_rng(9))
        b = sample_code(unif2, 8, 5, np.random.default_rng(9))
        assert np.array_equal(a.words, b.words)

    def test_non_integral_rejected_with_hint(self, unif2):
        with pytest.raises(DistributionError, match="nearest valid blocklength is 4"):
            sample_code(unif2, 5, 4, np.random.default_rng(0))

    def test_nearest_valid_blocklength(self):
        assert nearest_valid_blocklength(Distribution.uniform(2), 5) == 4
        assert nearest_valid_blocklength(Distribution.uniform(3), 7) == 6
        assert nearest_valid_blocklength(Distribution.uniform(2), 8) == 8


class TestPosterior:
    def test_proportional_to_exp_total_score(self, bsc):
        code = Codebook([[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 1]], Distribution.uniform(2))
        m = matched_metric(bsc)
        y = np.array([0, 1, 1, 0])
        totals = np.array(
            [sum(m.cells[w[t], y[t]] for t in range(4)) for w in code.words]
        )
        want = np.exp(totals - totals.max())
        want /= want.sum()
        got = gld_posterior(code, y, m).p
        assert np.allclose(got, want, atol=1e-14)

    def test_all_forbidden_output_uniform(self, noiseless):
        # y disagrees with every word somewhere, so each matched score is -inf
        code = Codebook([[0, 1], [1, 0]], Distribution.uniform(2))
        got = gld_posterior(code, [0, 0], matched_metric(noiseless)).p
        assert np.allclose(got, 0.5)

    def test_emi_posterior_normalizes(self, wide):
        code = Codebook([[0, 1, 0, 1], [1, 1, 0, 0]], Distribution.uniform(2))
        got = gld_posterior(code, [2, 0, 1, 2], emi_metric(2, 3))
        assert got.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self, bsc):
        code = Codebook([[0, 1], [1, 0]], Distribution.uniform(2))
        with pytest.raises(DistributionError):
            gld_posterior(code, [0, 1, 1], matched_metric(bsc))

    def test_decode_seeded(self, bsc):
        code = Codebook([[0, 1, 0, 1], [1, 0, 0, 1]], Distribution.uniform(2))
        m = matched_metric(bsc)
        picks = [gld_decode(code, [0, 1, 0, 1], m, np.random.default_rng(4)) for _ in range(3)]
        assert picks[0] == picks[1] == picks[2]

    def test_decode_frequencies_track_posterior(self, bsc):
        code = Codebook([[0, 1, 0, 1], [1, 0, 0, 1], [1, 1, 0, 0]], Distribution.uniform(2))
        m = matched_metric(bsc)
        y = [0, 1, 1, 0]
        post = gld_posterior(code, y, m).p
        rng = np.random.default_rng(8)
        n = 20000
        counts = np.bincount([gld_decode(code, y, m, rng) for _ in range(n)], minlength=3)
        freq = counts / n
        sigma = np.sqrt(post * (1 - post) / n)
        assert np.all(np.abs(freq - post) <= 5 * np.maximum(sigma, 1e-9))


class TestInverseCdf:
    def test_draw_past_the_rounded_mass_picks_the_last_index(self):
        # Ten masses of 0.1 add up to nextafter(1, 0), so a uniform that
        # large lies past the total mass; the draw falls to the last index.
        p, u = np.full(10, 0.1), np.nextafter(1.0, 0.0)
        assert np.cumsum(p)[-1] == u
        assert _inverse_cdf(p, u) == 9
        assert _inverse_cdf(np.stack([p, p, p]), np.array([u, 0.05, 0.1])).tolist() == [9, 0, 1]

    def test_decode_past_the_rounded_mass(self):
        class Fixed:
            def random(self):
                return np.nextafter(1.0, 0.0)

        words = [w for w in np.ndindex(2, 2, 2, 2, 2, 2) if sum(w) == 3][:10]
        code = Codebook(words, Distribution.uniform(2))
        assert gld_decode(code, [0] * 6, constant_metric(2, 2), Fixed()) == 9


class TestGridRange:
    def test_workers_below_one_rejected(self, bsc, unif2):
        code = sample_code(unif2, 4, 2, np.random.default_rng(7))
        m = matched_metric(bsc)
        with pytest.raises(DistributionError, match="workers"):
            exact_error_probability(code, 0, bsc, m, workers=0)
        with pytest.raises(DistributionError, match="workers"):
            monte_carlo_error(code, 0, bsc, m, 100, np.random.default_rng(1), workers=-3)
        with pytest.raises(DistributionError, match="workers"):
            check_good_code(code, 0.05, m, 0.2, workers=0)

    @pytest.mark.parametrize("metric", ["matched", "emi"])
    def test_floor_resolution_below_two_rejected(self, bsc, unif2, metric):
        # emi's floor needs no grid, but the requested resolution is checked all the same
        code = sample_code(unif2, 4, 2, np.random.default_rng(7))
        m = matched_metric(bsc) if metric == "matched" else emi_metric(2, 2)
        with pytest.raises(DistributionError, match="resolution"):
            check_good_code(code, 0.05, m, 0.2, floor_resolution=1)


class TestExactError:
    def test_constant_metric_closed_form(self, bsc, unif2):
        # decoder is blind: error is exactly (M-1)/M up to float rounding
        code = sample_code(unif2, 6, 8, np.random.default_rng(5))
        err = exact_error_probability(code, 0, bsc, constant_metric(2, 2, -1.3))
        assert abs(err - 7.0 / 8.0) <= 1e-13

    def test_budget_rejected(self, bsc, unif2):
        # 2^26 outputs exceed the 2^24 enumeration budget
        code = sample_code(unif2, 26, 2, np.random.default_rng(6))
        with pytest.raises(DistributionError, match="monte_carlo_error"):
            exact_error_probability(code, 0, bsc, matched_metric(bsc))

    def test_message_index_checked(self, bsc, unif2):
        code = sample_code(unif2, 4, 2, np.random.default_rng(7))
        with pytest.raises(DistributionError):
            exact_error_probability(code, 2, bsc, matched_metric(bsc))

    def test_noiseless_distinct_words_zero_error(self, noiseless):
        code = Codebook([[0, 1, 0, 1], [1, 0, 1, 0]], Distribution.uniform(2))
        err = exact_error_probability(code, 0, noiseless, matched_metric(noiseless))
        assert err == 0.0

    def test_workers_bit_identical(self, bsc, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(10))
        m = matched_metric(bsc)
        a = exact_error_probability(code, 1, bsc, m, workers=1)
        b = exact_error_probability(code, 1, bsc, m, workers=8)
        assert a == b

    @pytest.mark.parametrize("case", ["bsc-matched", "wide-emi"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_sequence_matches_per_message_calls(self, bsc, wide, unif2, case, workers):
        # affine scores at n=12 (one chunk); non-affine emi at n=10 (four chunks)
        if case == "bsc-matched":
            channel, metric, n, size = bsc, matched_metric(bsc), 12, 6
        else:
            channel, metric, n, size = wide, emi_metric(2, 3), 10, 4
        code = sample_code(unif2, n, size, np.random.default_rng(31))
        order = [size - 1, 0, 2, 0, 1] + list(range(3, size - 1))
        for msgs in (range(size), order):
            want = [exact_error_probability(code, i, channel, metric, workers=workers) for i in msgs]
            got = exact_error_probability(code, msgs, channel, metric, workers=workers)
            assert isinstance(got, list)
            assert got == want

    @pytest.mark.parametrize("msgs", [[0, 1, 2], [-1, 0], np.array([1, 0, 5])])
    def test_sequence_index_checked(self, bsc, unif2, msgs):
        code = sample_code(unif2, 4, 2, np.random.default_rng(7))
        with pytest.raises(DistributionError, match="out of range"):
            exact_error_probability(code, msgs, bsc, matched_metric(bsc))

    def test_budget_rejected_before_enumeration(self, bsc, unif2, monkeypatch):
        code = sample_code(unif2, 26, 2, np.random.default_rng(6))

        def no_enumeration(*_):
            raise AssertionError("outputs enumerated")

        monkeypatch.setattr("gldx.simulator.digits", no_enumeration)
        for msgs in (0, [0, 1], []):
            with pytest.raises(DistributionError, match="monte_carlo_error"):
                exact_error_probability(code, msgs, bsc, matched_metric(bsc))

    def test_empty_sequence(self, bsc, unif2):
        code = sample_code(unif2, 4, 2, np.random.default_rng(7))
        assert exact_error_probability(code, [], bsc, matched_metric(bsc)) == []


class TestMonteCarlo:
    def test_reproducible_and_worker_invariant(self, bsc, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(12))
        m = matched_metric(bsc)
        a = monte_carlo_error(code, 0, bsc, m, 10000, np.random.default_rng(99), workers=1)
        b = monte_carlo_error(code, 0, bsc, m, 10000, np.random.default_rng(99), workers=8)
        assert a == b

    def test_tracks_exact(self, bsc, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(13))
        m = matched_metric(bsc)
        exact = exact_error_probability(code, 2, bsc, m)
        est, se = monte_carlo_error(code, 2, bsc, m, 40000, np.random.default_rng(14))
        assert abs(est - exact) <= 4 * max(se, 1e-12)

    def test_partial_last_block(self, bsc, unif2):
        # trials not divisible by the block size must still count correctly
        code = sample_code(unif2, 4, 2, np.random.default_rng(15))
        est, se = monte_carlo_error(
            code, 0, bsc, matched_metric(bsc), 5000, np.random.default_rng(16)
        )
        assert 0.0 <= est <= 1.0 and se >= 0.0


class TestGoodCode:
    def test_constant_closed_form_margin(self, unif2):
        # floor is the constant plus (R - eps); crowd sum is (M-1) e^(n c)
        code = sample_code(unif2, 6, 4, np.random.default_rng(71))
        m = constant_metric(2, 2, 0.1)
        for rate in (0.4, 0.18):
            rep = check_good_code(code, 0.1, m, rate)
            want = math.log(3) / 6 - (rate - 0.1)
            assert rep.worst_margin == pytest.approx(want, abs=1e-9)
            assert rep.holds == (want >= 0)
            assert rep.exhaustive

    def test_epsilon_bounds_enforced(self, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(72))
        m = constant_metric(2, 2, 0.0)
        with pytest.raises(DistributionError):
            check_good_code(code, 0.5, m, rate=0.2)
        with pytest.raises(DistributionError):
            check_good_code(code, -0.1, m, rate=0.2)

    def test_workers_report_identical(self, bsc, unif2):
        # 2^16 outputs: four enumeration chunks, reduced in chunk order
        code = sample_code(unif2, 16, 4, np.random.default_rng(75))
        m = matched_metric(bsc)
        a = check_good_code(code, 0.05, m, rate=0.1, workers=1)
        b = check_good_code(code, 0.05, m, rate=0.1, workers=8)
        assert a.exhaustive and a.n_checked == 1 << 16
        assert a == b

    def test_sampled_fallback(self, unif2):
        # 2^26 outputs exceed the enumeration budget, so 20000 are sampled
        code = sample_code(unif2, 26, 4, np.random.default_rng(73))
        m = constant_metric(2, 2, 0.0)
        rep = check_good_code(code, 0.05, m, rate=0.2, rng=np.random.default_rng(1))
        assert not rep.exhaustive
        assert rep.n_checked == 20000

    def test_report_json(self, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(74))
        rep = check_good_code(code, 0.05, constant_metric(2, 2, 0.0), rate=0.2)
        j = rep.to_json()
        assert set(j) == {
            "holds",
            "worst_margin",
            "witness_message",
            "witness_output",
            "exhaustive",
            "n_checked",
            "epsilon",
        }
        assert len(j["witness_output"]) == code.blocklength


class TestExpurgation:
    def test_kept_indices_half_and_ties(self):
        # tie at 0.3 goes to the smaller index; result sorted ascending
        assert kept_indices([0.5, 0.3, 0.3, 0.9]).tolist() == [1, 2]
        assert kept_indices([0.9, 0.1, 0.5]).tolist() == [1, 2]

    def test_kept_indices_needs_two(self):
        with pytest.raises(DistributionError):
            kept_indices([0.5])

    def test_half_expurgate(self, unif2):
        code = sample_code(unif2, 6, 5, np.random.default_rng(21))
        pruned = half_expurgate(code, [0.5, 0.1, 0.9, 0.2, 0.3])
        assert pruned.size == 3
        assert np.array_equal(pruned.words, code.words[[1, 3, 4]])

    def test_half_expurgate_length_check(self, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(22))
        with pytest.raises(DistributionError):
            half_expurgate(code, [0.1, 0.2])

    def test_markov_bound_holds_seeded(self, bsc, unif2):
        rng = np.random.default_rng(61)
        m = matched_metric(bsc)
        for _ in range(5):
            code = sample_code(unif2, 6, 4, rng)
            probs = [exact_error_probability(code, i, bsc, m) for i in range(4)]
            for rho in (1.0, 2.0, 5.0):
                lhs, rhs, holds = markov_bound_check(code, bsc, m, rho, probs)
                assert holds
                assert lhs >= rhs - 1e-12

    def test_markov_bound_computes_probs_when_absent(self, bsc, unif2):
        code = sample_code(unif2, 6, 4, np.random.default_rng(62))
        m = matched_metric(bsc)
        probs = [exact_error_probability(code, i, bsc, m) for i in range(4)]
        lhs, rhs, holds = markov_bound_check(code, bsc, m, 2.0)
        assert holds
        assert (lhs, rhs, holds) == markov_bound_check(code, bsc, m, 2.0, probs)

    def test_markov_bound_rho_floor(self, bsc, unif2):
        code = sample_code(unif2, 4, 2, np.random.default_rng(63))
        with pytest.raises(DistributionError):
            markov_bound_check(code, bsc, matched_metric(bsc), 0.5, [0.1, 0.2])


class TestEmpiricalExponent:
    def test_constant_metric_closed_forms(self, bsc, unif2):
        # blind decoding after pruning to M' words: error (M'-1)/M' exactly
        recs = empirical_exponent(
            unif2, 0.15, bsc, constant_metric(2, 2, 0.0), [6, 8], 3, np.random.default_rng(7)
        )
        by_n = {r["n"]: r for r in recs}
        assert by_n[6]["M"] == 2
        assert by_n[6]["exponent"] == math.inf  # single kept word: zero error
        assert by_n[8]["M"] == 3
        assert by_n[8]["exponent"] == pytest.approx(-math.log(0.5) / 8, abs=1e-12)

    def test_noiseless_infinite(self, noiseless, unif2):
        recs = empirical_exponent(
            unif2, 0.15, noiseless, matched_metric(noiseless), [6], 3, np.random.default_rng(8)
        )
        assert recs[0]["exponent"] == math.inf
        assert recs[0]["best_max_error"] == 0.0

    def test_deterministic_and_well_formed(self, bsc, unif2):
        m = matched_metric(bsc)
        a = empirical_exponent(unif2, 0.15, bsc, m, [6, 8], 5, np.random.default_rng(99))
        b = empirical_exponent(unif2, 0.15, bsc, m, [6, 8], 5, np.random.default_rng(99))
        assert a == b
        for rec in a:
            assert set(rec) == {"n", "M", "effective_rate", "best_max_error", "exponent"}
            assert rec["effective_rate"] == pytest.approx(math.log(rec["M"]) / rec["n"])


class TestPinnedOutputs:
    """Values recorded before the simulator's draws and scores got one owner each."""

    def test_exact_bsc_matched2(self, bsc, unif2):
        code = sample_code(unif2, 12, 6, np.random.default_rng(41))
        assert exact_error_probability(code, range(6), bsc, matched_metric(bsc, 2.0)) == [
            0.10743785603263396,
            0.021106485826903495,
            0.12669002022667153,
            0.05468088203850267,
            0.12085185277522444,
            0.1266900202266716,
        ]

    def test_exact_wide_emi(self, wide, unif2):
        code = sample_code(unif2, 8, 4, np.random.default_rng(42))
        assert exact_error_probability(code, range(4), wide, emi_metric(2, 3)) == [
            0.47328925278228706,
            0.4731966966674488,
            0.4304882057285072,
            0.43210435766437405,
        ]

    def test_monte_carlo(self, bsc, unif2):
        code = sample_code(unif2, 8, 4, np.random.default_rng(43))
        est = monte_carlo_error(code, 1, bsc, matched_metric(bsc), 5000, np.random.default_rng(44))
        assert est == (0.121, 0.004612136164512058)

    def test_decode_draws(self, bsc, unif2):
        code = sample_code(unif2, 6, 5, np.random.default_rng(45))
        m, y, rng = matched_metric(bsc, 0.25), [0, 1, 1, 0, 1, 0], np.random.default_rng(46)
        draws = "".join(str(gld_decode(code, y, m, rng)) for _ in range(200))
        assert draws == (
            "40144044344340440032140143340444443401143130343331410304431344404233041344413423"
            "04343444241044203342443103431341404003433114342140444431300411124410404410414440"
            "4013424410440111124433031344441344444103"
        )
