"""Desk-scale simulation of stochastic metric decoding.

Covers the runnable side of the theory: constant-composition codebooks,
the randomized decoder that picks messages with probability
proportional to exp(n * score), exact error probabilities by output
enumeration, Monte Carlo estimation with reproducible per-block random
streams, the good-code floor check, half-expurgation, and the
tilted-average inequality that drives the expurgation argument.

Reproducibility contract: every routine that consumes randomness takes
an explicit numpy Generator; Monte Carlo work derives one child stream
per fixed-size trial block from a master seed, so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .measures import Channel, Distribution, DistributionError, mutual_information_stack
from .metrics import Metric, matched_metric
from .exponents import CompetitorScoreEvaluator
from .optimizer import digits, integral_counts, ordered_chunk_map

log = logging.getLogger(__name__)

_MC_BLOCK = 4096  # trials per derived stream; fixed so workers cannot matter
_ENUM_BUDGET = 1 << 24  # outputs an exhaustive pass may enumerate
_GOOD_CODE_SAMPLES = 20000  # outputs the good-code check samples past the budget
_ENUM_CHUNK = 1 << 14  # outputs per enumeration chunk; fixed so workers cannot matter
_BLOCKLENGTH_SPAN = 10_000  # farthest nearest_valid_blocklength looks from n


@dataclass(frozen=True)
class Codebook:
    """A constant-composition code: M words of length n, one shared type."""

    words: np.ndarray
    composition: Distribution

    def __post_init__(self) -> None:
        w = np.asarray(self.words, dtype=np.int64)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise DistributionError(f"words must be a nonempty (M, n) array, got {w.shape}")
        kx = self.composition.size
        if w.min() < 0 or w.max() >= kx:
            raise DistributionError("codeword symbol outside the composition alphabet")
        n = w.shape[1]
        counts = integral_counts(self.composition.p, n)
        if counts is None:
            raise DistributionError(f"composition is not integral at blocklength {n}")
        for i, word in enumerate(w):
            if not np.array_equal(np.bincount(word, minlength=kx), counts):
                raise DistributionError(f"word {i} does not have the code composition")
        w = np.ascontiguousarray(w)
        w.flags.writeable = False
        object.__setattr__(self, "words", w)

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def blocklength(self) -> int:
        return self.words.shape[1]

    @property
    def rate(self) -> float:
        return math.log(self.size) / self.blocklength


@dataclass(frozen=True)
class SimConfig:
    """Knobs for one simulation run."""

    n: int
    M: int
    trials: int
    seed: int
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.M < 2 or self.trials < 1:
            raise DistributionError("need n >= 1, M >= 2, trials >= 1")
        if self.epsilon is not None and self.epsilon <= 0:
            raise DistributionError("epsilon must be positive when given")

    def effective_epsilon(self) -> float:
        # At desk scale the back-off must beat the 1/n type granularity.
        if self.epsilon is not None:
            return self.epsilon
        return max(0.01, 2.0 * math.log(2.0) / self.n)


@dataclass(frozen=True)
class GoodCodeReport:
    """Outcome of the competitor-floor check over all (message, output)."""

    holds: bool
    worst_margin: float
    witness: tuple[int, tuple[int, ...]]
    exhaustive: bool
    n_checked: int
    epsilon: float

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "witness_message": self.witness[0],
            "witness_output": list(self.witness[1]),
            "exhaustive": self.exhaustive,
            "n_checked": self.n_checked,
            "epsilon": self.epsilon,
        }


def nearest_valid_blocklength(q_x: Distribution, n: int) -> int | None:
    """Closest blocklength to n at which n times the composition is integral."""
    for delta in range(0, _BLOCKLENGTH_SPAN + 1):
        for cand in ((n - delta, n + delta) if delta else (n,)):
            if cand >= 1 and integral_counts(q_x.p, cand) is not None:
                return cand
    return None


def sample_code(q_x: Distribution, n: int, M: int, rng: np.random.Generator) -> Codebook:
    """M independent uniform draws from the type class of q_x.

    Each word is a random permutation of the fixed symbol multiset.
    Rejects non-integral compositions, naming the nearest blocklength
    that works.
    """
    if n < 1 or M < 1:
        raise DistributionError("need n >= 1 and M >= 1")
    counts = integral_counts(q_x.p, n)
    if counts is None:
        near = nearest_valid_blocklength(q_x, n)
        hint = f"; nearest valid blocklength is {near}" if near is not None else ""
        raise DistributionError(f"composition is not integral at blocklength {n}{hint}")
    multiset = np.repeat(np.arange(q_x.size), counts)
    words = np.stack([rng.permutation(multiset) for _ in range(M)])
    return Codebook(words, q_x)


# ---------------------------------------------------------------------------
# Decoder.


def _max_shift(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row maxima (0 for an all -inf row) and exp(scores - max), with -inf scores at 0."""
    mx = np.max(scores, axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    return mx, np.where(np.isneginf(scores), 0.0, np.exp(scores - mx))


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; all -inf rows go uniform."""
    e = _max_shift(scores)[1]
    tot = e.sum(axis=-1, keepdims=True)
    return np.where(tot > 0, e / np.where(tot > 0, tot, 1.0), 1.0 / scores.shape[-1])


def _inverse_cdf(p: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw along the last axis of p, one uniform u per row: the first
    index whose cumulative mass exceeds u, else the last (rounding can leave the
    total mass below u)."""
    below = np.cumsum(p, axis=-1) <= np.asarray(u)[..., None]
    return np.minimum(below.sum(axis=-1), p.shape[-1] - 1)


def gld_posterior(codebook: Codebook, y, metric: Metric) -> Distribution:
    """Decoder's distribution over messages given the output block y.

    Probabilities are proportional to exp(n * score).  If every score
    is -inf the posterior is defined as uniform (degenerate case,
    logged); such outputs carry no channel mass under a matched metric.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (codebook.blocklength,):
        raise DistributionError("output length does not match the codebook blocklength")
    scores = _block_scores(codebook.words, y[None], metric)[0]
    if not np.any(np.isfinite(scores)):
        log.debug("all-forbidden output %s: posterior set to uniform", y)
    return Distribution(_softmax_rows(scores[None, :])[0])


def gld_decode(codebook: Codebook, y, metric: Metric, rng: np.random.Generator) -> int:
    """One sample from gld_posterior, via a single inverse-CDF uniform."""
    return int(_inverse_cdf(gld_posterior(codebook, y, metric).p, rng.random()))


# ---------------------------------------------------------------------------
# Error probability.


def enumerable(l: int, n: int) -> bool:
    """Whether all l**n output blocks of length n fit the enumeration budget."""
    return l**n <= _ENUM_BUDGET


def _block_scores(words: np.ndarray, ys: np.ndarray, metric: Metric) -> np.ndarray:
    """Total scores n*g(joint type of word and y) for a block of outputs.

    Returns an (n_outputs, M) array.  For affine metrics the total is a
    plain sum of cell values along the block, so no type is formed.
    """
    m, n = words.shape
    if metric.is_affine:
        out = np.empty((ys.shape[0], m))
        for j in range(m):
            out[:, j] = metric.cells[words[j][None, :], ys].sum(axis=1)
        return out
    kx, l = metric.x_size, metric.y_size
    out = np.empty((ys.shape[0], m))
    c = ys.shape[0]
    rows = np.repeat(np.arange(c), n)
    for j in range(m):
        code = (words[j][None, :] * l + ys).reshape(-1)
        counts = np.zeros((c, kx * l))
        np.add.at(counts, (rows, code), 1.0)
        counts /= n
        out[:, j] = n * mutual_information_stack(counts.reshape(c, kx, l))
    return out


def exact_error_probability(
    codebook: Codebook,
    m,
    channel: Channel,
    metric: Metric,
    workers: int = 1,
) -> float | list[float]:
    """Exact decoding error by full output enumeration.

    ``m`` is a message index (gives a float) or a sequence of indices
    (gives a list in the same order).  One pass over the outputs serves
    all messages, summing W(y | word m) * (1 - posterior_m(y)) in chunk
    order per message, so a value depends neither on the sequence nor on
    the worker count.  Rejects runs whose output space exceeds the
    budget, pointing at Monte Carlo, before any work.
    """
    n = codebook.blocklength
    l = channel.output_size
    if not enumerable(l, n):
        raise DistributionError(
            f"output space {l}^{n} exceeds the enumeration budget {_ENUM_BUDGET}; "
            "use monte_carlo_error instead"
        )
    msgs = [m] if np.ndim(m) == 0 else list(m)
    for i in msgs:
        if not (0 <= i < codebook.size):
            raise DistributionError(f"message index {i} out of range")
    sent, likelihood = codebook.words[msgs], matched_metric(channel)

    def chunk(start: int, stop: int) -> list[float]:
        ys = digits(np.arange(start, stop), l, n)
        post = _softmax_rows(_block_scores(codebook.words, ys, metric))
        log_w = _block_scores(sent, ys, likelihood)  # ln W(y | word) per message
        return [float(np.dot(np.exp(log_w[:, k]), 1.0 - post[:, i])) for k, i in enumerate(msgs)]

    # No messages, no pass: zero outputs give zero chunks and an empty list.
    parts = ordered_chunk_map(chunk, l**n if msgs else 0, _ENUM_CHUNK, workers)
    probs = [min(max(math.fsum(col), 0.0), 1.0) for col in zip(*parts)]
    return probs[0] if np.ndim(m) == 0 else probs


def monte_carlo_error(
    codebook: Codebook,
    m: int,
    channel: Channel,
    metric: Metric,
    trials: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the decoding error for message m.

    Sends word m through the channel and decodes, counting errors.
    Trials are grouped in fixed blocks, each with its own random stream
    derived from a master seed drawn once from ``rng``; the estimate is
    therefore identical for any worker count.  Returns (estimate,
    standard error).
    """
    if trials < 1:
        raise DistributionError("trials must be >= 1")
    if not (0 <= m < codebook.size):
        raise DistributionError(f"message index {m} out of range")
    master = int(rng.integers(1 << 63))
    rows = channel.matrix[codebook.words[m]]  # W(. | x_t) for each position t
    n = codebook.blocklength
    n_blocks = (trials + _MC_BLOCK - 1) // _MC_BLOCK

    def block(b: int, _stop: int) -> int:
        count = min(_MC_BLOCK, trials - b * _MC_BLOCK)
        sub = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master, b))))
        u = sub.random((count, n + 1))
        ys = _inverse_cdf(rows, u[:, :n])
        picks = _inverse_cdf(_softmax_rows(_block_scores(codebook.words, ys, metric)), u[:, n])
        return int(np.sum(picks != m))

    parts = ordered_chunk_map(block, n_blocks, 1, workers)
    p = sum(parts) / trials
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / trials)


# ---------------------------------------------------------------------------
# Good-code property.


def check_good_code(
    codebook: Codebook,
    epsilon: float,
    metric: Metric,
    rate: float | None = None,
    *,
    floor_resolution: int = 16,
    rng: np.random.Generator | None = None,
    workers: int = 1,
) -> GoodCodeReport:
    """Verify the competitor-score floor for every message and output.

    For each message m and output y, the sum of exp(n * score) over the
    other codewords must reach exp(n * floor(rate - epsilon, type of
    y)).  worst_margin is the minimum of (1/n) ln(sum) minus the floor;
    the property holds when it is nonnegative.  Outputs beyond the
    enumeration budget are sampled instead, with ``exhaustive`` False.
    Exhaustive checks run in fixed output chunks on ``workers`` threads;
    the report does not depend on the worker count.
    """
    m_count = codebook.size
    if m_count < 2:
        raise DistributionError("need at least two codewords")
    n = codebook.blocklength
    l = metric.y_size
    r = codebook.rate if rate is None else float(rate)
    if epsilon < 0 or epsilon > r:
        raise DistributionError(f"epsilon must lie in [0, rate]; got {epsilon} vs rate {r:g}")
    evaluator = CompetitorScoreEvaluator(metric, r - epsilon, l, floor_resolution)
    exhaustive = enumerable(l, n)

    def scan(ys: np.ndarray) -> tuple[float, tuple[int, tuple[int, ...]]]:
        scores = _block_scores(codebook.words, ys, metric)  # (C, M)
        c = ys.shape[0]
        types = np.zeros((c, l), dtype=np.int64)
        np.add.at(types, (np.repeat(np.arange(c), n), ys.reshape(-1)), 1)
        floors = evaluator.value_grid(types, n)
        mx, e = _max_shift(scores)
        tot = e.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore"):
            rest = np.maximum(tot - e, 0.0)
            lhs = (mx + np.where(rest > 0, np.log(np.where(rest > 0, rest, 1.0)), -math.inf)) / n
        margin = lhs - floors[:, None]
        yi, mi = divmod(int(np.argmin(margin)), m_count)
        return float(margin[yi, mi]), (int(mi), tuple(int(v) for v in ys[yi]))

    if exhaustive:
        checked = l**n
        parts = ordered_chunk_map(lambda s, e: scan(digits(np.arange(s, e), l, n)), checked, _ENUM_CHUNK, workers)
    else:
        gen = rng if rng is not None else np.random.default_rng(0)
        checked = _GOOD_CODE_SAMPLES
        parts = [scan(gen.integers(0, l, size=(checked, n), dtype=np.int64))]
    worst, witness = math.inf, (0, (0,) * n)
    for margin, where in parts:
        if margin < worst:
            worst, witness = margin, where

    return GoodCodeReport(
        holds=worst >= 0,
        worst_margin=worst,
        witness=witness,
        exhaustive=exhaustive,
        n_checked=checked,
        epsilon=epsilon,
    )


# ---------------------------------------------------------------------------
# Expurgation.


def kept_indices(error_probs) -> np.ndarray:
    """Indices of the better half: smallest ceil(M/2) error probabilities.

    Ties break toward the smaller original index; the returned indices
    are sorted ascending.
    """
    probs = np.asarray(error_probs, dtype=np.float64)
    m = probs.size
    if m < 2:
        raise DistributionError("need at least two messages to expurgate")
    keep = (m + 1) // 2
    order = np.lexsort((np.arange(m), probs))
    return np.sort(order[:keep])


def half_expurgate(codebook: Codebook, error_probs) -> Codebook:
    """Drop the worse half of the code, keeping ceil(M/2) messages."""
    probs = np.asarray(error_probs, dtype=np.float64)
    if probs.size != codebook.size:
        raise DistributionError("error_probs length does not match the code size")
    idx = kept_indices(probs)
    return Codebook(codebook.words[idx], codebook.composition)


def markov_bound_check(
    codebook: Codebook,
    channel: Channel,
    metric: Metric,
    rho: float,
    error_probs=None,
) -> tuple[float, float, bool]:
    """Tilted-average inequality behind the expurgation step.

    lhs = (2/M) * sum of error_probs^(1/rho); rhs = (max error over the
    kept half)^(1/rho).  Must hold (lhs >= rhs - 1e-12) for every code
    and every rho >= 1.
    """
    if rho < 1:
        raise DistributionError(f"rho must be >= 1, got {rho}")
    if error_probs is None:
        error_probs = exact_error_probability(codebook, range(codebook.size), channel, metric)
    probs = np.asarray(error_probs, dtype=np.float64)
    m = probs.size
    lhs = float((2.0 / m) * np.sum(probs ** (1.0 / rho)))
    kept = kept_indices(probs)
    rhs = float(np.max(probs[kept]) ** (1.0 / rho))
    return lhs, rhs, lhs >= rhs - 1e-12


def empirical_exponent(
    q_x: Distribution,
    rate: float,
    channel: Channel,
    metric: Metric,
    n_list,
    codes_per_n: int,
    rng: np.random.Generator,
) -> list[dict]:
    """Finite-n exponent estimates from sampled expurgated codes.

    For each blocklength: draw codes, compute exact per-message errors,
    keep each code's better half, recompute errors within the kept code
    (fewer competitors can only help), and record the best (smallest)
    worst-case error across codes as -ln(err)/n.  Zero error is
    reported as +inf.  M = max(2, round(exp(n * rate))); the effective
    rate ln(M)/n is reported alongside.
    """
    master = int(rng.integers(1 << 63))
    out = []
    for n in n_list:
        m_size = max(2, int(round(math.exp(n * rate))))
        best = math.inf
        for c in range(codes_per_n):
            sub = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master, n, c))))
            code = sample_code(q_x, n, m_size, sub)
            probs = exact_error_probability(code, range(m_size), channel, metric)
            pruned = half_expurgate(code, probs)
            worst = max(exact_error_probability(pruned, range(pruned.size), channel, metric))
            if worst < best:
                best = worst
        exponent = math.inf if best <= 0 else -math.log(best) / n
        out.append(
            {
                "n": int(n),
                "M": m_size,
                "effective_rate": math.log(m_size) / n,
                "best_max_error": best,
                "exponent": exponent,
            }
        )
    return out
