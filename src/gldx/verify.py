"""Self-check suites wired to the ``verify`` command.

Each check is a small, seeded experiment that exercises one contract
of the library against an independent reference: brute-force oracles,
closed forms, or statistical agreement.  ``quick`` runs the cheap
checks; ``full`` adds the larger-alphabet duality experiment.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measures import Channel, Distribution, DistributionError
from .metrics import AffineMetric, constant_metric, emi_metric, matched_metric
from .optimizer import GridSpec
from .exponents import (
    CompetitorScoreEvaluator,
    ExponentQuery,
    exchanged_objective,
    exponent_form,
    expurgated_exponent,
    maxmin_exponent,
)
from .oracles import naive_expurgated
from .simulator import (
    Codebook,
    check_good_code,
    exact_error_probability,
    gld_posterior,
    markov_bound_check,
    monte_carlo_error,
    sample_code,
)

_BSC01 = Channel.from_matrix([[0.9, 0.1], [0.1, 0.9]])
_WIDE = Channel.from_matrix([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
_UNIF2 = Distribution.uniform(2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    levels: tuple[str, ...]
    fn: Callable[[int], tuple[bool, str]]


def _random_channel(rng: np.random.Generator, kx: int, l: int) -> Channel:
    raw = rng.random((kx, l)) + 0.05
    return Channel.from_matrix(raw / raw.sum(axis=1, keepdims=True))


def _random_coupling(rng: np.random.Generator, comp: np.ndarray) -> np.ndarray:
    """Random coupling with both margins exactly comp.

    Product coupling plus a double-centered perturbation; centering
    keeps both margins exact, and the step is shrunk to stay positive.
    """
    k = comp.size
    base = np.outer(comp, comp)
    b = rng.standard_normal((k, k))
    z = b - b.mean(axis=1, keepdims=True) - b.mean(axis=0, keepdims=True) + b.mean()
    scale = np.abs(z).max()
    if scale > 0:
        t = 0.45 * base.min() / scale
        base = base + t * z
    return base


def _check_posterior(workers: int) -> tuple[bool, str]:
    """Decoder posterior sums to 1 and ignores constant score shifts."""
    rng = np.random.default_rng(11)
    code = sample_code(_UNIF2, 6, 4, rng)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(20):
        y = rng.integers(0, 2, size=6)
        cells = rng.standard_normal((2, 2))
        p1 = gld_posterior(code, y, AffineMetric(cells))
        p2 = gld_posterior(code, y, AffineMetric(cells + 7.5))
        worst_sum = max(worst_sum, abs(p1.p.sum() - 1.0))
        worst_shift = max(worst_shift, float(np.max(np.abs(p1.p - p2.p))))
    ok = worst_sum <= 1e-12 and worst_shift <= 1e-12
    return ok, f"sum error {worst_sum:.2e}, shift error {worst_shift:.2e}"


def _check_constant_closure(workers: int) -> tuple[bool, str]:
    """Constant metric gives zero exponents and (M-1)/M exact error."""
    rng = np.random.default_rng(23)
    metric = constant_metric(2, 2, value=0.3)
    query = ExponentQuery(0.2, _UNIF2, _BSC01, metric)
    grid = GridSpec(8, workers=workers)
    e1 = expurgated_exponent(query, grid).value
    e2 = maxmin_exponent(query, grid).value
    code = sample_code(_UNIF2, 4, 4, rng)
    err = exact_error_probability(code, 0, _BSC01, metric, workers=workers)
    ok = abs(e1) <= 1e-9 and abs(e2) <= 1e-9 and abs(err - 0.75) <= 1e-13
    return ok, f"exponents ({e1:.2e}, {e2:.2e}), exact error {err!r} vs 0.75"


def _check_grid_oracle(workers: int) -> tuple[bool, str]:
    """Grid pipeline matches the brute-force oracle at equal resolution."""
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(5):
        ch = _random_channel(rng, 2, 2)
        beta = float(rng.uniform(0.5, 2.0))
        metric = matched_metric(ch, beta=beta)
        rate = float(rng.uniform(0.05, 0.4))
        query = ExponentQuery(rate, _UNIF2, ch, metric)
        raw = expurgated_exponent(query, GridSpec(6, refine=False, workers=workers))
        ref = naive_expurgated(rate, _UNIF2, ch, metric, 6, 6)
        refined = expurgated_exponent(query, GridSpec(6, workers=workers))
        worst = max(worst, abs(raw.value - ref))
        if refined.value > raw.value + 1e-12:
            return False, f"refined {refined.value} exceeds unrefined {raw.value}"
    return worst <= 1e-9, f"max |grid - oracle| = {worst:.2e} over 5 instances"


def _check_midpoint(workers: int) -> tuple[bool, str]:
    """Exchanged objective is midpoint convex for an affine score."""
    rng = np.random.default_rng(41)
    pairs = 100
    rate = 0.3
    metric = matched_metric(_BSC01)
    evaluator = CompetitorScoreEvaluator(metric, rate, 2, 16)
    comp = _UNIF2.p
    worst = -math.inf
    for _ in range(pairs):
        triples = []
        for _ in range(2):
            coupling = _random_coupling(rng, comp)
            rows = rng.random((2, 2, 2)) + 0.05
            rows /= rows.sum(axis=2, keepdims=True)
            triples.append(coupling[:, :, None] * rows)
        mid = 0.5 * (triples[0] + triples[1])
        rho = float(rng.uniform(0.0, 8.0))
        f = [
            exchanged_objective(t, rho, rate, _UNIF2, _BSC01, metric, score_eval=evaluator)
            for t in (triples[0], triples[1], mid)
        ]
        worst = max(worst, f[2] - 0.5 * (f[0] + f[1]))
    return worst <= 1e-9, f"max midpoint violation {worst:.2e} over {pairs} pairs"


def _check_exact_vs_mc(workers: int) -> tuple[bool, str]:
    """Monte Carlo error agrees with exact enumeration within 4 sigma."""
    rng = np.random.default_rng(53)
    metric = matched_metric(_BSC01)
    code = sample_code(_UNIF2, 4, 3, rng)
    exact = exact_error_probability(code, 1, _BSC01, metric, workers=workers)
    est, se = monte_carlo_error(code, 1, _BSC01, metric, 20000, rng, workers=workers)
    gap = abs(est - exact)
    ok = gap <= 4.0 * max(se, 1e-12)
    return ok, f"exact {exact:.6f}, mc {est:.6f} +/- {se:.6f}"


def _check_markov(workers: int) -> tuple[bool, str]:
    """Expurgation inequality holds on random codes."""
    rng = np.random.default_rng(61)
    metric = matched_metric(_BSC01)
    for i in range(10):
        code = sample_code(_UNIF2, 6, 4, rng)
        probs = exact_error_probability(code, range(4), _BSC01, metric)
        for rho in (1.0, 2.0, 5.0):
            lhs, rhs, holds = markov_bound_check(code, _BSC01, metric, rho, probs)
            if not holds:
                return False, f"violated at code {i}, rho {rho}: {lhs} < {rhs}"
    return True, "30 (code, rho) pairs hold"


def _check_good_code_constant(workers: int) -> tuple[bool, str]:
    """Good-code check matches the constant-metric closed form."""
    rng = np.random.default_rng(71)
    metric = constant_metric(2, 2, value=0.1)
    code = sample_code(_UNIF2, 6, 4, rng)
    n, m = 6, 4
    for rate, eps in ((0.4, 0.1), (0.18, 0.1)):
        report = check_good_code(code, eps, metric, rate)
        analytic_margin = math.log(m - 1) / n - (rate - eps)
        if report.holds != (analytic_margin >= 0):
            return False, f"boolean mismatch at rate {rate}"
        if abs(report.worst_margin - analytic_margin) > 1e-9:
            return False, (
                f"margin {report.worst_margin:.3e} vs analytic {analytic_margin:.3e}"
            )
    return True, "matches ln(M-1)/n - (R - eps) on both sides of zero"


def _duality_instance(channel: Channel, metric, rate: float, workers: int) -> tuple[float, float]:
    comp = Distribution.uniform(channel.input_size)
    query = ExponentQuery(rate, comp, channel, metric)
    res = exponent_form(query, GridSpec(16, workers=workers))
    return res.expurgated_value, res.maxmin_value


def _check_duality_small(workers: int) -> tuple[bool, str]:
    """Penalized form never exceeds constrained form (binary channel)."""
    metric = matched_metric(_BSC01)
    exp_v, max_v = _duality_instance(_BSC01, metric, 0.1, workers)
    if max_v > exp_v + 0.02:
        return False, f"maxmin {max_v:.6f} > expurgated {exp_v:.6f} + 0.02"
    gap = abs(exp_v - max_v)
    return gap <= 0.02, f"expurgated {exp_v:.6f}, maxmin {max_v:.6f}, |gap| {gap:.2e}"


def _check_duality_wide(workers: int) -> tuple[bool, str]:
    """Duality and affine-exchange agreement on a 2x3 channel."""
    details = []
    for rate in (0.1, 0.3):
        metric = matched_metric(_WIDE)
        exp_v, max_v = _duality_instance(_WIDE, metric, rate, workers)
        if max_v > exp_v + 0.02:
            return False, f"rate {rate}: maxmin {max_v:.6f} > expurgated {exp_v:.6f} + 0.02"
        if abs(exp_v - max_v) > 0.02:
            return False, f"rate {rate}: |gap| {abs(exp_v - max_v):.2e} > 0.02"
        details.append(f"R={rate}: gap {abs(exp_v - max_v):.2e}")
    metric = emi_metric(2, 3)
    exp_v, max_v = _duality_instance(_WIDE, metric, 0.1, workers)
    if max_v > exp_v + 0.02:
        return False, f"emi: maxmin {max_v:.6f} > expurgated {exp_v:.6f} + 0.02"
    details.append(f"emi R=0.1: duality slack {exp_v - max_v:.2e}")
    return True, "; ".join(details)


CHECKS: tuple[PropertyCheck, ...] = (
    PropertyCheck("posterior-normalization", ("quick", "full"), _check_posterior),
    PropertyCheck("constant-metric-closure", ("quick", "full"), _check_constant_closure),
    PropertyCheck("grid-oracle-equivalence", ("quick", "full"), _check_grid_oracle),
    PropertyCheck("midpoint-convexity", ("quick", "full"), _check_midpoint),
    PropertyCheck("exact-vs-monte-carlo", ("quick", "full"), _check_exact_vs_mc),
    PropertyCheck("tilted-average-inequality", ("quick", "full"), _check_markov),
    PropertyCheck("good-code-constant-closed-form", ("quick", "full"), _check_good_code_constant),
    PropertyCheck("weak-duality-binary", ("quick", "full"), _check_duality_small),
    PropertyCheck("weak-duality-wide", ("full",), _check_duality_wide),
)


def run_suite(level: str, workers: int = 1) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    if workers < 1:
        raise DistributionError("workers must be >= 1")
    results = []
    for check in CHECKS:
        if level not in check.levels:
            continue
        start = time.perf_counter()
        try:
            ok, detail = check.fn(workers)
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(check.name, ok, time.perf_counter() - start, detail))
    return results


def format_results(results: list[CheckResult]) -> str:
    # No timings, so the rendered table is a pure function of the
    # seeds; the CLI reports them on stderr instead.
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
    n_ok = sum(r.ok for r in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    return "\n".join(lines)
