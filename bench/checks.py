"""Correctness checks on the outputs of a workload.

Each check compares against a computation made apart from the program
(the brute-force oracle in ``gldx.oracles``, a brute-force error
probability written here, the exact errors for a Monte Carlo estimate)
or checks a property the method must have.  None compares against a
stored copy of an earlier output.  Every check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from workloads import SIM_CHECK_N, SIM_CHECK_TRIALS, Op, simulate_config

DUALITY_TOL = 0.02
ORACLE_TOL = 1e-9
MARGIN_TOL = 1e-9


def duality_properties(op: Op, out: dict) -> list[str]:
    """Weak duality, affine exchange, value >= -rate, argmin shape."""
    errs = []
    rate = op.config["rate"]
    value, expurgated, maxmin = float(out["value"]), float(out["expurgated"]), float(out["maxmin"])
    if not maxmin <= expurgated + DUALITY_TOL:
        errs.append(f"{op.name}: weak duality fails, maxmin {maxmin} > expurgated {expurgated} + {DUALITY_TOL}")
    if op.config["metric"]["kind"] != "emi" and not abs(float(out["gap"])) <= DUALITY_TOL:
        errs.append(f"{op.name}: affine exchange fails, |gap| = {abs(float(out['gap']))}")
    if not value >= -rate:
        errs.append(f"{op.name}: value {value} below -rate")
    argmin = np.array(out["argmin"], dtype=np.float64)
    comp = np.array(op.config["composition"])
    if argmin.min() < 0:
        errs.append(f"{op.name}: argmin has a negative entry")
    for axis in (0, 1):
        if np.max(np.abs(argmin.sum(axis=1 - axis) - comp)) > MARGIN_TOL:
            errs.append(f"{op.name}: argmin marginal {axis} differs from the composition")
    return errs


def below_reference(op: Op, out: dict, reference: dict, what: str) -> list[str]:
    """Refinement only lowers values: each form is at or below the reference."""
    errs = []
    for key in ("expurgated", "maxmin", "value"):
        if key in reference and not float(out[key]) <= reference[key] + ORACLE_TOL:
            errs.append(f"{op.name}: {key} {out[key]} above the {what} {reference[key]}")
    return errs


def oracle_reference(op: Op) -> dict:
    """Brute-force constrained value at the instance's resolution.

    On the binary-output channel the program's inner and floor grids
    both sit at the outer resolution, so the oracle runs at that
    resolution throughout.  The penalized form never exceeds the
    constrained one, so the oracle bounds ``value`` for every metric.
    """
    from gldx import Channel, Distribution, metric_from_json
    from gldx.oracles import naive_expurgated

    cfg = op.config
    channel = Channel.from_json(cfg["channel"])
    metric = metric_from_json(cfg["metric"], channel)
    k = cfg["resolution"]
    v = naive_expurgated(cfg["rate"], Distribution(np.array(cfg["composition"])), channel, metric, k, k)
    return {"expurgated": v, "value": v}


def grid_reference(out_grid: dict) -> dict:
    """The program's own ``refine: false`` values for the same instance."""
    return {key: float(out_grid[key]) for key in ("expurgated", "maxmin", "value")}


# -- simulate-desk --------------------------------------------------------


def brute_force_errors(channel: list[list[float]], beta: float, words: list[list[int]]) -> list[float]:
    """Exact per-message error of the matched-metric decoder, by loops.

    P(decode j | y) is proportional to W(y|word j)^beta; the error of
    message m sums W(y|word m) * (1 - P(decode m | y)) over all outputs.
    """
    n = len(words[0])
    l = len(channel[0])
    errors = [[] for _ in words]
    for y in itertools.product(range(l), repeat=n):
        like = [math.prod(channel[x][s] for x, s in zip(w, y)) for w in words]
        weights = [v**beta for v in like]
        total = math.fsum(weights)
        for m, v in enumerate(like):
            errors[m].append(v * (1.0 - weights[m] / total))
    return [math.fsum(e) for e in errors]


def simulate_properties(op: Op, out: dict) -> list[str]:
    """Expurgated indices, tilted-average inequality, good-code scope."""
    errs = []
    errors = [float(v) for v in out["per_message_error"]["values"]]
    m = len(errors)
    keep = (m + 1) // 2
    smallest = sorted(sorted(range(m), key=lambda i: (errors[i], i))[:keep])
    if out["expurgated_indices"] != smallest:
        errs.append(f"{op.name}: expurgated indices {out['expurgated_indices']} are not the {keep} smallest errors {smallest}")
    for chk in out["markov_checks"]:
        rho = chk["rho"]
        lhs = (2.0 / m) * math.fsum(e ** (1.0 / rho) for e in errors)
        rhs = max(errors[i] for i in smallest) ** (1.0 / rho)
        if not lhs >= rhs - 1e-12:
            errs.append(f"{op.name}: tilted-average inequality fails at rho={rho}: {lhs} < {rhs}")
        if abs(lhs - chk["lhs"]) > 1e-12 or abs(rhs - chk["rhs"]) > 1e-12 or not chk["holds"]:
            errs.append(f"{op.name}: reported tilted-average check at rho={rho} disagrees with the recomputed one")
    sim = op.config["simulation"]
    n = sim["n"]
    l = len(op.config["channel"]["matrix"][0])
    gc = out["good_code_report"]
    exhaustive = l**n <= 1 << 24
    if gc["exhaustive"] != exhaustive or gc["n_checked"] != (l**n if exhaustive else 20000):
        errs.append(f"{op.name}: good-code check covered {gc['n_checked']} outputs (exhaustive={gc['exhaustive']})")
    if len(out["codewords"]) != sim["M"] or out["config"]["n"] != n:
        errs.append(f"{op.name}: code shape differs from the config")
    return errs


def brute_force_agreement(op: Op, out: dict) -> list[str]:
    words = [[int(s) for s in w.split()] for w in out["codewords"]]
    beta = op.config["metric"]["beta"]
    ref = brute_force_errors(op.config["channel"]["matrix"], beta, words)
    got = [float(v) for v in out["per_message_error"]["values"]]
    worst = max(abs(a - b) for a, b in zip(ref, got))
    if worst > 1e-12:
        return [f"{op.name}: exact errors differ from the brute force by {worst:.3e}"]
    return []


def monte_carlo_op(seed: int) -> Op:
    """A Monte Carlo run on the code of the exact n=14 operation."""
    return Op(f"check-mc-n{SIM_CHECK_N}", "simulate", simulate_config(seed, SIM_CHECK_N, "mc", SIM_CHECK_TRIALS))


def monte_carlo_agreement(mc_out: dict, exact_out: dict) -> list[str]:
    """Each Monte Carlo estimate lies within 4 sigma of the exact error."""
    errs = []
    if mc_out["codewords"] != exact_out["codewords"]:
        return ["check-mc: Monte Carlo and exact runs drew different codes"]
    trials = mc_out["config"]["trials"]
    for i, (est, p) in enumerate(zip(mc_out["per_message_error"]["values"], exact_out["per_message_error"]["values"])):
        sigma = math.sqrt(p * (1.0 - p) / trials)
        if abs(est - p) > 4.0 * sigma + 1e-12:
            errs.append(f"check-mc: message {i} estimate {est} is more than 4 sigma from exact {p}")
    return errs
