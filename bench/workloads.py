"""Workload definitions: the CLI calls each workload makes, as configs.

Every operation is one ``gldx exponent`` or ``gldx simulate`` call on a
config this module generates.  The duality instances are fixed; the
seed only drives the ``simulate-desk`` code draws and Monte Carlo
streams.  All configs pin ``workers`` to 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BSC = [[0.9, 0.1], [0.1, 0.9]]
WIDE = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
# Decoding kernels of the mismatched metric, one per output size, as in
# the criterion-2/3 acceptance matrix.
MISMATCH_KERNELS = {2: [[0.85, 0.15], [0.15, 0.85]], 3: [[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]]}

# Resolution of the duality-wide instances.  At 8 the inner grid is
# already capped at 1/7 (the property the workload exists for), and one
# pass stays near 30 s on two cores; at the acceptance matrix's 16 one
# pass takes about 70 s, too long to repeat.
WIDE_RESOLUTION = 8
BSC_RESOLUTION = 16
SIM_RATE = 0.15
SIM_EXACT_N = (10, 14, 18)
SIM_MC_N = 26
SIM_MC_TRIALS = 2000
# Monte Carlo cross-check on an enumerable code (a correctness check,
# not an operation of the workload).
SIM_CHECK_N = 14
SIM_CHECK_TRIALS = 4000


@dataclass(frozen=True)
class Op:
    """One CLI call: ``gldx <command> --config <name>.json``."""

    name: str
    command: str
    config: dict


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    ops: list[Op]


def _channel(matrix) -> dict:
    return {"input_size": len(matrix), "output_size": len(matrix[0]), "matrix": matrix}


def metric_family(matrix) -> list[tuple[str, dict]]:
    out = [(f"matched{b:g}", {"kind": "matched", "beta": b}) for b in (0.5, 1.0, 2.0)]
    out.append(("mismatched", {"kind": "mismatched", "kernel": MISMATCH_KERNELS[len(matrix[0])]}))
    out.append(("emi", {"kind": "emi"}))
    return out


def exponent_config(matrix, metric: dict, rate: float, resolution: int) -> dict:
    return {
        "channel": _channel(matrix),
        "metric": metric,
        "composition": [0.5, 0.5],
        "rate": rate,
        "resolution": resolution,
        "workers": 1,
    }


def duality_bsc(seed: int) -> Workload:
    ops = [
        Op(f"bsc-{m_name}-R{rate:g}", "exponent", exponent_config(BSC, metric, rate, BSC_RESOLUTION))
        for m_name, metric in metric_family(BSC)
        for rate in (0.1, 0.3)
    ]
    return Workload("duality-bsc", False, ops)


def duality_wide(seed: int) -> Workload:
    metrics = dict(metric_family(WIDE))
    ops = [
        Op(f"wide-{m_name}-R0.1", "exponent", exponent_config(WIDE, metrics[m_name], 0.1, WIDE_RESOLUTION))
        for m_name in ("matched1", "emi")
    ]
    return Workload("duality-wide", False, ops)


def sim_seed(seed: int, n: int) -> int:
    """Per-blocklength simulation seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, n]).generate_state(1)[0])


def simulate_config(seed: int, n: int, mode: str, trials: int) -> dict:
    return {
        "channel": _channel(BSC),
        "metric": {"kind": "matched", "beta": 1.0},
        "composition": [0.5, 0.5],
        "rate": SIM_RATE,
        "resolution": 16,
        "workers": 1,
        "simulation": {
            "n": n,
            "M": round(math.exp(n * SIM_RATE)),
            "trials": trials,
            "seed": sim_seed(seed, n),
            "mode": mode,
        },
    }


def simulate_desk(seed: int) -> Workload:
    ops = [Op(f"sim-exact-n{n}", "simulate", simulate_config(seed, n, "exact", 1)) for n in SIM_EXACT_N]
    ops.append(Op(f"sim-mc-n{SIM_MC_N}", "simulate", simulate_config(seed, SIM_MC_N, "mc", SIM_MC_TRIALS)))
    return Workload("simulate-desk", True, ops)


WORKLOADS = {"duality-bsc": duality_bsc, "duality-wide": duality_wide, "simulate-desk": simulate_desk}


def write_configs(workload: Workload, directory: Path) -> list[Path]:
    """Write one config file per operation and read each back."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for op in workload.ops:
        path = directory / f"{op.name}.json"
        text = json.dumps(op.config, indent=1, sort_keys=True) + "\n"
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")
        if json.loads(path.read_text(encoding="utf-8")) != op.config:
            raise RuntimeError(f"config {path} did not read back")
        paths.append(path)
    return paths
