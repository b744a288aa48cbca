"""Reference timing of the full criterion-2/3 duality matrix at k=16.

Not a workload (one pass takes about five minutes on two cores); its
figures are recorded once in README.md.  Runs the 20 instances
(BSC and WIDE x five metrics x rates 0.1 and 0.3) through
``gldx.cli.main`` with ``workers`` 1, checks weak duality and affine
exchange on each, and prints one line per instance and the total.

    python3 bench/matrix.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gldx.cli as cli  # noqa: E402
from checks import duality_properties  # noqa: E402
from run import RUNS, run_cli  # noqa: E402
from workloads import BSC, WIDE, Op, Workload, metric_family, exponent_config, write_configs  # noqa: E402


def main() -> int:
    ops = [
        Op(f"{ch_name}-{m_name}-R{rate:g}", "exponent", exponent_config(matrix, metric, rate, 16))
        for ch_name, matrix in (("bsc", BSC), ("wide", WIDE))
        for m_name, metric in metric_family(matrix)
        for rate in (0.1, 0.3)
    ]
    RUNS.mkdir(exist_ok=True)
    paths = write_configs(Workload("matrix", False, ops), RUNS / "configs" / "matrix")
    total = 0.0
    errs = []
    for op, path in zip(ops, paths):
        start = time.perf_counter()
        out = run_cli(cli, op, path)
        elapsed = time.perf_counter() - start
        total += elapsed
        errs += duality_properties(op, out)
        print(f"{op.name:24s} {elapsed:7.2f} s  value {float(out['value']):.6f}  gap {float(out['gap']):.2e}  {out['note']}")
    print(f"total {total:.1f} s, checks {'passed' if not errs else 'FAILED'}")
    for e in errs:
        print(e, file=sys.stderr)
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
