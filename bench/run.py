"""Benchmark of gldx: end-to-end time per workload, per-layer spans on request.

Usage, from the root of a checkout:

    python3 bench/run.py --workload duality-bsc --seed 1 --seconds 36 --trace 0

Each run repeats whole passes over the workload's operations (one
``gldx exponent`` or ``gldx simulate`` call each, in-process through
``gldx.cli.main``) for about ``--seconds`` seconds, always at least one
pass.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
makes an untraced warm-up pass, then pairs traced with untraced
passes, and reports the per-layer metrics and the tracing overhead.
Every run checks the outputs (see ``checks.py``), appends a record to
``bench/runs/records.jsonl``, and prints one JSON object as the last
line of stdout.  See README.md.
"""

from __future__ import annotations

import os

# One process with no extra threads: the timed passes are single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_PROBES = 11

END_TO_END_UNITS = {"wall_s": "s", "op_max_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def git_revision() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gldx").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def save_json(path: Path, obj) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def measure_setup(workload: str, seed: int, config_dir: Path) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported gldx
    and loaded the workload's configs; one value per probe process."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(config_dir)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited with {rc}")
        times.append(elapsed)
    return times


class Pass:
    """One pass over every operation of a workload."""

    def __init__(self, cli, ops, paths, tracer=None):
        self.stdout: list[str | None] = []
        self.op_s: list[float] = []
        self.failed = 0
        self.tracer = tracer
        start = time.perf_counter()
        for j, (op, path) in enumerate(zip(ops, paths)):
            argv = [op.command, "--config", str(path)]
            out, err = io.StringIO(), io.StringIO()
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = tracer.call(j, cli.main, argv) if tracer else cli.main(argv)
            except (Exception, SystemExit):
                rc = None
                _log(traceback.format_exc())
            self.op_s.append(time.perf_counter() - t)
            if rc == 0:
                self.stdout.append(out.getvalue())
            else:
                self.failed += 1
                self.stdout.append(None)
                _log(f"operation {op.name} failed with exit code {rc}: {err.getvalue().strip()}")
        self.wall_s = time.perf_counter() - start


def run_cli(cli, op, path: Path) -> dict:
    """One extra CLI call made by a check; raises if it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([op.command, "--config", str(path)])
    if rc != 0:
        raise RuntimeError(f"check call {op.name} exited with {rc}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def check_outputs(cli, workload, seed: int, passes: list[Pass], config_dir: Path, src_hash: str) -> list[str]:
    import checks
    from workloads import Op, Workload, write_configs

    errs: list[str] = []
    ops = workload.ops
    first: list[str | None] = [None] * len(ops)
    for p in passes:
        for j, text in enumerate(p.stdout):
            if text is None:
                continue
            if first[j] is None:
                first[j] = text
            elif text != first[j]:
                errs.append(f"{ops[j].name}: stdout differs between passes")

    # Byte identity across runs of this workload on the same sources.
    digest_path = RUNS / "stdout-digests.json"
    digests = load_json(digest_path)
    key = f"{src_hash}|{workload.name}" + (f"|{seed}" if workload.seeded else "")
    now = [hashlib.sha256(t.encode()).hexdigest() if t is not None else None for t in first]
    before = digests.get(key)
    if before is not None:
        for j, (a, b) in enumerate(zip(before, now)):
            if a is not None and b is not None and a != b:
                errs.append(f"{ops[j].name}: stdout differs from an earlier run of this workload")
    if before is None or None in before:
        digests[key] = now
        save_json(digest_path, digests)

    outs = {op.name: json.loads(t) for op, t in zip(ops, first) if t is not None}
    if workload.name in ("duality-bsc", "duality-wide"):
        # Upper references are deterministic functions of the sources and
        # the instance, and cost more than a pass, so they are cached
        # under a key that any change to either invalidates.
        cache_path = RUNS / "reference-cache.json"
        cache = load_json(cache_path)
        for op in ops:
            if op.name not in outs:
                continue
            errs += checks.duality_properties(op, outs[op.name])
            ckey = hashlib.sha256((src_hash + json.dumps(op.config, sort_keys=True)).encode()).hexdigest()[:24]
            if ckey not in cache:
                if workload.name == "duality-bsc":
                    cache[ckey] = checks.oracle_reference(op)
                else:
                    gop = Op(op.name + "-grid", op.command, dict(op.config, refine=False))
                    gpath = write_configs(Workload(workload.name, False, [gop]), config_dir)[0]
                    cache[ckey] = checks.grid_reference(run_cli(cli, gop, gpath))
                save_json(cache_path, cache)
            what = "brute-force oracle" if workload.name == "duality-bsc" else "refine: false value"
            errs += checks.below_reference(op, outs[op.name], cache[ckey], what)
    else:
        for op in ops:
            if op.name in outs:
                errs += checks.simulate_properties(op, outs[op.name])
        by_n = {op.config["simulation"]["n"]: op for op in ops}
        if by_n[10].name in outs:
            errs += checks.brute_force_agreement(by_n[10], outs[by_n[10].name])
        mc_op = checks.monte_carlo_op(seed)
        exact_op = by_n[mc_op.config["simulation"]["n"]]
        if exact_op.name in outs:
            mc_path = write_configs(Workload(workload.name, True, [mc_op]), config_dir)[0]
            errs += checks.monte_carlo_agreement(run_cli(cli, mc_op, mc_path), outs[exact_op.name])
    return errs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gldx" / "__init__.py").is_file():
        _log(f"no gldx sources under {SRC}: run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import gldx
    import gldx.cli as cli

    if Path(gldx.__file__).resolve().parent != (SRC / "gldx").resolve():
        _log(f"imported gldx from {gldx.__file__}, not from {SRC}")
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, write_configs

    if args.workload not in WORKLOADS:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    RUNS.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    config_dir = RUNS / "configs" / (f"{workload.name}-{args.seed}" if workload.seeded else workload.name)
    paths = write_configs(workload, config_dir)
    setup = measure_setup(workload.name, args.seed, config_dir)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    if args.trace:
        # The first pass of a process runs slower than later ones, so a
        # traced run first makes one untraced warm-up pass and then pairs
        # traced with untraced passes; the warm-up is left out of the
        # overhead.
        warmup = Pass(cli, workload.ops, paths)
    while True:
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(Pass(cli, workload.ops, paths, tracer))
        untraced.append(Pass(cli, workload.ops, paths))
        per_round = untraced[-1].wall_s + (traced[-1].wall_s if traced else 0.0)
        if time.perf_counter() - start + per_round > args.seconds:
            break
    if args.trace:
        untraced.insert(0, warmup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    src_hash = source_hash()
    errs = check_outputs(cli, workload, args.seed, untraced + traced, config_dir, src_hash)

    wall = statistics.median(p.wall_s for p in untraced)
    metrics: dict[str, dict] = {}
    if args.trace:
        counts = [p.tracer.count_metrics() for p in traced]
        if any(c != counts[0] for c in counts):
            errs.append("per-layer counts differ between traced passes")
        selfs = [p.tracer.self_times() for p in traced]
        for name, value in counts[0].items():
            metrics[name] = {"value": value, "unit": "count"}
        for layer in selfs[0]:
            metrics[f"{layer}.self_s"] = {"value": statistics.median(s[layer] for s in selfs), "unit": "s"}
        warm_wall = statistics.median(p.wall_s for p in untraced[1:])
        metrics["trace.overhead_s"] = {"value": statistics.median(p.wall_s for p in traced) - warm_wall, "unit": "s"}
        traced[-1].tracer.save(RUNS / f"{workload.name}.spans.npz")
    else:
        values = {
            "wall_s": wall,
            "op_max_s": max(statistics.median(p.op_s[j] for p in untraced) for j in range(len(workload.ops))),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    all_passes = untraced + traced
    attempted = sum(len(p.stdout) for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for e in errs:
        _log(f"check failed: {e}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_hash": src_hash,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "attempted": attempted,
        "failed": failed,
        "correct": not errs,
        "check_failures": errs,
        "pass_wall_s": [p.wall_s for p in untraced],
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "op_s": {op.name: [p.op_s[j] for p in untraced] for j, op in enumerate(workload.ops)},
        "setup_probe_s": setup,
        "metrics": metrics,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(RUNS / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        f"{workload.name} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
        f"{attempted} operations, {failed} failed, checks {'passed' if not errs else 'FAILED'}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errs, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
