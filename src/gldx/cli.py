"""Command-line front end.

Four commands: ``exponent`` (one rate, both exponent forms), ``sweep``
(rate range to CSV), ``simulate`` (code sampling, error probabilities,
good-code check, expurgation, report JSON), ``verify`` (self-check
suites).  A single JSON config drives everything; command-line flags
override scalar fields only.

Exit codes: 0 ok, 2 input error, 3 infeasible grid, 4 verification
failure.  All output files and stdout are pure functions of the config
plus seed; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .measures import Channel, Distribution, DistributionError, is_number, number_array
from .metrics import MetricError, metric_from_json
from .optimizer import GridSpec, InfeasibleGridError
from .exponents import ExponentQuery, exponent_form, rate_sweep
from .simulator import (
    Codebook,
    SimConfig,
    check_good_code,
    enumerable,
    exact_error_probability,
    kept_indices,
    markov_bound_check,
    monte_carlo_error,
    sample_code,
)
from . import verify as verify_mod

_MARKOV_RHOS = (1.0, 2.0, 5.0)
_MAX_RATES = 10_000  # rates one sweep may run; each is a full exponent
# Every config field each command reads, as field: (type, default).  The
# type is the Python type the JSON value is read as (float: any number,
# int: an integral number, a tuple: either type) or, for a nested block,
# the block's own table.  A field with default None is optional or is
# checked where it is read.  A command's flags override the fields of
# the same name, at the top level or else in the `simulation` block.
_COMMON = {
    "channel": ((dict, str), None), "metric": (dict, None), "composition": (list, None),
    "rate": (float, None), "resolution": (int, 16), "workers": (int, 1), "output": (str, None),
}
_EXPONENT = dict(_COMMON, rho_max=(float, 64.0), refine=(bool, True))
_RATE_RANGE = {"start": (float, None), "stop": (float, None), "step": (float, 0.05)}
_SIMULATION = {
    "n": (int, None), "M": (int, None), "trials": (int, None), "seed": (int, None),
    "epsilon": (float, None), "mode": (str, "auto"), "codewords": (list, None),
}
_SCHEMA = {
    "exponent": _EXPONENT,
    "sweep": dict(_EXPONENT, rate_range=(_RATE_RANGE, None), format=(str, "csv")),
    "simulate": dict(_COMMON, simulation=(_SIMULATION, {})),
}
_TYPE_NAMES = {
    float: "a number", int: "an integer", bool: "a boolean", str: "a string",
    list: "a list", dict: "an object", (dict, str): "an object or a file path",
}


def _sanitize(obj):
    """JSON-safe copy: non-finite floats become 'inf'/'-inf'/'nan' strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "nan"
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"


def _num(v) -> str:
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return ""
    return f"{v:.12g}"


def _load_json_file(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class ConfigError(ValueError):
    pass


def _checked(where: str, cfg: dict, schema: dict) -> dict:
    """``cfg`` checked against ``schema``: each value read once as its type, defaults filled in.

    A field the schema does not list, or a value of another JSON type
    (numbers as ``is_number`` reads them), is a ``ConfigError`` naming the field.
    """
    unread = sorted(set(cfg) - set(schema))
    if unread:
        raise ConfigError(f"{where} does not read the config field {', '.join(map(repr, unread))}")
    out = {}
    for field, (kind, default) in schema.items():
        if field not in cfg and default is None:
            continue
        v = cfg.get(field, default)
        json_type = dict if isinstance(kind, dict) else kind
        ok = is_number(v, kind is int) if json_type in (int, float) else isinstance(v, json_type)
        if not ok:
            raise ConfigError(f"config field {field!r} must be {_TYPE_NAMES[json_type]}, got {v!r}")
        if isinstance(kind, dict):
            v = _checked(f"{where} {field}", v, kind)
        elif kind in (int, float):
            v = kind(v)
        out[field] = v
    return out


def _load_config(args) -> dict:
    cfg = _load_json_file(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    schema = _SCHEMA[args.command]
    cfg = _checked(args.command, cfg, schema)
    for field, v in vars(args).items():
        if v is not None and field not in ("command", "config"):
            (cfg if field in schema else cfg["simulation"])[field] = v
    return cfg


def _channel_from_config(cfg: dict) -> Channel:
    spec = cfg.get("channel")
    if spec is None:
        raise ConfigError("config is missing 'channel'")
    if isinstance(spec, str):
        spec = _load_json_file(spec)
    return Channel.from_json(spec)


def _metric_from_config(cfg: dict, channel: Channel):
    spec = cfg.get("metric")
    if spec is None:
        raise ConfigError("config is missing 'metric'")
    return metric_from_json(spec, channel)


def _composition_from_config(cfg: dict, channel: Channel) -> Distribution:
    comp = cfg.get("composition")
    if comp is None:
        return Distribution.uniform(channel.input_size)
    q = number_array(comp)
    if q is None or q.shape != (channel.input_size,):
        raise ConfigError(f"composition must list one number per channel input ({channel.input_size}), got {comp!r}")
    return Distribution(q)


def cmd_exponent(cfg: dict) -> int:
    channel = _channel_from_config(cfg)
    metric = _metric_from_config(cfg, channel)
    comp = _composition_from_config(cfg, channel)
    if "rate" not in cfg:
        raise ConfigError("config is missing 'rate'")
    query = ExponentQuery(cfg["rate"], comp, channel, metric, rho_max=cfg["rho_max"])
    start = time.perf_counter()
    result = exponent_form(query, GridSpec(cfg["resolution"], cfg["refine"], cfg["workers"]))
    elapsed = 1000.0 * (time.perf_counter() - start)
    _emit(_json_text(result.to_json()), cfg.get("output"))
    print(f"exponent computed in {elapsed:.1f} ms", file=sys.stderr)
    return 0


def _sweep_rates(cfg: dict) -> list[float]:
    if "rate_range" not in cfg:
        if "rate" in cfg:
            return [cfg["rate"]]
        raise ConfigError("sweep needs 'rate_range' (or a single 'rate')")
    if "rate" in cfg:
        raise ConfigError("sweep takes 'rate_range' or a single 'rate', not both")
    rr = cfg["rate_range"]
    start, stop, step = rr["start"], rr["stop"], rr["step"]
    if stop < start or step <= 0:
        raise ConfigError("rate_range needs start <= stop and step > 0")
    rates = []
    for k in range(_MAX_RATES + 1):
        r = start + k * step
        if r > stop + 1e-12:
            return rates
        rates.append(min(r, stop))
    raise ConfigError(f"rate_range gives more than {_MAX_RATES} rates")


def cmd_sweep(cfg: dict) -> int:
    channel = _channel_from_config(cfg)
    metric = _metric_from_config(cfg, channel)
    comp = _composition_from_config(cfg, channel)
    rates = _sweep_rates(cfg)
    query = ExponentQuery(rates[0], comp, channel, metric, rho_max=cfg["rho_max"])
    start = time.perf_counter()
    results = rate_sweep(query, rates, GridSpec(cfg["resolution"], cfg["refine"], cfg["workers"]))
    elapsed = 1000.0 * (time.perf_counter() - start)
    fmt = cfg["format"]
    if fmt == "json":
        payload = [dict(res.to_json(), rate=rate) for rate, res in zip(rates, results)]
        _emit(_json_text(payload), cfg.get("output"))
    elif fmt == "csv":
        lines = ["rate,exponent,maxmin,gap,rho_star,boundary_flag,infinite"]
        for rate, res in zip(rates, results):
            infinite = "+".join(
                name
                for name, v in (
                    ("exponent", res.expurgated_value),
                    ("maxmin", res.maxmin_value),
                    ("gap", res.gap),
                )
                if v is not None and math.isinf(v)
            )
            lines.append(
                ",".join(
                    (
                        _num(rate),
                        _num(res.expurgated_value),
                        _num(res.maxmin_value),
                        _num(res.gap),
                        _num(res.rho_star),
                        "true" if res.boundary_flag else "false",
                        infinite,
                    )
                )
            )
        _emit("\n".join(lines) + "\n", cfg.get("output"))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    print(f"sweep of {len(rates)} rates in {elapsed:.1f} ms", file=sys.stderr)
    return 0


def cmd_simulate(cfg: dict) -> int:
    channel = _channel_from_config(cfg)
    metric = _metric_from_config(cfg, channel)
    comp = _composition_from_config(cfg, channel)
    workers, resolution, sim = cfg["workers"], cfg["resolution"], cfg["simulation"]
    GridSpec(resolution, workers=workers)  # checks both before any work
    words = None
    if "codewords" in sim:
        # Explicit words fix n and M; without a config composition, the
        # first word's type is the code composition.
        words = number_array(sim["codewords"], integer=True)
        kx = channel.input_size
        if words is None or words.ndim != 2 or words.size == 0 or words.min() < 0 or words.max() >= kx:
            raise ConfigError(f"codewords must be equal-length words over the {kx} channel inputs")
        words = words.astype(np.int64)
        sim = dict(sim, n=words.shape[1], M=words.shape[0])
        if "composition" not in cfg:
            counts = np.bincount(words[0], minlength=kx)
            comp = Distribution(counts / words.shape[1])
    for key in ("n", "M", "trials", "seed"):
        if key not in sim:
            raise ConfigError(f"simulation block is missing '{key}'")
    config = SimConfig(sim["n"], sim["M"], sim["trials"], sim["seed"], sim.get("epsilon"))
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    if words is None:
        code = sample_code(comp, config.n, config.M, rng)
    else:
        code = Codebook(words, comp)
    mode = sim["mode"]
    feasible = enumerable(channel.output_size, code.blocklength)
    if mode == "auto":
        mode = "exact" if feasible else "mc"
    if mode == "exact" and not feasible:
        raise ConfigError(
            "output space exceeds the enumeration budget; set simulation mode to 'mc'"
        )
    if mode == "exact":
        errors = exact_error_probability(code, range(code.size), channel, metric, workers=workers)
        per_message = {"mode": mode, "values": errors}
    elif mode == "mc":
        estimates = [
            monte_carlo_error(code, m, channel, metric, config.trials, rng, workers=workers)
            for m in range(code.size)
        ]
        errors = [est for est, _ in estimates]
        per_message = {"mode": mode, "values": errors, "std_errors": [se for _, se in estimates]}
    else:
        raise ConfigError(f"unknown simulation mode {mode!r}")

    rate = cfg.get("rate", code.rate)
    eps = min(config.effective_epsilon(), rate)
    report_gc = check_good_code(
        code,
        eps,
        metric,
        rate,
        floor_resolution=resolution,
        rng=np.random.default_rng(config.seed + 1),
        workers=workers,
    )
    markov = []
    for rho in _MARKOV_RHOS:
        lhs, rhs, holds = markov_bound_check(code, channel, metric, rho, errors)
        markov.append({"rho": rho, "lhs": lhs, "rhs": rhs, "holds": holds})
    report = {
        "config": {
            "n": code.blocklength,
            "M": code.size,
            "trials": config.trials,
            "seed": config.seed,
            "epsilon": eps,
            "rate": rate,
            "resolution": resolution,
            "metric": cfg.get("metric"),
            "channel": channel.matrix.tolist(),
        },
        "per_message_error": per_message,
        "good_code_report": report_gc.to_json(),
        "expurgated_indices": [int(i) for i in kept_indices(errors)],
        "markov_checks": markov,
        "effective_rate": code.rate,
        "codewords": [" ".join(str(int(s)) for s in w) for w in code.words],
    }
    elapsed = 1000.0 * (time.perf_counter() - start)
    _emit(_json_text(report), cfg.get("output"))
    print(f"simulation finished in {elapsed:.1f} ms", file=sys.stderr)
    return 0


def cmd_verify(level: str, workers: int) -> int:
    results = verify_mod.run_suite(level, workers=workers)
    print(verify_mod.format_results(results))
    for r in results:
        print(f"{r.name}: {r.seconds:.2f}s", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 4


def _number_flag(text: str) -> float:
    """A number flag, read by the same rule as a config number."""
    try:
        v = float(text)
    except ValueError:
        v = None
    if not is_number(v):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldx",
        description="Error exponents and simulation for stochastic metric decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--rate", type=_number_flag, help="override the rate (nats)")
        p.add_argument("--resolution", type=int, help="override the grid resolution")
        p.add_argument("--workers", type=int, help="worker threads (default 1)")
        p.add_argument("--output", help="output file (default stdout)")

    def rho_max(p):
        p.add_argument("--rho-max", dest="rho_max", type=_number_flag, help="override the tilt cap")

    p_exp = sub.add_parser("exponent", help="compute both exponent forms at one rate")
    common(p_exp)
    rho_max(p_exp)
    p_sweep = sub.add_parser("sweep", help="compute exponents over a rate range")
    common(p_sweep)
    rho_max(p_sweep)
    p_sweep.add_argument("--format", choices=("json", "csv"), help="output format")
    p_sim = sub.add_parser("simulate", help="sample a code and report error statistics")
    common(p_sim)
    p_sim.add_argument("--n", type=int, help="override the blocklength")
    p_sim.add_argument("--m", dest="M", type=int, help="override the code size M")
    p_sim.add_argument("--trials", type=int, help="override Monte Carlo trials")
    p_sim.add_argument("--seed", type=int, help="override the RNG seed")
    p_sim.add_argument("--epsilon", type=_number_flag, help="override the good-code back-off")
    p_ver = sub.add_parser("verify", help="run the self-check suites")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.level, args.workers)
        cfg = _load_config(args)
        if args.command == "exponent":
            return cmd_exponent(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_simulate(cfg)
    except InfeasibleGridError as exc:
        print(f"infeasible grid: {exc}", file=sys.stderr)
        return 3
    except (
        ConfigError,
        DistributionError,
        MetricError,
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
