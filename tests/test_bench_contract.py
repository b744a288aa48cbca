"""The package names that the benchmark's tracer wraps.

``bench/spans.py`` finds each layer by wrapping a package attribute by
name.  This test runs one small exponent and one small simulation under
the tracer, so a renamed attribute, or a layer that is no longer
reached, fails here instead of reading zero in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import gldx.cli as cli
import gldx.exponents as exponents

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
WRAPPED = [
    (exponents.CompetitorScoreEvaluator, "value"),
    (exponents.CompetitorScoreEvaluator, "value_batch"),
    (exponents.ConfusionExponentSolver, "solve"),
    (exponents.ConfusionExponentSolver, "stack_value"),
    (exponents, "golden_section_minimize"),
    (exponents, "concave_search_rho"),
    (cli, "exact_error_probability"),
    (cli, "monte_carlo_error"),
    (cli, "check_good_code"),
]
REACHED = (
    "exponents.inner_scan.calls",
    "exponents.polish.calls",
    "exponents.stack_value.calls",
    "exponents.floor.calls",
    "optimizer.line_search.calls",
    "optimizer.rho_search.probes",
    "simulator.exact.calls",
    "simulator.good_code.outputs",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_reached_and_restored(tmp_path):
    base = {
        "channel": {"input_size": 2, "output_size": 2, "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        "metric": {"kind": "matched", "beta": 1.0},
        "composition": [0.5, 0.5],
        "rate": 0.15,
        "workers": 1,
    }
    exp_cfg, sim_cfg = tmp_path / "exp.json", tmp_path / "sim.json"
    exp_cfg.write_text(json.dumps(dict(base, resolution=4)))
    sim = {"n": 6, "M": 2, "trials": 1, "seed": 1, "mode": "exact"}
    sim_cfg.write_text(json.dumps(dict(base, resolution=16, simulation=sim)))
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    tracer = _load_spans().Tracer()
    with tracer.installed():
        assert all(getattr(o, a) is not f for (o, a), f in zip(WRAPPED, originals))
        assert tracer.call(0, cli.main, ["exponent", "--config", str(exp_cfg)]) == 0
        assert tracer.call(1, cli.main, ["simulate", "--config", str(sim_cfg)]) == 0
    assert all(getattr(o, a) is f for (o, a), f in zip(WRAPPED, originals))
    counts = tracer.count_metrics()
    assert {name: counts[name] for name in REACHED if counts[name] <= 0} == {}
