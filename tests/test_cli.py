"""Command-line behavior: configs, formats, exit codes."""

import argparse
import json
import math
from pathlib import Path

import pytest

from gldx import cli
from gldx.cli import main
from gldx.verify import CheckResult

BSC = {"input_size": 2, "output_size": 2, "matrix": [[0.9, 0.1], [0.1, 0.9]]}
NOISELESS = {"input_size": 2, "output_size": 2, "matrix": [[1.0, 0.0], [0.0, 1.0]]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def exp_config(tmp_path):
    return write_config(
        tmp_path,
        "exp.json",
        {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.1, "resolution": 8},
    )


class TestExponentCommand:
    def test_json_shape(self, exp_config, capsys):
        assert main(["exponent", "--config", exp_config]) == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["form"] == "constrained"
        assert "runtime_ms" not in payload
        assert payload["resolution"] == 8
        assert isinstance(payload["expurgated"], float)
        assert isinstance(payload["maxmin"], float)
        assert "ms" in out.err  # timing goes to stderr only

    def test_sorted_keys_and_trailing_newline(self, exp_config, capsys):
        main(["exponent", "--config", exp_config])
        text = capsys.readouterr().out
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_output_file(self, exp_config, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert main(["exponent", "--config", exp_config, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["resolution"] == 8

    def test_infinite_values_serialized_as_strings(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "noiseless.json",
            {"channel": NOISELESS, "metric": {"kind": "matched"}, "rate": 0.2, "resolution": 8},
        )
        assert main(["exponent", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "inf"
        assert payload["expurgated"] == "inf"
        assert payload["gap"] == "inf"
        assert payload["maxmin"] == pytest.approx(64.0 * (math.log(2) - 0.2))
        assert payload["boundary_flag"] is True

    def test_rate_flag_overrides_config(self, exp_config, capsys):
        main(["exponent", "--config", exp_config])
        base = json.loads(capsys.readouterr().out)
        main(["exponent", "--config", exp_config, "--rate", "0.3"])
        override = json.loads(capsys.readouterr().out)
        assert override["value"] < base["value"]


class TestSweepCommand:
    def test_csv_shape(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sweep.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate_range": {"start": 0.1, "stop": 0.3, "step": 0.1},
                "resolution": 8,
                "format": "csv",
            },
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "rate,exponent,maxmin,gap,rho_star,boundary_flag,infinite"
        assert len(lines) == 4
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 7
            assert fields[5] == "false"
            assert fields[6] == ""  # nothing infinite on this channel

    def test_csv_marks_infinite_fields(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sweep_inf.json",
            {
                "channel": NOISELESS,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "resolution": 8,
                "format": "csv",
            },
        )
        assert main(["sweep", "--config", cfg]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[1] == ""  # infinite exponent renders empty
        assert row[5] == "true"
        assert row[6] == "exponent+gap"

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sweep_json.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate_range": {"start": 0.1, "stop": 0.2, "step": 0.1},
                "resolution": 8,
                "format": "json",
            },
        )
        assert main(["sweep", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["rate"] for row in payload] == [0.1, 0.2]

    def test_bad_rate_range(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad_range.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate_range": {"start": 0.3, "stop": 0.1},
                "resolution": 8,
            },
        )
        assert main(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize("flag", [[], ["--rate", "0.3"]])
    def test_rate_with_rate_range_rejected(self, tmp_path, capsys, flag):
        # A rate from the config or the flag used to be dropped in favour
        # of the range, printing the row for 0.1.
        payload = {
            "channel": BSC,
            "metric": {"kind": "matched"},
            "rate_range": {"start": 0.1, "stop": 0.1},
            "resolution": 8,
        }
        if not flag:
            payload["rate"] = 0.3
        cfg = write_config(tmp_path, "rate_and_range.json", payload)
        assert main(["sweep", "--config", cfg, *flag]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and "'rate'" in out.err
        assert out.out == ""


    def test_sweep_rate_list_unchanged(self):
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "sweep_bsc.json").read_text())
        assert cli._sweep_rates(cfg) == [0.05, 0.1, 0.15000000000000002, 0.2, 0.25, 0.3, 0.35]


class TestSimulateCommand:
    def test_report_shape(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "resolution": 8,
                "simulation": {"n": 6, "M": 4, "trials": 2000, "seed": 3},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_message_error"]["mode"] == "exact"
        assert len(report["per_message_error"]["values"]) == 4
        assert len(report["expurgated_indices"]) == 2
        assert [m["rho"] for m in report["markov_checks"]] == [1.0, 2.0, 5.0]
        assert all(m["holds"] for m in report["markov_checks"])
        assert isinstance(report["good_code_report"]["holds"], bool)
        assert len(report["codewords"]) == 4
        assert all(len(w.split()) == 6 for w in report["codewords"])

    def test_explicit_codewords(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sim_words.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "resolution": 8,
                "simulation": {
                    "codewords": [[0, 1, 0, 1], [1, 0, 1, 0]],
                    "trials": 500,
                    "seed": 1,
                },
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["codewords"] == ["0 1 0 1", "1 0 1 0"]
        assert report["config"]["n"] == 4

    def test_codewords_must_match_composition(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sim_words_comp.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "composition": [0.25, 0.75],
                "rate": 0.2,
                "resolution": 8,
                "simulation": {
                    "codewords": [[0, 1, 0, 1], [1, 0, 1, 0]],
                    "trials": 500,
                    "seed": 1,
                },
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "input error" in out.err

    @pytest.mark.parametrize("words", [[0, 1, 0, 1], [[0, 2], [2, 0]], [[0, -1], [-1, 0]]])
    def test_codewords_must_be_words_over_the_inputs(self, tmp_path, capsys, words):
        cfg = write_config(
            tmp_path,
            "sim_bad_words.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "simulation": {"codewords": words, "trials": 500, "seed": 1},
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        assert "codewords must be equal-length words" in capsys.readouterr().err

    def test_mc_mode(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sim_mc.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "resolution": 8,
                "simulation": {"n": 6, "M": 4, "trials": 4000, "seed": 3, "mode": "mc"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_message_error"]["mode"] == "mc"

    def test_mc_mode_reports_std_errors(self, tmp_path, capsys):
        trials = 3000
        cfg = write_config(
            tmp_path,
            "sim_mc_se.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "resolution": 8,
                "simulation": {"n": 6, "M": 4, "trials": trials, "seed": 5, "mode": "mc"},
            },
        )
        assert main(["simulate", "--config", cfg]) == 0
        per_message = json.loads(capsys.readouterr().out)["per_message_error"]
        assert len(per_message["std_errors"]) == len(per_message["values"]) == 4
        for p, se in zip(per_message["values"], per_message["std_errors"]):
            assert se == pytest.approx(math.sqrt(p * (1 - p) / trials), rel=1e-12, abs=0)

    def test_simulation_block_required(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sim_missing.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2},
        )
        assert main(["simulate", "--config", cfg]) == 2


class TestExitCodes:
    def test_missing_channel(self, tmp_path):
        cfg = write_config(tmp_path, "nochan.json", {"metric": {"kind": "matched"}, "rate": 0.1})
        assert main(["exponent", "--config", cfg]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["exponent", "--config", str(path)]) == 2

    def test_config_root_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["exponent", "--config", str(path)]) == 2

    def test_unknown_metric_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, "badmetric.json", {"channel": BSC, "metric": {"kind": "zzz"}, "rate": 0.1}
        )
        assert main(["exponent", "--config", cfg]) == 2

    def test_bad_channel_row(self, tmp_path):
        bad = {"input_size": 2, "output_size": 2, "matrix": [[0.9, 0.2], [0.1, 0.9]]}
        cfg = write_config(
            tmp_path, "badrow.json", {"channel": bad, "metric": {"kind": "matched"}, "rate": 0.1}
        )
        assert main(["exponent", "--config", cfg]) == 2

    def test_missing_config_file(self):
        assert main(["exponent", "--config", "/no/such/file.json"]) == 2

    def test_exponent_rejects_format_flag(self, exp_config):
        # only sweep reads --format
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--config", exp_config, "--format", "csv"])
        assert exc.value.code == 2

    def test_simulate_rejects_rho_max_flag(self, exp_config):
        # only exponent and sweep read --rho-max
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", exp_config, "--rho-max", "2"])
        assert exc.value.code == 2

    def test_exponent_rejects_format_field(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "exp_fmt.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.1, "format": "csv"},
        )
        assert main(["exponent", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and "'format'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("field, value", [("format", "csv"), ("rho_max", 2.0)])
    def test_simulate_rejects_unread_field(self, tmp_path, capsys, field, value):
        cfg = write_config(
            tmp_path,
            "sim_unread.json",
            {
                "channel": BSC,
                "metric": {"kind": "matched"},
                "rate": 0.2,
                "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1},
                field: value,
            },
        )
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and f"'{field}'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "command, extra, field",
        [
            ("simulate", {"refine": False}, "refine"),
            ("simulate", {"rate_range": {"start": 0.1, "stop": 0.2}}, "rate_range"),
            ("simulate", {"simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1, "mdoe": "mc"}}, "mdoe"),
            ("exponent", {"resoluton": 4}, "resoluton"),
            ("exponent", {"simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1}}, "simulation"),
            ("sweep", {"rate_range": {"start": 0.1, "stop": 0.2, "stpe": 0.05}}, "stpe"),
        ],
    )
    def test_rejects_unread_config_field(self, tmp_path, capsys, command, extra, field):
        payload = {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2, "resolution": 8}
        if command == "simulate":
            payload["simulation"] = {"n": 4, "M": 2, "trials": 100, "seed": 1}
        cfg = write_config(tmp_path, "unread.json", dict(payload, **extra))
        assert main([command, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and f"'{field}'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("exponent", "refine", "false"),
            ("exponent", "refine", 0),
            ("sweep", "refine", None),
            ("exponent", "resolution", 8.9),
            ("exponent", "resolution", True),
            ("exponent", "resolution", "8"),
            ("sweep", "resolution", 8.5),
            ("exponent", "workers", 1.5),
            ("exponent", "workers", False),
            ("simulate", "workers", "1"),
            ("simulate", "resolution", 12.5),
            ("simulate", "resolution", True),
            ("exponent", "rate", True),
            ("simulate", "rate", "0.2"),
            ("exponent", "rho_max", True),
            ("sweep", "rho_max", "2"),
            ("exponent", "output", 2),
            ("exponent", "output", True),
            ("exponent", "rate", math.nan),
            ("exponent", "rate", math.inf),
            pytest.param("exponent", "rate", 10**400, id="exponent-rate-1e400"),
            ("exponent", "rho_max", math.inf),
            pytest.param("simulate", "resolution", 10**400, id="simulate-resolution-1e400"),
        ],
    )
    def test_rejects_mistyped_config_value(self, tmp_path, capsys, command, field, value):
        payload = {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2, "resolution": 8}
        if command == "simulate":
            payload["simulation"] = {"n": 4, "M": 2, "trials": 100, "seed": 1}
        cfg = write_config(tmp_path, "typed.json", dict(payload, **{field: value}))
        assert main([command, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and f"'{field}'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "command, block, field, value",
        [
            ("simulate", "simulation", "n", 4.7),
            ("simulate", "simulation", "M", 2.9),
            ("simulate", "simulation", "trials", 100.5),
            ("simulate", "simulation", "seed", 1.2),
            ("simulate", "simulation", "epsilon", True),
            ("simulate", "simulation", "epsilon", "0.1"),
            ("sweep", "rate_range", "start", "0.1"),
            ("simulate", "simulation", "epsilon", math.nan),
            pytest.param("simulate", "simulation", "n", 10**400, id="simulate-simulation-n-1e400"),
            ("sweep", "rate_range", "stop", math.inf),
        ],
    )
    def test_rejects_mistyped_block_value(self, tmp_path, capsys, command, block, field, value):
        # Each used to run: int() truncated the fractional numbers, float()
        # read the strings and booleans as numbers, NaN ran as a number, an
        # integer past the float range raised OverflowError, and a stop of
        # Infinity never ended the rate list.
        blocks = {
            "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1},
            "rate_range": {"start": 0.1, "stop": 0.2},
        }
        payload = {"channel": BSC, "metric": {"kind": "matched"}, "resolution": 8}
        payload[block] = dict(blocks[block], **{field: value})
        cfg = write_config(tmp_path, "typed_block.json", payload)
        assert main([command, "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and f"'{field}'" in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "block, field, value, needle",
        [
            ("simulation", "codewords", [[0.7, 1.2, 0, 1], [1, 0, 1.9, 0]], "codewords must be equal-length words"),
            ("simulation", "codewords", [[True, False, False, True], [False, True, True, False]], "codewords must be"),
            ("simulation", "codewords", [["0", "1", "0", "1"], ["1", "0", "1", "0"]], "codewords must be"),
            (None, "composition", ["0.5", "0.5"], "composition"),
            ("channel", "matrix", [[True, 0], [0, True]], "channel matrix entries must be numbers"),
            ("channel", "matrix", [["0.9", 0.1], [0.1, 0.9]], "channel matrix entries must be numbers"),
            ("channel", "input_size", 2.9, "input_size"),
            ("channel", "input_size", "2", "input_size"),
            ("channel", "output_size", True, "output_size"),
            ("metric", "kernel", [["0.8", "0.2"], [0.2, 0.8]], "bad decoding kernel"),
            (None, "composition", [math.nan, 0.5], "composition"),
            ("channel", "matrix", [[math.inf, 0.1], [0.1, 0.9]], "channel matrix entries must be numbers"),
            pytest.param("channel", "input_size", 10**400, "input_size", id="channel-input_size-1e400"),
            pytest.param("simulation", "codewords", [[0, 1, 0, 10**400], [1, 0, 1, 0]], "codewords must be",
                         id="simulation-codewords-1e400"),
            ("metric", "beta", math.inf, "'beta'"),
        ],
    )
    def test_rejects_list_entry_that_is_not_a_number(self, tmp_path, capsys, block, field, value, needle):
        # Each used to run or crash: the entries were cast with np.asarray or
        # int(), which truncated the fractions and read booleans and strings as
        # numbers; NaN and Infinity passed as numbers, and 10**400 raised
        # OverflowError.
        payload = {
            "channel": dict(BSC),
            "metric": {"kind": "mismatched", "kernel": [[0.8, 0.2], [0.2, 0.8]]},
            "rate": 0.2,
            "resolution": 8,
            "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1},
        }
        if block is None:
            payload[field] = value
        else:
            payload[block] = dict(payload[block], **{field: value})
        cfg = write_config(tmp_path, "entries.json", payload)
        assert main(["simulate", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and needle in out.err
        assert out.out == ""

    def test_integral_float_entries_still_run(self, tmp_path, capsys):
        text = []
        for words, size in (([[0, 1, 0, 1], [1, 0, 1, 0]], 2), ([[0.0, 1.0, 0, 1], [1, 0, 1, 0]], 2.0)):
            cfg = write_config(
                tmp_path,
                "integral_entries.json",
                {"channel": dict(BSC, input_size=size), "metric": {"kind": "matched"}, "rate": 0.2,
                 "resolution": 8, "simulation": {"codewords": words, "trials": 100, "seed": 1}},
            )
            assert main(["simulate", "--config", cfg]) == 0
            text.append(capsys.readouterr().out)
        assert text[0] == text[1]

    @pytest.mark.parametrize(
        "mode, flags, field",
        [
            ("exact", ["--resolution", "-5", "--workers", "-3"], "workers"),
            ("exact", ["--resolution", "1"], "resolution"),
            ("exact", ["--workers", "0"], "workers"),
            ("mc", ["--workers", "0"], "workers"),
        ],
    )
    def test_simulate_rejects_out_of_range_grid(self, tmp_path, capsys, mode, flags, field):
        # Each used to run: workers below 1 ran serially, and the good-code
        # check read its floor off the vertex-only grid.
        cfg = write_config(
            tmp_path,
            "sim_range.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2,
             "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1, "mode": mode}},
        )
        assert main(["simulate", "--config", cfg, *flags]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and field in out.err
        assert out.out == ""

    @pytest.mark.parametrize(
        "command, flag, value",
        [("exponent", "--rate", "nan"), ("sweep", "--rho-max", "inf"), ("simulate", "--epsilon", "Infinity")],
    )
    def test_rejects_non_finite_number_flag(self, exp_config, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", exp_config, flag, value])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "finite number" in out.err and out.out == ""

    @pytest.mark.parametrize("flags, field", [(["--resolution", "1"], "resolution"), (["--workers", "0"], "workers")])
    def test_simulate_checks_grid_before_any_work(self, tmp_path, capsys, monkeypatch, flags, field):
        # resolution used to be checked only by the good-code check, after
        # the whole error pass had enumerated every output
        def no_work(*_, **__):
            raise AssertionError("work started before the grid check")

        for name in ("sample_code", "exact_error_probability", "monte_carlo_error"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = write_config(
            tmp_path,
            "sim_early.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2,
             "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1, "mode": "exact"}},
        )
        assert main(["simulate", "--config", cfg, *flags]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and field in out.err
        assert out.out == ""

    def test_verify_rejects_workers_below_one(self, capsys, monkeypatch):
        # each check used to raise and count as a failure, so verify exited 4
        ran = []
        monkeypatch.setattr(cli.verify_mod, "CHECKS", (cli.verify_mod.PropertyCheck("probe", ("quick",), ran.append),))
        assert main(["verify", "--workers", "0"]) == 2
        out = capsys.readouterr()
        assert "input error: workers must be >= 1" in out.err
        assert out.out == "" and ran == []

    def test_every_flag_overrides_a_listed_field(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(cli._SCHEMA) | {"verify"}
        for command, schema in cli._SCHEMA.items():
            for action in sub.choices[command]._actions:
                if action.dest in ("help", "config"):
                    continue
                flag = action.option_strings[0]
                listed = schema if action.dest in schema else schema.get("simulation", ({}, None))[0]
                assert action.dest in listed, f"{command} {flag}"
                value = action.choices[0] if action.choices else (action.type or str)("3")
                cfg = cli._load_config(parser.parse_args([command, flag, str(value)]))
                where = cfg if action.dest in schema else cfg["simulation"]
                assert where[action.dest] == value, f"{command} {flag}"

    def test_integral_rate_reported_as_float(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "int_rate.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 1, "resolution": 8,
             "simulation": {"n": 4, "M": 2, "trials": 100, "seed": 1}},
        )
        assert main(["simulate", "--config", cfg]) == 0
        assert '"rate": 1.0,' in capsys.readouterr().out

    def test_integral_float_resolution_accepted(self, tmp_path, capsys):
        text = []
        for resolution in (8, 8.0):
            cfg = write_config(
                tmp_path,
                "integral.json",
                {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.2,
                 "resolution": resolution, "refine": False},
            )
            assert main(["exponent", "--config", cfg]) == 0
            text.append(capsys.readouterr().out)
        assert text[0] == text[1]
        assert json.loads(text[0])["resolution"] == 8

    def test_infeasible_grid_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "coarse.json",
            {"channel": BSC, "metric": {"kind": "matched"}, "rate": 0.05, "resolution": 6},
        )
        assert main(["exponent", "--config", cfg]) == 3
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rate_range",
        [{"start": 0.1, "stop": 1e300, "step": 0.05}, {"start": 0.1, "stop": 0.2, "step": 1e-300}],
        ids=["stop-1e300", "step-1e-300"],
    )
    def test_rejects_rate_range_with_too_many_rates(self, tmp_path, capsys, monkeypatch, rate_range):
        # Both used to grow the rate list until memory ran out.
        monkeypatch.setattr(cli, "rate_sweep", lambda *a: pytest.fail("sweep ran"))
        payload = {"channel": BSC, "metric": {"kind": "matched"}, "rate_range": rate_range, "resolution": 8}
        cfg = write_config(tmp_path, "huge_range.json", payload)
        assert main(["sweep", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert "input error" in out.err and "rate_range" in out.err
        assert out.out == ""


class TestVerifyCommand:
    def test_exit_zero_on_pass(self, monkeypatch, capsys):
        fake = [CheckResult("alpha", True, 0.5, "fine"), CheckResult("beta", True, 0.1, "ok")]
        monkeypatch.setattr("gldx.verify.run_suite", lambda level, workers=1: fake)
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "2/2 checks passed" in out
        assert "0.5" not in out  # timings live on stderr, stdout stays stable

    def test_exit_four_on_failure(self, monkeypatch, capsys):
        fake = [CheckResult("alpha", False, 0.5, "broke")]
        monkeypatch.setattr("gldx.verify.run_suite", lambda level, workers=1: fake)
        assert main(["verify"]) == 4
        assert "FAIL" in capsys.readouterr().out


class TestDeterminism:
    def test_exponent_stdout_stable(self, exp_config, capsys):
        main(["exponent", "--config", exp_config])
        first = capsys.readouterr().out
        main(["exponent", "--config", exp_config])
        second = capsys.readouterr().out
        assert first == second
