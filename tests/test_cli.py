"""Command line behavior: parsing, outputs, exit codes."""

from __future__ import annotations

import csv
import errno
import json
import os

import numpy as np
import pytest

from momentcpt.cli import main

from conftest import run_fresh

# Deterministic fixtures: periodic data has no drift in its partial sums, so
# the test never rejects; gluing two periodic blocks with a 20x scale jump
# always rejects.
STABLE = [1.0, 2.0, 3.0, 4.0] * 75
SHIFTED = [1.0, 2.0, 3.0, 4.0] * 38 + [50.0, 60.0, 70.0, 80.0] * 38


def write_data(path, values, header=None, footer_comment=True):
    lines = []
    if header is not None:
        lines.append(header)
    lines.extend(repr(v) for v in values)
    if footer_comment:
        lines.append("# trailing comment")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def stable_file(tmp_path):
    return write_data(tmp_path / "stable.txt", STABLE)


@pytest.fixture
def shifted_file(tmp_path):
    return write_data(tmp_path / "shifted.txt", SHIFTED)


class TestTestCommand:
    def test_no_change_exits_zero(self, stable_file, capsys):
        assert main(["test", stable_file, "--model", "gamma"]) == 0
        out = capsys.readouterr().out
        assert "no change detected" in out
        assert "not significant" in out

    def test_change_exits_two(self, shifted_file, capsys):
        assert main(["test", shifted_file, "--model", "gamma"]) == 2
        out = capsys.readouterr().out
        assert "change detected" in out

    def test_json_output_is_machine_readable(self, shifted_file, capsys):
        code = main(["test", shifted_file, "--model", "gamma", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["command"] == "test"
        assert payload["reject"] is True
        assert payload["n"] == len(SHIFTED)
        assert 0.0 <= payload["u_hat"] <= 1.0
        assert payload["k_hat"] == round(payload["u_hat"] * payload["n"])

    def test_reruns_are_byte_identical(self, shifted_file, capsys):
        main(["test", shifted_file, "--model", "gamma", "--json"])
        first = capsys.readouterr().out
        main(["test", shifted_file, "--model", "gamma", "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_dump_path_csv(self, stable_file, tmp_path, capsys):
        dump = tmp_path / "path.csv"
        main(["test", stable_file, "--model", "gamma", "--dump-path", str(dump)])
        capsys.readouterr()
        lines = dump.read_text().splitlines()
        assert lines[0] == "k,u,t"
        assert lines[1] == "0,0.0,0.0"
        assert len(lines) == len(STABLE) + 2
        ks = [int(row.split(",")[0]) for row in lines[1:]]
        assert ks == list(range(len(STABLE) + 1))

    @pytest.mark.parametrize(
        "fixture,code,lines",
        [
            (
                "stable_file",
                0,
                [
                    "model: gamma (dim 2)",
                    "n: 300",
                    "theta_hat: 5 2",
                    "statistic: 0.0106667",
                    "critical value: 2.49123 (level 0.05)",
                    "decision: no change detected",
                    "u_hat: 0.00666667 (k = 2, not significant)",
                ],
            ),
            (
                "shifted_file",
                2,
                [
                    "model: gamma (dim 2)",
                    "n: 304",
                    "theta_hat: 1.09558 0.0324617",
                    "statistic: 75.6965",
                    "critical value: 2.49123 (level 0.05)",
                    "decision: change detected",
                    "u_hat: 0.5 (k = 152)",
                ],
            ),
        ],
    )
    def test_text_report_lines(self, fixture, code, lines, request, capsys):
        path = request.getfixturevalue(fixture)
        assert main(["test", path, "--model", "gamma"]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def test_json_keys(self, stable_file, capsys):
        assert main(["test", stable_file, "--model", "gamma", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "command",
            "model",
            "n",
            "level",
            "theta_hat",
            "t_stat",
            "critical_value",
            "reject",
            "u_hat",
            "k_hat",
        }

    def test_unusual_level_needs_a_table(self, stable_file, capsys):
        code = main(["test", stable_file, "--model", "gamma", "--level", "0.07"])
        assert code == 1
        assert "critval" in capsys.readouterr().err

    def test_level_outside_the_unit_interval_is_named(self, stable_file, capsys):
        code = main(["test", stable_file, "--model", "gamma", "--level", "1.5"])
        assert code == 1
        assert capsys.readouterr().err == "error: level must lie in (0, 1), got 1.5\n"

    def test_unusual_level_message_names_both_steps(self, stable_file, capsys):
        main(["test", stable_file, "--model", "gamma", "--level", "0.07"])
        err = capsys.readouterr().err
        assert "'momentcpt critval --dim 2 --level 0.07 --out FILE'" in err
        assert "'--table FILE'" in err and "table=FILE" in err

    def test_simulate_critval_covers_unusual_levels(
        self, stable_file, tmp_path, capsys
    ):
        table = str(tmp_path / "cv.txt")
        main(
            [
                "critval",
                "--dim",
                "2",
                "--level",
                "0.07",
                "--replications",
                "400",
                "--seed",
                "3",
                "--out",
                table,
            ]
        )
        capsys.readouterr()
        code = main(
            ["test", stable_file, "--model", "gamma", "--level", "0.07", "--table", table]
        )
        assert code == 0
        assert "no change detected" in capsys.readouterr().out

    def test_printed_levels_can_be_passed_back(self, stable_file, tmp_path, capsys):
        # a level with more digits than a 6-digit format keeps: what either
        # command prints names the table row that the level came from
        table = str(tmp_path / "cv.txt")
        args = ["--replications", "400", "--grid", "50", "--seed", "3", "--out", table]
        main(["critval", "--dim", "2", "--level", "0.0712345678", *args])
        printed = capsys.readouterr().out
        assert printed.startswith("dim 2 level 0.0712345678: ")
        test = ["test", stable_file, "--model", "gamma", "--table", table, "--level"]
        assert main([*test, printed.split()[3].rstrip(":")]) == 0
        report = capsys.readouterr().out
        assert "(level 0.0712345678)" in report
        assert main([*test, report.split("(level ")[1].split(")")[0]]) == 0
        assert capsys.readouterr().out == report

    def test_unknown_model_is_a_usage_error(self, stable_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", stable_file, "--model", "weibull"])
        assert exc.value.code == 1
        capsys.readouterr()


class TestDataParsing:
    def test_bad_line_is_reported_with_its_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\nbanana\n3.0\n")
        assert main(["test", str(path), "--model", "gamma"]) == 1
        err = capsys.readouterr().err
        assert "line 3: cannot parse" in err and "banana" in err

    def test_non_finite_value_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "inf.txt"
        path.write_text("1.0\ninf\n2.0\n")
        assert main(["test", str(path), "--model", "gamma"]) == 1
        assert "line 2: non-finite" in capsys.readouterr().err

    def test_header_row_is_auto_detected(self, tmp_path, capsys):
        path = write_data(tmp_path / "hdr.txt", STABLE, header="value")
        code = main(["test", str(path), "--model", "gamma", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == len(STABLE)

    def test_comments_and_blanks_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        body = "\n".join(
            ["# leading comment", "", "1.5  # inline", "2.5", "", "3.5", "4.5"]
        )
        path.write_text(body + "\n")
        code = main(["detect", str(path), "--model", "exponential", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4

    def test_empty_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert main(["test", str(path), "--model", "gamma"]) == 1
        assert "no observations" in capsys.readouterr().err

    def test_binary_file_is_named_as_not_text(self, tmp_path, capsys):
        path = tmp_path / "random.bin"
        path.write_bytes(np.random.default_rng(0).bytes(200))
        assert main(["test", str(path), "--model", "gamma"]) == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text; expected one number per line\n"

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["test", str(tmp_path / "nope.txt"), "--model", "gamma"]) == 1
        capsys.readouterr()


def test_file_errors_name_the_file_and_the_reason(tmp_path, stable_file, capsys):
    missing = str(tmp_path / "missing.txt")
    not_found = os.strerror(errno.ENOENT)
    cases = [
        (["test", missing, "--model", "gamma"], f"{missing}: {not_found}"),
        (
            ["test", stable_file, "--model", "gamma", "--table", missing],
            f"{missing}: {not_found}",
        ),
        (
            ["critval", "--dim", "1", "--replications", "100", "--grid", "50", "--out", str(tmp_path)],
            f"{tmp_path}: {os.strerror(errno.EISDIR)}",
        ),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDetectCommand:
    def test_detect_always_exits_zero(self, shifted_file, capsys):
        assert main(["detect", shifted_file, "--model", "gamma"]) == 0
        out = capsys.readouterr().out
        assert "u_hat" in out

    def test_text_report_lines(self, shifted_file, capsys):
        assert main(["detect", shifted_file, "--model", "gamma"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "model: gamma (dim 2)",
            "n: 304",
            "theta_hat: 1.09558 0.0324617",
            "statistic: 75.6965",
            "u_hat: 0.5 (k = 152)",
        ]

    def test_json_keys(self, shifted_file, capsys):
        assert main(["detect", shifted_file, "--model", "gamma", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == {
            "command",
            "model",
            "n",
            "theta_hat",
            "t_stat",
            "u_hat",
            "k_hat",
        }

    def test_detect_tiny_sample(self, tmp_path, capsys):
        path = write_data(tmp_path / "tiny.txt", [1.0, 2.5, 0.5])
        code = main(["detect", str(path), "--model", "exponential", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0 <= payload["k_hat"] <= 3


class TestCritvalCommand:
    def test_writes_and_updates_a_table(self, tmp_path, capsys):
        out = tmp_path / "cv.txt"
        code = main(
            [
                "critval",
                "--dim",
                "1",
                "--level",
                "0.3,0.05",
                "--replications",
                "1500",
                "--grid",
                "120",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "dim 1 level 0.3" in printed and "dim 1 level 0.05" in printed
        from momentcpt import read_table_file

        rows = read_table_file(out)
        assert set(rows) == {(1, 0.3), (1, 0.05)}
        # second invocation merges new rows without dropping old ones
        main(
            [
                "critval",
                "--dim",
                "2",
                "--level",
                "0.05",
                "--replications",
                "1500",
                "--grid",
                "120",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        rows = read_table_file(out)
        assert set(rows) == {(1, 0.3), (1, 0.05), (2, 0.05)}

    def test_json_lists_all_rows(self, capsys):
        code = main(
            [
                "critval",
                "--dim",
                "1,2",
                "--level",
                "0.2",
                "--replications",
                "800",
                "--grid",
                "60",
                "--seed",
                "11",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        dims = [row["dim"] for row in payload["rows"]]
        assert dims == [1, 2]
        assert payload["rows"][0]["value"] < payload["rows"][1]["value"]

    def test_table_made_by_critval_feeds_the_test_command(
        self, tmp_path, stable_file, capsys
    ):
        out = tmp_path / "cv.txt"
        main(
            [
                "critval",
                "--dim",
                "2",
                "--level",
                "0.05",
                "--replications",
                "2000",
                "--grid",
                "200",
                "--seed",
                "6",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            ["test", stable_file, "--model", "gamma", "--table", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize("option", ["--dim", "--level"])
    @pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
    def test_an_empty_list_is_a_usage_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "cv.txt"
        argv = ["critval", "--dim", "1", "--level", "0.05", "--out", str(out)]
        argv[argv.index(option) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"argument {option}: need at least one value" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "model": "gamma",
                    "theta0": [1.0, 0.01],
                    "theta1": [1.0, 0.05],
                    "ustar": 0.5,
                    "n": 60,
                    "m": 8,
                    "level": 0.05,
                    "seed": 9,
                }
            )
        )
        return str(path)

    def test_runs_and_prints_a_summary(self, config_file, capsys):
        assert main(["simulate", config_file]) == 0
        out = capsys.readouterr().out
        assert "reject rate" in out and "ustar=0.5" in out

    def test_writes_csv_pair(self, config_file, tmp_path, capsys):
        prefix = str(tmp_path / "result")
        assert main(["simulate", config_file, "--out", prefix]) == 0
        capsys.readouterr()
        with open(prefix + ".csv", newline="") as handle:
            assert handle.readline() == (
                "model,theta0,theta1,ustar,n,m,level,seed,rejection_rate,"
                "n_failed,u_hat_mean,u_hat_sd,u_hat_rmse\r\n"
            )
        with open(prefix + ".csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "gamma"
        assert row["theta1"] == "1.0;0.05"
        assert row["n"] == "60"
        assert 0.0 <= float(row["rejection_rate"]) <= 1.0
        assert row["u_hat_mean"] != ""
        with open(prefix + "_hist.csv", newline="") as handle:
            hist = list(csv.DictReader(handle))
        assert len(hist) == 50
        assert hist[0]["bin_left"] == "0.0"
        total = sum(int(r["count"]) for r in hist)
        assert total == 8 - int(row["n_failed"])

    def test_seed_override_changes_the_stream(self, config_file, capsys):
        main(["simulate", config_file, "--json"])
        base = json.loads(capsys.readouterr().out)
        main(["simulate", config_file, "--json", "--seed", "10"])
        other = json.loads(capsys.readouterr().out)
        assert base["results"][0]["seed"] == 9
        assert other["results"][0]["seed"] == 10

    def test_reruns_are_byte_identical(self, config_file, capsys):
        main(["simulate", config_file, "--json"])
        first = capsys.readouterr().out
        main(["simulate", config_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("command", ["critval", "simulate"])
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_is_an_error(self, config_file, capsys, command, jobs):
        args = ["--dim", "1", "--replications", "100", "--grid", "10"]
        argv = [command, *(args if command == "critval" else [config_file])]
        assert main([*argv, "--jobs", jobs]) == 1
        assert f"error: jobs must be an integer >= 1, got {jobs}" in capsys.readouterr().err

    def test_invalid_config_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"model": "gamma", "theta0": [1, 1], "n": 50, "m": 0}')
        assert main(["simulate", str(path)]) == 1
        assert "'m'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("theta0", 5, "error: config key 'theta0'"),
            ("n", [], "no experiment"),
        ],
    )
    def test_malformed_config_is_an_error(
        self, tmp_path, capsys, key, value, message
    ):
        config = {"model": "gamma", "theta0": [1.0, 1.0], "n": 50, "m": 4}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, key: value}))
        prefix = str(tmp_path / "result")
        assert main(["simulate", str(path), "--out", prefix]) == 1
        assert message in capsys.readouterr().err


NO_SCIPY = """
import sys
import numpy as np
import momentcpt.cli
from momentcpt import ExperimentConfig, critical_value, gamma_model, run_experiment, run_test
run_test(gamma_model().sample((1.0, 1.0), np.random.default_rng(0), 200), gamma_model())
run_experiment(ExperimentConfig(model="gamma", theta0=(1.0, 1.0), n=50, m=20))
critical_value(2, 0.05, replications=200, grid=100, seed=1)
assert "scipy" not in sys.modules, "scipy was imported"
"""


NO_POOL = """
import sys
import momentcpt
assert "concurrent.futures.process" not in sys.modules, "imported with the package"
momentcpt.critical_value(2, 0.05, replications=200, grid=100, seed=1, jobs=1)
assert "concurrent.futures.process" not in sys.modules, "imported by a run in-process"
"""


def test_library_and_cli_run_without_scipy():
    # the test suite itself imports scipy
    run_fresh(NO_SCIPY)


def test_the_process_pool_is_imported_only_for_workers():
    # its module is a large part of the package's import time
    run_fresh(NO_POOL)
