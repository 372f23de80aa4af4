"""Command line interface.

Subcommands: ``test`` (decision + location), ``detect`` (location only),
``critval`` (simulate critical values), ``simulate`` (experiment harness).
Exit status: 0 = ran, no rejection; 2 = ran, change detected; 1 = any error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import limits, montecarlo, zprocess
from .errors import EstimationError
from .models import get_model, model_names


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # "change detected" here, so usage errors exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _lines(handle, path):
    """The lines of a text file, with a decoding error that names the file."""
    try:
        yield from handle
    except UnicodeDecodeError:
        raise ValueError(
            f"{path}: not UTF-8 text; expected one number per line"
        ) from None


def _read_data(path) -> np.ndarray:
    values: list[float] = []
    maybe_header = True
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(_lines(handle, path), start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                if maybe_header:
                    maybe_header = False
                    continue
                raise ValueError(
                    f"{path}: line {lineno}: cannot parse {text!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: line {lineno}: non-finite value {text!r}"
                )
            maybe_header = False
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no observations found")
    return np.asarray(values, dtype=float)


def _write_path_dump(path, report) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["k", "u", "t"])
        for k, t in enumerate(report.t_path):
            writer.writerow([k, repr(k / report.n), repr(float(t))])


def _fmt_vec(vec) -> str:
    return " ".join(f"{v:.6g}" for v in vec)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_report(model, report) -> None:
    print(f"model: {model.name} (dim {model.dim})")
    print(f"n: {report.n}")
    print(f"theta_hat: {_fmt_vec(report.theta_hat)}")
    print(f"statistic: {report.t_stat:.6g}")
    tested = report.critical_value is not None
    if tested:
        print(
            f"critical value: {report.critical_value:.6g} "
            f"(level {float(report.level)!r})"
        )
        decision = "change detected" if report.reject else "no change detected"
        print(f"decision: {decision}")
    note = ", not significant" if tested and not report.reject else ""
    print(f"u_hat: {report.u_hat:.6g} (k = {report.k_hat}{note})")


def cmd_report(args) -> int:
    """``test`` and ``detect``: one report, with a decision only from ``test``."""
    data = _read_data(args.data)
    model = get_model(args.model)
    if args.command == "detect":
        report = zprocess.detect(data, model)
    else:
        report = zprocess.run_test(data, model, level=args.level, table=args.table)
    if args.dump_path:
        _write_path_dump(args.dump_path, report)
    payload = {
        "command": args.command,
        "model": model.name,
        "n": report.n,
        "theta_hat": [float(t) for t in report.theta_hat],
        "t_stat": report.t_stat,
        "u_hat": report.u_hat,
        "k_hat": report.k_hat,
    }
    if report.critical_value is not None:
        payload.update(
            level=report.level,
            critical_value=report.critical_value,
            reject=report.reject,
        )
    if args.json:
        _print_json(payload)
    else:
        _print_report(model, report)
    return 2 if report.reject else 0


def cmd_critval(args) -> int:
    rows: dict = {}
    for dim in args.dim:
        table = limits.critical_value(
            dim,
            args.level,
            replications=args.replications,
            grid=args.grid,
            seed=args.seed,
            jobs=args.jobs,
        )
        rows.update(limits.rows_from_table(table))
    if args.out:
        merged: dict = {}
        try:
            merged.update(limits.read_table_file(args.out))
        except FileNotFoundError:
            pass
        merged.update(rows)
        limits.write_table_file(args.out, merged)
    if args.json:
        _print_json(
            {
                "command": "critval",
                "rows": [
                    {
                        "dim": dim,
                        "level": level,
                        "value": row.value,
                        "stderr": row.stderr,
                        "replications": row.replications,
                        "grid": row.grid_points,
                        "seed": row.seed,
                    }
                    for (dim, level), row in sorted(rows.items())
                ],
            }
        )
    else:
        for (dim, level), row in sorted(rows.items()):
            print(
                f"dim {dim} level {float(level)!r}: {row.value:.6f} "
                f"(se {row.stderr:.2g}, replications {row.replications}, "
                f"grid {row.grid_points}, seed {row.seed})"
            )
    return 0


def _repr_or_blank(value) -> str:
    return "" if value is None else repr(value)


def _result_row(result) -> dict:
    config = result.config
    return {
        "model": config.model,
        "theta0": ";".join(map(repr, config.theta0)),
        "theta1": ";".join(map(repr, config.theta1 or ())),
        "ustar": _repr_or_blank(config.ustar),
        "n": config.n,
        "m": config.m,
        "level": repr(config.level),
        "seed": config.seed,
        "rejection_rate": repr(result.rejection_rate),
        "n_failed": result.n_failed,
        "u_hat_mean": _repr_or_blank(result.u_hat_mean),
        "u_hat_sd": _repr_or_blank(result.u_hat_sd),
        "u_hat_rmse": _repr_or_blank(result.u_hat_rmse),
    }


def _write_simulate_csv(stem: str, results) -> None:
    rows = [_result_row(result) for result in results]
    with open(f"{stem}.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with open(f"{stem}_hist.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ustar", "n", "bin_left", "bin_right", "count"])
        for result in results:
            if result.histogram_counts is None:
                continue
            config = result.config
            edges = result.histogram_edges
            for i, count in enumerate(result.histogram_counts):
                writer.writerow(
                    [
                        _repr_or_blank(config.ustar),
                        config.n,
                        repr(float(edges[i])),
                        repr(float(edges[i + 1])),
                        int(count),
                    ]
                )


def _summary_line(result) -> str:
    config = result.config
    head = f"{config.model} n={config.n} m={config.m}"
    if config.has_change:
        head += f" ustar={config.ustar:g}"
        tail = (
            f" u_hat mean {result.u_hat_mean:.4f} sd {result.u_hat_sd:.4f} "
            f"rmse {result.u_hat_rmse:.4f}"
        )
    else:
        head += " (no change)"
        tail = ""
    return (
        f"{head}: reject rate {result.rejection_rate:.4f} "
        f"(failed {result.n_failed}){tail}"
    )


def cmd_simulate(args) -> int:
    configs = montecarlo.load_config(args.config)
    if args.seed is not None:
        configs = [replace(c, seed=args.seed) for c in configs]
    results = [
        montecarlo.run_experiment(c, jobs=args.jobs, table=args.table)
        for c in configs
    ]
    if args.out:
        _write_simulate_csv(args.out, results)
    if args.json:
        _print_json(
            {
                "command": "simulate",
                "results": [
                    {
                        **_result_row(r),
                        "n_completed": r.n_completed,
                        "critical_value": r.critical_value,
                        "failure_counts": r.failure_counts,
                    }
                    for r in results
                ],
            }
        )
    else:
        for result in results:
            print(_summary_line(result))
    return 0


def _values(text: str, kind) -> list:
    """The comma-separated values of an option; an empty list is a usage error."""
    values = [kind(part) for part in text.split(",") if part]
    if not values:
        raise argparse.ArgumentTypeError(f"need at least one value, got {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return _values(text, int)


def _float_list(text: str) -> list[float]:
    return _values(text, float)


def _build_parser() -> _Parser:
    parser = _Parser(prog="momentcpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several subcommands; argparse lists them first
    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", action="store_true")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1)
    sample = argparse.ArgumentParser(add_help=False, parents=[json_out])
    sample.add_argument("data", help="text file, one observation per line")
    sample.add_argument(
        "--model", required=True, choices=model_names(), help="model family"
    )
    sample.add_argument(
        "--dump-path", default=None, help="write the statistic path as CSV"
    )
    sample.set_defaults(func=cmd_report)

    test = sub.add_parser(
        "test", parents=[sample], help="run the change point test on a data file"
    )
    test.add_argument("--level", type=float, default=0.05)
    test.add_argument("--table", default=None, help="critical value table file")
    sub.add_parser(
        "detect", parents=[sample], help="locate the best change candidate"
    )

    critval = sub.add_parser(
        "critval", parents=[json_out, jobs], help="simulate critical values"
    )
    critval.add_argument(
        "--dim", type=_int_list, required=True, help="dimension(s), e.g. 2 or 1,2,3"
    )
    critval.add_argument(
        "--level", type=_float_list, default=[0.05], help="level(s), e.g. 0.05 or 0.1,0.05,0.01"
    )
    critval.add_argument(
        "--replications", type=int, default=limits.DEFAULT_REPLICATIONS
    )
    critval.add_argument("--grid", type=int, default=limits.DEFAULT_GRID)
    critval.add_argument("--seed", type=int, default=limits.DEFAULT_SEED)
    critval.add_argument("--out", default=None, help="table file to create or update")
    critval.set_defaults(func=cmd_critval)

    simulate = sub.add_parser(
        "simulate",
        parents=[json_out, jobs],
        help="run experiments from a config file",
    )
    simulate.add_argument("config", help="JSON experiment config")
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")
    simulate.add_argument("--table", default=None, help="critical value table file")
    simulate.add_argument("--out", default=None, help="prefix for CSV outputs")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EstimationError, ValueError, KeyError, OSError) as exc:
        if isinstance(exc, OSError):
            # args[0] of an OSError is its errno; name the file and the reason
            message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
