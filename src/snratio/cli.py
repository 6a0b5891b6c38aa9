"""Command-line front end: figure sweeps, curve dumps, and validation.

Subcommands
-----------
fig3      delivery probability with/without alignment vs popularity skew
fig4      effect of the database size on the delivery probability
fig5      alignment gain and its closed-form approximation
validate  cross-validation suite (closed forms vs the simulator)
ccdf      dump the shot-noise ratio CCDF curve
laplace   dump the shot-noise ratio Laplace-transform curve

Configuration comes from built-in defaults, overridden by an optional
``key=value`` config file (``--config``), overridden by explicit flags.
Exit codes: 0 success, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import ParameterDomainError, SeriesDivergenceError
from .experiments import (
    ExperimentConfig,
    check_figure3,
    check_figure4,
    check_figure5,
    parse_config_file,
    parse_number_list,
    run_ccdf_dump,
    run_figure3,
    run_figure4,
    run_figure5,
    run_laplace_dump,
    validate,
    write_csv,
    write_plot_script,
)

_CONFIG_ERROR = 2
_VALIDATION_ERROR = 1


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags win over it")
    parser.add_argument("--lambda", dest="helper_density", type=float,
                        help="helper density (points per unit area)")
    parser.add_argument("--alpha", action="append", type=float,
                        help="path-loss exponent; repeat for several")
    parser.add_argument("--n-files", dest="n_files", type=int, help="database size")
    parser.add_argument("--theta", type=float, help="SIR threshold for every file")
    parser.add_argument("--gamma-grid", dest="gamma_grid",
                        help="comma-separated popularity skew grid")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per sweep point")
    parser.add_argument("--batch-samples", dest="batch_samples", type=int,
                        help="fading samples for the expectation forms")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--tail-tol", dest="tail_tol", type=float,
                        help="tolerated standard deviation of the shot noise beyond each "
                             "window, as a fraction of the shot noise's stable scale")
    parser.add_argument("--mc-tol", dest="mc_tol", type=float,
                        help="absolute tolerance for the MC agreement check "
                             "(default: 3 standard errors)")
    parser.add_argument("--partitions", type=int,
                        help="worker threads: parallel partitions over trial chunks, and for "
                             "validate over its independent checks; no output depends on it")
    parser.add_argument("--mode", dest="sim_mode", choices=("exponential", "complex"),
                        help="fading representation used by the SIR simulator")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory")


#: Figure subcommands: help text, sweep, ``--validate`` check and what it
#: flags, then the plot script's group columns, x column and y column.
_FIGURES = {
    "fig3": ("delivery probability with/without alignment vs skew", run_figure3,
             check_figure3, "rows violate the bound ordering or the nearest-helper "
             "simulation is more than 3 standard errors off its closed form",
             ("alpha", "method"), "gamma", "p_total"),
    "fig4": ("effect of the number of files", run_figure4, check_figure4,
             "the simulation is more than 3 standard errors off the expectation form",
             ("alpha", "n_files", "method"), "gamma", "p_total"),
    "fig5": ("alignment gain and its approximation", run_figure5, check_figure5,
             "the approximation is off the simulated gain by more than 10%% and 3 "
             "standard errors, the gain is within 3 standard errors of 0, or it "
             "falls by more than 3 standard errors as the skew grows",
             ("alpha", "n_files"), "gamma", "sim_gain"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snratio",
        description="Shot-noise ratio analytics and their Monte Carlo validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _, _, flags, group_cols, _, _) in _FIGURES.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        p.add_argument("--validate", action="store_true",
                       help=f"fail (exit 1) when {flags}")
        if "n_files" in group_cols:  # the figure sweeps the database size
            p.add_argument("--n-files-list", dest="n_files_list",
                           help="comma-separated database sizes")

    p = sub.add_parser("validate", help="run the cross-validation suite")
    _add_common_flags(p)

    p = sub.add_parser("ccdf", help="dump the ratio CCDF curve")
    _add_common_flags(p)
    p.add_argument("--ratio", type=float, default=1.0,
                   help="density ratio lambda2/lambda1 (default 1)")
    p.add_argument("--x-grid", dest="x_grid",
                   help="comma-separated x values (default log grid 0.01..100)")

    p = sub.add_parser("laplace", help="dump the ratio Laplace-transform curve")
    _add_common_flags(p)
    p.add_argument("--ratio", type=float, default=0.1,
                   help="density ratio lambda2/lambda1 (default 0.1)")
    p.add_argument("--s-grid", dest="s_grid",
                   help="comma-separated s values (default log grid 0.1..1e6)")
    p.add_argument("--max-terms", dest="max_terms", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-12)
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the config file, then explicit flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    overrides = {
        "helper_density": args.helper_density,
        "n_files": args.n_files,
        "theta": args.theta,
        "trials": args.trials,
        "batch_samples": getattr(args, "batch_samples", None),
        "seed": args.seed,
        "tail_tol": args.tail_tol,
        "mc_tol": args.mc_tol,
        "partitions": args.partitions,
        "sim_mode": args.sim_mode,
        "out_dir": args.out_dir,
    }
    if args.alpha:
        overrides["alphas"] = tuple(args.alpha)
        overrides["fig5_alpha"] = args.alpha[0]
    if args.gamma_grid:
        overrides["gamma_grid"] = parse_number_list(args.gamma_grid)
    if getattr(args, "n_files_list", None):
        overrides[f"{args.command}_n_files"] = parse_number_list(args.n_files_list, int)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def _curve_grid(args: argparse.Namespace):
    """The x grid of ``ccdf`` or the s grid of ``laplace``; ``None`` for the other subcommands.

    Raises ``ValueError`` for a given grid that does not parse or holds no value.
    """
    if args.command == "ccdf":
        text, name, default = args.x_grid, "x_grid", np.geomspace(0.01, 100.0, 41)
    elif args.command == "laplace":
        text, name, default = args.s_grid, "s_grid", np.geomspace(0.1, 1e6, 36)
    else:
        return None
    if not text:
        return tuple(default)
    grid = parse_number_list(text)
    if not grid:
        raise ValueError(f"{name} must be nonempty")
    return grid


def _emit(config: ExperimentConfig, name: str, header, rows, group_cols, x_col, y_col) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{name}.csv")
    write_csv(csv_path, config.meta(), header, rows)
    write_plot_script(os.path.join(config.out_dir, f"{name}_plot.py"),
                      f"{name}.csv", group_cols, x_col, y_col)
    return csv_path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        grid = _curve_grid(args)
    except (ParameterDomainError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR

    try:
        if args.command in _FIGURES:
            _, run, check, _, group_cols, x_col, y_col = _FIGURES[args.command]
            header, rows = run(config)
            path = _emit(config, args.command, header, rows, group_cols, x_col, y_col)
            print(f"wrote {path} ({len(rows)} rows)")
            if args.validate:
                problems = check(rows)
                for problem in problems:
                    print(f"VALIDATION: {problem}", file=sys.stderr)
                if problems:
                    return _VALIDATION_ERROR
        elif args.command == "validate":
            ok, report = validate(config)
            os.makedirs(config.out_dir, exist_ok=True)
            report_path = os.path.join(config.out_dir, "validate_report.txt")
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report)
            print(report, end="")
            print(f"wrote {report_path}")
            return 0 if ok else _VALIDATION_ERROR
        elif args.command == "ccdf":
            alpha = (args.alpha or [4.0])[0]
            header, rows = run_ccdf_dump(alpha, args.ratio, grid)
            path = _emit(config, "ccdf", header, rows, (), "x", "ccdf")
            print(f"wrote {path} ({len(rows)} rows)")
        elif args.command == "laplace":
            alpha = (args.alpha or [4.0])[0]
            header, rows = run_laplace_dump(alpha, args.ratio, grid,
                                            max_terms=args.max_terms, tol=args.tol)
            path = _emit(config, "laplace", header, rows, (), "s", "laplace")
            print(f"wrote {path} ({len(rows)} rows)")
    except (ParameterDomainError, SeriesDivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _CONFIG_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
