"""Command-line front end: run / path / theory subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    ConfigError,
    config_from_json,
    run_experiment,
    run_theory_study,
    write_bundle,
    write_theory_report,
)
from .plots import emit_plots
from .rules import noise_level_problems
from .solver import DivergenceError, PathAborted


def _max_workers() -> int:
    raw = os.environ.get("REGUPATH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    return config_from_json(text)


def _parse_deltas(raw: str):
    try:
        deltas = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError([f"invalid --deltas list {raw!r}: {exc}"]) from exc
    problems = [f"--deltas: {p}" for p in noise_level_problems(deltas)]
    if problems:
        raise ConfigError(problems)
    return deltas


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regupath",
        description="Variational regularization with a data-driven parameter choice rule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full experiment: path, rules, CSVs, plots")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed", type=int, default=None, help="override the noise seed")
    run_p.add_argument("--out", default=None, help="override the output directory")

    path_p = sub.add_parser("path", help="compute the alpha path only, no rule")
    path_p.add_argument("--config", required=True)
    path_p.add_argument("--seed", type=int, default=None)
    path_p.add_argument("--out", default=None)

    theory_p = sub.add_parser("theory", help="shrinking-noise convergence study")
    theory_p.add_argument("--config", required=True)
    theory_p.add_argument("--deltas", required=True, help="comma-separated decreasing noise levels")
    theory_p.add_argument("--seed", type=int, default=None)
    theory_p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.seed is not None:
            config.noise.seed = args.seed
        out_dir = Path(args.out) if args.out else Path(config.output_dir)

        if args.command in ("run", "path"):
            bundle = run_experiment(
                config, apply_rules=(args.command == "run"), max_workers=_max_workers()
            )
            created = write_bundle(bundle, out_dir)
            if args.command == "run":
                created += emit_plots(bundle, out_dir)
            for path in created:
                print(path)
        else:
            report = run_theory_study(config, _parse_deltas(args.deltas), _max_workers())
            path = write_theory_report(report, out_dir / "theory.csv")
            print(path)
            for row in report.convergence_table:
                print(
                    f"delta={row.delta:.6g} alpha*={row.alpha_star:.6g} "
                    f"theta*={row.theta_star:.6g} bregman={row.bregman:.6g}"
                )
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (PathAborted, DivergenceError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
