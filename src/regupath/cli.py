"""Command-line front end: run / path / theory subcommands."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .experiments import (
    PRESETS,
    ConfigError,
    config_from_json,
    preset,
    run_experiment,
    run_theory_study,
    write_bundle,
    write_path,
    write_theory_report,
)
from .plots import emit_plots
from .rules import noise_level_problems
from .solver import DivergenceError, PathAborted


def _load_config(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"]) from exc
    return config_from_json(text)


def _check_out_dir(out_dir: Path) -> None:
    """Fail before any solve if ``out_dir`` cannot be made, creating nothing.

    Its nearest existing ancestor (itself included) must be a writable
    directory; ``exists`` is false below a regular file, so such a file is
    that ancestor.
    """
    base = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not base.is_dir():
        problem = "is not a directory"
    elif not os.access(base, os.W_OK | os.X_OK):
        problem = "is not writable"
    else:
        return
    raise ConfigError([f"cannot create output directory {str(out_dir)!r}: {str(base)!r} {problem}"])


def _make_out_dir(out_dir: Path) -> Path:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create output directory {str(out_dir)!r}: {exc}"]) from exc
    return out_dir


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
    common = argparse.ArgumentParser(add_help=False)
    source = common.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="JSON config file")
    source.add_argument("--preset", choices=tuple(PRESETS), help="a shipped study")
    common.add_argument("--seed", type=int, default=None, help="override the noise seed")
    common.add_argument("--out", default=None, help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[common], help="full experiment: path, rules, CSVs, plots")
    sub.add_parser("path", parents=[common], help="compute the alpha path only, no rule")
    theory_p = sub.add_parser("theory", parents=[common], help="shrinking-noise convergence study")
    theory_p.add_argument("--deltas", required=True, help="comma-separated decreasing noise levels")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = preset(args.preset) if args.preset else _load_config(args.config)
        if args.seed is not None:
            config.noise.seed = args.seed
        if args.out == "":
            raise ConfigError(["--out must be a nonempty directory path"])
        out_dir = Path(config.output_dir if args.out is None else args.out)
        _check_out_dir(out_dir)

        if args.command in ("run", "path"):
            bundle = run_experiment(config, apply_rules=(args.command == "run"))
            created = write_bundle(bundle, _make_out_dir(out_dir))
            if args.command == "run":
                created += emit_plots(bundle, out_dir)
            for path in created:
                print(path)
        else:
            report = run_theory_study(config, _parse_deltas(args.deltas))
            path = write_theory_report(report, _make_out_dir(out_dir) / "theory.csv")
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
        if isinstance(exc, PathAborted):
            if exc.partial is not None and args.command == "theory":
                print(write_theory_report(exc.partial, _make_out_dir(out_dir) / "theory.csv"))
            elif exc.partial is not None:
                for path in write_bundle(exc.partial, _make_out_dir(out_dir)):
                    print(path)
            if exc.records:
                print(write_path(exc.records, _make_out_dir(out_dir) / "path_aborted.csv"))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
