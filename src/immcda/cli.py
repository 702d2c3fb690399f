"""Command line front end.

Three subcommands:

``run``
    simulate one episode and write its trace CSV
``monte-carlo``
    run a batch of episodes and write an aggregate summary JSON
``check``
    run the built-in invariant self-tests

Option precedence is defaults < config file < IMM_CDA_SEED < flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .checks import run_all_checks
from .scenario import run_episode, run_monte_carlo
from .traceio import (
    load_config,
    make_manifest,
    write_episode_csv,
    write_summary_json,
)


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sub.add_argument("--dt", type=float, default=None, help="step length in seconds")
    sub.add_argument("--steps", type=int, default=None, help="steps per episode")
    sub.add_argument(
        "--r-safe", type=float, default=None, dest="r_safe",
        help="safety radius in meters",
    )
    sub.add_argument(
        "--disable-cda", action="store_true", default=None, dest="disable_cda",
        help="turn conflict detection and avoidance off",
    )
    sub.add_argument(
        "--threshold", type=float, default=None,
        help="minimum mode probability before the mode label switches",
    )
    sub.add_argument(
        "--out-dir", default=".", dest="out_dir", help="output directory",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immcda",
        description="Aircraft tracking and conflict avoidance simulator.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_p = subparsers.add_parser("run", help="simulate a single episode")
    _add_common_options(run_p)

    mc_p = subparsers.add_parser("monte-carlo", help="simulate a batch of episodes")
    _add_common_options(mc_p)
    mc_p.add_argument(
        "--episodes", type=int, default=15, help="number of episodes (default 15)"
    )
    mc_p.add_argument(
        "--emit-traces", action="store_true", dest="emit_traces",
        help="also write one CSV per episode",
    )

    # check runs fixed self-tests, so it takes no simulation options
    subparsers.add_parser("check", help="run invariant self-tests")

    return parser


def _config_from_args(args: argparse.Namespace):
    overrides = {
        "seed": args.seed,
        "dt": args.dt,
        "steps": args.steps,
        "r_safe": args.r_safe,
        "cda_enabled": False if args.disable_cda else None,
        "mode_threshold": args.threshold,
    }
    return load_config(args.config, overrides=overrides)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    trace = run_episode(config)
    os.makedirs(args.out_dir, exist_ok=True)
    out_path = os.path.join(args.out_dir, f"episode_{config.seed}.csv")
    write_episode_csv(trace, out_path)
    metrics = trace.metrics()
    print(
        f"seed={config.seed} steps={config.steps} "
        f"min_separation={metrics.min_separation:.1f} "
        f"breached={'yes' if metrics.breached else 'no'} "
        f"advisories={metrics.advisory_count} -> {out_path}"
    )
    return 0


def _cmd_monte_carlo(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise ValueError("--episodes must be at least 1")
    config = _config_from_args(args)
    result = run_monte_carlo(config, args.episodes, keep_traces=args.emit_traces)
    os.makedirs(args.out_dir, exist_ok=True)

    outputs = []
    summary_path = os.path.join(args.out_dir, "summary.json")
    outputs.append(summary_path)
    if args.emit_traces:
        for trace in result.traces:
            csv_path = os.path.join(
                args.out_dir, f"episode_{trace.config.seed}.csv"
            )
            write_episode_csv(trace, csv_path)
            outputs.append(csv_path)

    manifest = make_manifest(config, result.seeds, outputs)
    write_summary_json(result, manifest, summary_path)
    print(
        f"episodes={result.n_episodes} "
        f"breach_fraction={result.breach_fraction:.3f} "
        f"min_separation_mean={result.min_separation_mean:.1f} "
        f"rmse_est={result.rmse_position_est:.2f} -> {summary_path}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    return 0 if run_all_checks() else 1


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "monte-carlo": _cmd_monte_carlo,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
