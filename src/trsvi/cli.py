"""Command-line experiment runner.

Verbs:
    generate          build a problem (and ground truth) from a config
    run               run a full configured experiment into an artifact dir
    evaluate          (re)compute the MMD report for an artifact directory
    export-marginals  extract per-factor columns from a sample CSV
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, check_seed, validate_config
from .experiment import (
    evaluate_artifact,
    export_marginals,
    load_config,
    run_experiment,
    write_problem,
)
from .model import dump_yaml


def _cmd_generate(args) -> int:
    config = validate_config(load_config(args.config))
    if args.seed is not None:
        if config["problem"]["kind"] == "file":
            raise ConfigError("--seed: a problem of kind file is read, not "
                              "generated, so it takes no seed")
        config["problem"]["seed"] = check_seed(args.seed, "--seed")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_problem(config, out)
    print(f"wrote problem spec to {out / 'problem.yaml'}")
    return 0


def _cmd_run(args) -> int:
    artifact = run_experiment(
        args.config, args.output_dir, seed_override=args.seed,
        workers=args.workers,
    )
    print(f"artifact directory: {artifact}")
    return 0


def _cmd_evaluate(args) -> int:
    report = evaluate_artifact(args.artifact)
    print(dump_yaml(report), end="")
    return 0


def _cmd_export_marginals(args) -> int:
    paths = export_marginals(args.samples, args.problem, args.factors,
                             args.output_dir)
    for p in paths:
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trsvi",
        description="Trust-region Stein variational inference experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a problem and ground truth")
    gen.add_argument("--config", required=True, help="experiment config YAML")
    gen.add_argument("--output-dir", required=True)
    gen.add_argument("--seed", type=int, default=None,
                     help="override the problem generation seed")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True, help="experiment config YAML")
    run.add_argument("--output-dir", required=True,
                     help="fresh artifact directory to create")
    run.add_argument("--seed", type=int, default=None,
                     help="run a single seed instead of the configured list")
    run.add_argument("--workers", type=int, default=1,
                     help="concurrent (method, seed) runs")
    run.set_defaults(func=_cmd_run)

    ev = sub.add_parser("evaluate", help="recompute metrics for an artifact")
    ev.add_argument("--artifact", required=True, help="artifact directory")
    ev.set_defaults(func=_cmd_evaluate)

    ex = sub.add_parser("export-marginals",
                        help="extract per-factor sample columns")
    ex.add_argument("--samples", required=True, help="sample CSV file")
    ex.add_argument("--problem", required=True, help="problem spec YAML")
    ex.add_argument("--factors", required=True, type=int, nargs="+")
    ex.add_argument("--output-dir", required=True)
    ex.set_defaults(func=_cmd_export_marginals)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
