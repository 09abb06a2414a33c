"""Command-line entry point.

Subcommands mirror the pipeline stages: synth, identify, train, predict,
simulate, evaluate, e2e.  Failures emit a one-line machine-readable JSON
object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvsde",
        description="Stochastic PV power modelling from weather reports.")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")

    p = sub.add_parser("identify", help="fit per-hour parameters from PV")
    p.add_argument("--pv", required=True, help="PV CSV")
    p.add_argument("--out", required=True, help="parameter JSON")

    p = sub.add_parser("train", help="train the weather-to-parameter model")
    p.add_argument("--weather", required=True, help="weather CSV")
    p.add_argument("--params", required=True, help="identified parameters")
    p.add_argument("--out", required=True, help="model directory")

    p = sub.add_parser("predict", help="predict parameters from weather")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--weather", required=True, help="weather CSV")
    p.add_argument("--out", required=True, help="parameter JSON")

    p = sub.add_parser("simulate", help="simulate forecast fans")
    p.add_argument("--params", required=True, help="parameter JSON")
    p.add_argument("--pv", help="PV CSV supplying initial states")
    p.add_argument("--out", required=True, help="fan directory")

    p = sub.add_parser("evaluate", help="score fans against actual PV")
    p.add_argument("--fans", required=True, help="fan directory")
    p.add_argument("--pv", required=True, help="PV CSV")
    p.add_argument("--out", required=True, help="metrics JSON")

    p = sub.add_parser("e2e", help="full chain on a dataset directory")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    return parser


# each command's operands, as its ``pipeline.cmd_*`` takes them after cfg
_OPERANDS = dict(synth=("out",), identify=("pv", "out"),
                 train=("weather", "params", "out"),
                 predict=("model", "weather", "out"),
                 simulate=("params", "out", "pv"),
                 evaluate=("fans", "pv", "out"), e2e=("dataset", "out"))


def run(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed} if args.seed is not None else None
    cfg = pipeline.load_config(args.config, overrides)
    operands = [getattr(args, k) for k in _OPERANDS[args.command]]
    return getattr(pipeline, f"cmd_{args.command}")(cfg, *operands)


def main(argv=None) -> int:
    try:
        result = run(argv)
    except (OSError, ValueError, KeyError, RuntimeError,
            ArithmeticError) as exc:
        sys.stderr.write(json.dumps(
            dict(error=type(exc).__name__, message=str(exc))) + "\n")
        return 2
    json.dump(result, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
