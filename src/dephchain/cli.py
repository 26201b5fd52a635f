"""Command-line entry point: one subcommand per experiment kind.

    dephchain <kind> [--config cfg.json] [--out DIR] [--override k=v ...]

Without ``--config`` the built-in desk-scale default for the kind is used;
``--dump-config`` prints the effective config instead of running. The exit
code is 1 when an invariant check fails, 2 for a config error (and for
nothing else) and 3 when the initial state never settles to a steady state.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    EXPERIMENT_KINDS,
    ConfigError,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    default_config,
)
from .experiments import run
from .lindblad import InvariantViolation, SteadyStateNotConverged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dephchain",
        description="Centrally dephased fermionic chain: figure-scale experiments.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        cmd = sub.add_parser(kind, help=f"run the {kind} experiment")
        cmd.add_argument("--config", help="JSON config file (default: built-in)")
        cmd.add_argument("--out", default=f"out/{kind}", help="output directory")
        cmd.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config field by dotted path (repeatable)",
        )
        cmd.add_argument(
            "--dump-config",
            action="store_true",
            help="print the effective config as JSON and exit",
        )
    return parser


def _effective_config(args):
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ConfigError("config: expected a JSON object")
        payload.setdefault("kind", args.kind)
        if payload["kind"] != args.kind:
            raise ConfigError(
                f"kind: config file says {payload['kind']!r} but the "
                f"subcommand is {args.kind!r}"
            )
    else:
        payload = config_to_dict(default_config(args.kind))
    if args.override:
        payload = apply_overrides(payload, args.override)
    return config_from_dict(payload)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        print(json.dumps(config_to_dict(config), indent=2, sort_keys=True))
        return 0
    try:
        result = run(config, out_dir=args.out)
    except SteadyStateNotConverged as exc:
        print(f"steady state not reached: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:      # a quench time "auto" that finds no maximum
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    status = "ok" if result.invariants_ok else "INVARIANT CHECKS FAILED"
    print(f"{config.kind}: {status}; outputs in {args.out}")
    for key, value in result.summary.get("checks", {}).items():
        print(f"  {key}: {value}")
    return 0 if result.invariants_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
