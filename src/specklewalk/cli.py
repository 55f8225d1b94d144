"""Command line entry point: ``specklewalk <scenario> --config <path>``."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .harness import SCENARIO_FILES, SCENARIOS, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specklewalk",
        description="Seeded simulator of single-photon wavefront shaping through a scattering medium.",
    )
    sub = parser.add_subparsers(dest="scenario", required=True, metavar="{" + ",".join(SCENARIOS) + "}")
    for name in SCENARIOS:
        runner = sub.add_parser(name, help=f"run the {name} scenario, which writes {', '.join(SCENARIO_FILES[name])}")
        runner.add_argument("--config", required=True, help="INI configuration file")
        runner.add_argument("--seed", type=int, default=None, help="override the master seed")
        runner.add_argument("--out", default=None, help="output directory, which must exist (default: out)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, scenario=args.scenario, seed=args.seed, output_dir=args.out)
        report = run(cfg)
        print(f"{cfg.scenario}: ok seed={cfg.seed} out={cfg.output_dir} wall_time={report.wall_time:.3f}s")
        for key in ("focused_fraction", "visibility", "concurrence", "confidence", "total_counts"):
            value = _lookup(report.result, key)
            if value is not None:
                print(f"  {key} = {value}")
        sys.stdout.flush()  # a closed pipe raises here, inside the try, not at exit
    except BrokenPipeError:  # stdout closed early, as by `| head -1`: exit 1 without a traceback (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit cannot raise again
        return 1
    except Exception as exc:  # single machine-parsable failure line
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _lookup(result: dict, key: str):
    if key in result:
        return result[key]
    for value in result.values():
        if isinstance(value, dict) and key in value:
            return value[key]
    return None


if __name__ == "__main__":
    raise SystemExit(main())
