"""Command-line entry point.

Exit codes: 0 success, 1 comparison tolerance breach, 2 configuration,
tolerance or output-path error (checked before integrating where
possible), 3 numeric failure during integration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .quantum import NumericFailure
from .scenario import (
    DEFAULT_TOLERANCE,
    METHODS,
    ConfigError,
    compare,
    emit_csv,
    load_scenario,
    run,
)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpdyn",
        description=(
            "Simulate N-level quantum dynamics and its exact classical "
            "equivalent on complex projective space, and compare the two."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario and write CSV samples")
    p_sim.add_argument("--config", required=True, help="scenario JSON file")
    p_sim.add_argument(
        "--method",
        choices=METHODS,
        default="both",
        help="which evolution(s) to run (default: both)",
    )
    p_sim.add_argument("--out", required=True, help="output CSV path")

    p_cmp = sub.add_parser(
        "compare", help="run both methods and check quantum/classical agreement"
    )
    p_cmp.add_argument("--config", required=True, help="scenario JSON file")
    p_cmp.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="maximum allowed deviation, finite and > 0 (default: "
        f"{np.format_float_scientific(DEFAULT_TOLERANCE, trim='-', exp_digits=1)})",
    )
    p_cmp.add_argument("--report", help="optional JSON report output path")

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    p_val.add_argument("--config", required=True, help="scenario JSON file")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None) or getattr(args, "report", None)
    try:
        config = load_scenario(args.config)
        if out is not None and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"output directory {Path(out).parent} does not exist")
        if out is not None and Path(out).is_dir():
            raise IsADirectoryError(f"output path {out} is a directory")

        if args.command == "validate":
            print(f"ok: {args.config} ({config.name}, N={config.dimension})")
            return EXIT_OK

        if args.command == "simulate":
            result = run(config, method=args.method)
            emit_csv(result, args.out)
            print(f"wrote {args.out} ({len(result.times)} samples)")
            return EXIT_OK

        if args.command == "compare":
            report = compare(config, tolerance=args.tolerance)
            for line in report.summary_lines():
                print(line)
            if args.report:
                Path(args.report).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
                print(f"report written to {args.report}")
            return EXIT_OK if report.passed else EXIT_TOLERANCE
    except (ConfigError, OSError) as exc:
        # scenario files are read inside load_scenario, so an OSError here
        # comes from the output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
