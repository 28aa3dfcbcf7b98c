"""Command-line frontend.

Subcommands: op, smallsignal, sar, mc, infer, energy.
Exit codes: 0 success, 2 config error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import MAX_COUNT, load_config, parse_config
from .crossbar import SingularNetworkError
from .experiments import ExperimentKind, run_experiment
from .neuron import SolverError
from .reports import ReportFormat, UnsupportedFormatError, emit_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _int_in(lo: int, hi: float = math.inf):
    """An argparse type: an integer in [lo, hi], so that a bad value names its flag."""
    def integer(text: str) -> int:
        n = int(text)  # a ValueError here: argparse reports "invalid integer value"
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        if n > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {text}")
        return n
    return integer


def _global_flags(suppress_defaults: bool) -> argparse.ArgumentParser:
    # the same flags are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber already-parsed values
    d = argparse.SUPPRESS if suppress_defaults else None
    flags = argparse.ArgumentParser(add_help=False, argument_default=d)
    flags.add_argument("--config", metavar="PATH", help="configuration file (JSON tree "
                       "with engineering-suffix literals); defaults to the reference preset")
    flags.add_argument("--seed", type=_int_in(0), metavar="U64",
                       help="override the top-level seed")
    flags.add_argument("--out", metavar="PATH", help="write the report here (default stdout)")
    flags.add_argument("--format", choices=[f.value for f in ReportFormat],
                       help="report format (default: config output.format)")
    flags.add_argument("--runs", type=_int_in(2, MAX_COUNT), metavar="N",
                       help="override mc.runs")
    flags.add_argument("--verbose", action="store_true",
                       default=argparse.SUPPRESS if suppress_defaults else False)
    return flags


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xbarsim", parents=[_global_flags(False)],
        description="Behavioral simulator for memristor-crossbar networks with "
                    "regulated-cascode current-mode neurons and SAR calibration.")
    sub = ap.add_subparsers(dest="command", required=True)
    for kind in ExperimentKind:
        sub.add_parser(kind.value, parents=[_global_flags(True)],
                       help=f"run the {kind.value} experiment")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = parse_config("{}")
    except (ValueError, RecursionError) as e:
        # a ConfigError, or text json refuses: not UTF-8, too deep, a 4301-digit int
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    kind = ExperimentKind(args.command)
    fmt = ReportFormat(args.format or cfg["output"]["format"])
    try:
        record = run_experiment(cfg, kind, seed=args.seed, runs=args.runs)
        blob = emit_report(record, fmt)
    except UnsupportedFormatError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SingularNetworkError) as e:
        print(f"solver failure ({kind.value}): {e}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as e:
        # domain-object invariant violations surface as config errors
        print(f"config error ({kind.value}): {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    out = args.out or cfg["output"]["path"]
    try:
        if out:
            Path(out).write_bytes(blob)
            if args.verbose:
                print(f"wrote {len(blob)} bytes to {out}", file=sys.stderr)
        else:
            sys.stdout.buffer.write(blob)
            sys.stdout.flush()
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
