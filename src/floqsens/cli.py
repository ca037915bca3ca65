"""Command-line front end: trace / map / spectrum / dips.

Exit codes: 0 success, 2 configuration or file error (including an
output directory that cannot be created or written), 3
numerical-consistency error, 4 capacity error.  Each failure is reported
as one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_config
from .errors import CapacityError, NumericalConsistencyError, ValidationError
from .scans import run_dips, run_map, run_spectrum, run_trace


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    An argparse parser is a web of reference cycles: one per ``main`` call
    would leave about 220 objects per command to the cyclic garbage
    collector, whose passes then land inside later commands of a
    long-lived process.
    """
    parser = argparse.ArgumentParser(
        prog="floqsens",
        description="Floquet-spectroscopy scans for pulsed quantum sensing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("trace", "1-D coherence/envelope trace over tau"),
            ("map", "2-D decoherence map over (field, tau)"),
            ("spectrum", "cell eigenphase trajectories over tau"),
            ("dips", "dip report: located dips and analytic estimates")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON scan configuration")
        cmd.add_argument("--output", default=".", help="output directory")
        cmd.add_argument("--format", choices=("csv", "pgm", "both"),
                         help="override output format (maps only)")
        cmd.add_argument("--quantity", choices=("coherence", "envelope"),
                         help="override plotted quantity (maps only)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; has no effect")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.format or args.quantity:
            output = cfg.output._replace(
                **({"format": args.format} if args.format else {}),
                **({"quantity": args.quantity} if args.quantity else {}))
            cfg = cfg._replace(output=output)
        outdir = Path(args.output)
        if args.command == "trace":
            files = run_trace(cfg, outdir)
        elif args.command == "map":
            files = run_map(cfg, outdir)
        elif args.command == "spectrum":
            files = run_spectrum(cfg, outdir)
        else:
            files = run_dips(cfg, outdir)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalConsistencyError as exc:
        print(f"numerical-consistency error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
