"""Command-line entry point.

Subcommands map one-to-one onto pipeline stages, plus ``pipeline`` to run
several in order; ``ingest`` takes a capture's format from its first bytes.
Exit codes: 0 on success; a ``PhaseRngError`` exits with the ``exit_code``
its class carries (see :mod:`phaserng.errors`), an ``OSError`` with
``FormatError``'s.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import pipeline
from .config import load_config
from .errors import FormatError, PhaseRngError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaserng",
        description="Software twin of a delay-interferometer phase-noise "
                    "random number generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-c", "--config", required=True,
                        help="experiment configuration (INI)")
        sp.add_argument("-o", "--outdir", required=True,
                        help="artifact directory")

    for name, help_text in pipeline.STAGES.items():
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        if name == "ingest":
            sp.add_argument("--input", required=True, help="capture file to ingest")

    sp = sub.add_parser("pipeline", help="run several stages in order")
    common(sp)
    sp.add_argument("--stages",
                    default=",".join(s for s in pipeline.STAGES if s != "ingest"),
                    help="comma-separated subset of: " + ",".join(pipeline.STAGES))
    sp.add_argument("--input", default=None,
                    help="capture file (required when stages include ingest)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "pipeline":
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    else:
        stages = [args.command]
    try:
        summary = pipeline.run_pipeline(
            load_config(args.config), stages, args.outdir,
            ingest_path=getattr(args, "input", None))
    except PhaseRngError as exc:
        if not hasattr(type(exc), "exit_code"):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return type(exc).exit_code
    except OSError as exc:
        print(f"error: cannot read or write {exc.filename!r}: {exc.strerror}",
              file=sys.stderr)
        return FormatError.exit_code
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
