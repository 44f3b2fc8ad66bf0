"""Command-line entry point.

Subcommands map one-to-one onto pipeline stages, plus ``pipeline`` to run
several in order.  Exit codes: 0 success, 2 bad parameters, 3 malformed
file, 4 missing stage input, 5 insufficient entropy or input bits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import pipeline
from .config import load_config
from .errors import (DependencyError, FormatError, InsufficientEntropyError,
                     InsufficientInputError, ParameterError, PhaseRngError,
                     SequenceLengthError)

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_FORMAT = 3
EXIT_DEPENDENCY = 4
EXIT_ENTROPY = 5

#: Error type -> exit code, matched in order against the raised error.
EXIT_CODES = (
    ((InsufficientEntropyError, InsufficientInputError), EXIT_ENTROPY),
    (DependencyError, EXIT_DEPENDENCY),
    (FormatError, EXIT_FORMAT),
    ((ParameterError, SequenceLengthError), EXIT_PARAMETER),
)


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
        sp.add_argument("--seed", type=int, default=None,
                        help="override the configured simulation seed")

    for name, help_text in pipeline.STAGES.items():
        sp = sub.add_parser(name, help=help_text)
        common(sp)
        if name == "ingest":
            sp.add_argument("--input", required=True, help="capture file to ingest")
            sp.add_argument("--format", choices=("binary", "csv"), default="binary")

    sp = sub.add_parser("pipeline", help="run several stages in order")
    common(sp)
    sp.add_argument("--stages",
                    default=",".join(s for s in pipeline.STAGES if s != "ingest"),
                    help="comma-separated subset of: " + ",".join(pipeline.STAGES))
    sp.add_argument("--input", default=None,
                    help="capture file (required when stages include ingest)")
    sp.add_argument("--format", choices=("binary", "csv"), default="binary")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "pipeline":
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    else:
        stages = [args.command]
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, simulation=replace(cfg.simulation, seed=args.seed))
        summary = pipeline.run_pipeline(
            cfg, stages, args.outdir,
            ingest_path=getattr(args, "input", None),
            ingest_format=getattr(args, "format", "binary"))
    except PhaseRngError as exc:
        code = next((c for types, c in EXIT_CODES if isinstance(exc, types)), None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error: cannot read or write {exc.filename!r}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_FORMAT
    print(json.dumps(summary, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
