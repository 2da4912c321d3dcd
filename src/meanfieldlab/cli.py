"""Command line entry point: run, validate, replot.

Exit codes: 0 success, 1 validation or usage error, 2 divergence, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DivergenceError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DIVERGENCE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="Particle approximation lab for mean-field diffusion equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file or manifest")
    p_run.add_argument("config", help="config file, or a manifest.jsonl to rerun")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")

    p_val = sub.add_parser("validate", help="validate a config file without running")
    p_val.add_argument("config")

    p_plot = sub.add_parser("replot", help="re-render an SVG from a result CSV")
    p_plot.add_argument("table", help="CSV table (x in the first column, y in the second)")
    p_plot.add_argument("kind", choices=["loglog", "loglinear", "timeseries"])
    p_plot.add_argument("--output", default=None, help="SVG path (default: table path + .svg)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # argparse's usage-error code 2 would read as a divergence
            return EXIT_VALIDATION
        raise
    from .runner import load_config_or_manifest, replot, run

    try:
        if args.command == "validate":
            load_config_or_manifest(args.config)
            print(f"{args.config}: valid")
            return EXIT_OK
        if args.command == "run":
            cfg = load_config_or_manifest(args.config)
            manifest = run(cfg, output_dir=args.output_dir, seed=args.seed)
            for path in sorted(manifest.files):
                print(path)
            return EXIT_OK
        if args.command == "replot":
            svg = replot(args.table, args.kind)
            out = args.output or args.table + ".svg"
            with open(out, "w", newline="") as fh:
                fh.write(svg)
            print(out)
            return EXIT_OK
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
