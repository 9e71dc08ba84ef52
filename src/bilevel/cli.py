"""Command-line front end: binarize a PGM with one or both threshold methods.

Exit codes are a stable contract: 0 success, 1 I/O failure, 2 malformed
input image, 3 bad arguments. On any failure no new output file is left
behind; every file is written to a temporary name first and renamed only
after all payloads are staged.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from .histogram import build_histogram
from .pgm import PgmError, read_pgm, write_pgm
from .report import RunReport, emit_histogram_csv, emit_report
from .threshold import (
    METHOD_ITERATIVE,
    METHOD_MEAN,
    binarize,
    binarized_histogram,
    select_iterative,
    select_mean,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_FORMAT = 2
EXIT_USAGE = 3

METHOD_COMPARE = "compare"

_EPILOG = """\
methods:
  mean        threshold at the global intensity mean
  iterative   refine the mean by averaging class means to a fixed point
  compare     run both; writes <output>.mean.pgm and <output>.iter.pgm
              (a trailing .pgm on OUTPUT is replaced) and requires --report

exit codes:
  0  success        1  I/O error        2  bad image format        3  bad arguments

One summary line per method is printed to stdout:
  <method> estimate=<e> optimum=<o> iterations=<n>
"""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # format errors and reports usage problems as 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bilevel",
        description="Binarize an 8-bit grayscale PGM image with a global threshold.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--input", "-i", required=True, help="input PGM file (P2 or P5)")
    parser.add_argument("--output", "-o", required=True, help="output PGM file for the binarized image")
    parser.add_argument(
        "--method",
        "-m",
        choices=[METHOD_MEAN, METHOD_ITERATIVE, METHOD_COMPARE],
        default=METHOD_COMPARE,
        help="threshold selection method (default: compare)",
    )
    parser.add_argument("--report", metavar="PATH", help="write a JSON run report to PATH")
    parser.add_argument(
        "--histograms",
        metavar="DIR",
        help="write input/output histogram CSVs into DIR (<input-stem>.input.csv / .output.csv)",
    )
    parser.add_argument(
        "--ascii", action="store_true", help="write plain-text P2 output instead of binary P5"
    )
    return parser


def _fmt(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def _suffixed(output: Path, tag: str) -> Path:
    name = output.name
    if name.lower().endswith(".pgm"):
        name = name[:-4]
    return output.with_name(f"{name}.{tag}.pgm")


def _reject_directory_targets(outputs: list[tuple[Path, bytes]]) -> None:
    # os.replace onto a directory fails only after earlier outputs are in
    # place, so refuse such a target before anything is written.
    for path, _ in outputs:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))


def _reject_colliding_targets(parser: argparse.ArgumentParser, paths: list[Path]) -> None:
    # Two payloads for one directory entry would be staged to one temp name,
    # and the second rename would fail after the first had put a wrong file
    # in place. Entries collide only when their names match, so the usual
    # run, with distinct names, skips resolve() and its lstat per component.
    names = [path.name for path in paths]
    if len(set(names)) == len(names):
        return
    seen = set()
    for path in paths:
        entry = (path.parent.resolve(), path.name)
        if entry in seen:
            parser.error(f"two outputs would be written to {path}")
        seen.add(entry)


def _stage_and_commit(outputs: list[tuple[Path, bytes]]) -> None:
    staged: list[tuple[Path, Path]] = []
    try:
        for path, payload in outputs:
            tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
            staged.append((tmp, path))
            tmp.write_bytes(payload)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError:
        # Temp files already renamed are gone; the rest must not be left behind.
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.method == METHOD_COMPARE and not args.report:
        parser.error("--method compare requires --report")

    output = Path(args.output)
    if args.method == METHOD_COMPARE:
        image_paths = {
            METHOD_MEAN: _suffixed(output, "mean"),
            METHOD_ITERATIVE: _suffixed(output, "iter"),
        }
    else:
        image_paths = {args.method: output}
    hist_input_path = hist_output_path = None
    if args.histograms:
        hist_dir = Path(args.histograms)
        stem = Path(args.input).stem
        hist_input_path = hist_dir / f"{stem}.input.csv"
        hist_output_path = hist_dir / f"{stem}.output.csv"
    report_path = Path(args.report) if args.report else None
    targets = [*image_paths.values(), hist_input_path, hist_output_path, report_path]
    _reject_colliding_targets(parser, [path for path in targets if path is not None])

    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"bilevel: error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        image = read_pgm(data)
    except PgmError as exc:
        print(f"bilevel: error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_FORMAT

    # The only pass that counts pixels: both selectors and both CSVs read it.
    hist = build_histogram(image)
    results = {}
    if args.method in (METHOD_MEAN, METHOD_COMPARE):
        results[METHOD_MEAN] = select_mean(hist)
    if args.method in (METHOD_ITERATIVE, METHOD_COMPARE):
        results[METHOD_ITERATIVE] = select_iterative(hist)

    flavor = "P2" if args.ascii else "P5"
    outputs = [
        (path, write_pgm(binarize(image, results[name].optimum), flavor))
        for name, path in image_paths.items()
    ]
    if args.histograms:
        # In compare mode the output histogram tracks the iterative result,
        # the run's refined threshold; the mean output is available via -m mean.
        reported = results.get(METHOD_ITERATIVE, results.get(METHOD_MEAN))
        outputs.append((hist_input_path, emit_histogram_csv(hist)))
        outputs.append(
            (hist_output_path, emit_histogram_csv(binarized_histogram(hist, reported.optimum)))
        )

    if report_path:
        report = RunReport(
            input_path=args.input,
            width=image.width,
            height=image.height,
            mean_result=results.get(METHOD_MEAN),
            iterative_result=results.get(METHOD_ITERATIVE),
            histogram_input_path=str(hist_input_path) if hist_input_path else None,
            histogram_output_path=str(hist_output_path) if hist_output_path else None,
        )
        outputs.append((report_path, emit_report(report)))

    try:
        _reject_directory_targets(outputs)
        if args.histograms:
            Path(args.histograms).mkdir(parents=True, exist_ok=True)
        _stage_and_commit(outputs)
    except OSError as exc:
        print(f"bilevel: error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    for name in (METHOD_MEAN, METHOD_ITERATIVE):
        res = results.get(name)
        if res is not None:
            print(
                f"{res.method} estimate={_fmt(res.estimate)} "
                f"optimum={_fmt(res.optimum)} iterations={len(res.iterations)}"
            )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
