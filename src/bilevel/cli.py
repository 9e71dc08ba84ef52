"""Command-line front end: binarize a PGM with one or both threshold methods.

Exit codes are a stable contract: 0 success, 1 I/O failure, 2 malformed
input image, 3 bad arguments. Running out of memory while reading,
decoding, counting or staging is an I/O failure too, reported as
``bilevel: error: <input>: out of memory``; exits 1 and 2 print one line
to stderr. On any failure no new output file is left behind: every file
is staged by ``pgm._stage_and_commit``, which first refuses a directory at
any target (exit 1), then writes each payload to a temporary name and
renames them only after all are staged, as ``pgm.save_pgm`` writes its
one file. The temporary name of ``DIR/NAME`` is ``DIR/.NAME.tmp-<pid>``,
created exclusively: when any entry already has that name, a symlink
included, the run fails with exit 1 and never writes through, follows or
removes it, nor tries another name. One left by a killed run with the same
process ID must be removed by hand. On failure every effect of the commit
is undone, each undo tried even when another fails, and the error that
started the rollback is the one reported.

A payload is the iterable of chunks written to its file. The histogram
CSVs and the report are bytes, made with the list of outputs. A binary
output is ``pgm._pgm_file`` of the input's pixels given the threshold's
split level: the header, then lazy body chunks that encode the binary image
block by block. It runs only while its temporary file is written and never
exists as a whole image, each block being written before the next is made.
So a run holds the input buffer and at most one block of one output, and
the header and blocks of a PGM go to the file as separate chunks, never
joined.

An input that is a regular file of 1 MiB or more is mapped by
``pgm._read_input``, not copied, and a P5 image is a view of the map. Such
an input must not be truncated or rewritten in place during a run;
replacing it by a rename is safe. A truncation kills the run with
``SIGBUS``, as ``SIGKILL`` would: no target is created or replaced, but
temporary files may remain.

This module keeps the argument handling, the check of the targets'
names against the input and each other, and the summary. The argument
parser is built once per process, on the first call of ``main``, and
reused by every later call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from .histogram import build_histogram
from .pgm import PgmError, _decode_pgm, _pgm_file, _read_input, _stage_and_commit
from .report import RunReport, emit_histogram_csv, emit_report
from .threshold import (
    METHOD_ITERATIVE,
    METHOD_MEAN,
    _split_level,
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

# Each single method: its selector, and its output tag in compare mode.
_METHODS = {METHOD_MEAN: (select_mean, "mean"), METHOD_ITERATIVE: (select_iterative, "iter")}

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


# parse_args and error leave the parser as they found it, and the help
# formatter reads the terminal width each time it runs, so one parser
# serves every call.
@functools.cache
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
        choices=[*_METHODS, METHOD_COMPARE],
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
    stem = output.name[:-4] if output.name.lower().endswith(".pgm") else output.name
    return output.with_name(f"{stem}.{tag}.pgm")


def _refuse_colliding_targets(parser: argparse.ArgumentParser, input_path: str, paths: list[Path]) -> None:
    """Refuse two outputs for one directory entry, and an output onto the input's entry.

    Two payloads for one entry would be staged to one temp name, and a
    payload renamed onto the input's entry would replace the input: both
    are usage errors. The input is its entry as named and, when that entry
    is a symlink, the entry it resolves to. A hard link to the input shares
    its inode but not its entry, and replacing it leaves the input intact,
    so it is allowed. An entry is its directory resolved and its name, and
    entries collide only when their names match, so a path with a unique
    name skips resolve() and its lstat per component.
    """
    source = Path(input_path)
    inputs = (source, Path(os.path.realpath(source))) if source.is_symlink() else (source,)
    named = (*inputs, *paths)
    names = [path.name for path in named]
    claimed: dict[tuple[Path, str], int] = {}
    for n, path in enumerate(named):
        if names.count(path.name) > 1:
            first = claimed.setdefault((path.parent.resolve(), path.name), n)
            if first != n and first < len(inputs):
                parser.error(f"output {path} would overwrite the input")
            if first != n:
                parser.error(f"two outputs would be written to {path}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except MemoryError:
        # When payloads were being staged, _stage_and_commit has rolled back.
        print(f"bilevel: error: {args.input}: out of memory", file=sys.stderr)
        return EXIT_IO


def _run(args: argparse.Namespace) -> int:
    parser = _build_parser()
    if args.method == METHOD_COMPARE and args.report is None:
        parser.error("--method compare requires --report")

    hist_dir = Path(args.histograms) if args.histograms is not None else None
    stem = Path(args.input).stem
    hist_input_path = hist_dir and hist_dir / f"{stem}.input.csv"
    hist_output_path = hist_dir and hist_dir / f"{stem}.output.csv"

    try:
        with open(args.input, "rb") as fh:
            data = _read_input(fh, os.fstat(fh.fileno()))
    except OSError as exc:
        print(f"bilevel: error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        image = _decode_pgm(data)
    except PgmError as exc:
        print(f"bilevel: error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_FORMAT

    # The only pass that counts pixels: both selectors and both CSVs read it.
    hist = build_histogram(image)
    results = {m: select(hist) for m, (select, _) in _METHODS.items() if args.method in (m, METHOD_COMPARE)}

    output = Path(args.output)
    if args.method == METHOD_COMPARE and output.name in ("", ".."):
        parser.error(f"output {args.output!r} has no file name for the compare outputs")
    flavor = "P2" if args.ascii else "P5"
    outputs = [
        (_suffixed(output, _METHODS[name][1]) if args.method == METHOD_COMPARE else output,
         _pgm_file(image.pixels, flavor, _split_level(res.optimum)))
        for name, res in results.items()
    ]
    if hist_dir is not None:
        # In compare mode the output histogram tracks the iterative result,
        # the run's refined threshold; the mean output is available via -m mean.
        reported = results.get(METHOD_ITERATIVE, results.get(METHOD_MEAN))
        binarized = binarized_histogram(hist, reported.optimum)
        outputs.append((hist_input_path, (emit_histogram_csv(hist),)))
        outputs.append((hist_output_path, (emit_histogram_csv(binarized),)))

    if args.report is not None:
        report = RunReport(
            input_path=args.input,
            width=image.width,
            height=image.height,
            mean_result=results.get(METHOD_MEAN),
            iterative_result=results.get(METHOD_ITERATIVE),
            histogram_input_path=str(hist_input_path) if hist_input_path else None,
            histogram_output_path=str(hist_output_path) if hist_output_path else None,
        )
        outputs.append((Path(args.report), (emit_report(report),)))

    try:
        _refuse_colliding_targets(parser, args.input, [path for path, _ in outputs])
        _stage_and_commit(outputs, hist_dir)
    except OSError as exc:
        print(f"bilevel: error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_IO

    summary = "".join(
        f"{res.method} estimate={_fmt(res.estimate)} "
        f"optimum={_fmt(res.optimum)} iterations={len(res.iterations)}\n"
        for res in results.values()
    )
    try:
        sys.stdout.write(summary)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader is gone; the committed outputs stay. Unflushed lines
        # would fail again at shutdown, so they go to /dev/null instead.
        with contextlib.suppress(OSError, ValueError):
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        print(f"bilevel: error: cannot write summary: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
