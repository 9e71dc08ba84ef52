"""Golden corpus: the CLI's public bytes, pinned run by run.

Each case runs ``bilevel.cli.main`` in process, in a fresh directory that
holds only its input ``in.pgm``, and records the exit code, stdout, stderr
(the PID in temp-file names masked) and the SHA-256 of every file left in
the directory. ``tests/golden.json`` holds the recorded outcomes, so a
change to any output byte, message or exit code fails here.

The images are built by integer arithmetic, not a random generator, and
the input files by the plain writers below, so neither depends on the
library or on the numpy version. Rewrite the corpus only with a change
that means to alter public bytes, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import bilevel.cli
from helpers import snapshot

GOLDEN = Path(__file__).with_name("golden.json")


def _scrambled(rows: int, cols: int, salt: int) -> np.ndarray:
    """Well-spread bytes from a multiplicative hash of the pixel index."""
    index = np.arange(rows * cols, dtype=np.int64)
    return ((index * 2654435761 + salt) % (1 << 32) >> 24).astype(np.uint8).reshape(rows, cols)


def _images() -> dict[str, np.ndarray]:
    noise = _scrambled(48, 40, 7).astype(np.int64) % 33 - 16
    return {  # named rows x columns
        "1x1": np.array([[93]], np.uint8),
        "1x256": np.arange(256, dtype=np.uint8).reshape(1, 256),
        "256x1": np.arange(256, dtype=np.uint8)[::-1].reshape(256, 1),
        **{f"constant-{v}": np.full((12, 16), v, np.uint8) for v in (0, 7, 128, 255)},
        "0-255-only": np.where(_scrambled(20, 30, 1) > 160, 255, 0).astype(np.uint8),
        "adjacent": np.where(_scrambled(9, 11, 2) & 1, 101, 100).astype(np.uint8),
        "skewed": (_scrambled(30, 20, 3).astype(np.int64) ** 3 // 255**2).astype(np.uint8),
        "ramp": (np.add.outer(np.arange(32), np.arange(64)) * 255 // 94).astype(np.uint8),
        "fractional-mean": np.array([[10, 11, 254]], np.uint8),
        "bimodal": (np.where(_scrambled(48, 40, 5) > 100, 200, 40) + noise).astype(np.uint8),
        "257x301": _scrambled(257, 301, 4),
    }


def _plain(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    rows = "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist())
    return b"P2\n%d %d\n255\n" % (width, height) + rows.encode("ascii")


def _raw(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes()


# The six flag sets every image runs under; the last one takes the default method.
FLAG_SETS = {
    "mean": ["-m", "mean"],
    "iterative": ["-m", "iterative"],
    "compare-report": ["-m", "compare", "--report", "r.json"],
    "mean-report-csv": ["-m", "mean", "--report", "r.json", "--histograms", "h"],
    "iterative-ascii-csv": ["-m", "iterative", "--ascii", "--histograms", "h"],
    "compare-report-csv-ascii": ["--report", "r.json", "--histograms", "h", "--ascii"],
}

IO = ["-i", "in.pgm", "-o", "out.pgm"]
MEAN = [*IO, "-m", "mean"]
TINY = _raw(np.zeros((1, 2), np.uint8))

# name: (input bytes, argv, directory set-up or None)
CASES = {
    f"{image}-{flavor}-{flags}": (encode(pixels), [*IO, *argv], None)
    for image, pixels in _images().items()
    for flavor, encode in (("P2", _plain), ("P5", _raw))
    for flags, argv in FLAG_SETS.items()
}
CASES.update(
    {
        "bad-magic": (b"P6\n1 1\n255\n\0\0\0", MEAN, None),
        "unsupported-maxval": (b"P5\n1 1\n65535\n\0\0", MEAN, None),
        "truncated-P2": (b"P2\n2 2\n255\n0 1 2\n", MEAN, None),
        "truncated-P5": (b"P5\n2 2\n255\n\0\1\2", MEAN, None),
        "surplus-P2": (b"P2\n1 1\n255\n0 1\n", MEAN, None),
        "surplus-P5": (b"P5\n1 1\n255\n\0\1", MEAN, None),
        "blank-P2-raster-newline": (b"P2\n1 1\n255\n", MEAN, None),
        "blank-P2-raster-spaces": (b"P2\n2 1\n255 \t \r\n\n", MEAN, None),
        "blank-P2-raster-comment": (b"P2\n1 1\n255\n# nothing here\n", MEAN, None),
        "empty-P2-raster": (b"P2\n1 1\n255", MEAN, None),
        "bad-token-P2": (b"P2\n2 1\n255\n0 x1\n", MEAN, None),
        "truncated-and-bad-token-P2": (b"P2\n2 1\n255\n-1\n", MEAN, None),
        "surplus-and-bad-token-P2": (b"P2\n1 1\n255\n0 1.5\n", MEAN, None),
        "bad-token-and-range-P2": (b"P2\n2 1\n255\n999 +7\n", MEAN, None),
        "range-P2": (b"P2\n3 1\n255\n7 000300 99999999999999999999999\n", MEAN, None),
        "comments-and-padding-P2": (
            b"P2 # one\n3 # two\n1\n255# three\n007\t# four\n 255\r\n\x0b\x0c0000 #",
            MEAN,
            None,
        ),
        "huge-dimensions-P2": (b"P2\n100000 100000\n255\n0 1\n", MEAN, None),
        "huge-dimensions-P5": (b"P5\n100000 100000\n255\n\0", MEAN, None),
        "directory-target": (TINY, MEAN, lambda d: (d / "out.pgm").mkdir()),
        "colliding-outputs": (TINY, [*MEAN, "--report", "out.pgm"], None),
        "output-is-input": (TINY, ["-i", "in.pgm", "-o", "in.pgm", "-m", "mean"], None),
        "output-is-symlinked-input": (
            TINY,
            ["-i", "link.pgm", "-o", "in.pgm", "-m", "mean"],
            lambda d: (d / "link.pgm").symlink_to("in.pgm"),
        ),
        "compare-without-report": (TINY, IO, None),
    }
)


def run_case(case, directory: Path) -> dict:
    """Run one case in ``directory`` and return its outcome as stored in the corpus."""
    data, argv, setup = case
    (directory / "in.pgm").write_bytes(data)
    if setup is not None:
        setup(directory)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        # argparse wraps its usage line to the terminal width, read from COLUMNS.
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
            stdout
        ), contextlib.redirect_stderr(stderr):
            try:
                code = bilevel.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": re.sub(r"tmp-\d+", "tmp-PID", stderr.getvalue()),
        "files": {name: list(entry) for name, entry in snapshot(directory).items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_holds_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_corpus(name, golden, tmp_path):
    assert run_case(CASES[name], tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    outcomes = {}
    for name, case in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as directory:
            outcomes[name] = run_case(case, Path(directory))
    GOLDEN.write_text(json.dumps(outcomes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outcomes)} cases to {GOLDEN}")
