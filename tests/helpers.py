"""Shared generators, reference oracles, a CLI runner, and the file-contract model's runs and fault plans.

The run oracle is the benchmark's: ``Reference`` and ``check_call`` from
``perfbench/check.py`` rebuild a CLI call's stdout and files from the input
pixels, and ``encode`` from ``perfbench/pgmfmt.py`` is the one PGM writer of
the tests. Neither imports ``bilevel``. The two references kept here,
``naive_class_mean`` and ``naive_plain_samples``, deliberately take the
dumbest possible route (filter the raw pixel list, one Python token at a
time) so they share no code path with the implementations they check.
"""

import builtins
import contextlib
import errno
import hashlib
import io
import os
import subprocess
import sys
from collections import namedtuple
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import bilevel.cli
import bilevel.pgm
from bilevel import GrayImage, PgmFormatError, SampleRangeError, TruncatedDataError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
PERFBENCH_DIR = SRC_DIR.with_name("perfbench")

# The benchmark's oracle, re-exported; check.py imports pgmfmt as a top-level module.
sys.path.append(str(PERFBENCH_DIR))
from check import Reference, check_call
from pgmfmt import encode

ERRNOS = (errno.EIO, errno.ENOSPC, errno.EACCES)
PROXIED = ("mkdir", "rmdir", "unlink", "replace", "lstat")
UNDOS = ("unlink", "rmdir")  # README's rollback unlinks files and removes directories, and does nothing else

# Digit runs past Python's default int/str conversion limit (4300 digits):
# read_pgm must refuse each with a PgmError, on any interpreter.
OVERLONG_DIGIT_INPUTS = {
    "sample": b"P2 1 1 255 " + b"9" * 5000,
    "width": b"P2 " + b"9" * 5000 + b" 1 255 0",
    "width-times-height": b"P5 " + b"9" * 4000 + b" " + b"9" * 4000 + b" 255 ",
    "maxval": b"P2 1 1 " + b"9" * 4400 + b" 0",
}


def image_of(values) -> GrayImage:
    """A one-row image of ``values``."""
    return GrayImage.from_flat(len(values), 1, values)


def random_gray_image(rng: np.random.Generator, max_side: int = 64) -> GrayImage:
    """Uniform random image with side lengths drawn from [1, max_side]."""
    height = int(rng.integers(1, max_side + 1))
    width = int(rng.integers(1, max_side + 1))
    return GrayImage(rng.integers(0, 256, size=(height, width), dtype=np.uint8))


def bimodal_gray_image(rng: np.random.Generator, max_side: int = 64) -> GrayImage:
    """Two noisy intensity clusters, the shape document scans tend to have."""
    height = int(rng.integers(1, max_side + 1))
    width = int(rng.integers(1, max_side + 1))
    low = int(rng.integers(0, 110))
    high = int(rng.integers(146, 256))
    sigma = float(rng.uniform(1.0, 20.0))
    foreground = rng.random((height, width)) < float(rng.uniform(0.1, 0.9))
    base = np.where(foreground, low, high).astype(np.float64)
    noisy = np.clip(np.rint(base + rng.normal(0.0, sigma, (height, width))), 0, 255)
    return GrayImage(noisy.astype(np.uint8))


def naive_class_mean(pixels, lo: int, hi: int):
    """Brute-force filter-and-average over the raw pixel list."""
    selected = [int(p) for p in np.asarray(pixels).reshape(-1) if lo <= p <= hi]
    if not selected:
        return None
    return sum(selected) / len(selected)


def naive_plain_samples(text: bytes, width: int, height: int) -> np.ndarray:
    """Reference P2 raster decoder: one Python token at a time.

    Strips ``#`` comments line by line, splits on whitespace, checks the
    token count, then each token with ``isdigit``, then each value, held as
    a Python ``int`` so no width limits it, against 255. Raises the same
    exception, with the same message, that ``read_pgm`` must raise.
    """
    if b"#" in text:
        text = b"\n".join(line.split(b"#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    expected = width * height
    if len(tokens) < expected:
        raise TruncatedDataError(expected, len(tokens))
    if len(tokens) > expected:
        raise PgmFormatError(f"surplus raster data: expected {expected} samples, found {len(tokens)}")
    for token in tokens:
        if not token.isdigit():
            raise PgmFormatError(f"invalid sample token {token.decode('ascii', 'replace')!r}")
    values = [int(token) for token in tokens]
    for value in values:
        if value > 255:
            raise SampleRangeError(f"sample value {value} exceeds maxval 255")
    return np.array(values, dtype=np.uint8).reshape(height, width)


def run_python(args, cwd=None, stdin=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Run ``python <args>`` in a subprocess with the source tree importable.

    Stderr is captured, and so is stdout unless ``stdout`` names another sink.
    """
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *map(str, args)],
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(args, cwd=None, stdin=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Invoke the CLI in a subprocess with the source tree importable."""
    return run_python(["-m", "bilevel", *args], cwd=cwd, stdin=stdin, stdout=stdout)


def snapshot(directory: Path) -> dict[str, tuple]:
    """Every entry under ``directory``: a symlink by its target, a file by its SHA-256.

    A listing of names alone cannot see a symlink that was replaced by a
    file of the same name. Symlinked directories are not descended into.
    """
    entries = {}
    for path in sorted(directory.rglob("*")):
        name = path.relative_to(directory).as_posix()
        if path.is_symlink():
            entries[name] = ("symlink", os.readlink(path))
        elif path.is_dir():
            entries[name] = ("dir",)
        else:
            entries[name] = ("file", hashlib.sha256(path.read_bytes()).hexdigest())
    return entries


# Eight pixels a row, so that with blocks of one row each body is two chunks.
IMAGE = GrayImage.from_flat(8, 2, [10, 20, 30, 40, 50, 60, 70, 80, 200, 210, 220, 230, 240, 250, 5, 255])


def entry(root: Path, path) -> str:
    """The snapshot name of the entry that ``path`` names: its directory resolved, its name kept."""
    full = root / path
    return (Path(os.path.realpath(full.parent)) / full.name).relative_to(root).as_posix()


class Run(NamedTuple):
    """One CLI run of the file-contract model: ``-i``, ``-o``, ``-m`` and the optional flags."""
    input: str
    output: str
    method: str = "mean"
    ascii: bool = False
    report: str | None = None
    histograms: str | None = None

    def argv(self) -> list[str]:
        flags = [("--report", self.report), ("--histograms", self.histograms)]
        return ["-i", self.input, "-o", self.output, "-m", self.method, *["--ascii"] * self.ascii,
                *[arg for flag, value in flags if value is not None for arg in (flag, value)]]

    def targets(self) -> list[str]:
        """Every path the run writes, named as README names them."""
        stem = self.output[:-4] if self.output.lower().endswith(".pgm") else self.output
        images = [f"{stem}.mean.pgm", f"{stem}.iter.pgm"] if self.method == "compare" else [self.output]
        csvs = [f"{self.histograms}/{Path(self.input).stem}.{kind}.csv" for kind in ("input", "output")]
        return [*images, *(csvs if self.histograms is not None else []), *[self.report] * (self.report is not None)]


class Plan(NamedTuple):
    """Which proxied calls fail, as ``Faults`` asks it, and which body chunk raises.

    The n-th call of a kind, as ``("replace", 2)``, fails with ``how``, and so may the m-th undo of a kind;
    or chunk ``chunk`` raises ``raises``: an ``OSError`` naming the chunk, or the bare class.
    """
    call: tuple[str, int] | None = None
    undo: tuple[str, int] | None = None
    how: int = errno.EIO
    chunk: int | None = None
    raises: type[BaseException] = OSError

    def __call__(self, name: str, count: int) -> int | None:
        """The errno that the ``count``-th call of ``name`` raises, or None."""
        return self.how if (name, count) in (self.call, self.undo) else None


class Faults:
    """``os`` and ``open`` for ``cli`` and ``pgm``: numbers each proxied call, failing those ``fail`` picks."""

    def __init__(self, fail: Callable[[str, int], int | None]):
        self.fail = fail  # (name, count of that name's calls so far) -> the errno to raise, or None
        self.calls: list[tuple[str, str]] = []
        self.fired: list[int] = []  # the numbers, from 1, of the calls made to fail

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in PROXIED:
            return real
        return lambda path, *args, **kwargs: self.call(name, real, path, *args, **kwargs)

    def open_file(self, file, *args, **kwargs):
        return self.call("open", builtins.open, file, *args, **kwargs)

    def call(self, name, real, path, *args, **kwargs):
        self.calls.append((name, os.fspath(path)))
        number = len(self.calls)
        how = self.fail(name, [other for other, _ in self.calls].count(name))
        if how:
            self.fired.append(number)
            raise OSError(how, f"injected at call {number}", os.fspath(path))
        return real(path, *args, **kwargs)

    def patch(self, patch) -> None:
        """Stand in for ``os`` and ``open`` in both modules while ``patch`` (a monkeypatch context) lasts."""
        for module in (bilevel.cli, bilevel.pgm):
            patch.setattr(module, "os", self)
            patch.setattr(module, "open", self.open_file, raising=False)


# A run's exit code (or what save_pgm raised or main let escape), stdout, stderr, every proxied call as (name, path),
# the numbers of those made to fail, the failure that started the rollback ("call k", "chunk k", the class a chunk
# raised, or None), what a failed undo may leave (its entry, the directories above it), and the body chunks drawn.
Outcome = namedtuple("Outcome", "result stdout stderr calls fired injected left chunks")


def execute(root: Path, call, plan: Plan = Plan()) -> Outcome:
    """Run ``call`` in ``root`` under ``plan``, with blocks of one ``IMAGE`` row."""
    proxy, drawn, real_body = Faults(plan), [], bilevel.pgm._pgm_body

    def body(*args):
        for chunk in real_body(*args):
            drawn.append(chunk)
            if len(drawn) == plan.chunk:
                raise OSError(errno.EIO, f"injected at chunk {plan.chunk}") if plan.raises is OSError else plan.raises
            yield chunk

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.chdir(root)
        proxy.patch(patch)
        patch.setattr(bilevel.pgm, "_pgm_body", body)
        for name in ("_BLOCK_PIXELS", "_SUB_BLOCK_PIXELS"):
            patch.setattr(bilevel.pgm, name, IMAGE.width)
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
        except (OSError, MemoryError, ValueError, KeyboardInterrupt) as exc:
            result = exc
    undos = [n for n in proxy.fired if proxy.calls[n - 1][0] in UNDOS]  # tried among the others, starting no rollback
    injected = f"call {proxy.fired[0]}" if proxy.fired[:1] != undos[:1] else None
    if plan.chunk and len(drawn) >= plan.chunk:
        injected = f"chunk {plan.chunk}" if plan.raises is OSError else plan.raises
    undone = [Path(entry(root, proxy.calls[n - 1][1])) for n in undos]
    left = {p.as_posix() for path in undone for p in (path, *path.parents[:-1])}
    return Outcome(result, out.getvalue(), err.getvalue(), proxy.calls, proxy.fired, injected, left, len(drawn))
