"""Shared generators, naive reference oracles, and a CLI runner for the tests.

The naive oracles deliberately take the dumbest possible route (filter the
raw pixel list, Python-int accumulation) so they share no code path with
the histogram-driven implementations they check.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bilevel import GrayImage, PgmFormatError, SampleRangeError, TruncatedDataError

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


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


def naive_mean(pixels) -> float:
    """Direct pass over the pixel list: exact integer sum, one division."""
    flat = [int(p) for p in np.asarray(pixels).reshape(-1)]
    return sum(flat) / len(flat)


def naive_class_mean(pixels, lo: int, hi: int):
    """Brute-force filter-and-average over the raw pixel list."""
    selected = [int(p) for p in np.asarray(pixels).reshape(-1) if lo <= p <= hi]
    if not selected:
        return None
    return sum(selected) / len(selected)


def naive_fixed_points(pixels) -> set[int]:
    """Integer thresholds whose class-mean midpoint lies within 1 of them."""
    flat = [int(p) for p in np.asarray(pixels).reshape(-1)]
    hits = set()
    for t in range(255):
        low = [p for p in flat if p <= t]
        high = [p for p in flat if p > t]
        if low and high:
            midpoint = (sum(low) / len(low) + sum(high) / len(high)) / 2.0
            if abs(t - midpoint) < 1.0:
                hits.add(t)
    return hits


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


def run_cli(args, cwd=None) -> subprocess.CompletedProcess:
    """Invoke the CLI in a subprocess with the source tree importable."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "bilevel", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
