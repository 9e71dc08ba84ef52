"""256-bin intensity histograms and the means derived from them.

Every threshold procedure in this library consumes a histogram rather than
re-scanning pixels, so the histogram is the sufficient statistic for all
derived values. Sums are accumulated in exact 64-bit integer arithmetic
with a single final division, which keeps results independent of pixel
order and bit-identical to a direct pass over the image. A histogram whose
total or intensity-weighted sum would not fit in 64 bits is refused.

Pixels are counted with ``np.bincount`` in fixed slices. A large image is
counted in pixel pairs: its bytes are viewed as ``np.uint16``, so one
``bincount`` element covers two pixels, and the 65536-bin pair table is
folded back to 256 bins. Each pair adds one count to the bin of each of its
two pixels, so summing the table along both axes is exact whatever the
byte order; an odd last pixel is counted on its own.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .image import BinaryImage, GrayImage, _frozen

__all__ = [
    "Histogram",
    "EmptyInputError",
    "build_histogram",
    "global_mean",
    "class_mean",
]

BIN_COUNT = 256

# Elements per np.bincount call: pixels, or pixel pairs for a large image.
# bincount widens its input to intp, so one call over a whole 4096x4096
# image would allocate a 128 MiB temporary; slices of this size keep that
# temporary at 512 KiB, inside the cache. A pair count holds three such
# buffers at once (the intp slice, the 65536-bin table and bincount's
# output), 1.5 MiB; 2^17-pair slices would take it to 2 MiB.
_SLICE_PIXELS = 1 << 16

# Images of at least this many pixels are counted in pairs. The pairs buy
# speed where the histogram is concentrated, likely because a pixel count
# then adds to one bin over and over, each add waiting on the last, where a
# pair count spreads those adds over up to 256 table entries. Timing build_histogram alone at 4096^2
# (2-vCPU Xeon, numpy 2.4, 3 runs of 15 rounds, the two counts alternating,
# the raster at a mapped P5 file's odd offset), pairs took 26-27 against
# 30-32 ms (medians) on a page with 32 % of its pixels in one bin, and 27-30
# against 49-54 ms on a two-level page (85 %); on the benchmark's noisy
# scan (top bin 2 %) the two were within 1.5 ms of each other and the
# faster one changed from run to run (pairs faster in 1, 6 and 6 of 15
# rounds). Below this size pairs gained little or lost, in an earlier
# measurement (medians of 6 alternating rounds): 0.85-1.01 of the pixel
# count's time at 1024^2, 1.00-1.07 at 512^2 and 1.22-1.49 at 256^2-364^2,
# though constant images gained at every size (0.61-0.94).
_PAIR_MIN_PIXELS = 1 << 21

_INT64_MAX = (1 << 63) - 1
# While no bin exceeds this, the total and the intensity-weighted sum (at
# most BIN_COUNT * 255 times it) fit in int64; a larger bin needs the exact
# check in Python ints.
_SAFE_BIN_COUNT = _INT64_MAX // (255 * BIN_COUNT)


class EmptyInputError(ValueError):
    """Raised when a mean is requested over zero pixels."""


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts of pixels per intensity value: ``counts[v]`` pixels have value ``v``."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.shape != (BIN_COUNT,):
            raise ValueError(f"histogram needs exactly {BIN_COUNT} bins, got shape {arr.shape}")
        if arr.dtype.kind not in "ui":
            raise ValueError(f"bin counts must be integers, got dtype {arr.dtype}")
        if int(arr.min()) < 0:
            raise ValueError("bin counts must be non-negative")
        if int(arr.max()) > _SAFE_BIN_COUNT:
            counts = arr.tolist()
            if max(sum(counts), sum(map(operator.mul, range(BIN_COUNT), counts))) > _INT64_MAX:
                raise ValueError("the bin counts' total and intensity-weighted sum must fit in int64")
        object.__setattr__(self, "counts", _frozen(arr, np.int64))

    @property
    def total(self) -> int:
        """Number of pixels counted, i.e. the sum over all 256 bins."""
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)

    def __repr__(self) -> str:
        return f"Histogram(total={self.total})"


def build_histogram(image: GrayImage | BinaryImage) -> Histogram:
    """Count the exact multiplicity of every intensity in the image.

    An image of fewer than ``_PAIR_MIN_PIXELS`` pixels is counted pixel by
    pixel, in slices of ``_SLICE_PIXELS``. A larger one is counted in pairs
    of adjacent pixels, read as one ``np.uint16`` each, into a 65536-bin
    table in slices of ``_SLICE_PIXELS`` pairs. The table's row sums plus its
    column sums are the 256 bins, and an odd last pixel is added by hand.
    The intp slice buffer and the table are allocated once per call, so
    ``bincount``'s 512 KiB output is the only allocation per slice.
    """
    flat = image.pixels.reshape(-1)
    if flat.size < _PAIR_MIN_PIXELS:
        counts = np.zeros(BIN_COUNT, dtype=np.int64)
        for start in range(0, flat.size, _SLICE_PIXELS):
            counts += np.bincount(flat[start : start + _SLICE_PIXELS], minlength=BIN_COUNT)
        return Histogram(counts)
    pairs = flat[: flat.size - flat.size % 2].view(np.uint16)
    index = np.empty(_SLICE_PIXELS, dtype=np.intp)
    table = np.zeros(BIN_COUNT * BIN_COUNT, dtype=np.int64)
    for start in range(0, pairs.size, _SLICE_PIXELS):
        chunk = pairs[start : start + _SLICE_PIXELS]
        wide = index[: chunk.size]
        np.copyto(wide, chunk)
        table += np.bincount(wide, minlength=table.size)
    table = table.reshape(BIN_COUNT, BIN_COUNT)
    counts = table.sum(0) + table.sum(1)
    if flat.size % 2:
        counts[flat[-1]] += 1
    return Histogram(counts)


def global_mean(hist: Histogram) -> float:
    """Arithmetic mean intensity over all counted pixels.

    Computed as an exact integer weighted sum divided once, so the result
    equals the pixelwise mean bit for bit.
    """
    mean = _weighted_mean(hist.counts, 0)
    if mean is None:
        raise EmptyInputError("cannot take the mean of an empty histogram")
    return mean


def class_mean(hist: Histogram, lo: int, hi: int) -> float | None:
    """Mean intensity restricted to the class ``[lo, hi]`` inclusive.

    Returns ``None`` when no pixel falls inside the class; callers must
    treat the empty class explicitly rather than receive a fabricated
    number. Raises ``ValueError`` when the bounds are not
    ``0 <= lo <= hi <= 255``.
    """
    if not (0 <= lo <= hi <= BIN_COUNT - 1):
        raise ValueError(f"class bounds must satisfy 0 <= lo <= hi <= 255, got [{lo}, {hi}]")
    return _weighted_mean(hist.counts[lo : hi + 1], lo)


def _weighted_mean(counts: np.ndarray, lo: int) -> float | None:
    """Mean intensity of ``counts``, the bins from ``lo`` on, or ``None`` if they are all 0.

    An exact integer weighted sum, divided once.
    """
    size = int(counts.sum())
    if size == 0:
        return None
    return int(np.dot(np.arange(lo, lo + counts.size, dtype=np.int64), counts)) / size
