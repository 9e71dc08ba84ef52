"""Global threshold selection and the binarization rule.

Two selection procedures are provided. ``mean_threshold`` takes the global
intensity mean as the threshold directly. ``iterative_optimum_threshold``
starts from that mean and repeatedly replaces the threshold with the
average of the two class means (pixels at or below the threshold versus
pixels above it) until it moves by less than one gray level; this is the
classic iterative-selection scheme. ``fixed_point_oracle`` validates the
latter by exhaustively scanning every integer split instead of iterating.

Both selectors read only a :class:`Histogram`: ``select_mean`` and
``select_iterative`` take one directly, so a caller that needs both counts
the pixels once, and ``mean_threshold``/``iterative_optimum_threshold`` are
wrappers that count them for a single image.

A pixel equal to the threshold goes to the background class, so a
real-valued threshold splits classes at ``floor(T)``: class one is
``[0, floor(T)]``, class two is ``[floor(T) + 1, 255]``. The iterative
procedure walks integer thresholds (each candidate is floored before its
classes are formed), which pins every convergence point to within one gray
level of an integer fixed point (``select_iterative`` proves the walk ends).

Comparing against ``floor(T)`` instead of ``T`` is exact, not an
approximation: pixels are integers, and for an integer ``p`` and a real
``T``, ``p > T`` holds exactly when ``p > floor(T)`` (if
``p >= floor(T) + 1`` then ``p > T``, because ``T < floor(T) + 1``; if
``p <= floor(T)`` then ``p <= T``). So ``binarize`` compares uint8 pixels
with the uint8 level ``floor(T)``, and ``binarized_histogram`` derives the
output's two bins from the input counts: ``counts[0]`` is the number of
pixels in ``[0, floor(T)]`` and ``counts[255]`` the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .histogram import BIN_COUNT, Histogram, build_histogram, class_mean, global_mean
from .image import BinaryImage, GrayImage

__all__ = [
    "IterationStep",
    "ThresholdResult",
    "binarize",
    "binarized_histogram",
    "select_mean",
    "select_iterative",
    "mean_threshold",
    "iterative_optimum_threshold",
    "fixed_point_oracle",
]

METHOD_MEAN = "mean"
METHOD_ITERATIVE = "iterative"


@dataclass(frozen=True)
class IterationStep:
    """One refinement step: the threshold entering the step and the derived means.

    ``m1``/``m2`` are the class means at or below / above the threshold;
    either is ``None`` when its class holds no pixels, in which case
    ``total_mean`` is ``None`` as well and iteration stops.
    """

    estimate: float
    m1: float | None
    m2: float | None
    total_mean: float | None


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one selection procedure.

    ``estimate`` is the starting threshold (the global mean for both
    methods), ``optimum`` the selected one. A run that is not ``converged``
    was cut short by an empty class, which happens only on a constant image.
    """

    method: str
    estimate: float
    optimum: float
    iterations: tuple[IterationStep, ...]
    converged: bool

    @property
    def degenerate(self) -> bool:
        """True when an empty class stopped the run: always ``not converged``."""
        return not self.converged


def _split_level(threshold: float) -> int:
    """The highest intensity ``threshold`` sends to background: ``floor(T)``."""
    t = float(threshold)
    if not (0.0 <= t <= 255.0):
        raise ValueError(f"threshold must lie in [0, 255], got {threshold!r}")
    return math.floor(t)


def _binarize_into(pixels: np.ndarray, level: int, out: np.ndarray) -> np.ndarray:
    """Write the binary levels of uint8 ``pixels`` into ``out``, a writable uint8 array of their shape.

    A pixel above ``level`` (a ``_split_level`` result) becomes 255, every
    other pixel 0. The comparison's 0/1 bytes land in ``out`` through its
    bool view and are scaled in place: in uint8, ``-1`` wraps to 255, and
    ``negative`` vectorises where a multiply by 255 does not.
    """
    np.greater(pixels, np.uint8(level), out=out.view(np.bool_))
    return np.negative(out, out=out)


def binarize(image: GrayImage, threshold: float) -> BinaryImage:
    """Map pixels above the threshold to 255 and all others to 0."""
    level = _split_level(threshold)
    pixels = image.pixels
    return BinaryImage._trusted(_binarize_into(pixels, level, np.empty(pixels.shape, np.uint8)))


def binarized_histogram(hist: Histogram, threshold: float) -> Histogram:
    """Histogram of ``binarize(image, threshold)``, where ``hist`` counts ``image``.

    Equals ``build_histogram(binarize(image, threshold))`` without touching
    a pixel: only bins 0 and 255 can be non-zero.
    """
    level = _split_level(threshold)
    counts = np.zeros(BIN_COUNT, dtype=np.int64)
    counts[0] = hist.counts[: level + 1].sum()
    counts[255] = hist.total - counts[0]
    return Histogram(counts)


def select_mean(hist: Histogram) -> ThresholdResult:
    """Select the global intensity mean as the threshold.

    Pairing the result with :func:`binarize` sends every pixel at or below
    the mean to 0 and the rest to 255.
    """
    mean = global_mean(hist)
    return ThresholdResult(
        method=METHOD_MEAN,
        estimate=mean,
        optimum=mean,
        iterations=(),
        converged=True,
    )


def select_iterative(hist: Histogram) -> ThresholdResult:
    """Refine the global mean by averaging the two class means to a fixed point.

    Starting from the global mean, each step splits the histogram at the
    current integer threshold T, computes the mean m1 of pixels in
    ``[0, T]`` and the mean m2 of pixels in ``[T + 1, 255]``, and moves T
    to ``floor((m1 + m2) / 2)``. Iteration converges when the class-mean
    average lands within one gray level of T; the returned optimum is that
    real-valued average. If either class is empty the run terminates
    degenerate at the current T. The full step trace is recorded on the
    result.

    The walk always ends (Ridler & Calvard, IEEE Trans. SMC-8(8):630-632,
    1978). Raising T moves bin ``T + 1`` from the bottom of class two to the
    top of class one, so m1(T), m2(T) and hence ``floor(g(T))`` with
    ``g = (m1 + m2) / 2`` never decrease as T grows (rounding is monotone,
    so this holds in floating point too). Each step applies that one map to
    the last T, so the thresholds move one way only, and a step that does
    not stop moves T by at least one level. With two or more distinct
    values T starts at ``floor(mean)`` in ``[min, max - 1]``, and
    ``min <= m1 <= T < m2 <= max`` keeps every later T there: both classes
    stay non-empty and the walk stops within 255 steps. A constant image
    stops at the first step, with class two empty.
    """
    estimate = global_mean(hist)
    steps: list[IterationStep] = []
    # An integer threshold makes the stopping test |T - total_mean| < 1 a
    # certificate that T is one of the fixed points fixed_point_oracle
    # reports, so the two routes can never drift apart.
    current = math.floor(estimate)
    for _ in range(BIN_COUNT):
        m1 = class_mean(hist, 0, current)
        m2 = class_mean(hist, current + 1, 255) if current < 255 else None
        if m1 is None or m2 is None:
            steps.append(IterationStep(float(current), m1, m2, None))
            optimum, converged = float(current), False
            break
        total_mean = (m1 + m2) / 2.0
        steps.append(IterationStep(float(current), m1, m2, total_mean))
        if abs(current - total_mean) < 1.0:
            optimum, converged = total_mean, True
            break
        current = math.floor(total_mean)
    else:
        raise AssertionError("iterative selection outran its 255-step bound")
    return ThresholdResult(METHOD_ITERATIVE, estimate, optimum, tuple(steps), converged)


def mean_threshold(image: GrayImage) -> ThresholdResult:
    """:func:`select_mean` on the histogram of ``image``."""
    return select_mean(build_histogram(image))


def iterative_optimum_threshold(image: GrayImage) -> ThresholdResult:
    """:func:`select_iterative` on the histogram of ``image``."""
    return select_iterative(build_histogram(image))


def fixed_point_oracle(hist: Histogram) -> set[int]:
    """Every integer threshold the iterative update maps to within 1 of itself.

    Scans all 256 splits with two non-empty classes using prefix sums; no
    iteration is involved, so the result is an independent check on
    :func:`iterative_optimum_threshold`.
    """
    counts = hist.counts
    values = np.arange(256, dtype=np.int64)
    n_lo = np.cumsum(counts)
    w_lo = np.cumsum(values * counts)
    n_hi = n_lo[-1] - n_lo
    w_hi = w_lo[-1] - w_lo
    valid = (n_lo > 0) & (n_hi > 0)
    if not valid.any():
        return set()
    t = values[valid].astype(np.float64)
    midpoint = (w_lo[valid] / n_lo[valid] + w_hi[valid] / n_hi[valid]) / 2.0
    return {int(v) for v in values[valid][np.abs(t - midpoint) < 1.0]}
