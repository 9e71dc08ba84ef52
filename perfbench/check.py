"""Independent check of one CLI call's stdout and committed files.

Every expectation is rebuilt here from the input pixels with the
benchmark's own ``np.bincount`` and prefix sums; nothing from ``bilevel``
(selectors, ``fixed_point_oracle``, codec, report writer) is consulted.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

import pgmfmt

_SUMMARY = re.compile(r"^(mean|iterative) estimate=(\S+) optimum=(\S+) iterations=(\d+)$")


class Reference:
    """Exact statistics of one input image, plus outputs already verified for it."""

    def __init__(self, pixels: np.ndarray):
        self.pixels = pixels
        self.counts = np.bincount(pixels.reshape(-1), minlength=256).astype(np.int64)
        self.n_lo = np.cumsum(self.counts)
        self.w_lo = np.cumsum(np.arange(256, dtype=np.int64) * self.counts)
        self.n = int(self.n_lo[-1])
        self.w = int(self.w_lo[-1])
        self.mean = self.w / self.n  # int / int: one correctly rounded division
        self.constant = int(np.count_nonzero(self.counts)) == 1
        self.report: bytes | None = None
        self._pgm: dict[tuple[float, str], bytes] = {}

    def midpoint(self, t: int) -> float | None:
        """Average of the two class means split at integer ``t``; None if a class is empty."""
        n_lo = int(self.n_lo[t])
        n_hi = self.n - n_lo
        if n_lo == 0 or n_hi == 0:
            return None
        w_lo = int(self.w_lo[t])
        return (w_lo / n_lo + (self.w - w_lo) / n_hi) / 2.0

    def iterative_ok(self, optimum: float) -> bool:
        """True if ``optimum`` is the midpoint of an integer fixed point within 1 of it.

        A constant image has no split with two non-empty classes; its
        result is degenerate and sits at ``floor(mean)``.
        """
        if self.constant:
            return optimum == math.floor(self.mean)
        base = math.floor(optimum)
        for t in (base, base + 1):
            if 0 <= t <= 255:
                g = self.midpoint(t)
                if g is not None and g == optimum and abs(t - g) < 1.0:
                    return True
        return False

    def binary_pgm(self, threshold: float, flavor: str) -> bytes:
        key = (threshold, flavor)
        if key not in self._pgm:
            binary = np.where(self.pixels > threshold, 255, 0).astype(np.uint8)
            self._pgm[key] = pgmfmt.encode(binary, flavor)
        return self._pgm[key]

    def input_csv(self) -> bytes:
        return _csv(self.counts)

    def output_csv(self, threshold: float) -> bytes:
        counts = np.zeros(256, dtype=np.int64)
        counts[0] = self.n_lo[math.floor(threshold)]
        counts[255] = self.n - counts[0]
        return _csv(counts)


def _csv(counts) -> bytes:
    lines = ["value,count", *(f"{v},{int(c)}" for v, c in enumerate(counts))]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_summary(stdout: str) -> dict[str, tuple[float, float, int]]:
    """``{method: (estimate, optimum, iterations)}`` from the CLI's stdout lines."""
    out = {}
    for line in stdout.splitlines():
        m = _SUMMARY.match(line)
        if m is None:
            raise ValueError(f"unexpected stdout line {line!r}")
        out[m.group(1)] = (float(m.group(2)), float(m.group(3)), int(m.group(4)))
    return out


def check_call(
    ref: Reference, methods: list[str], flavor: str, code, stdout: str, outputs: dict[str, Path]
) -> list[str]:
    """Problems found with one call; an empty list means the call is correct.

    ``methods`` are the summary lines expected, in order. ``outputs`` maps a
    role to the file the call must have committed: a method name for its
    binary PGM, ``input.csv``, ``output.csv`` or ``report``.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        summary = parse_summary(stdout)
    except ValueError as exc:
        return [str(exc)]
    if list(summary) != methods:
        return [f"stdout methods {list(summary)}, expected {methods}"]

    problems = []
    for method, (estimate, optimum, _) in summary.items():
        if estimate != ref.mean:
            problems.append(f"{method} estimate {estimate!r} != exact mean {ref.mean!r}")
        if method == "mean" and optimum != ref.mean:
            problems.append(f"mean optimum {optimum!r} != exact mean {ref.mean!r}")
        if method == "iterative" and not ref.iterative_ok(optimum):
            problems.append(f"iterative optimum {optimum!r} is not a fixed-point midpoint")
    if problems:
        return problems

    thresholds = {method: optimum for method, (_, optimum, _) in summary.items()}
    report = None
    for role, path in outputs.items():
        try:
            data = path.read_bytes()
        except OSError as exc:
            problems.append(f"{role}: {exc}")
            continue
        if role == "report":
            report = data
            if ref.report is not None and data != ref.report:
                problems.append("report differs from an earlier call on the same input")
            continue
        if role in thresholds:
            expected = ref.binary_pgm(thresholds[role], flavor)
        elif role == "input.csv":
            expected = ref.input_csv()
        elif role == "output.csv":
            expected = ref.output_csv(thresholds.get("iterative", thresholds.get("mean")))
        else:
            raise ValueError(f"unknown output role {role!r}")
        if data != expected:
            problems.append(f"{role}: {path} differs from the expected bytes")
    if report is not None and not problems and ref.report is None:
        ref.report = report
    return problems
