"""Machine-readable run reports and histogram CSV export.

The JSON report mirrors one binarization run: the input image, the results
of one or both selection methods with their full iteration traces, and the
paths of any exported histogram CSVs. Output is deterministic byte for
byte: keys appear in a fixed order and real thresholds are rendered with
full (shortest round-trip) precision next to a round-half-up integer, so a
reader can reconstruct every value exactly.

Histogram CSVs carry a ``value,count`` header followed by all 256 bins in
ascending order, one line per bin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .histogram import Histogram
from .threshold import METHOD_ITERATIVE, METHOD_MEAN, ThresholdResult

__all__ = ["RunReport", "emit_report", "emit_histogram_csv", "round_half_up"]

ESTIMATE_SOURCE = "global_mean"


def round_half_up(value: float) -> int:
    """Round to the nearest integer with halves going up (127.5 -> 128)."""
    return math.floor(value + 0.5)


@dataclass(frozen=True)
class RunReport:
    """Everything recorded about a single run, ready for serialization."""

    input_path: str
    width: int
    height: int
    mean_result: ThresholdResult | None = None
    iterative_result: ThresholdResult | None = None
    histogram_input_path: str | None = None
    histogram_output_path: str | None = None

    def __post_init__(self):
        if self.mean_result is None and self.iterative_result is None:
            raise ValueError("a run report needs at least one method result")


def _method_entry(result: ThresholdResult) -> dict:
    return {
        "estimate": result.estimate,
        "estimate_rounded": round_half_up(result.estimate),
        "optimum": result.optimum,
        "rounded": round_half_up(result.optimum),
        "converged": result.converged,
        "degenerate": result.degenerate,
        "iterations": [
            {
                "estimate": step.estimate,
                "m1": step.m1,
                "m2": step.m2,
                "total_mean": step.total_mean,
            }
            for step in result.iterations
        ],
    }


def emit_report(report: RunReport) -> bytes:
    """Serialize a :class:`RunReport` as deterministic JSON text."""
    methods = {}
    if report.mean_result is not None:
        methods[METHOD_MEAN] = _method_entry(report.mean_result)
    if report.iterative_result is not None:
        methods[METHOD_ITERATIVE] = _method_entry(report.iterative_result)
    document = {
        "input": report.input_path,
        "width": report.width,
        "height": report.height,
        "estimate_source": ESTIMATE_SOURCE,
        "methods": methods,
        "histograms": {
            "input": report.histogram_input_path,
            "output": report.histogram_output_path,
        },
    }
    return (json.dumps(document, indent=2) + "\n").encode("ascii")


def emit_histogram_csv(hist: Histogram) -> bytes:
    """Serialize all 256 bins as ``value,count`` CSV lines under a header."""
    counts = hist.counts.tolist()
    rows = "".join(map("{},{}\n".format, range(len(counts)), counts))
    return ("value,count\n" + rows).encode("ascii")
