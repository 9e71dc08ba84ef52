"""Grayscale image binarization via histogram-based global thresholding.

The library selects a single threshold for an 8-bit grayscale image in one
of two ways: the global intensity mean, or an iterative refinement that
averages the two class means until the threshold stops moving. Pixels above
the threshold become foreground (255), pixels at or below it background (0).
PGM (P2/P5) is the interchange format, read and written bit-exactly, and
runs can be serialized as deterministic JSON reports plus histogram CSVs.
"""

from .histogram import (
    EmptyInputError,
    Histogram,
    build_histogram,
    class_mean,
    global_mean,
)
from .image import BinaryImage, GrayImage
from .pgm import (
    PgmError,
    PgmFormatError,
    SampleRangeError,
    TruncatedDataError,
    UnsupportedDepthError,
    load_pgm,
    read_pgm,
    save_pgm,
    write_pgm,
)
from .report import RunReport, emit_histogram_csv, emit_report, round_half_up
from .threshold import (
    IterationStep,
    ThresholdResult,
    binarize,
    binarized_histogram,
    fixed_point_oracle,
    iterative_optimum_threshold,
    mean_threshold,
    select_iterative,
    select_mean,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryImage",
    "EmptyInputError",
    "GrayImage",
    "Histogram",
    "IterationStep",
    "PgmError",
    "PgmFormatError",
    "RunReport",
    "SampleRangeError",
    "ThresholdResult",
    "TruncatedDataError",
    "UnsupportedDepthError",
    "binarize",
    "binarized_histogram",
    "build_histogram",
    "class_mean",
    "emit_histogram_csv",
    "emit_report",
    "fixed_point_oracle",
    "global_mean",
    "iterative_optimum_threshold",
    "load_pgm",
    "mean_threshold",
    "read_pgm",
    "round_half_up",
    "save_pgm",
    "select_iterative",
    "select_mean",
    "write_pgm",
]
