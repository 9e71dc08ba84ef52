"""
Full pipeline: image in, binarized images and report out
========================================================

This is what the ``bilevel`` command does under the hood: load a PGM, count
its pixels once into a histogram, run both selection methods on that
histogram, binarize with each optimum, and serialize a JSON report plus
histogram CSVs. Everything lands in ./demo_output.
"""

import json
from pathlib import Path

import numpy as np

from bilevel import (
    GrayImage,
    RunReport,
    binarize,
    binarized_histogram,
    build_histogram,
    emit_histogram_csv,
    emit_report,
    save_pgm,
    select_iterative,
    select_mean,
)

out_dir = Path(__file__).parent / "demo_output"
out_dir.mkdir(exist_ok=True)

# Synthesize a "document": bright paper, dark strokes, mild sensor noise.
rng = np.random.default_rng(42)
height, width = 96, 128
page = np.full((height, width), 200.0)
for row in range(12, height - 12, 16):  # horizontal "text lines"
    thickness = 3
    ink = rng.random((thickness, width - 24)) < 0.85
    page[row : row + thickness, 12 : width - 12][ink] = 55.0
page += rng.normal(0, 8, page.shape)
image = GrayImage(np.clip(np.rint(page), 0, 255).astype(np.uint8))

input_path = out_dir / "document.pgm"
save_pgm(input_path, image)
print(f"wrote {input_path} ({image.width}x{image.height})")

# Count the pixels once; both methods and both CSVs read this histogram.
hist = build_histogram(image)

# Run both methods and binarize with each selected threshold.
by_mean = select_mean(hist)
by_iteration = select_iterative(hist)
for result in (by_mean, by_iteration):
    binary = binarize(image, result.optimum)
    path = out_dir / f"document.{result.method}.pgm"
    save_pgm(path, binary)
    print(f"{result.method}: optimum={result.optimum:.3f} -> {path}")

# Histogram CSVs for the input and the iterative output, plot-ready. The
# output's two bins follow from the input counts, with no second pixel pass.
csv_in = out_dir / "document.input.csv"
csv_out = out_dir / "document.output.csv"
csv_in.write_bytes(emit_histogram_csv(hist))
csv_out.write_bytes(emit_histogram_csv(binarized_histogram(hist, by_iteration.optimum)))

# The JSON report ties the whole run together.
report_path = out_dir / "report.json"
report = RunReport(
    input_path=str(input_path),
    width=image.width,
    height=image.height,
    mean_result=by_mean,
    iterative_result=by_iteration,
    histogram_input_path=str(csv_in),
    histogram_output_path=str(csv_out),
)
report_path.write_bytes(emit_report(report))
print(f"wrote {csv_in}, {csv_out}, {report_path}")

doc = json.loads(report_path.read_text())
print("\nreport summary:")
for method, entry in doc["methods"].items():
    print(
        f"  {method}: estimate={entry['estimate']:.3f} optimum={entry['optimum']:.3f} "
        f"(rounded {entry['rounded']}) in {len(entry['iterations'])} step(s)"
    )
