"""Every CLI run shape, and every size fork, checked against the benchmark's oracle.

With ``forks`` drawn, all six constants of ``helpers.FORKS`` are small, so
a 40x40 image crosses each of their forks many times; with ``forks`` None,
the real constants run.
"""

import ast
import contextlib
import io
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import bilevel.cli
from helpers import PERFBENCH_DIR, Reference, Run, check_call, drawn_forks, encode, forked, parse_summary

# Other valid spellings of an encoded image; the last three apply to P2 only.
VARIANTS = ("header comments", "CRLF", "zero-padded", "rows per line", "raster comment")


@st.composite
def images(draw):
    """Up to 40x40 pixels: uniform, two levels (maybe equal) or a band of six adjacent levels."""
    shape = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "two-level", "band"]))
    if kind == "uniform":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "two-level":
        return rng.choice(rng.integers(0, 256, 2, dtype=np.uint8), shape)
    return rng.integers(0, 6, shape, dtype=np.uint8) + np.uint8(rng.integers(0, 251))


def spelled(pixels: np.ndarray, flavor: str, variants: frozenset) -> bytes:
    """``encode(pixels, flavor)`` spelled in each of ``variants``: other bytes of the same image."""
    magic, size, maxval, raster = encode(pixels, flavor).split(b"\n", 3)
    if flavor == "P2":
        rows = raster.splitlines()
        if "zero-padded" in variants:
            rows = [re.sub(rb"\b(?=\d)", b"00", row) for row in rows]
        if "rows per line" in variants:
            rows = [b" ".join(rows[top : top + 3]) for top in range(0, len(rows), 3)]
        if "raster comment" in variants:
            rows.insert(len(rows) // 2, b"#1 2 # 3")
        raster = b"".join(row + b"\n" for row in rows)
    head = [magic, size, maxval]
    if "header comments" in variants:
        head = [magic + b" # 9 9", b"# 255", size + b"#", maxval]
    eol = b"\r\n" if "CRLF" in variants else b"\n"
    if flavor == "P5":  # its raster starts one whitespace byte after the maxval
        return eol.join(head) + b"\n" + raster
    return eol.join([*head, raster.replace(b"\n", eol)])


@settings(max_examples=500, deadline=None)
@given(
    pixels=images(),
    input_flavor=st.sampled_from(["P2", "P5"]),
    variants=st.frozensets(st.sampled_from(VARIANTS)),
    method=st.sampled_from(["mean", "iterative", "compare"]),
    ascii=st.booleans(),
    report=st.booleans(),
    histograms=st.booleans(),
    forks=drawn_forks(),
)
def test_every_run_matches_the_oracle(pixels, input_flavor, variants, method, ascii, report, histograms, forks):
    report = report or method == "compare"  # compare without --report is a usage error
    run = Run("in.pgm", "out.pgm", method, ascii, "r.json" if report else None, "h" if histograms else None)
    methods = ["mean", "iterative"] if method == "compare" else [method]
    roles = [*methods, *["input.csv", "output.csv"] * histograms, *["report"] * report]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as root, forked(forks) as patch:
        (Path(root) / "in.pgm").write_bytes(spelled(pixels, input_flavor, variants))
        patch.chdir(root)
        with contextlib.redirect_stdout(out):
            code = bilevel.cli.main(run.argv())
        outputs = dict(zip(roles, map(Path, run.targets())))
        flavor = "P2" if ascii else "P5"
        ref = Reference(pixels)
        assert check_call(ref, methods, flavor, code, out.getvalue(), outputs) == []
        if report:
            check_report(ref, json.loads(outputs["report"].read_bytes()), parse_summary(out.getvalue()), outputs)


def step_at(ref: Reference, t: int) -> dict:
    """The trace step at integer threshold ``t``, from ``ref``'s prefix sums; an empty class's mean is None."""
    n_lo, w_lo = int(ref.n_lo[t]), int(ref.w_lo[t])
    m1 = w_lo / n_lo if n_lo else None
    m2 = (ref.w - w_lo) / (ref.n - n_lo) if ref.n > n_lo else None
    return {"estimate": t, "m1": m1, "m2": m2, "total_mean": ref.midpoint(t)}


def check_report(ref: Reference, document: dict, summary: dict, outputs: dict[str, Path]) -> None:
    """``document``, a run's JSON report, rebuilt from ``ref`` and the run's ``summary`` and ``outputs``.

    ``check_call`` compares a report only with an earlier one of the same
    input, so the first report of each input is checked here.
    """
    assert (document["input"], document["width"], document["height"]) == ("in.pgm", *ref.pixels.shape[::-1])
    csvs = {kind: str(outputs[f"{kind}.csv"]) if "input.csv" in outputs else None for kind in ("input", "output")}
    assert document["histograms"] == csvs
    assert list(document["methods"]) == list(summary)
    for method, (_, optimum, steps) in summary.items():
        entry = document["methods"][method]
        assert (entry["estimate"], entry["optimum"]) == (ref.mean, optimum)
        for key, rounded in (("estimate", "estimate_rounded"), ("optimum", "rounded")):
            assert entry[rounded] == math.floor(Fraction(entry[key]) + Fraction(1, 2))  # half up, exactly
        assert entry["converged"] == (method == "mean" or not ref.constant)
        assert entry["degenerate"] == (not entry["converged"])
        trace = entry["iterations"]
        assert len(trace) == steps
        if method == "iterative":
            # Each step's estimate is the floor of the last one's total_mean.
            estimates = [math.floor(ref.mean), *(math.floor(step["total_mean"]) for step in trace[:-1])]
            assert trace == [step_at(ref, t) for t in estimates]


def test_the_oracle_imports_no_bilevel():
    # The oracle checks bilevel, so it must not share its code: the same
    # rule as test_shares_no_code_with_the_selectors, one level up.
    for module in ("check.py", "pgmfmt.py"):
        tree = ast.parse((PERFBENCH_DIR / module).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in names if name.partition(".")[0] == "bilevel"], module
