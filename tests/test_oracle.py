"""Every CLI run shape, and every size fork, checked against the benchmark's oracle.

A size fork is a code path that a size constant chooses: blocks and
sub-blocks of the encoders, slices of the P2 decode and of the pixel count,
the input size that is mapped, and the image size that is counted in pairs.
With ``forks`` drawn, all six constants are small, so a 40x40 image crosses
each of them many times; with ``forks`` None, the real constants run.
"""

import ast
import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bilevel.cli
from helpers import PERFBENCH_DIR, Reference, Run, check_call, encode

FORKS = {
    "pgm._BLOCK_PIXELS": st.integers(1, 16),
    # A binary P2 sub-block is budgeted by rows padded to whole bytes, 8 to
    # 40 pixels here: it takes two or more rows only from 16 pixels on.
    "pgm._SUB_BLOCK_PIXELS": st.integers(1, 128),
    "pgm._SLICE_BYTES": st.integers(1, 13),
    "pgm._MAP_MIN_BYTES": st.integers(0, 64),
    # Images below it are counted pixel by pixel, in slices of _SLICE_PIXELS.
    "histogram._PAIR_MIN_PIXELS": st.integers(2, 64),
    "histogram._SLICE_PIXELS": st.integers(1, 13),
}

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
    forks=st.none() | st.fixed_dictionaries(FORKS),
)
def test_every_run_matches_the_oracle(pixels, input_flavor, variants, method, ascii, report, histograms, forks):
    report = report or method == "compare"  # compare without --report is a usage error
    run = Run("in.pgm", "out.pgm", method, ascii, "r.json" if report else None, "h" if histograms else None)
    methods = ["mean", "iterative"] if method == "compare" else [method]
    roles = [*methods, *["input.csv", "output.csv"] * histograms, *["report"] * report]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        (Path(root) / "in.pgm").write_bytes(spelled(pixels, input_flavor, variants))
        patch.chdir(root)
        for name, value in (forks or {}).items():
            patch.setattr(f"bilevel.{name}", value)
        with contextlib.redirect_stdout(out):
            code = bilevel.cli.main(run.argv())
        outputs = dict(zip(roles, map(Path, run.targets())))
        flavor = "P2" if ascii else "P5"
        assert check_call(Reference(pixels), methods, flavor, code, out.getvalue(), outputs) == []


def test_the_oracle_imports_no_bilevel():
    # The oracle checks bilevel, so it must not share its code: the same
    # rule as test_shares_no_code_with_the_selectors, one level up.
    for module in ("check.py", "pgmfmt.py"):
        tree = ast.parse((PERFBENCH_DIR / module).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in names if name.partition(".")[0] == "bilevel"], module
