"""The three workloads: seeded input images and the command line of each call.

Each workload is chosen so that a different module of ``bilevel`` does most
of the work of a call; ``BENCHMARK.json`` records why each was chosen.
Inputs depend only on the seed; the program under test sees only the files
written here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import pgmfmt


@dataclass(frozen=True)
class Case:
    """One input file and the pixels it encodes."""

    path: Path
    pixels: np.ndarray


def _doc_scan(rng: np.random.Generator, side: int) -> np.ndarray:
    # Light paper with lines of dark glyph cells (about 15 % ink) and
    # Gaussian sensor noise, drawn in row blocks to bound memory.
    cell = 4
    ink = rng.random((side // cell, side // cell)) < 0.225
    ink &= (np.arange(side // cell) % 12 < 8)[:, None]
    ink = np.repeat(np.repeat(ink, cell, axis=0), cell, axis=1)
    out = np.empty((side, side), dtype=np.uint8)
    for r0 in range(0, side, 512):
        block = ink[r0 : r0 + 512]
        level = np.where(block, np.float32(55.0), np.float32(200.0))
        noise = rng.standard_normal(block.shape, dtype=np.float32) * np.float32(14.0)
        out[r0 : r0 + 512] = np.clip(np.rint(level + noise), 0, 255)
    return out


def _bimodal(rng: np.random.Generator, side: int) -> np.ndarray:
    dark = rng.random((side, side)) < 0.4
    level = np.where(dark, rng.normal(70.0, 18.0, (side, side)), rng.normal(180.0, 22.0, (side, side)))
    return np.clip(np.rint(level), 0, 255).astype(np.uint8)


def _uniform(rng: np.random.Generator, side: int) -> np.ndarray:
    return rng.integers(0, 256, size=(side, side), dtype=np.uint8)


def _skewed(rng: np.random.Generator, side: int) -> np.ndarray:
    return np.clip(np.rint(rng.exponential(18.0, (side, side))), 0, 255).astype(np.uint8)


def _constant(rng: np.random.Generator, side: int) -> np.ndarray:
    return np.full((side, side), int(rng.integers(0, 256)), dtype=np.uint8)


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "mean", "iterative" or "compare"
    ascii: bool  # --ascii: P2 output
    files: bool  # --report and --histograms
    input_flavor: str
    side: int
    tiny_side: int
    kinds: tuple[Callable[[np.random.Generator, int], np.ndarray], ...]
    per_kind: int  # images of each kind in the input pool

    @property
    def methods(self) -> list[str]:
        """Summary lines the CLI prints, in order."""
        return ["mean", "iterative"] if self.method == "compare" else [self.method]

    @property
    def flavor(self) -> str:
        return "P2" if self.ascii else "P5"

    def make_inputs(self, seed: int, in_dir: Path, tiny: bool) -> list[Case]:
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        side = self.tiny_side if tiny else self.side
        cases = []
        for index in range(self.per_kind * len(self.kinds)):
            pixels = self.kinds[index % len(self.kinds)](rng, side)
            path = in_dir / f"{self.name}-{index:03d}.pgm"
            path.write_bytes(pgmfmt.encode(pixels, self.input_flavor))
            cases.append(Case(path, pixels))
        return cases

    def schedule(self, seed: int, n_cases: int) -> Iterator[int]:
        """Case indices to call, in a seeded order: every case once per round."""
        rng = np.random.default_rng([seed, n_cases])
        while True:
            yield from (int(i) for i in rng.permutation(n_cases))

    def outputs(self, case: Case, out_dir: Path) -> dict[str, Path]:
        """Files one call commits, by the role the output check gives them."""
        if self.method == "compare":
            paths = {"mean": out_dir / "out.mean.pgm", "iterative": out_dir / "out.iter.pgm"}
        else:
            paths = {self.method: out_dir / "out.pgm"}
        if self.files:
            stem = case.path.stem
            paths["input.csv"] = out_dir / "hist" / f"{stem}.input.csv"
            paths["output.csv"] = out_dir / "hist" / f"{stem}.output.csv"
            paths["report"] = out_dir / "report.json"
        return paths

    def argv(self, case: Case, out_dir: Path) -> list[str]:
        argv = ["-i", str(case.path), "-o", str(out_dir / "out.pgm"), "-m", self.method]
        if self.ascii:
            argv.append("--ascii")
        if self.files:
            argv += ["--report", str(out_dir / "report.json"), "--histograms", str(out_dir / "hist")]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-4k", "compare", False, True, "P5", 4096, 128, (_doc_scan,), 1),
        Workload("ascii-1k", "iterative", True, False, "P2", 1024, 64, (_bimodal,), 1),
        Workload(
            "batch-256", "compare", False, True, "P5", 256, 32,
            (_doc_scan, _uniform, _skewed, _constant), 8,
        ),
    )
}
