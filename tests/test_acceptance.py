"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s``). Criteria 1-6 exercise
the library directly; criterion 7 drives the installed CLI through a
subprocess. The last test pins the public API.
"""

import importlib
import json
import math
import time

import numpy as np

import bilevel
from bilevel import (
    GrayImage,
    PgmError,
    PgmFormatError,
    RunReport,
    SampleRangeError,
    TruncatedDataError,
    UnsupportedDepthError,
    binarize,
    build_histogram,
    emit_histogram_csv,
    emit_report,
    fixed_point_oracle,
    global_mean,
    iterative_optimum_threshold,
    mean_threshold,
    read_pgm,
    save_pgm,
    write_pgm,
)
from helpers import Reference, bimodal_gray_image, image_of, random_gray_image, run_cli

SEED = 20260808


def verdict(criterion: str, ok: bool) -> None:
    print(f"\nacceptance [{criterion}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def test_criterion_1_oracle_equivalence():
    """>= 1000 random images: the iterative optimum lands within 1 of an
    exhaustively scanned fixed point, with zero failures, in under 10 s."""
    rng = np.random.default_rng(SEED)
    failures = 0
    checked = 0
    started = time.perf_counter()
    for index in range(1200):
        img = random_gray_image(rng) if index % 2 == 0 else bimodal_gray_image(rng)
        result = iterative_optimum_threshold(img)
        if np.unique(img.pixels).size < 2:
            continue
        checked += 1
        oracle = fixed_point_oracle(build_histogram(img))
        if not oracle or min(abs(result.optimum - t) for t in oracle) > 1.0:
            failures += 1
    elapsed = time.perf_counter() - started
    assert checked >= 1000
    verdict("1 oracle equivalence", failures == 0 and elapsed < 10.0)


def test_criterion_2_hand_trace_fixtures():
    """The worked single-trace fixtures reproduce exactly, no tolerance."""
    one_step = iterative_optimum_threshold(image_of([10, 20, 30, 40]))
    ok = (
        one_step.estimate == 25.0
        and one_step.optimum == 25.0
        and one_step.converged
        and len(one_step.iterations) == 1
        and one_step.iterations[0]
        == type(one_step.iterations[0])(estimate=25.0, m1=15.0, m2=35.0, total_mean=25.0)
    )

    two_step = iterative_optimum_threshold(image_of([0, 0, 0, 100]))
    ok = ok and (
        two_step.estimate == 25.0
        and two_step.optimum == 50.0
        and two_step.converged
        and len(two_step.iterations) == 2
        and (two_step.iterations[0].estimate, two_step.iterations[0].m1,
             two_step.iterations[0].m2, two_step.iterations[0].total_mean)
        == (25.0, 0.0, 100.0, 50.0)
        and (two_step.iterations[1].estimate, two_step.iterations[1].total_mean)
        == (50.0, 50.0)
    )

    flat = iterative_optimum_threshold(GrayImage.from_flat(3, 3, [7] * 9))
    ok = ok and (
        flat.degenerate
        and not flat.converged
        and flat.optimum == 7.0
        and flat.iterations[0].m2 is None
        and flat.iterations[0].total_mean is None
    )
    verdict("2 hand-trace fixtures", ok)


def test_criterion_3_synthetic_bimodal():
    """Two-delta histograms: the balanced mix agrees across methods, the
    unbalanced mix separates the raw mean from the iterative optimum."""
    balanced = image_of([40] * 500 + [160] * 500)
    ok = (
        mean_threshold(balanced).optimum == 100.0
        and iterative_optimum_threshold(balanced).optimum == 100.0
    )

    unbalanced = image_of([40] * 900 + [160] * 100)
    mean_result = mean_threshold(unbalanced)
    iter_result = iterative_optimum_threshold(unbalanced)
    ok = ok and (
        mean_result.optimum == 52.0
        and iter_result.estimate == 52.0
        and iter_result.optimum == 100.0
        and iter_result.optimum != mean_result.optimum
    )
    verdict("3 synthetic bimodal", ok)


def test_criterion_4_invariant_suite():
    """Randomized invariants, 200 seeded cases each, zero failures."""
    cases = 200
    failures = []

    rng = np.random.default_rng(SEED + 1)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=24)
        out = binarize(img, float(rng.uniform(0, 255)))
        if not set(np.unique(out.pixels)) <= {0, 255}:
            failures.append("output-alphabet")
            break

    rng = np.random.default_rng(SEED + 2)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=24)
        first = binarize(img, float(rng.uniform(0, 255)))
        again = binarize(first.to_gray(), float(rng.uniform(0.001, 254.999)))
        if again != first:
            failures.append("idempotence")
            break

    rng = np.random.default_rng(SEED + 3)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=16)
        flat = img.pixels.reshape(-1).copy()
        rng.shuffle(flat)
        shuffled = GrayImage.from_flat(img.width, img.height, flat)
        if (
            build_histogram(shuffled) != build_histogram(img)
            or mean_threshold(shuffled) != mean_threshold(img)
            or iterative_optimum_threshold(shuffled) != iterative_optimum_threshold(img)
        ):
            failures.append("permutation-invariance")
            break

    rng = np.random.default_rng(SEED + 4)
    for _ in range(cases):
        side = (int(rng.integers(1, 17)), int(rng.integers(1, 17)))
        base = rng.integers(0, 156, size=side, dtype=np.uint8)
        shift = int(rng.integers(1, 100))
        img, shifted = GrayImage(base), GrayImage(base + shift)
        mean_ok = math.isclose(
            mean_threshold(shifted).optimum, mean_threshold(img).optimum + shift, abs_tol=1e-9
        )
        iter_ok = math.isclose(
            iterative_optimum_threshold(shifted).optimum,
            iterative_optimum_threshold(img).optimum + shift,
            abs_tol=1e-6,
        )
        if not (mean_ok and iter_ok):
            failures.append("shift-equivariance")
            break

    rng = np.random.default_rng(SEED + 5)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=24)
        if build_histogram(img).total != img.width * img.height:
            failures.append("histogram-conservation")
            break

    rng = np.random.default_rng(SEED + 6)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=24)
        if global_mean(build_histogram(img)) != Reference(img.pixels).mean:
            failures.append("mean-equivalence")
            break

    rng = np.random.default_rng(SEED + 7)
    for _ in range(cases):
        img = random_gray_image(rng, max_side=16)
        hist = build_histogram(img)
        mean = global_mean(hist)
        t = int(rng.integers(0, 255))
        lower = hist.counts[: t + 1]
        n1 = int(lower.sum())
        n2 = hist.total - n1
        recombined = 0.0
        if n1:
            recombined += n1 * (int(np.dot(np.arange(t + 1), lower)) / n1)
        if n2:
            upper = hist.counts[t + 1 :]
            recombined += n2 * (int(np.dot(np.arange(t + 1, 256), upper)) / n2)
        if not math.isclose(recombined, hist.total * mean, rel_tol=1e-12, abs_tol=1e-9):
            failures.append("decomposition")
            break

    verdict("4 invariant suite", not failures)


def test_criterion_5_pgm_round_trip_and_rejections():
    """100 random images survive write-read bit-exactly in both flavors and
    the malformed corpus is rejected with the right error classes."""
    rng = np.random.default_rng(SEED + 8)
    round_trip_ok = True
    for _ in range(100):
        img = random_gray_image(rng)
        for flavor in ("P2", "P5"):
            if read_pgm(write_pgm(img, flavor)) != img:
                round_trip_ok = False

    corpus = [
        (b"P3\n1 1\n255\n0\n", PgmFormatError),
        (b"P6\n1 1\n255\n\x00", PgmFormatError),
        (b"garbage", PgmFormatError),
        (b"P2\n1 1\n254\n0\n", UnsupportedDepthError),
        (b"P5\n1 1\n65535\n\x00\x00", UnsupportedDepthError),
        (b"P2\n2 2\n255\n0 0 0\n", TruncatedDataError),
        (b"P5\n2 2\n255\n\x00\x01", TruncatedDataError),
        (b"P2\n1 1\n255\n256\n", SampleRangeError),
        (b"P2\n2 1\n255\n0 1 2\n", PgmFormatError),
        (b"P5\n1 1\n255\n\x00\x01", PgmFormatError),
    ]
    rejections_ok = True
    for data, expected in corpus:
        try:
            read_pgm(data)
            rejections_ok = False
        except PgmError as exc:
            if not isinstance(exc, expected):
                rejections_ok = False
    verdict("5 pgm round-trip and rejections", round_trip_ok and rejections_ok)


def test_criterion_6_performance(tmp_path):
    """A 1024x1024 image finishes load + both procedures + binarize +
    report in under 100 ms."""
    rng = np.random.default_rng(SEED + 9)
    path = tmp_path / "big.pgm"
    save_pgm(path, GrayImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8)))

    started = time.perf_counter()
    img = read_pgm(path.read_bytes())
    mean_result = mean_threshold(img)
    iter_result = iterative_optimum_threshold(img)
    binary = binarize(img, iter_result.optimum)
    report = emit_report(
        RunReport(
            str(path), img.width, img.height,
            mean_result=mean_result, iterative_result=iter_result,
        )
    )
    csv_in = emit_histogram_csv(build_histogram(img))
    csv_out = emit_histogram_csv(build_histogram(binary))
    elapsed = time.perf_counter() - started

    assert report and csv_in and csv_out
    verdict("6 performance (1024x1024 < 100 ms)", elapsed < 0.100)


def test_criterion_7_cli_contract(tmp_path):
    """Exit codes, the no-partial-output rule, and byte-identical reruns."""
    inp = tmp_path / "img.pgm"
    save_pgm(inp, GrayImage.from_flat(4, 1, [10, 20, 30, 40]))
    ok = True

    out = tmp_path / "out.pgm"
    proc = run_cli(["-i", inp, "-o", out, "-m", "mean"])
    ok = ok and proc.returncode == 0 and out.exists()
    ok = ok and proc.stdout == "mean estimate=25 optimum=25 iterations=0\n"

    proc = run_cli(["-i", tmp_path / "absent.pgm", "-o", tmp_path / "x.pgm", "-m", "mean"])
    ok = ok and proc.returncode == 1 and not (tmp_path / "x.pgm").exists()

    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n0 0 0\n")
    proc = run_cli(["-i", bad, "-o", tmp_path / "y.pgm", "-m", "mean"])
    ok = ok and proc.returncode == 2 and not (tmp_path / "y.pgm").exists()

    proc = run_cli(["-i", inp, "-o", out, "-m", "nonsense"])
    ok = ok and proc.returncode == 3
    proc = run_cli(["-i", inp, "-o", out, "-m", "compare"])  # compare needs --report
    ok = ok and proc.returncode == 3

    report = tmp_path / "report.json"
    proc = run_cli(
        ["-i", inp, "-o", tmp_path / "no-such-dir" / "out.pgm", "-m", "mean", "--report", report]
    )
    ok = ok and proc.returncode == 1 and not report.exists()
    ok = ok and not [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]

    workdir = tmp_path / "rerun"
    workdir.mkdir()
    args = [
        "-i", inp, "-o", workdir / "out.pgm", "-m", "compare",
        "--report", workdir / "report.json", "--histograms", workdir / "hists",
    ]
    first_proc = run_cli(args)
    first = {p: p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    second_proc = run_cli(args)
    second = {p: p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    ok = ok and first_proc.returncode == 0 and second_proc.returncode == 0
    ok = ok and first_proc.stdout == second_proc.stdout
    ok = ok and len(first) == 5 and first == second
    ok = ok and json.loads((workdir / "report.json").read_text())["methods"].keys() >= {"mean", "iterative"}

    verdict("7 cli contract", ok)


# The public API, by defining module. This is the one place that restates
# the modules' __all__ lists: a new public name goes into its module's list
# and here.
PUBLIC_API = {
    "histogram": ["EmptyInputError", "Histogram", "build_histogram", "class_mean", "global_mean"],
    "image": ["BinaryImage", "GrayImage"],
    "pgm": [
        "PgmError", "PgmFormatError", "SampleRangeError", "TruncatedDataError",
        "UnsupportedDepthError", "load_pgm", "read_pgm", "save_pgm", "write_pgm",
    ],
    "report": ["RunReport", "emit_histogram_csv", "emit_report", "round_half_up"],
    "threshold": [
        "IterationStep", "ThresholdResult", "binarize", "binarized_histogram",
        "fixed_point_oracle", "iterative_optimum_threshold", "mean_threshold",
        "select_iterative", "select_mean",
    ],
}


def test_public_api_is_pinned():
    """``bilevel`` exports exactly the pinned names, each its defining module's object."""
    names = sorted(name for module_names in PUBLIC_API.values() for name in module_names)
    assert sorted(bilevel.__all__) == names
    assert len(set(bilevel.__all__)) == len(bilevel.__all__)
    for module_name, module_names in PUBLIC_API.items():
        module = importlib.import_module(f"bilevel.{module_name}")
        assert sorted(module.__all__) == module_names
        for name in module_names:
            assert getattr(bilevel, name) is getattr(module, name)
            assert getattr(bilevel, name).__module__ == module.__name__
    namespace = {}
    exec("from bilevel import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
