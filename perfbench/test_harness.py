"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

The output check must notice a single flipped byte and a wrong threshold;
a missing wrap target must be reported, not fatal; and a smoke run of every
workload at tiny size must succeed and print every metric of
``BENCHMARK.json``, and the ungated tail figures, by name with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgmfmt
from bilevel.cli import main
from check import Reference, check_call
from workloads import WORKLOADS, Case, _doc_scan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scan_call(tmp_path, capsys):
    """One real CLI call shaped like a scan-4k call, on a small image, checked once."""
    workload = WORKLOADS["scan-4k"]
    pixels = _doc_scan(np.random.default_rng(7), 64)
    case = Case(tmp_path / "in.pgm", pixels)
    case.path.write_bytes(pgmfmt.encode(pixels, workload.input_flavor))
    outputs = workload.outputs(case, tmp_path)
    code = main(workload.argv(case, tmp_path))
    stdout = capsys.readouterr().out
    ref = Reference(pixels)
    assert check_call(ref, workload.methods, workload.flavor, code, stdout, outputs) == []
    return workload, ref, stdout, outputs


def test_flipped_output_byte_fails_the_check(scan_call):
    workload, ref, stdout, outputs = scan_call
    for role, path in outputs.items():
        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[len(flipped) // 2] ^= 0x01
        path.write_bytes(bytes(flipped))
        problems = check_call(ref, workload.methods, workload.flavor, 0, stdout, outputs)
        assert problems and role in problems[0], role
        path.write_bytes(original)
    assert check_call(ref, workload.methods, workload.flavor, 0, stdout, outputs) == []


def test_wrong_threshold_fails_the_check(scan_call):
    workload, ref, stdout, outputs = scan_call
    lines = stdout.splitlines()
    for index, line in enumerate(lines):
        head, _, tail = line.partition(" optimum=")
        optimum, _, rest = tail.partition(" ")
        wrong = repr(np.nextafter(float(optimum), 256.0))
        bad = lines[:index] + [f"{head} optimum={wrong} {rest}"] + lines[index + 1 :]
        assert check_call(ref, workload.methods, workload.flavor, 0, "\n".join(bad) + "\n", outputs)

    # Right stdout, but an output binarized at another threshold.
    mean = ref.mean
    wrong_t = next(t for t in range(256) if ref.binary_pgm(t, "P5") != ref.binary_pgm(mean, "P5"))
    outputs["mean"].write_bytes(ref.binary_pgm(wrong_t, "P5"))
    assert check_call(ref, workload.methods, workload.flavor, 0, stdout, outputs)


def test_failed_exit_code_fails_the_check(scan_call):
    workload, ref, stdout, outputs = scan_call
    assert check_call(ref, workload.methods, workload.flavor, 1, stdout, outputs) == ["exit code 1"]


def test_degenerate_and_fixed_point_expectations():
    constant = Reference(np.full((4, 4), 9, dtype=np.uint8))
    assert constant.iterative_ok(9.0) and not constant.iterative_ok(8.0)
    two = Reference(np.array([[10, 20, 30, 40]], dtype=np.uint8))
    assert two.mean == 25.0 and two.iterative_ok(25.0) and not two.iterative_ok(24.0)


def test_missing_wrap_target_is_reported_not_fatal(tmp_path):
    # Run in a child so that the wrapping never leaks into this process.
    script = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
import bilevel.histogram, bilevel.threshold, bilevel.cli
del bilevel.histogram.class_mean          # as if a later change deleted it
from spans import TARGETS, Tracer
tracer = Tracer(targets=TARGETS + (("threshold", "ITERATION_CAP"), ("nosuchmodule", "f")))
tracer.install()
from pathlib import Path
Path({str(tmp_path / "in.pgm")!r}).write_bytes(b"P5\\n2 1\\n255\\n" + bytes([10, 200]))
code = bilevel.cli.main(["-i", {str(tmp_path / "in.pgm")!r}, "-o", {str(tmp_path / "o.pgm")!r}, "-m", "iterative"])
print(code, sorted(tracer.absent), tracer.take_call()["calls"].get("histogram.class_mean", 0))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    last = out.stdout.strip().splitlines()[-1]
    assert last == (
        "0 ['histogram.class_mean', 'nosuchmodule.f', 'threshold.ITERATION_CAP'] 0"
    ), out.stdout + out.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_of_every_workload(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in SPEC["workloads"]:
        for metric in wanted:
            got = result["metrics"][f"{workload['name']}/{metric['name']}"]
            assert got["unit"] == metric["unit"] and np.isfinite(got["value"])
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for metric in wanted:
        assert printed[metric["name"]] == metric["unit"]
    assert printed["error_rate"] == "ratio"
    if not trace:  # printed for information, outside BENCHMARK.json
        assert printed["latency_p90_ms"] == "ms" and printed["mpix_per_s_mean"] == "Mpixel/s"
    assert sum(line.startswith("error_rate 0 ratio") for line in lines) == len(SPEC["workloads"])


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-4k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
