"""Benchmark of the bilevel CLI, driven in process through ``bilevel.cli.main(argv)``.

    python3 perfbench/run.py --workload scan-4k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller in a closed loop: each call starts after the previous one has
committed its outputs and they have been checked (outside the timed
interval) by ``check.py``. Calls run in a separate worker process
(``worker.py``) that holds only the import and the calls, so its peak
memory is the program's. Set-up time is taken in fresh interpreters.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates the
calls between an untraced and a traced worker (``spans.py``) and prints the
per-layer metrics. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Inputs, outputs and spans live in ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from check import Reference, check_call, parse_summary
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Fresh interpreters per run, half before and half after the timed loop so
# that one busy spell of the machine does not cover all of them; setup_s is
# their median.
SETUP_SPAWNS = 20
MIN_SAMPLES = 3  # timed calls per phase even when --seconds is shorter than a call

# Spans whose self time (<span>.self_ms) and call count (<span>.calls) are
# per-layer metrics of a traced run.
SELF_MS = (
    "cli.main", "pgm.read_pgm", "pgm.write_pgm", "image.GrayImage", "image.BinaryImage",
    "histogram.build_histogram", "threshold.iterative_optimum_threshold", "threshold.binarize",
)
CALLS = ("image.BinaryImage", "histogram.build_histogram", "histogram.class_mean")


@dataclass
class Phase:
    """What one worker's timed loop measured."""

    samples_ms: list[float] = field(default_factory=list)
    mpix_per_s: list[float] = field(default_factory=list)  # of each call
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    pixels: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    files: int = 0
    iterations: int = 0
    self_ns: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0
    absent: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.samples_ms)

    def per_call(self, total: float) -> float:
        return total / self.n


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git; "unknown" elsewhere."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(spawns: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import bilevel`` returns.

    The child reports ``time.monotonic()`` right after the import; on Linux
    that clock is shared by all processes. One spawn is discarded first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import time, bilevel; print(time.monotonic())"
    times = []
    for i in range(spawns + 1):
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        if i:
            times.append(float(done.stdout) - started)
    return times


def drive(workload: Workload, cases, refs, order, out_dir: Path, seconds: float,
          spans_paths=(None,)) -> list[Phase]:
    """Run the closed loop until each worker has ``seconds`` of timed calls.

    One fresh worker per entry of ``spans_paths`` (traced when it is a path).
    Calls alternate between the workers, so all of them see the same spells
    of machine load; each first makes one untimed warm-up call per input.
    """
    workers, phases = [], []
    try:
        for spans_path in spans_paths:
            command = [sys.executable, str(HERE / "worker.py"), str(SRC)]
            if spans_path is not None:
                command.append(str(spans_path))
            workers.append(subprocess.Popen(command, cwd=ROOT, stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE, text=True))
            phases.append(Phase())
        for _ in range(len(cases)):
            for worker, phase in zip(workers, phases):
                _call(workload, cases, refs, next(order), out_dir, worker, phase, timed=False)
        while any(p.timed_s < seconds or p.n < MIN_SAMPLES for p in phases):
            for worker, phase in zip(workers, phases):
                _call(workload, cases, refs, next(order), out_dir, worker, phase, timed=True)
        for worker, phase in zip(workers, phases):
            final = _ask(worker, None)
            phase.peak_rss_mb = final["peak_rss_mb"]
            phase.absent = final.get("absent", [])
    finally:
        for worker in workers:
            worker.stdin.close()
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
            worker.stdout.close()
    return phases


def _call(workload: Workload, cases, refs, index: int, out_dir: Path,
          worker: subprocess.Popen, phase: Phase, timed: bool) -> None:
    """One call on a fresh set of output paths, checked and added to ``phase``."""
    case = cases[index]
    outputs = workload.outputs(case, out_dir)
    for path in outputs.values():
        path.unlink(missing_ok=True)
    reply = _ask(worker, workload.argv(case, out_dir))
    problems = check_call(refs[index], workload.methods, workload.flavor,
                          reply["code"], reply["stdout"], outputs)
    phase.attempted += 1
    if problems:
        phase.failed += 1
        print(f"perfbench: call on {case.path.name} failed: {'; '.join(problems)}", file=sys.stderr)
    if not timed:
        return
    phase.samples_ms.append(reply["ms"])
    phase.mpix_per_s.append(case.pixels.size / 1e3 / reply["ms"])
    phase.timed_s += reply["ms"] / 1e3
    phase.pixels += case.pixels.size
    phase.input_bytes += case.path.stat().st_size
    if not problems:
        phase.files += len(outputs)
        phase.output_bytes += sum(p.stat().st_size for p in outputs.values())
        phase.iterations += parse_summary(reply["stdout"]).get("iterative", (0, 0, 0))[2]
    if "trace" in reply:
        phase.self_ns.update(reply["trace"]["self_ns"])
        phase.calls.update(reply["trace"]["calls"])
        phase.counters.update(reply["trace"]["counters"])


def _ask(worker: subprocess.Popen, argv) -> dict:
    worker.stdin.write(json.dumps(argv) + "\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with code {worker.wait()}")
    return json.loads(line)


def end_to_end(phase: Phase, setup: list[float]) -> dict:
    """The gated metrics: medians, so that the slowest calls, which other
    tenants of a shared host decide, do not move them."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_ms": (statistics.median(phase.samples_ms), "ms"),
        "mpix_per_s": (statistics.median(phase.mpix_per_s), "Mpixel/s"),
        "peak_rss_mb": (phase.peak_rss_mb, "MiB"),
    }


def tail(phase: Phase) -> dict:
    """Printed for information, not gated: the tail and the mean follow the host's load."""
    return {
        "latency_p90_ms": (statistics.quantiles(phase.samples_ms, n=10)[8], "ms"),
        "mpix_per_s_mean": (phase.pixels / 1e6 / phase.timed_s, "Mpixel/s"),
    }


def per_layer(traced: Phase, untraced: Phase) -> dict:
    ms = {name: traced.per_call(traced.self_ns.get(name, 0)) / 1e6 for name in SELF_MS}
    metrics = {f"{name}.self_ms": (value, "ms") for name, value in ms.items()}
    metrics.update({f"{name}.calls": (traced.per_call(traced.calls.get(name, 0)), "count") for name in CALLS})
    metrics.update({
        "cli.files_written": (traced.per_call(traced.files), "count"),
        "cli.bytes_written": (traced.per_call(traced.output_bytes), "bytes"),
        "pgm.bytes_read": (traced.per_call(traced.counters["pgm.bytes_read"]), "bytes"),
        "pgm.bytes_written": (traced.per_call(traced.counters["pgm.bytes_written"]), "bytes"),
        "histogram.pixel_pass_ratio": (traced.counters["histogram.pixels_counted"] / traced.pixels, "ratio"),
        "threshold.iterations": (traced.per_call(traced.iterations), "count"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced.samples_ms) / statistics.median(untraced.samples_ms) - 1.0), "%"),
    })
    return metrics


def print_layers(traced: Phase) -> None:
    """Every span's self time and calls per call, and each module's share of the call."""
    total = sum(traced.self_ns.values())  # every span nests under cli.main
    modules: Counter = Counter()
    for name in sorted(traced.self_ns):
        modules[name.split(".")[0]] += traced.self_ns[name]
        print(f"span {name} self_ms={traced.per_call(traced.self_ns[name]) / 1e6:.4f} "
              f"calls={traced.per_call(traced.calls[name]):g}")
    for module, ns in modules.most_common():
        print(f"module {module} self_ms={traced.per_call(ns) / 1e6:.4f} share={ns / total:.3f}")
    for name in traced.absent:
        print(f"span {name} absent calls=0")


def run_workload(workload: Workload, why: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    in_dir, out_dir = run_dir / "in", run_dir / "out"
    in_dir.mkdir(parents=True)
    out_dir.mkdir()
    try:
        cases = workload.make_inputs(seed, in_dir.relative_to(ROOT), tiny)
        refs = [Reference(case.pixels) for case in cases]
        order = workload.schedule(seed, len(cases))
        out_rel = out_dir.relative_to(ROOT)
        if trace:
            spans_path = WORK / f"spans-{workload.name}.jsonl"
            untraced, traced = drive(workload, cases, refs, order, out_rel, seconds / 2, (None, spans_path))
            print_layers(traced)
            phases, metrics, main = (untraced, traced), per_layer(traced, untraced), traced
            info = {}
        else:
            setup = measure_setup(SETUP_SPAWNS // 2)
            (main,) = drive(workload, cases, refs, order, out_rel, seconds)
            setup += measure_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)
            phases, metrics, info = (main,), end_to_end(main, setup), tail(main)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    bases = {
        "pixels_per_call": main.per_call(main.pixels),
        "input_bytes_per_call": main.per_call(main.input_bytes),
        "output_bytes_per_call": main.per_call(main.output_bytes),
    }
    print(f"workload {workload.name} seed={seed} trace={int(trace)} why: {why}")
    print("bases " + " ".join(f"{k}={v:.10g}" for k, v in bases.items()))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} {value:.10g} {unit}")
    print(f"error_rate {failed / attempted:g} ratio ({failed} of {attempted} calls failed; "
          f"latency over n={main.n} timed calls, {main.n // 10} beyond p90)")
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "bases": bases,
        "samples_ms": main.samples_ms,
        "absent": main.absent,
        "info": {name: {"value": value, "unit": unit} for name, (value, unit) in info.items()},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed call seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small images, for smoke tests of the harness")
    args = parser.parse_args(argv)

    if not (SRC / "bilevel" / "__init__.py").is_file():
        print(f"perfbench: no bilevel package under {SRC}", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # call arguments and the report name inputs by paths relative to the root
    env = environment()
    print("env " + json.dumps(env))
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], why[n], args.seed, args.seconds, bool(args.trace), args.tiny)
               for n in names]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        path = WORK / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, **result}, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
