"""Per-module spans recorded from outside ``bilevel``, with no edit to its source.

``Tracer.install`` swaps a timing wrapper in for each public function named
in ``TARGETS``: on its defining module and on every ``bilevel`` module that
imported it by name (``from .histogram import build_histogram`` binds a
second reference in ``threshold`` and ``cli``). The image classes' validating
``__post_init__`` methods are wrapped on the class. A target that no longer
exists is recorded as absent and never called, instead of failing the run.

Spans are kept in memory as ``[call, name, start_ns, end_ns, parent]`` and
written as JSON lines when the run ends. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module under bilevel, attribute or Class.method); the span is named
# <module>.<attribute> with any ".__post_init__" dropped.
TARGETS = (
    ("cli", "main"),
    ("pgm", "read_pgm"),
    ("pgm", "write_pgm"),
    ("image", "GrayImage.__post_init__"),
    ("image", "BinaryImage.__post_init__"),
    ("histogram", "build_histogram"),
    ("histogram", "global_mean"),
    ("histogram", "class_mean"),
    ("threshold", "mean_threshold"),
    ("threshold", "iterative_optimum_threshold"),
    ("threshold", "binarize"),
    ("report", "emit_report"),
    ("report", "emit_histogram_csv"),
)


class Tracer:
    """Wraps the targets once installed; collects spans and counters per call."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._call = 0
        self._mark = 0

    def install(self) -> None:
        for module, attr in self.targets:
            name = f"{module}.{attr.removesuffix('.__post_init__')}"
            try:
                mod = importlib.import_module(f"bilevel.{module}")
            except ImportError:
                self.absent.append(name)
                continue
            owner, _, method = attr.rpartition(".")
            owner = getattr(mod, owner, None) if owner else mod
            original = getattr(owner, method, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            setattr(owner, method, wrapper)
            if owner is mod:
                self._rebind(original, wrapper)
        # Pixels counted, wherever the histogram is built from.
        self._count_bincount()

    def _rebind(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bilevel" or mod_name.startswith("bilevel.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self._call, name, time.perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter_ns()
            if name == "pgm.read_pgm":
                self.counters["pgm.bytes_read"] += len(args[0])
            elif name == "pgm.write_pgm":
                self.counters["pgm.bytes_written"] += len(result)
            return result

        return wrapper

    def _count_bincount(self) -> None:
        original = np.bincount
        counters = self.counters

        @functools.wraps(original)
        def bincount(x, *args, **kwargs):
            counters["histogram.pixels_counted"] += np.size(x)
            return original(x, *args, **kwargs)

        np.bincount = bincount

    def take_call(self) -> dict:
        """Self time (ns), calls per span name and counters for the call just made."""
        spans = self.spans[self._mark :]
        child_ns = [0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= self._mark:
                child_ns[parent - self._mark] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for (_, name, start, end, _), inner in zip(spans, child_ns):
            self_ns[name] += end - start - inner
            calls[name] += 1
        out = {"self_ns": dict(self_ns), "calls": dict(calls), "counters": dict(self.counters)}
        self.counters.clear()
        self._mark = len(self.spans)
        self._call += 1
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for call, name, start, end, parent in self.spans:
                fh.write(json.dumps({"call": call, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
