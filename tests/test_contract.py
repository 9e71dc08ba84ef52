"""README's file contract for the CLI and ``save_pgm``, as one model that a hypothesis state machine checks.

``Contract`` keeps one directory between runs, so reruns onto old outputs are covered too. Its rules plant
an entry where a run may write, and run ``bilevel.cli.main`` or ``save_pgm`` in process while the ``Faults``
proxy fails one of the calls that the run makes on a copy, and maybe an undo after it, or one body chunk
raises. ``Contract.expect`` predicts each run from README alone, not from ``cli``: the exit code, the start
of the stderr line and what it names. A run that succeeds leaves each target holding the bytes that the
same run makes in a fresh directory, and changes nothing else; a run that fails changes nothing, but for
the entry whose undo was made to fail and README's one gap (ROADMAP item 4). Fixed shapes replay every
failing call and undo on the same model, and so do the named scenarios of ``tests/test_cli.py``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

import bilevel.cli
from bilevel import save_pgm, write_pgm
from helpers import ERRNOS, IMAGE, PROXIED, UNDOS, Outcome, Plan, Run, entry, execute, snapshot

TMP, ERROR = f".tmp-{os.getpid()}", "bilevel: error: "
# Where an entry may be planted: targets, a --histograms path and its parent, and two temp names.
NAMES = ("out.pgm", "out.mean.pgm", "out.iter.pgm", "r.json", "h", "a", "sub/out.pgm", f".out.pgm{TMP}", f".r.json{TMP}")
LINKS = {"file-link": "keep.txt", "dangling-link": "nowhere", "dir-link": "sub", "input-link": "in.pgm"}
KINDS = ("file", *LINKS, "hard-link", "dir", "absent")  # the first choice is the one drawn most


def nth(calls: list[str], n: int) -> tuple[str, int]:
    """Call n (from 1) as a plan names it: its kind, and its count among the calls of that kind."""
    return calls[n - 1], calls[:n].count(calls[n - 1])


def layout(root: Path) -> None:
    """The input under three names, a malformed input, and entries to link to."""
    (root / "in.pgm").write_bytes(write_pgm(IMAGE))
    os.link(root / "in.pgm", root / "hin.pgm")
    (root / "lin.pgm").symlink_to("in.pgm")
    (root / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0\n")
    (root / "keep.txt").write_bytes(b"a file that links point to\n")
    (root / "sub").mkdir()
    (root / "alias").symlink_to(".")


# Each argument comes first from the values that reach the commit, where most faults land.
RUNS = st.builds(
    Run,
    input=st.just("in.pgm") | st.sampled_from(["lin.pgm", "hin.pgm", "bad.pgm", "missing.pgm"]),
    output=st.sampled_from(["out.pgm", "sub/out.pgm"])
    | st.sampled_from(["missing/out.pgm", "in.pgm", "lin.pgm", "alias/in.pgm"]),
    method=st.sampled_from(["compare", "mean", "iterative"]),
    ascii=st.booleans(),
    report=st.just("r.json") | st.sampled_from([None, "missing/r.json", "out.pgm", "out.iter.pgm", "alias/out.pgm",
                                                "h/in.input.csv", "in.pgm", "alias/in.pgm"]),
    histograms=st.sampled_from(["h", "a/b/h"]) | st.sampled_from([None, "sub", "keep.txt"]),
)
FAULTS = st.sampled_from(["call", "chunk", None])
REACHED: set[tuple[str, str]] = set()  # ("call" or "undo", the kind of call made to fail), over every run


@functools.cache
def fresh_run(run: Run, content: bytes) -> tuple[int, str, dict]:
    """The run's exit code, stdout and target entries in a fresh directory where the input is a file of ``content``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        layout(root)
        (root / run.input).unlink(missing_ok=True)
        (root / run.input).write_bytes(content)
        for target in run.targets():
            with contextlib.suppress(OSError):  # a file in the way fails this run and the one checked alike
                (root / target).parent.mkdir(parents=True, exist_ok=True)
        outcome = execute(root, lambda: bilevel.cli.main(run.argv()))
        after = snapshot(root)
        return outcome.result, outcome.stdout, {t: after.get(entry(root, t)) for t in run.targets()}


class Contract(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.root, self.copy = Path(self.tmp.name).resolve() / "run", Path(self.tmp.name).resolve() / "copy"
        self.root.mkdir()
        layout(self.root)

    def teardown(self):
        self.tmp.cleanup()

    @rule(name=st.sampled_from(NAMES), kind=st.sampled_from(KINDS))
    def plant(self, name, kind):
        path = self.root / name
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)
        if kind == "file":
            path.write_bytes(b"an earlier file\n")
        elif kind == "dir":
            path.mkdir()
        elif kind == "hard-link":
            os.link(self.root / "in.pgm", path)
        elif kind in LINKS:
            path.symlink_to(os.path.relpath(self.root / LINKS[kind], path.parent))

    def on_copy(self, call, plan: Plan = Plan()) -> list[str]:
        """The kinds of call that ``call`` makes under ``plan`` on a hard-linked copy of the directory, in order."""
        shutil.rmtree(self.copy, ignore_errors=True)
        shutil.copytree(self.root, self.copy, symlinks=True, copy_function=os.link)
        return [name for name, _ in execute(self.copy, call, plan).calls]

    def plan(self, fault: str | None, data, call) -> Plan:
        """A plan for ``fault``: a failing call is one that ``call`` makes on a copy, its kind drawn first,
        and the undo that may fail too is one that the copy's rollback from it makes."""
        if fault != "call":
            raises = st.sampled_from([OSError, MemoryError, KeyboardInterrupt])
            return Plan(chunk=data.draw(st.integers(1, 4)), raises=data.draw(raises)) if fault else Plan()
        calls = self.on_copy(call)
        if not calls:
            return Plan()
        kind = data.draw(st.sampled_from(sorted(set(calls), key=["replace", "mkdir", "open", *PROXIED].index)))
        counts = range(1, calls.count(kind) + 1)  # counted from either end, so last calls come up too
        count = data.draw(st.sampled_from(counts) | st.sampled_from(counts[::-1]))
        plan = Plan((kind, count), how=data.draw(st.sampled_from(ERRNOS)))
        if data.draw(st.booleans()):
            failed = self.on_copy(call, plan)
            k = [n for n, name in enumerate(calls, 1) if name == kind][count - 1]  # the failing call's number
            rollback = failed[k:]
            if rollback:  # one of its calls, the kind drawn first
                undo = data.draw(st.sampled_from(sorted(set(rollback))))
                m = data.draw(st.integers(1, rollback.count(undo)))
                plan = plan._replace(undo=(undo, failed[:k].count(undo) + m))
        return plan

    @rule(run=RUNS, fault=FAULTS, data=st.data())
    def cli(self, run, fault, data):
        self.check_cli(run, self.plan(fault, data, lambda: bilevel.cli.main(run.argv())))

    @rule(run=RUNS, fault=FAULTS, data=st.data())
    def rerun(self, run, fault, data):  # without faults, then again onto what that left
        self.check_cli(run)
        self.cli(run, fault, data)

    @rule(method=st.sampled_from(["compare", "mean"]), ascii=st.booleans(), histograms=st.sampled_from(["h", "a/b/h"]),
          data=st.data())
    def commit(self, method, ascii, histograms, data):  # a run that gets to its commit, making directories, fails
        self.cli(Run("in.pgm", "out.pgm", method, ascii, "r.json", histograms), "call", data)

    @rule(name=st.sampled_from((*NAMES, "sub", "missing/out.pgm")), ascii=st.booleans(), fault=FAULTS, data=st.data())
    def save(self, name, ascii, fault, data):
        flavor = "P2" if ascii else "P5"
        self.check_save(name, flavor, self.plan(fault, data, lambda: save_pgm(name, IMAGE, flavor)))

    def expect(self, run: Run, fresh) -> tuple[set[int], str, list[str]]:
        """README's exit codes for ``run`` without faults, the start of its stderr's last line, and what it may name."""
        if run.method == "compare" and run.report is None:
            return {3}, ERROR, []
        if fresh is None:
            return {1}, f"{ERROR}cannot read {run.input}: ", []
        if fresh[0] == 2:  # malformed, as a fresh run finds it
            return {2}, f"{ERROR}{run.input}: ", []
        targets = run.targets()
        entries = [entry(self.root, t) for t in targets]
        inputs = {entry(self.root, run.input), entry(self.root, os.path.realpath(self.root / run.input))}
        # Onto the input or another output (3), or onto a directory, also behind a symlink (1).
        refused = {t: 3 if e in inputs or e in entries[:n] else 1 for n, (t, e) in enumerate(zip(targets, entries))
                   if e in inputs or e in entries[:n] or (self.root / t).is_dir()}
        if refused:  # README orders no two refusals, so any may win
            return set(refused.values()), ERROR, list(refused)
        made, hist = set(), Path(run.histograms or ".")
        for directory in reversed((hist, *hist.parents[:-1])):
            if not (self.root / directory).is_dir():
                if os.path.lexists(self.root / directory):  # an entry in the way of a directory to make
                    return {1}, f"{ERROR}cannot write outputs: ", []
                made.add(directory)
        if all(((self.root / Path(t).parent).is_dir() or Path(t).parent in made)
               and not os.path.lexists(self.root / Path(t).with_name(f".{Path(t).name}{TMP}")) for t in targets):
            return {0}, "", []
        return {1}, f"{ERROR}cannot write outputs: ", []

    def perform(self, call, plan: Plan) -> Outcome:
        outcome = self.last = execute(self.root, call, plan)
        REACHED.update(("undo" if outcome.calls[n - 1][0] in UNDOS else "call", outcome.calls[n - 1][0])
                       for n in outcome.fired)
        return outcome

    def check_entries(self, before: dict, expected: dict, outcome: Outcome) -> None:
        left, after = outcome.left - set(before), snapshot(self.root)
        assert left <= set(after), left  # an undo made to fail leaves its entry
        assert {n: e for n, e in after.items() if n not in left} == {n: e for n, e in expected.items() if n not in left}

    def check_cli(self, run: Run, plan: Plan = Plan()) -> int | type[BaseException]:
        """Run the CLI under ``plan``, check it against the model, and return its exit code or what escaped it."""
        before, source = snapshot(self.root), self.root / run.input
        fresh = fresh_run(run, source.read_bytes()) if source.exists() else None
        codes, start, named = self.expect(run, fresh)
        outcome = self.perform(lambda: bilevel.cli.main(run.argv()), plan)
        code, err = outcome.result, outcome.stderr
        if outcome.injected is MemoryError:  # an I/O error, and the one reported, since it came first
            codes, start, named = {1}, f"{ERROR}{run.input}: out of memory", []
        elif outcome.injected is KeyboardInterrupt:  # no error of the run's: it escapes main
            codes, start, named, code = {KeyboardInterrupt}, "", [], type(code)
        elif outcome.injected:
            codes, start, named = {1}, f"{ERROR}cannot ", [f"injected at {outcome.injected}"]
        assert code in codes, (code, err)
        lines = err.splitlines() or [""]
        if code:
            assert outcome.stdout == "" and lines[-1].startswith(start), err
            assert any(name in lines[-1] for name in named) or not named, err
            assert len(lines) == 1 or code == 3 and err.startswith("usage: bilevel"), err
        else:
            assert (outcome.stdout, err) == (fresh[1], "")
        made = {entry(self.root, t): e for t, e in fresh[2].items()} if fresh else {}
        expected = dict(before)
        if code == 0:
            hist = [Path(entry(self.root, run.histograms))] if run.histograms is not None else []
            made.update({d.as_posix(): ("dir",) for h in hist for d in (h, *h.parents[:-1]) if d.as_posix() not in before})
            expected.update(made)
        else:
            renamed = {entry(self.root, Path(path).with_name(Path(path).name[1 : -len(TMP)]))
                       for n, (name, path) in enumerate(outcome.calls, 1) if name == "replace" and n not in outcome.fired}
            # ROADMAP item 4: a target that existed before the run and was already replaced keeps the run's content.
            expected.update({name: made[name] for name in renamed if name in before})
        self.check_entries(before, expected, outcome)
        return code

    def check_save(self, name: str, flavor: str, plan: Plan = Plan()) -> None:
        """Save ``IMAGE`` to ``name`` under ``plan`` and check it against the model."""
        before, path = snapshot(self.root), self.root / name
        refusal = (IsADirectoryError if path.is_dir()
                   else FileNotFoundError if not path.parent.is_dir()
                   else FileExistsError if os.path.lexists(path.with_name(f".{path.name}{TMP}")) else type(None))
        outcome = self.perform(lambda: save_pgm(name, IMAGE, flavor), plan)
        error = outcome.result
        if outcome.injected:
            assert type(error) is outcome.injected if isinstance(outcome.injected, type) else \
                error.strerror == f"injected at {outcome.injected}"
        else:
            assert type(error) is refusal, error
            assert refusal is not IsADirectoryError or (error.filename, outcome.chunks) == (name, 0)
        expected = dict(before)
        if error is None:
            expected[entry(self.root, name)] = ("file", hashlib.sha256(write_pgm(IMAGE, flavor)).hexdigest())
        self.check_entries(before, expected, outcome)


# No explain phase: its line tracing over a failing machine takes minutes and gigabytes.
SETTINGS = settings(max_examples=100, stateful_step_count=15, deadline=None, phases=[Phase.generate, Phase.shrink],
                    suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def sweep() -> frozenset[tuple[str, str]]:
    """Run the machine once per session, and return what its faults reached."""
    REACHED.clear()
    run_state_machine_as_test(Contract, settings=SETTINGS)
    return frozenset(REACHED)


def test_the_file_contract_holds():
    sweep()


def test_the_sweep_reaches_every_kind_of_call():
    reached = {kind: {name for what, name in sweep() if what == kind} for kind in ("call", "undo")}
    assert reached == {"call": {"open", "lstat", "mkdir", "replace"}, "undo": set(UNDOS)}


# Fixed shapes that the machine's sample need not reach in every fault: (planted entries, run or save_pgm target).
SHAPES = {
    "mean-p5-new-target": ({}, Run("in.pgm", "out.pgm")),
    "compare-report-histograms-new-dirs": ({}, Run("in.pgm", "out.pgm", "compare", False, "r.json", "a/b/h")),
    "compare-ascii-existing-targets": ({"out.mean.pgm": "file", "out.iter.pgm": "file-link"},
                                       Run("in.pgm", "out.pgm", "compare", ascii=True, report="r.json")),
    "save-onto-a-file": ({"out.pgm": "file"}, "out.pgm"),
    "save-onto-a-symlink": ({"out.pgm": "file-link"}, "out.pgm"),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_every_fault_of_a_fixed_shape(shape):
    """Each call k fails in turn, under each errno, then so does each undo j after it: every plan must hold."""
    plants, run = SHAPES[shape]

    def check(plan: Plan = Plan()) -> list[str]:
        machine = Contract()
        try:
            for name, kind in plants.items():
                machine.plant(name, kind)
            machine.check_cli(run, plan) if isinstance(run, Run) else machine.check_save(run, "P2", plan)
            return [name for name, _ in machine.last.calls]
        finally:
            machine.teardown()

    calls = check()
    for k, how in itertools.product(range(1, len(calls) + 1), ERRNOS):
        failed = check(Plan(nth(calls, k), how=how))
        for j in range(k + 1, len(failed) + 1):
            check(Plan(nth(calls, k), nth(failed, j), how))
