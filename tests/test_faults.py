"""Faults injected at every file-system call of a CLI run or a ``save_pgm``, and the rollback that follows.

The sweep applies the method of Pillai et al., "All File Systems Are Not
Created Equal: On the Complexity of Crafting Crash-Consistent
Applications" (OSDI 2014) to one process: record its file-system calls,
then fail each one. ``Faults`` stands in for ``os`` (``mkdir``, ``rmdir``,
``unlink``, ``replace`` and ``lstat``) and for ``open`` in both
``bilevel.cli``, which plans the targets and opens the input, and
``bilevel.pgm``, which stages and commits every file. It numbers every such
call and raises ``OSError`` at the numbers it is given. Each run shape is
recorded once without faults, then rerun once per call k with k failing,
under each errno in ``ERRNOS``, and once more per rollback call j after k,
with j failing too. Every rerun must exit 1 with one stderr line that
names the k-th failure, try every undo, and leave the directory as it
was. Two entries may differ: a target that existed before the run and was
replaced, and the entry whose undo j failed, with the directories above
it that the run made. A ``save_pgm`` onto a planted target is swept the
same way, and must raise the k-th failure and leave every entry as it
was, but for the temp file whose undo j failed.

Writes inside a payload are not calls of ``open``; the ``RLIMIT_FSIZE``
test reaches them in a subprocess.
"""

import builtins
import errno
import itertools
import mmap
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import bilevel.cli
import bilevel.pgm
from bilevel import GrayImage, save_pgm
from helpers import run_python, snapshot

ERRNOS = (errno.EIO, errno.ENOSPC, errno.EACCES)
PROXIED = ("mkdir", "rmdir", "unlink", "replace", "lstat")
UNDOS = ("rmdir", "unlink")
COMPARE = ["-m", "compare", "--report", "r.json", "--histograms", "h"]


def plant_targets(directory: Path) -> None:
    """Both image targets exist, one as a symlink; the report is new."""
    (directory / "out.mean.pgm").write_bytes(b"mean output of an earlier run")
    (directory / "keep.txt").write_bytes(b"the symlinked target's file")
    (directory / "out.iter.pgm").symlink_to("keep.txt")


# Name: (arguments after -i in.pgm -o out.pgm, what plants the other entries, or None).
SHAPES = {
    "mean-p5-new-target": (["-m", "mean"], None),
    "compare-report-histograms-new-dirs": (
        ["-m", "compare", "--report", "r.json", "--histograms", "a/b/h"], None
    ),
    "compare-ascii-existing-targets": (
        ["-m", "compare", "--ascii", "--report", "r.json"], plant_targets
    ),
}


class Faults:
    """``os`` and ``open`` for ``cli`` and ``pgm``: numbers each proxied call, failing the chosen ones."""

    def __init__(self, fail: dict[int, int]):
        self.fail = fail  # call number, from 1, to the errno it raises
        self.calls: list[tuple[str, str]] = []

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in PROXIED:
            return real
        return lambda path, *args, **kwargs: self.call(name, real, path, *args, **kwargs)

    def open_file(self, file, *args, **kwargs):
        return self.call("open", builtins.open, file, *args, **kwargs)

    def call(self, name, real, path, *args, **kwargs):
        self.calls.append((name, os.fspath(path)))
        number = len(self.calls)
        if number in self.fail:
            raise OSError(self.fail[number], f"injected at call {number}", os.fspath(path))
        return real(path, *args, **kwargs)

    def patch(self, patch) -> None:
        """Stand in for ``os`` and ``open`` in both modules while ``patch`` (a monkeypatch context) lasts."""
        for module in (bilevel.cli, bilevel.pgm):
            patch.setattr(module, "os", self)
            patch.setattr(module, "open", self.open_file, raising=False)


def tiny_input(directory: Path) -> None:
    save_pgm(directory / "in.pgm", GrayImage.from_flat(4, 2, [10, 20, 30, 40, 200, 210, 220, 230]))


def run_shape(directory: Path, shape: str, fail: dict[int, int], monkeypatch, capsys) -> tuple:
    """Exit code, stdout, stderr, calls, and the snapshots before and after one run of ``shape``."""
    args, plant = SHAPES[shape]
    directory.mkdir()
    tiny_input(directory)
    if plant:
        plant(directory)
    before = snapshot(directory)
    faults = Faults(fail)
    with monkeypatch.context() as patch:
        patch.chdir(directory)
        faults.patch(patch)
        code = bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", *args])
    out, err = capsys.readouterr()
    return code, out, err, faults.calls, before, snapshot(directory)


def check_rolled_back(run: tuple, k: int, j: int | None, clean: dict) -> None:
    code, out, err, calls, before, after = run
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("bilevel: error: ") and f"injected at call {k}:" in line
    left = set()
    if j is not None:  # the entry whose undo failed stays, and so do the directories it is in
        entry = Path(calls[j - 1][1])
        left = {p.as_posix() for p in (entry, *entry.parents[:-1])} - set(before)
    assert set(after) - set(before) == left
    for name, entry in before.items():
        replaced = clean[name] != entry  # a target that existed, replaced by the run
        assert after[name] in ((entry, clean[name]) if replaced else (entry,)), name
    assert not [name for name in set(after) - left if ".tmp-" in name]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_failing_call_rolls_back_the_run(tmp_path, monkeypatch, capsys, shape):
    runs = itertools.count()

    def run(fail):
        return run_shape(tmp_path / str(next(runs)), shape, fail, monkeypatch, capsys)

    code, _, err, calls, _, clean = run({})
    assert (code, err) == (0, "")
    assert not [name for name in clean if ".tmp-" in name]
    for k in range(1, len(calls) + 1):
        for errno_k in ERRNOS:
            failed = run({k: errno_k})
            check_rolled_back(failed, k, None, clean)
            rollback = failed[3][k:]
            assert failed[3][:k] == calls[:k]
            assert {name for name, _ in rollback} <= set(UNDOS)
            for j in range(k + 1, k + len(rollback) + 1):
                # A failing undo stops no other: every one is still tried.
                both = run({k: errno_k, j: errno_k})
                assert both[3] == failed[3]
                check_rolled_back(both, k, j, clean)


def save_planted(directory: Path, plant: str, fail: dict[int, int], monkeypatch) -> tuple:
    """The error raised, calls, and the snapshots before and after one ``save_pgm`` onto a planted target."""
    directory.mkdir()
    (directory / "victim.pgm").write_bytes(b"the symlinked target's file")
    if plant == "symlink":
        (directory / "out.pgm").symlink_to("victim.pgm")
    else:
        (directory / "out.pgm").write_bytes(b"an earlier image")
    before = snapshot(directory)
    faults = Faults(fail)
    error = None
    with monkeypatch.context() as patch:
        patch.chdir(directory)
        faults.patch(patch)
        try:
            save_pgm("out.pgm", GrayImage.from_flat(2, 2, [0, 64, 128, 255]), "P2")
        except OSError as exc:
            error = exc
    return error, faults.calls, before, snapshot(directory)


@pytest.mark.parametrize("plant", ["file", "symlink"])
def test_every_failing_call_of_save_pgm_leaves_the_target_as_it_was(tmp_path, monkeypatch, plant):
    runs = itertools.count()

    def run(fail):
        return save_planted(tmp_path / str(next(runs)), plant, fail, monkeypatch)

    error, calls, before, clean = run({})
    assert error is None and [name for name, _ in calls] == ["open", "replace"]
    assert clean["victim.pgm"] == before["victim.pgm"] and clean["out.pgm"][0] == "file"
    for k in range(1, len(calls) + 1):
        for errno_k in ERRNOS:
            error, failed, before, after = run({k: errno_k})
            assert (error.errno, error.strerror) == (errno_k, f"injected at call {k}")
            assert after == before
            assert failed[:k] == calls[:k] and {name for name, _ in failed[k:]} <= set(UNDOS)
            for j in range(k + 1, len(failed) + 1):
                # The undo that fails is the temp file's unlink, so the temp file alone stays.
                error, both, before, after = run({k: errno_k, j: errno_k})
                assert (error.strerror, both) == (f"injected at call {k}", failed)
                assert set(after) - set(before) == {f".out.pgm.tmp-{os.getpid()}"}
                assert {name: after[name] for name in before} == before


def test_the_sweep_reaches_every_kind_of_call(tmp_path, monkeypatch, capsys):
    seen = set()
    for shape in SHAPES:
        _, _, _, calls, _, _ = run_shape(tmp_path / shape, shape, {}, monkeypatch, capsys)
        seen.update(name for name, _ in calls)
    assert seen == {"open", "lstat", "mkdir", "replace"}  # rmdir and unlink are undos only


def test_a_failing_undo_does_not_stop_the_rollback(tmp_path, monkeypatch, capsys):
    # The second rename fails, and so does the first undo after it: the
    # unlink of out.mean.pgm, which the first rename made. Every other undo
    # still runs, and the rename failure is the one reported.
    tiny_input(tmp_path)
    before = snapshot(tmp_path)
    real_replace, real_unlink = os.replace, os.unlink
    renames, unlinks = [], []

    def replace(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(errno.EIO, "injected rename failure", os.fspath(dst))
        real_replace(src, dst)

    def unlink(path, *args, **kwargs):
        if len(renames) == 2 and not unlinks:
            unlinks.append(path)
            raise OSError(errno.EACCES, "injected unlink failure", os.fspath(path))
        real_unlink(path, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace)
        patch.setattr(os, "unlink", unlink)
        code = bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", *COMPARE])
    assert code == 1
    assert capsys.readouterr().err == (
        "bilevel: error: cannot write outputs: [Errno 5] injected rename failure: 'out.iter.pgm'\n"
    )
    after = snapshot(tmp_path)
    assert sorted(set(after) - set(before)) == ["out.mean.pgm"]
    assert {name: after[name] for name in before} == before


@pytest.mark.parametrize("plant", ["symlink", "dangling-symlink", "file"])
def test_an_entry_at_the_temp_name_fails_the_run_and_is_left_as_it_was(
    tmp_path, monkeypatch, capsys, plant
):
    tiny_input(tmp_path)
    (tmp_path / "victim.txt").write_bytes(b"bytes the run must not touch")
    tmp = tmp_path / f".out.pgm.tmp-{os.getpid()}"
    if plant == "file":
        tmp.write_bytes(b"left by a killed run")
    else:
        tmp.symlink_to("victim.txt" if plant == "symlink" else "nowhere.txt")
    before = snapshot(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", "-m", "mean"]) == 1
    assert capsys.readouterr() == (
        "", f"bilevel: error: cannot write outputs: [Errno 17] File exists: '{tmp.name}'\n"
    )
    assert snapshot(tmp_path) == before


def raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage", ["_read_input", "_decode_pgm", "build_histogram"])
def test_out_of_memory_is_one_line_and_exit_1(tmp_path, monkeypatch, capsys, stage):
    tiny_input(tmp_path)
    before = snapshot(tmp_path)
    monkeypatch.setattr(bilevel.cli, stage, raise_memory_error)
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", *COMPARE]) == 1
    assert capsys.readouterr() == ("", "bilevel: error: in.pgm: out of memory\n")
    assert snapshot(tmp_path) == before


def test_out_of_memory_while_staging_rolls_back_first(tmp_path, monkeypatch, capsys):
    tiny_input(tmp_path)
    before = snapshot(tmp_path)
    real_pgm_file = bilevel.cli._pgm_file
    listings = []

    def pgm_file(*args):
        chunks = real_pgm_file(*args)
        yield next(chunks)
        listings.append(sorted(os.listdir()))
        if len(listings) == 2:  # the iterative output, after its header
            raise MemoryError
        yield from chunks

    monkeypatch.setattr(bilevel.cli, "_pgm_file", pgm_file)
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", *COMPARE]) == 1
    assert capsys.readouterr() == ("", "bilevel: error: in.pgm: out of memory\n")
    # By then h/ was made and both image outputs had temp files.
    temps = [f".out.iter.pgm.tmp-{os.getpid()}", f".out.mean.pgm.tmp-{os.getpid()}"]
    assert listings[1] == sorted([*temps, "h", "in.pgm"])
    assert snapshot(tmp_path) == before


def test_a_map_refused_for_lack_of_memory_is_not_read_instead(tmp_path, monkeypatch, capsys):
    tiny_input(tmp_path)
    before = snapshot(tmp_path)

    def no_memory(*args, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", 1)
    monkeypatch.setattr(mmap, "mmap", no_memory)
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", "-m", "mean"]) == 1
    message = f"bilevel: error: cannot read in.pgm: [Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n"
    assert capsys.readouterr() == ("", message)
    assert snapshot(tmp_path) == before


@pytest.mark.skipif(sys.platform == "win32", reason="needs the resource module")
def test_a_write_past_the_file_size_limit_exits_1_and_leaves_nothing(tmp_path):
    # The child limits its own file size before it runs the CLI, so the
    # 4 MiB P5 output fails inside a payload write, past what open reaches.
    save_pgm(tmp_path / "in.pgm", GrayImage(np.tile(np.arange(256, dtype=np.uint8), (2048, 8))))
    before = snapshot(tmp_path)
    prelude = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20)); "
        "import bilevel.cli; sys.exit(bilevel.cli.main(sys.argv[1:]))"
    )
    proc = run_python(["-c", prelude, "-i", "in.pgm", "-o", "out.pgm", *COMPARE], cwd=tmp_path)
    assert proc.returncode == 1
    efbig = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    assert proc.stderr == f"bilevel: error: cannot write outputs: {efbig}\n"
    assert snapshot(tmp_path) == before
