"""Faults the file-contract machine of ``tests/test_contract.py`` leaves to fixed tests.

These pin an exact stderr line, or reach what no proxied call does: running
out of memory at each stage, a map refused for lack of memory, and a write
past ``RLIMIT_FSIZE`` inside a payload, in a subprocess.
"""

import errno
import mmap
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import bilevel.cli
import bilevel.pgm
from bilevel import GrayImage, save_pgm
from helpers import Plan, Run, execute, run_python, snapshot

COMPARE = ["-m", "compare", "--report", "r.json", "--histograms", "h"]


def tiny_input(directory: Path) -> None:
    save_pgm(directory / "in.pgm", GrayImage.from_flat(4, 2, [10, 20, 30, 40, 200, 210, 220, 230]))


def test_a_failing_undo_does_not_stop_the_rollback(contract):
    # The second rename fails, and so does the first undo after it: the unlink of
    # out.mean.pgm, which the first rename made. The model checks that every other
    # undo still ran, that only out.mean.pgm is left, and that the rename failure
    # is the one reported.
    run = Run("in.pgm", "out.pgm", "compare", report="r.json", histograms="h")
    assert contract.check_cli(run, Plan(("replace", 2), ("unlink", 1))) == 1


@pytest.mark.parametrize("plant", ["symlink", "dangling-symlink", "file"])
def test_an_entry_at_the_temp_name_fails_the_run_and_is_left_as_it_was(contract, plant):
    tmp = f".out.pgm.tmp-{os.getpid()}"
    contract.plant(tmp, {"symlink": "file-link", "dangling-symlink": "dangling-link"}.get(plant, plant))
    assert contract.check_cli(Run("in.pgm", "out.pgm")) == 1
    assert contract.last.stderr == f"bilevel: error: cannot write outputs: [Errno 17] File exists: '{tmp}'\n"


def raise_memory_error(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("stage", ["_read_input", "_decode_pgm", "build_histogram"])
def test_out_of_memory_is_one_line_and_exit_1(tmp_path, monkeypatch, stage):
    tiny_input(tmp_path)
    before = snapshot(tmp_path)
    monkeypatch.setattr(bilevel.cli, stage, raise_memory_error)
    ran = execute(tmp_path, lambda: bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", *COMPARE]))
    assert ran[:3] == (1, "", "bilevel: error: in.pgm: out of memory\n")
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


def test_a_map_refused_for_lack_of_memory_is_not_read_instead(tmp_path, monkeypatch):
    tiny_input(tmp_path)
    before = snapshot(tmp_path)

    def no_memory(*args, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", 1)
    monkeypatch.setattr(mmap, "mmap", no_memory)
    ran = execute(tmp_path, lambda: bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", "-m", "mean"]))
    message = f"bilevel: error: cannot read in.pgm: [Errno {errno.ENOMEM}] {os.strerror(errno.ENOMEM)}\n"
    assert ran[:3] == (1, "", message)
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
