"""How the CLI gets its input: a large regular file is mapped, anything else is read.

Both paths must give the same exit code, stdout, stderr and files. The
mapped path is forced on every non-empty file by lowering the floor to one
byte, and the read path by raising it above every input.
"""

import errno
import mmap
import os
import re
import signal
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bilevel.cli
import bilevel.pgm
from bilevel import GrayImage, write_pgm
from helpers import bimodal_gray_image, run_cli, run_python, snapshot

MAPPED = 1
READ = 1 << 40  # above every input size
ARGV = ["-i", "in.pgm", "-o", "out.pgm", "-m", "compare", "--report", "r.json", "--histograms", "h"]


def big_p5() -> bytes:
    rng = np.random.default_rng(17)
    return write_pgm(GrayImage(rng.integers(0, 256, size=(1024, 1100), dtype=np.uint8)))


def corpus() -> dict[str, tuple[bytes, list[str], int]]:
    """Seeded images and malformed files, each with its extra arguments and exit code."""
    rng = np.random.default_rng(11)
    big = big_p5()
    big_p2 = write_pgm(GrayImage(rng.integers(0, 256, size=(400, 800), dtype=np.uint8)), "P2")
    # A long comment glued to every third line, so some run across the end
    # of a decode slice, and a sample above 255 in the last row.
    p2_commented = b"\n".join(
        line if i % 3 else line + b"#" + b" x" * 700 for i, line in enumerate(big_p2.split(b"\n"))
    )
    size = bilevel.pgm._SLICE_BYTES
    assert any(m.start() // size != m.end() // size for m in re.finditer(rb"#.*", p2_commented))
    p2_over_range = big_p2.rpartition(b" ")[0] + b" 256\n"
    assert min(map(len, (big, big_p2, p2_commented, p2_over_range))) >= bilevel.pgm._MAP_MIN_BYTES
    return {
        "p5-big": (big, [], 0),
        "p2-big": (big_p2, ["--ascii"], 0),
        "p2-big-comments": (p2_commented, [], 0),
        "p2-big-over-range": (p2_over_range, [], 2),
        "p5-small": (write_pgm(bimodal_gray_image(rng)), [], 0),
        "p2-small": (write_pgm(bimodal_gray_image(rng), "P2"), ["--ascii"], 0),
        "p2-comments": (b"P2 # kind\n3 1 # size\n255\n# row\n0 128 # mid\n255\n", [], 0),
        "bad-magic": (b"P6\n2 1\n255\n\0\0", [], 2),
        "bad-maxval": (b"P5\n2 1\n65535\n\0\0\0\0", [], 2),
        "truncated": (big[:-1], [], 2),
        "surplus": (big + b"\0", [], 2),
        "p2-comments-bad-token": (b"P2\n# c\n3 1\n255\n1 # x\n2 x3\n", [], 2),
    }


def count_maps(monkeypatch) -> list:
    """Record each call to ``mmap.mmap`` and let it through."""
    calls = []
    real = mmap.mmap

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", spy)
    return calls


def feed(target, data: bytes) -> threading.Thread:
    """Write ``data`` to a FIFO path or a pipe's write end from a thread, then close it."""

    def write():
        with open(target, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def run_main(directory: Path, data: bytes, argv: list[str], capsys) -> tuple:
    """Exit code, stdout, stderr and files of ``main`` run in ``directory`` on ``data``."""
    directory.mkdir(parents=True)
    (directory / "in.pgm").write_bytes(data)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = bilevel.cli.main(argv)
    finally:
        os.chdir(cwd)
    out, err = capsys.readouterr()
    return code, out, err, snapshot(directory)


def test_mapped_and_read_inputs_give_identical_runs(tmp_path, monkeypatch, capsys):
    calls = count_maps(monkeypatch)
    for name, (data, extra, code) in corpus().items():
        runs = {}
        for mode, floor in (("read", READ), ("mapped", MAPPED)):
            monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", floor)
            maps_before = len(calls)
            runs[mode] = run_main(tmp_path / name / mode, data, [*ARGV, *extra], capsys)
            assert len(calls) - maps_before == (mode == "mapped"), name
        assert runs["mapped"] == runs["read"], name
        assert runs["read"][0] == code, name


def test_a_fifo_is_read(tmp_path, monkeypatch, capsys):
    data = big_p5()
    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", READ)
    expected = run_main(tmp_path / "file", data, ARGV, capsys)

    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", MAPPED)
    calls = count_maps(monkeypatch)
    fifo_dir = tmp_path / "fifo"
    fifo_dir.mkdir()
    os.mkfifo(fifo_dir / "in.pgm")
    writer = feed(fifo_dir / "in.pgm", data)
    monkeypatch.chdir(fifo_dir)
    code = bilevel.cli.main(ARGV)
    writer.join(timeout=10)
    assert not writer.is_alive()
    out, err = capsys.readouterr()
    (fifo_dir / "in.pgm").unlink()  # a snapshot would block reading it
    files = {**snapshot(fifo_dir), "in.pgm": expected[3]["in.pgm"]}
    assert calls == []
    assert (code, out, err, files) == expected


def test_dev_stdin_from_a_pipe_matches_dev_stdin_from_a_file(tmp_path):
    data = big_p5()
    argv = ["-i", "/dev/stdin", *ARGV[2:]]

    def run(name, stdin) -> tuple:
        directory = tmp_path / name
        directory.mkdir()
        proc = run_cli(argv, cwd=directory, stdin=stdin)
        return proc.returncode, proc.stdout, proc.stderr, snapshot(directory)

    (tmp_path / "in.pgm").write_bytes(data)
    with open(tmp_path / "in.pgm", "rb") as fh:
        from_file = run("file", fh)  # a regular file, so mapped
    read_end, write_end = os.pipe()
    writer = feed(write_end, data)
    try:
        from_pipe = run("pipe", read_end)
    finally:
        os.close(read_end)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert from_pipe[0] == 0, from_pipe[2]
    assert from_pipe == from_file


def test_an_empty_file_is_read_and_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", MAPPED)
    calls = count_maps(monkeypatch)
    code, out, err, files = run_main(tmp_path / "d", b"", ARGV, capsys)
    assert calls == []
    assert (code, out) == (2, "")
    assert err == "bilevel: error: in.pgm: not an 8-bit PGM file: bad magic b''\n"
    assert list(files) == ["in.pgm"]


def test_a_file_that_cannot_be_mapped_is_read(tmp_path, monkeypatch, capsys):
    data = big_p5()
    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", READ)
    expected = run_main(tmp_path / "read", data, ARGV, capsys)

    refused = []

    def no_map(fileno, length, **kwargs):
        refused.append(fileno)
        raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))

    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", MAPPED)
    monkeypatch.setattr(mmap, "mmap", no_map)
    assert run_main(tmp_path / "unmappable", data, ARGV, capsys) == expected
    assert len(refused) == 1


def test_a_directory_input_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bilevel.pgm, "_MAP_MIN_BYTES", MAPPED)
    (tmp_path / "in.pgm").mkdir()
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(ARGV) == 1
    assert "cannot read in.pgm" in capsys.readouterr().err
    assert list(snapshot(tmp_path)) == ["in.pgm"]


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_the_input_is_unmapped_when_main_returns(tmp_path, monkeypatch, capsys):
    inp = tmp_path / "in.pgm"
    inp.write_bytes(big_p5())
    mapped_path = os.path.realpath(inp)

    def is_mapped() -> bool:
        return mapped_path in Path("/proc/self/maps").read_text()

    seen = []
    real_build = bilevel.cli.build_histogram

    def build_histogram(image):
        seen.append(is_mapped())
        return real_build(image)

    monkeypatch.setattr(bilevel.cli, "build_histogram", build_histogram)
    monkeypatch.chdir(tmp_path)
    assert bilevel.cli.main(ARGV) == 0
    capsys.readouterr()
    assert seen == [True]
    assert not is_mapped()


# Truncates the mapped input once the first output is being staged: the
# binary payload is a generator, so it truncates on its first chunk request.
TRUNCATE_IN_STAGING = """\
import os, resource, sys
resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
import bilevel.cli
real = bilevel.cli._pgm_file

def truncating(*args):
    os.truncate("in.pgm", 0)
    yield from real(*args)

bilevel.cli._pgm_file = truncating
sys.exit(bilevel.cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="the SIGBUS on a truncated map is Linux behaviour")
def test_truncating_a_mapped_input_mid_run_kills_it_and_keeps_the_target(tmp_path):
    (tmp_path / "in.pgm").write_bytes(big_p5())
    (tmp_path / "out.pgm").write_bytes(b"existed before the run")
    before = snapshot(tmp_path)
    proc = run_python(["-c", TRUNCATE_IN_STAGING, "-i", "in.pgm", "-o", "out.pgm", "-m", "mean"],
                      cwd=tmp_path)
    assert proc.returncode == -signal.SIGBUS, proc.stderr
    after = snapshot(tmp_path)
    assert after["out.pgm"] == before["out.pgm"]
    assert (tmp_path / "in.pgm").stat().st_size == 0
    # The run died like SIGKILL: no new target, only its temp file may remain.
    assert {name for name in after if ".tmp-" not in name} == set(before)
