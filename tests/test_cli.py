import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import bilevel.cli
import bilevel.histogram
import bilevel.pgm
from bilevel import BinaryImage, GrayImage, binarize, load_pgm, mean_threshold, save_pgm, write_pgm
from helpers import (
    OVERLONG_DIGIT_INPUTS, Plan, Reference, Run, bimodal_gray_image, check_call, execute, run_cli, snapshot, traced_peak,
)


def make_pgm(directory: Path, name: str, width: int, height: int, values) -> Path:
    path = directory / name
    save_pgm(path, GrayImage.from_flat(width, height, values))
    return path


# The -m mean output of a 4x1 in.pgm of 10, 20, 30 and 40, as a snapshot entry.
MEAN_OUT = (
    "file", hashlib.sha256(write_pgm(BinaryImage.from_flat(4, 1, [0, 0, 255, 255]))).hexdigest()
)


class TestSingleMethodRuns:
    def test_mean_summary_line_and_output(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 4, 1, [10, 20, 30, 40])
        out = tmp_path / "out.pgm"
        proc = run_cli(["-i", inp, "-o", out, "-m", "mean"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mean estimate=25 optimum=25 iterations=0\n"
        assert load_pgm(out).pixels.tolist() == [[0, 0, 255, 255]]
        assert not [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]

    def test_iterative_on_constant_image_is_degenerate(self, tmp_path):
        inp = make_pgm(tmp_path, "flat.pgm", 3, 3, [7] * 9)
        out = tmp_path / "out.pgm"
        proc = run_cli(["-i", inp, "-o", out, "-m", "iterative"])
        assert proc.returncode == 0
        assert proc.stdout == "iterative estimate=7 optimum=7 iterations=1\n"
        assert set(load_pgm(out).pixels.reshape(-1).tolist()) == {0}

    def test_fractional_threshold_printed_in_full(self, tmp_path):
        inp = make_pgm(tmp_path, "pair.pgm", 2, 1, [0, 255])
        proc = run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "mean"])
        assert proc.stdout == "mean estimate=127.5 optimum=127.5 iterations=0\n"


class TestCompareRuns:
    def test_compare_writes_both_suffixed_outputs(self, tmp_path):
        inp = make_pgm(tmp_path, "doc.pgm", 10, 1, [40] * 9 + [160])
        out = tmp_path / "out.pgm"
        report = tmp_path / "report.json"
        proc = run_cli(["-i", inp, "-o", out, "-m", "compare", "--report", report])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("mean estimate=52 optimum=52 ")
        assert lines[1] == "iterative estimate=52 optimum=100 iterations=2"
        assert (tmp_path / "out.mean.pgm").exists()
        assert (tmp_path / "out.iter.pgm").exists()
        assert not out.exists()
        doc = json.loads(report.read_text())
        assert set(doc["methods"]) == {"mean", "iterative"}

    def test_compare_is_the_default_method(self, tmp_path):
        inp = make_pgm(tmp_path, "doc.pgm", 4, 1, [10, 20, 30, 40])
        report = tmp_path / "r.json"
        proc = run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "--report", report])
        assert proc.returncode == 0
        assert len(proc.stdout.splitlines()) == 2

    def test_compare_without_report_is_a_usage_error(self, contract):
        assert contract.check_cli(Run("in.pgm", "o.pgm", "compare")) == 3
        assert "--report" in contract.last.stderr


class TestHistogramsAndReport:
    def test_histogram_csvs_written_and_referenced(self, tmp_path):
        inp = make_pgm(tmp_path, "scan.pgm", 4, 1, [10, 20, 30, 40])
        report = tmp_path / "report.json"
        hist_dir = tmp_path / "hists"
        proc = run_cli(
            ["-i", inp, "-o", tmp_path / "o.pgm", "-m", "iterative",
             "--report", report, "--histograms", hist_dir]
        )
        assert proc.returncode == 0, proc.stderr
        input_csv = hist_dir / "scan.input.csv"
        output_csv = hist_dir / "scan.output.csv"
        assert input_csv.exists() and output_csv.exists()
        assert len(input_csv.read_text().splitlines()) == 257
        assert len(output_csv.read_text().splitlines()) == 257
        doc = json.loads(report.read_text())
        assert doc["histograms"]["input"] == str(input_csv)
        assert doc["histograms"]["output"] == str(output_csv)

    # An empty path is a path, as with -o '': the working directory.
    @pytest.mark.parametrize("method", ["mean", "compare"])
    def test_an_empty_report_path_is_a_directory_target(self, contract, method):
        assert contract.check_cli(Run("in.pgm", "out.pgm", method, report="")) == 1  # the listing as it was
        assert contract.last.stderr == "bilevel: error: cannot write outputs: [Errno 21] Is a directory: '.'\n"

    def test_an_empty_histograms_path_writes_into_the_working_directory(self, tmp_path):
        make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        proc = run_cli(
            ["-i", "in.pgm", "-o", "out.pgm", "-m", "mean", "--histograms", "", "--report", "r.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        names = ["in.input.csv", "in.output.csv", "in.pgm", "out.pgm", "r.json"]
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["histograms"] == {"input": "in.input.csv", "output": "in.output.csv"}

    def test_report_records_image_dimensions(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 3, 2, [0, 10, 20, 30, 40, 50])
        report = tmp_path / "r.json"
        run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "mean", "--report", report])
        doc = json.loads(report.read_text())
        assert (doc["width"], doc["height"]) == (3, 2)


class TestFailureModes:
    def test_missing_input_exits_1_without_outputs(self, contract):
        assert contract.check_cli(Run("missing.pgm", "out.pgm")) == 1

    def test_malformed_input_exits_2_without_outputs(self, contract):
        assert contract.check_cli(Run("bad.pgm", "out.pgm")) == 2  # a P2 of 2x2 with three samples
        assert "truncated" in contract.last.stderr

    @pytest.mark.parametrize("name", sorted(OVERLONG_DIGIT_INPUTS))
    def test_overlong_digit_run_exits_2_with_one_error_line(self, contract, name):
        (contract.root / "bad.pgm").write_bytes(OVERLONG_DIGIT_INPUTS[name])
        assert contract.check_cli(Run("bad.pgm", "out.pgm")) == 2  # one error line, no output

    # The range error quotes the sample in full, however many digits it has,
    # also where uint8 arithmetic would wrap 300 to 44.
    @pytest.mark.parametrize(
        "data,sample",
        [
            (b"P2\n2 1\n255\n7 300\n", "300"),
            (b"P2\n2 1\n255\n7 1000\n", "1000"),
            (OVERLONG_DIGIT_INPUTS["sample"], "9" * 5000),
        ],
        ids=["300", "1000", "5000-digits"],
    )
    def test_sample_above_maxval_exits_2_with_its_value(self, contract, data, sample):
        (contract.root / "bad.pgm").write_bytes(data)
        assert contract.check_cli(Run("bad.pgm", "out.pgm")) == 2
        assert contract.last.stderr == f"bilevel: error: bad.pgm: sample value {sample} exceeds maxval 255\n"

    def test_zero_padded_samples_read_as_their_values(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "in.pgm").write_bytes(b"P2\n3 1\n255\n0255 000000000000000000000000007 00100\n")
        monkeypatch.chdir(tmp_path)
        assert bilevel.cli.main(["-i", "in.pgm", "-o", "out.pgm", "-m", "mean", "--ascii"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "out.pgm").read_bytes() == b"P2\n3 1\n255\n255 0 0\n"

    def test_unknown_method_exits_3(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 2, 1, [0, 255])
        proc = run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "otsu"])
        assert proc.returncode == 3

    def test_missing_required_flag_exits_3(self, tmp_path):
        proc = run_cli(["-o", tmp_path / "o.pgm"])
        assert proc.returncode == 3

    # Named scenarios of the file contract, each replayed on the model in tests/test_contract.py,
    # which checks the exit code, the stderr line and every entry afterwards.
    def test_unwritable_output_leaves_no_partial_files(self, contract):
        assert contract.check_cli(Run("in.pgm", "missing/out.pgm", report="r.json")) == 1

    def test_directory_target_leaves_listing_unchanged(self, contract):
        contract.plant("r.json", "dir")
        assert contract.check_cli(Run("in.pgm", "out.pgm", report="r.json")) == 1

    @pytest.mark.parametrize(
        "method,report",
        [("mean", "out.pgm"), ("compare", "out.iter.pgm"), ("mean", "h/in.input.csv"),
         ("mean", "alias/out.pgm")],
    )
    def test_colliding_targets_exit_3_and_leave_listing_unchanged(self, contract, method, report):
        # The model checks that the refusal names the report (alias/ is a symlink to the directory).
        assert contract.check_cli(Run("in.pgm", "out.pgm", method, report=report, histograms="h")) == 3

    @pytest.mark.parametrize(
        "args",
        [Run("in.pgm", "in.pgm", "iterative"), Run("in.pgm", "alias/in.pgm"),
         Run("in.pgm", "out.pgm", "compare", report="in.pgm")],
    )
    def test_output_equal_to_input_exits_3_and_leaves_input_unchanged(self, contract, args):
        assert contract.check_cli(args) == 3
        assert f"output {args.report or args.output} would overwrite the input" in contract.last.stderr

    @pytest.mark.parametrize("output", [".", "/", "", "..", "sub/.."])
    def test_compare_output_without_a_file_name_exits_3(self, tmp_path, output):
        make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        before = snapshot(tmp_path)
        ran = execute(tmp_path, lambda: bilevel.cli.main(["-i", "in.pgm", "-o", output, "--report", "r.json"]))
        assert ran.result == 3  # an exit code, not an exception
        assert f"bilevel: error: output {output!r} has no file name" in ran.stderr
        assert snapshot(tmp_path) == before
        # A missing input still wins; a single output is a directory target.
        for argv in (["-i", "nope.pgm", "--report", "r.json"], ["-i", "in.pgm", "-m", "mean"]):
            assert execute(tmp_path, lambda: bilevel.cli.main([*argv, "-o", output])).result == 1
        assert snapshot(tmp_path) == before

    def test_output_replacing_an_input_named_through_a_file_symlink_exits_3(self, contract):
        assert contract.check_cli(Run("lin.pgm", "in.pgm", "iterative")) == 3  # lin.pgm is a symlink to in.pgm
        assert "output in.pgm would overwrite the input" in contract.last.stderr

    def test_output_replacing_a_hard_link_to_the_input_is_allowed(self, contract):
        # The input, hin.pgm, is a hard link to in.pgm: replacing that entry leaves the input's.
        assert contract.check_cli(Run("hin.pgm", "in.pgm")) == 0

    @pytest.mark.parametrize(
        "plant,run,code,faults",
        [
            pytest.param(None, Run("lin.pgm", "lin.pgm"), 3, [None], id="symlinked-input-as-output"),
            pytest.param("input-link", Run("in.pgm", "out.pgm"), 0, [None], id="symlink-to-input-is-replaced"),
            pytest.param("dangling-link", Run("in.pgm", "out.pgm"), 0, [None], id="dangling-symlink"),
            # Each rename fails in turn. When the second does, the dangling link at out.pgm
            # existed before the run, so the rollback leaves its entry (item 4).
            pytest.param("dangling-link", Run("in.pgm", "out.pgm", report="r.json"), 1,
                         [("replace", 1), ("replace", 2)], id="dangling-symlink-failed-commit"),
            pytest.param(None, Run("missing.pgm", "out.pgm", report="out.pgm"), 1, [None], id="colliding-outputs-missing-input"),
            pytest.param(None, Run("bad.pgm", "out.pgm", report="out.pgm"), 2, [None], id="colliding-outputs-malformed-input"),
            pytest.param(None, Run("bad.pgm", "bad.pgm"), 2, [None], id="malformed-input-as-output"),
            pytest.param("dir-link", Run("in.pgm", "out.pgm"), 1, [None], id="directory-behind-symlink"),
        ],
    )
    def test_target_plan_decisions(self, contract, plant, run, code, faults):
        for call in faults:
            if plant:
                contract.plant("out.pgm", plant)
            assert contract.check_cli(run, Plan(call)) == code

    def test_each_target_is_looked_at_once(self, contract):
        # The commit's lstat of each target is the only one, in the CLI and in save_pgm.
        run = Run("in.pgm", "out.pgm", "compare", False, "r.json", "h")
        assert contract.check_cli(run) == 0
        assert [path for name, path in contract.last.calls if name == "lstat"] == run.targets()
        contract.check_save("out.pgm", "P5")
        assert [path for name, path in contract.last.calls if name == "lstat"] == ["out.pgm"]

    def test_failed_commit_removes_the_histograms_directory_it_made(self, contract):
        contract.plant("a", "dir")  # a/ existed before the run, so it stays
        for hist in ("h", "a/b/h"):
            assert contract.check_cli(Run("in.pgm", "out.pgm", report="missing/r.json", histograms=hist)) == 1

    def test_failed_rename_unlinks_every_temp_file(self, contract):
        run = Run("in.pgm", "out.pgm", report="r.json", histograms="h")
        for n in range(1, 5):  # the run commits four files
            assert contract.check_cli(run, Plan(("replace", n))) == 1

    def test_failed_rename_rolls_back_the_outputs_it_created(self, contract):
        # The new outputs, their temp files and h/ are gone. out.pgm existed, so its entry
        # stays, but once renamed onto it holds the run's output: the rollback does not
        # restore a replaced target yet (ROADMAP item 4 flips the model's line for this).
        run = Run("in.pgm", "out.pgm", report="r.json", histograms="h")
        for n in range(1, 5):  # the run commits four files
            contract.plant("out.pgm", "file")
            assert contract.check_cli(run, Plan(("replace", n))) == 1

    # OSError and MemoryError exit 1; a KeyboardInterrupt escapes main. Each leaves the listing as it was.
    RAISES = {OSError: 1, MemoryError: 1, KeyboardInterrupt: KeyboardInterrupt}

    def test_exception_while_building_a_payload_leaves_listing_unchanged(self, contract):
        run = Run("in.pgm", "out.pgm", "compare", report="r.json", histograms="h")
        for raises, code in self.RAISES.items():  # in the second payload's first block
            assert contract.check_cli(run, Plan(chunk=3, raises=raises)) == code

    @pytest.mark.parametrize("flavor", ["P5", "P2"])
    def test_exception_after_a_written_block_leaves_listing_unchanged(self, contract, flavor):
        # Blocks are one row each: the second fails after the header and the first row were written.
        run = Run("in.pgm", "out.pgm", ascii=flavor == "P2")
        for raises, code in self.RAISES.items():
            assert contract.check_cli(run, Plan(chunk=2, raises=raises)) == code


class TestSummaryOutput:
    # Buffered, the summary also waits in the buffer that the interpreter
    # flushes again at exit; unbuffered, only the write itself fails.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_summary_to_a_closed_pipe_exits_1_and_keeps_the_outputs(
        self, tmp_path, monkeypatch, unbuffered
    ):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        make_pgm(tmp_path, "in.pgm", 4, 1, [0, 64, 128, 255])
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the run starts
        try:
            argv = ["-i", "in.pgm", "-o", "out.pgm", "-m", "mean", "--report", "r.json"]
            proc = run_cli(argv, cwd=tmp_path, stdout=write_end)
        finally:
            os.close(write_end)
        # One line, no traceback, nothing "ignored" when the interpreter exits.
        assert proc.stderr == "bilevel: error: cannot write summary: [Errno 32] Broken pipe\n"
        assert proc.returncode == 1
        # The summary follows the commit, so the outputs are complete.
        assert snapshot(tmp_path)["out.pgm"] == MEAN_OUT
        assert json.loads((tmp_path / "r.json").read_text())["methods"]["mean"]["optimum"] == 111.75
        assert not [p for p in tmp_path.rglob("*") if ".tmp-" in p.name]


class TestSharedParser:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch):
        # main reuses one parser for every call in a process; each call must
        # still print and exit exactly as the first call of a new process.
        make_pgm(tmp_path, "in.pgm", 4, 1, [0, 64, 128, 255])
        runs = [
            (["-i", "in.pgm", "-o", "out.pgm", "-m", "otsu"], "80"),
            (["--help"], "80"),
            (["-i", "in.pgm", "-o", "out.pgm", "-m", "mean"], "80"),
            (["-o", "out.pgm", "--ascii"], "80"),
            (["--help"], "60"),  # the help text wraps to the width of this call
        ]
        for argv, columns in runs:
            monkeypatch.setenv("COLUMNS", columns)
            ran = execute(tmp_path, lambda: bilevel.cli.main(argv))
            fresh = run_cli(argv, cwd=tmp_path)
            assert ran[:3] == (fresh.returncode, fresh.stdout, fresh.stderr), argv


class TestMemory:
    @staticmethod
    def traced_peak(
        tmp_path, monkeypatch, image: GrayImage, args: list[str], flavor: str = "P5"
    ) -> int:
        """``tracemalloc``'s peak over one CLI call on ``image``, after a first untraced call."""
        save_pgm(tmp_path / "in.pgm", image, flavor)
        monkeypatch.chdir(tmp_path)
        argv = ["-i", "in.pgm", "-o", "out.pgm", *args]
        assert bilevel.cli.main(argv) == 0  # first-use set-up stays out of the peak
        codes = []
        peak = traced_peak(lambda: codes.append(bilevel.cli.main(argv)))
        assert codes == [0]
        return peak

    @pytest.mark.parametrize(
        "args",
        [["-m", "iterative"], ["-m", "compare", "--report", "r.json", "--histograms", "h"]],
    )
    def test_peak_stays_under_two_and_a_half_images(self, tmp_path, monkeypatch, capsys, args):
        # The input buffer plus one binary image is two images' worth; joined
        # or copied payloads would add a third.
        rng = np.random.default_rng(5)
        image = GrayImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8))
        assert self.traced_peak(tmp_path, monkeypatch, image, args) <= 2.5 * image.pixels.nbytes
        capsys.readouterr()

    def test_peak_of_a_four_block_output_stays_under_half_an_image(
        self, tmp_path, monkeypatch, capsys
    ):
        # A mapped input is not traced, the pixels are counted in pairs
        # through three 512 KiB buffers, and each output is written one
        # 1 Mpixel block at a time: a whole binary image would be 4 MiB.
        rng = np.random.default_rng(6)
        image = GrayImage(rng.integers(0, 256, size=(2048, 2048), dtype=np.uint8))
        peak = self.traced_peak(tmp_path, monkeypatch, image, ["-m", "compare", "--report", "r.json"])
        assert peak <= 0.5 * image.pixels.nbytes
        capsys.readouterr()

    def test_plain_text_codec_works_in_bounded_memory(self, tmp_path, monkeypatch, capsys):
        # A mapped 1024 x 1024 P2 input is decoded slice by slice into the
        # 1 MiB image, and the output is binarized into one 1 MiB block and
        # encoded sub-block by sub-block. Whole-buffer decoding (a raster
        # copy and int64 samples) and encoding (gather words, their mask and
        # the body) would peak above 13 MiB.
        rng = np.random.default_rng(7)
        image = GrayImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8))
        peak = self.traced_peak(tmp_path, monkeypatch, image, ["-m", "iterative", "--ascii"], "P2")
        assert peak <= 4 * 2**20
        capsys.readouterr()


class TestBlocks:
    # block_pixels is the patched block size of the flavor's encoder.
    @pytest.mark.parametrize("flavor,block_pixels", [("P5", 64), ("P2", 16)])
    def test_block_size_follows_the_output_flavor(
        self, tmp_path, monkeypatch, capsys, flavor, block_pixels
    ):
        # A P5 output is binarized in blocks of _BLOCK_PIXELS. A P2 output
        # never calls _binarize_into: its sub-blocks of _SUB_BLOCK_PIXELS
        # pack the gray pixels' bits 8 to a byte and look up each byte's
        # text, one chunk each.
        image = GrayImage(np.arange(20 * 8, dtype=np.uint8).reshape(20, 8))
        save_pgm(tmp_path / "in.pgm", image)
        monkeypatch.setattr(bilevel.pgm, "_BLOCK_PIXELS", 64)
        monkeypatch.setattr(bilevel.pgm, "_SUB_BLOCK_PIXELS", 16)
        real_binarize_into = bilevel.pgm._binarize_into
        real_pgm_body = bilevel.pgm._pgm_body
        blocks = []
        chunks = []

        def binarize_into(pixels, level, out):
            blocks.append(out.size)
            return real_binarize_into(pixels, level, out)

        def pgm_body(*args):
            for chunk in real_pgm_body(*args):
                chunks.append(len(chunk))
                yield chunk

        monkeypatch.setattr(bilevel.pgm, "_binarize_into", binarize_into)
        monkeypatch.setattr(bilevel.pgm, "_pgm_body", pgm_body)
        argv = ["-i", str(tmp_path / "in.pgm"), "-o", str(tmp_path / "out.pgm"), "-m", "mean"]
        assert bilevel.cli.main(argv + (["--ascii"] if flavor == "P2" else [])) == 0
        assert len(chunks) == -(-image.height // (block_pixels // image.width))
        assert blocks == ([64, 64, 32] if flavor == "P5" else [])
        threshold = mean_threshold(image).optimum
        assert (tmp_path / "out.pgm").read_bytes() == write_pgm(binarize(image, threshold), flavor)
        capsys.readouterr()


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        make_pgm(tmp_path, "img.pgm", 8, 2, [0, 10, 250, 30, 40, 200, 60, 70] * 2)
        args = ["-i", "img.pgm", "-o", "out.pgm", "--report", "report.json", "--histograms", "h"]
        assert run_cli(args, cwd=tmp_path).returncode == 0
        first = snapshot(tmp_path)
        assert run_cli(args, cwd=tmp_path).returncode == 0
        assert len(first) == 7 and snapshot(tmp_path) == first  # the input, h/ and five outputs


def count_calls(monkeypatch, owner, name: str) -> list:
    """Count calls to ``owner.name``, rebinding it in every bilevel module that imported it."""
    original = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "bilevel" or mod_name.startswith("bilevel."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestOnePixelPass:
    def test_compare_run_counts_pixels_once_and_validates_no_binary(
        self, tmp_path, monkeypatch, capsys
    ):
        rng = np.random.default_rng(61)
        tile = bimodal_gray_image(rng, max_side=8).pixels
        height, width = tile.shape
        # Over 300 x 300 pixels, so build_histogram takes more than one slice.
        image = GrayImage(np.tile(tile, (300 // height + 1, 300 // width + 1)))
        monkeypatch.chdir(tmp_path)
        save_pgm("scan.pgm", image)
        Path("out").mkdir()

        histograms = count_calls(monkeypatch, bilevel.histogram, "build_histogram")
        validations = count_calls(monkeypatch, BinaryImage, "__post_init__")
        bilevel.cli.build_histogram(image)
        BinaryImage.from_flat(1, 1, [0])
        assert (len(histograms), len(validations)) == (1, 1)  # the counters see calls
        histograms.clear()
        validations.clear()

        run = Run("scan.pgm", "out/out.pgm", "compare", False, "out/r.json", "out/h")
        assert bilevel.cli.main(run.argv()) == 0
        assert len(histograms) == 1
        assert len(validations) == 0
        outputs = dict(zip(["mean", "iterative", "input.csv", "output.csv", "report"], map(Path, run.targets())))
        assert sorted(p for p in Path("out").rglob("*") if p.is_file()) == sorted(outputs.values())
        stdout = capsys.readouterr().out
        assert check_call(Reference(image.pixels), ["mean", "iterative"], "P5", 0, stdout, outputs) == []
