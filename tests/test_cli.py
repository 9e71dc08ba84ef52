import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import bilevel.cli
import bilevel.histogram
from bilevel import (
    BinaryImage,
    GrayImage,
    Histogram,
    RunReport,
    emit_histogram_csv,
    emit_report,
    iterative_optimum_threshold,
    load_pgm,
    mean_threshold,
    read_pgm,
    save_pgm,
    write_pgm,
)
from helpers import bimodal_gray_image, run_cli


def make_pgm(directory: Path, name: str, width: int, height: int, values) -> Path:
    path = directory / name
    save_pgm(path, GrayImage.from_flat(width, height, values))
    return path


def no_temp_files(directory: Path) -> bool:
    return not [p for p in directory.rglob("*") if ".tmp-" in p.name]


class TestSingleMethodRuns:
    def test_mean_summary_line_and_output(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 4, 1, [10, 20, 30, 40])
        out = tmp_path / "out.pgm"
        proc = run_cli(["-i", inp, "-o", out, "-m", "mean"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mean estimate=25 optimum=25 iterations=0\n"
        assert load_pgm(out).pixels.tolist() == [[0, 0, 255, 255]]
        assert no_temp_files(tmp_path)

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

    def test_ascii_flag_writes_plain_flavor(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 2, 1, [0, 255])
        out = tmp_path / "out.pgm"
        assert run_cli(["-i", inp, "-o", out, "-m", "mean", "--ascii"]).returncode == 0
        assert out.read_bytes().startswith(b"P2\n")
        assert run_cli(["-i", inp, "-o", out, "-m", "mean"]).returncode == 0
        assert out.read_bytes().startswith(b"P5\n")


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

    def test_compare_without_report_is_a_usage_error(self, tmp_path):
        inp = make_pgm(tmp_path, "doc.pgm", 2, 1, [0, 255])
        proc = run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "compare"])
        assert proc.returncode == 3
        assert "--report" in proc.stderr
        assert not (tmp_path / "o.mean.pgm").exists()


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

    def test_report_records_image_dimensions(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 3, 2, [0, 10, 20, 30, 40, 50])
        report = tmp_path / "r.json"
        run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "mean", "--report", report])
        doc = json.loads(report.read_text())
        assert (doc["width"], doc["height"]) == (3, 2)


class TestFailureModes:
    def test_missing_input_exits_1_without_outputs(self, tmp_path):
        out = tmp_path / "out.pgm"
        proc = run_cli(["-i", tmp_path / "nope.pgm", "-o", out, "-m", "mean"])
        assert proc.returncode == 1
        assert proc.stderr.strip()
        assert not out.exists()

    def test_malformed_input_exits_2_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n2 2\n255\n0 0 0\n")
        out = tmp_path / "out.pgm"
        proc = run_cli(["-i", bad, "-o", out, "-m", "mean"])
        assert proc.returncode == 2
        assert "truncated" in proc.stderr
        assert not out.exists()

    def test_unknown_method_exits_3(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 2, 1, [0, 255])
        proc = run_cli(["-i", inp, "-o", tmp_path / "o.pgm", "-m", "otsu"])
        assert proc.returncode == 3

    def test_missing_required_flag_exits_3(self, tmp_path):
        proc = run_cli(["-o", tmp_path / "o.pgm"])
        assert proc.returncode == 3

    def test_unwritable_output_leaves_no_partial_files(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 4, 1, [10, 20, 30, 40])
        report = tmp_path / "report.json"
        proc = run_cli(
            ["-i", inp, "-o", tmp_path / "missing-dir" / "out.pgm",
             "-m", "mean", "--report", report]
        )
        assert proc.returncode == 1
        assert not report.exists()
        assert no_temp_files(tmp_path)

    def test_directory_target_leaves_listing_unchanged(self, tmp_path):
        inp = make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        (tmp_path / "rep.json").mkdir()
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli(
            ["-i", inp, "-o", tmp_path / "out.pgm", "-m", "mean", "--report", tmp_path / "rep.json"]
        )
        assert proc.returncode == 1
        assert "rep.json" in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "method,report",
        [("mean", "out.pgm"), ("compare", "out.iter.pgm"), ("mean", "h/in.input.csv"),
         ("mean", "alias/out.pgm")],
    )
    def test_colliding_targets_exit_3_and_leave_listing_unchanged(self, tmp_path, method, report):
        inp = make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli(
            ["-i", inp, "-o", tmp_path / "out.pgm", "-m", method,
             "--report", tmp_path / report, "--histograms", tmp_path / "h"]
        )
        assert proc.returncode == 3
        assert str(tmp_path / report) in proc.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "args",
        [["-m", "iterative", "-o", "in.pgm"],
         ["-m", "mean", "-o", "alias/in.pgm"],
         ["-m", "compare", "-o", "out.pgm", "--report", "in.pgm"]],
    )
    def test_output_equal_to_input_exits_3_and_leaves_input_unchanged(self, tmp_path, args):
        inp = make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
        original = inp.read_bytes()
        before = sorted(tmp_path.rglob("*"))
        proc = run_cli(["-i", "in.pgm", *args], cwd=tmp_path)
        assert proc.returncode == 3
        assert f"output {args[-1]} would overwrite the input" in proc.stderr
        assert inp.read_bytes() == original
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_commit_removes_the_histograms_directory_it_made(self, tmp_path):
        inp = make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        (tmp_path / "old").mkdir()
        before = sorted(tmp_path.rglob("*"))
        for hist_dir in ("h", "old/a/b"):
            proc = run_cli(
                ["-i", inp, "-o", tmp_path / "out.pgm", "-m", "mean",
                 "--report", tmp_path / "nodir" / "r.json", "--histograms", tmp_path / hist_dir]
            )
            assert proc.returncode == 1
            assert sorted(tmp_path.rglob("*")) == before  # old/ existed before, so it stays

    def test_failed_rename_unlinks_every_temp_file(self, tmp_path, monkeypatch, capsys):
        inp = make_pgm(tmp_path, "in.pgm", 4, 1, [10, 20, 30, 40])
        args = ["-i", str(inp), "-o", str(tmp_path / "out.pgm"), "-m", "mean",
                "--report", str(tmp_path / "r.json"), "--histograms", str(tmp_path / "h")]
        real_replace = os.replace
        for fail_at in range(4):  # the run commits four files
            renames = []

            def replace(src, dst):
                renames.append(dst)
                if len(renames) > fail_at:
                    raise OSError("injected rename failure")
                real_replace(src, dst)

            monkeypatch.setattr(bilevel.cli.os, "replace", replace)
            assert bilevel.cli.main(args) == 1
            assert "injected rename failure" in capsys.readouterr().err
            assert no_temp_files(tmp_path)


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        inp = make_pgm(tmp_path, "img.pgm", 8, 2, [0, 10, 250, 30, 40, 200, 60, 70] * 2)
        out = tmp_path / "out.pgm"
        report = tmp_path / "report.json"
        hist_dir = tmp_path / "h"
        args = ["-i", inp, "-o", out, "--report", report, "--histograms", hist_dir]
        assert run_cli(args).returncode == 0
        first = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file() and p != inp
        }
        assert run_cli(args).returncode == 0
        second = {
            p.relative_to(tmp_path): p.read_bytes()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file() and p != inp
        }
        assert first and first == second


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
    def reference_outputs(self, inp: Path, out_dir: Path) -> dict:
        """The compare run's files, each computed straight from the pixels."""
        image = read_pgm(inp.read_bytes())
        flat = image.pixels.reshape(-1)
        mean, iterative = mean_threshold(image), iterative_optimum_threshold(image)

        def binary(t):
            return BinaryImage(np.where(image.pixels > t, 255, 0).astype(np.uint8))

        iter_binary = binary(iterative.optimum)
        hist_dir = out_dir / "h"
        report = RunReport(
            input_path=str(inp),
            width=image.width,
            height=image.height,
            mean_result=mean,
            iterative_result=iterative,
            histogram_input_path=str(hist_dir / "scan.input.csv"),
            histogram_output_path=str(hist_dir / "scan.output.csv"),
        )
        return {
            out_dir / "out.mean.pgm": write_pgm(binary(mean.optimum), "P5"),
            out_dir / "out.iter.pgm": write_pgm(iter_binary, "P5"),
            hist_dir / "scan.input.csv": emit_histogram_csv(
                Histogram(np.bincount(flat, minlength=256))
            ),
            hist_dir / "scan.output.csv": emit_histogram_csv(
                Histogram(np.bincount(iter_binary.pixels.reshape(-1), minlength=256))
            ),
            out_dir / "r.json": emit_report(report),
        }

    def test_compare_run_counts_pixels_once_and_validates_no_binary(
        self, tmp_path, monkeypatch, capsys
    ):
        rng = np.random.default_rng(61)
        tile = bimodal_gray_image(rng, max_side=8).pixels
        height, width = tile.shape
        # Over 300 x 300 pixels, so build_histogram takes more than one slice.
        image = GrayImage(np.tile(tile, (300 // height + 1, 300 // width + 1)))
        inp = tmp_path / "scan.pgm"
        save_pgm(inp, image)
        out_dir = tmp_path / "out"
        expected = self.reference_outputs(inp, out_dir)

        histograms = count_calls(monkeypatch, bilevel.histogram, "build_histogram")
        validations = count_calls(monkeypatch, BinaryImage, "__post_init__")
        bilevel.cli.build_histogram(image)
        BinaryImage.from_flat(1, 1, [0])
        assert (len(histograms), len(validations)) == (1, 1)  # the counters see calls
        histograms.clear()
        validations.clear()

        argv = ["-i", str(inp), "-o", str(out_dir / "out.pgm"), "-m", "compare",
                "--report", str(out_dir / "r.json"), "--histograms", str(out_dir / "h")]
        out_dir.mkdir()
        assert bilevel.cli.main(argv) == 0
        assert len(histograms) == 1
        assert len(validations) == 0
        written = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert written == expected
        summary = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in summary] == ["mean", "iterative"]
