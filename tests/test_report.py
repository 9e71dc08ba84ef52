import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilevel import (
    GrayImage,
    Histogram,
    RunReport,
    binarize,
    build_histogram,
    emit_histogram_csv,
    emit_report,
    iterative_optimum_threshold,
    mean_threshold,
    round_half_up,
)
from helpers import image_of

INT64_MAX = 2**63 - 1
INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def _bin_counts(draw) -> np.ndarray:
    """256 counts of any integer dtype whose total and weighted sum fit in int64.

    Small counts in every bin, then a few bins raised by up to all the room
    left: up to the dtype's maximum, or the int64 limit of the sums.
    """
    dtype = draw(st.sampled_from(INTEGER_DTYPES))
    top = min(int(np.iinfo(dtype).max), INT64_MAX)
    counts = draw(arrays(np.int64, 256, elements=st.integers(0, min(top, 1000)))).tolist()
    total = sum(counts)
    weighted = sum(value * count for value, count in enumerate(counts))
    for value in draw(st.lists(st.integers(0, 255), max_size=4)):
        room = INT64_MAX - total
        if value:
            room = min(room, (INT64_MAX - weighted) // value)
        cap = min(top - counts[value], room)
        extra = draw(st.just(cap) | st.integers(0, cap))
        counts[value] += extra
        total += extra
        weighted += value * extra
    return np.array(counts, dtype=dtype)


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "value,expected",
        [(25.0, 25), (127.5, 128), (24.5, 25), (24.4999, 24), (0.0, 0), (254.5, 255), (255.0, 255)],
    )
    def test_halves_go_up(self, value, expected):
        assert round_half_up(value) == expected

    # value + 0.5 rounds to the even float before floor sees it: the largest
    # double below 0.5 and an odd integer above 2**52 both went up.
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.49999999999999994, 0),
            (4503599627370497.0, 4503599627370497),
            (127.5, 128),
            (2.5, 3),
            (-0.5, 0),
        ],
    )
    def test_float_edges(self, value, expected):
        result = round_half_up(value)
        assert result == expected and type(result) is int


class TestRunReport:
    def test_requires_at_least_one_result(self):
        with pytest.raises(ValueError, match="at least one"):
            RunReport(input_path="x.pgm", width=1, height=1)


class TestEmitReport:
    def test_mean_only_run(self):
        report = RunReport("img.pgm", 4, 1, mean_result=mean_threshold(image_of([10, 20, 30, 40])))
        doc = json.loads(emit_report(report))
        assert doc["input"] == "img.pgm"
        assert (doc["width"], doc["height"]) == (4, 1)
        assert doc["estimate_source"] == "global_mean"
        mean = doc["methods"]["mean"]
        assert mean["optimum"] == 25.0
        assert mean["rounded"] == 25
        assert mean["iterations"] == []
        assert "iterative" not in doc["methods"]

    def test_iterative_trace_with_two_steps(self):
        result = iterative_optimum_threshold(image_of([0, 0, 0, 100]))
        report = RunReport("img.pgm", 4, 1, iterative_result=result)
        doc = json.loads(emit_report(report))
        entry = doc["methods"]["iterative"]
        assert entry["optimum"] == 50.0
        assert len(entry["iterations"]) == 2
        assert entry["iterations"][0] == {
            "estimate": 25.0,
            "m1": 0.0,
            "m2": 100.0,
            "total_mean": 50.0,
        }

    def test_empty_class_rendered_as_null(self):
        result = iterative_optimum_threshold(image_of([7, 7, 7]))
        report = RunReport("img.pgm", 3, 1, iterative_result=result)
        raw = emit_report(report).decode()
        doc = json.loads(raw)
        step = doc["methods"]["iterative"]["iterations"][0]
        assert step["m2"] is None
        assert step["total_mean"] is None
        assert '"m2": null' in raw

    def test_compare_run_holds_both_methods(self):
        img = image_of([40] * 9 + [160])
        report = RunReport(
            "img.pgm",
            10,
            1,
            mean_result=mean_threshold(img),
            iterative_result=iterative_optimum_threshold(img),
            histogram_input_path="h/in.csv",
            histogram_output_path="h/out.csv",
        )
        doc = json.loads(emit_report(report))
        assert set(doc["methods"]) == {"mean", "iterative"}
        assert doc["histograms"] == {"input": "h/in.csv", "output": "h/out.csv"}

    def test_deterministic_bytes(self):
        img = image_of([1, 2, 3, 200])
        report = RunReport(
            "img.pgm",
            4,
            1,
            mean_result=mean_threshold(img),
            iterative_result=iterative_optimum_threshold(img),
        )
        assert emit_report(report) == emit_report(report)

    def test_full_precision_parse_back(self):
        img = image_of([0, 255, 17])  # mean 90.66666666666667, not representable shortly
        result = mean_threshold(img)
        doc = json.loads(emit_report(RunReport("x", 3, 1, mean_result=result)))
        assert doc["methods"]["mean"]["optimum"] == result.optimum
        assert doc["methods"]["mean"]["estimate"] == result.estimate

    def test_fractional_threshold_carries_rounded_integer(self):
        result = mean_threshold(image_of([0, 255]))
        doc = json.loads(emit_report(RunReport("x", 2, 1, mean_result=result)))
        assert doc["methods"]["mean"]["optimum"] == 127.5
        assert doc["methods"]["mean"]["rounded"] == 128


class TestEmitHistogramCsv:
    def test_symmetric_pair(self):
        data = emit_histogram_csv(build_histogram(image_of([0, 255]))).decode()
        lines = data.splitlines()
        assert lines[0] == "value,count"
        assert lines[1] == "0,1"
        assert lines[256] == "255,1"
        assert all(line.endswith(",0") for line in lines[2:256])

    def test_exactly_257_lines(self):
        data = emit_histogram_csv(build_histogram(image_of([5, 5, 9]))).decode()
        assert len(data.splitlines()) == 257
        assert data.endswith("\n")

    def test_counts_sum_to_pixel_count(self):
        img = GrayImage.from_flat(4, 3, list(range(12)))
        lines = emit_histogram_csv(build_histogram(img)).decode().splitlines()[1:]
        assert sum(int(line.split(",")[1]) for line in lines) == 12

    def test_binarized_histogram_has_two_possible_rows(self):
        img = image_of([10, 20, 200, 210])
        out = binarize(img, 100)
        lines = emit_histogram_csv(build_histogram(out)).decode().splitlines()[1:]
        nonzero = [line for line in lines if not line.endswith(",0")]
        assert nonzero == ["0,2", "255,2"]

    def test_constant_image(self):
        data = emit_histogram_csv(build_histogram(GrayImage.from_flat(3, 3, [7] * 9))).decode()
        assert "7,9" in data.splitlines()

    @settings(max_examples=300, deadline=None)
    @given(counts=_bin_counts())
    def test_matches_line_by_line_reference(self, counts):
        reference = "value,count\n" + "".join(f"{v},{int(c)}\n" for v, c in enumerate(counts))
        assert emit_histogram_csv(Histogram(counts)) == reference.encode("ascii")
