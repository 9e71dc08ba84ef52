import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from bilevel import (
    BinaryImage,
    GrayImage,
    Histogram,
    binarize,
    binarized_histogram,
    build_histogram,
    fixed_point_oracle,
    iterative_optimum_threshold,
    mean_threshold,
    select_iterative,
    select_mean,
)
from helpers import Reference, bimodal_gray_image, image_of, random_gray_image


def gray_pixels(high: int = 255):
    """2-D uint8 arrays of 1 to 16 rows and columns, with values from 0 to ``high``."""
    return arrays(np.uint8, array_shapes(min_dims=2, max_dims=2, max_side=16), elements=st.integers(0, high))


class TestBinarize:
    def test_one_pixel_each_side(self):
        assert binarize(image_of([100, 200]), 150).pixels.tolist() == [[0, 255]]

    def test_pixel_equal_to_threshold_is_background(self):
        assert binarize(image_of([93, 93]), 93).pixels.tolist() == [[0, 0]]

    def test_four_pixel_split(self):
        assert binarize(image_of([10, 20, 30, 40]), 25).pixels.tolist() == [[0, 0, 255, 255]]

    def test_fractional_threshold_splits_like_floor(self):
        img = image_of([24, 25, 26])
        for t in (25, 25.0, 25.5, 25.999):
            assert binarize(img, t).pixels.tolist() == [[0, 0, 255]]

    def test_dimensions_preserved(self):
        img = GrayImage.from_flat(3, 2, [0, 50, 100, 150, 200, 250])
        out = binarize(img, 120)
        assert (out.width, out.height) == (img.width, img.height)

    @pytest.mark.parametrize("t", [-0.001, -1, 255.5, 256, float("nan")])
    def test_out_of_range_threshold_rejected(self, t):
        with pytest.raises(ValueError, match="threshold"):
            binarize(image_of([0]), t)

    def test_boundary_thresholds_allowed(self):
        img = image_of([0, 255])
        assert binarize(img, 0).pixels.tolist() == [[0, 255]]
        assert binarize(img, 255).pixels.tolist() == [[0, 0]]

    @pytest.mark.parametrize(
        "t", [0.0, 255.0, 0, 255, 93, 93.0, math.nextafter(93.0, 0.0), 127.5, 0.001, 254.999]
    )
    def test_matches_float_comparison_reference(self, t):
        rng = np.random.default_rng(62)
        pixels = np.concatenate([np.arange(256), rng.integers(0, 256, 744)]).astype(np.uint8)
        img = GrayImage(pixels.reshape(40, 25))
        out = binarize(img, t)
        assert isinstance(out, BinaryImage)
        assert out.pixels.dtype == np.uint8 and not out.pixels.flags.writeable
        assert np.array_equal(out.pixels, np.where(img.pixels > t, 255, 0))


class TestBinarizedHistogram:
    def test_equals_histogram_of_binarized_image(self):
        rng = np.random.default_rng(64)
        for _ in range(200):
            img = random_gray_image(rng, max_side=16)
            for t in (0, 255, 0.0, 255.0, float(rng.uniform(0, 255)), int(rng.integers(0, 256))):
                expected = build_histogram(binarize(img, t))
                assert binarized_histogram(build_histogram(img), t) == expected

    @pytest.mark.parametrize("value", [0, 7, 128, 255])
    def test_constant_images(self, value):
        # A constant image is the degenerate case: the iterative optimum is
        # the constant itself, so t == value is the threshold the CLI uses.
        img = GrayImage.from_flat(3, 3, [value] * 9)
        hist = build_histogram(img)
        for t in (0, 0.5, max(value - 0.5, 0), value, 254.999, 255):
            assert binarized_histogram(hist, t) == build_histogram(binarize(img, t))

    @pytest.mark.parametrize("t", [-0.001, 255.5, float("nan")])
    def test_out_of_range_threshold_rejected(self, t):
        with pytest.raises(ValueError, match="threshold"):
            binarized_histogram(build_histogram(image_of([0])), t)


class TestMeanThreshold:
    def test_four_pixel_example(self):
        result = mean_threshold(image_of([10, 20, 30, 40]))
        assert result.method == "mean"
        assert result.estimate == 25.0
        assert result.optimum == 25.0
        assert result.iterations == ()
        assert result.converged and not result.degenerate

    def test_constant_image_binarizes_to_background(self):
        img = GrayImage.from_flat(3, 3, [7] * 9)
        result = mean_threshold(img)
        assert result.optimum == 7.0
        assert binarize(img, result.optimum).pixels.tolist() == [[0, 0, 0]] * 3

    def test_symmetric_pair(self):
        img = image_of([0, 255])
        result = mean_threshold(img)
        assert result.optimum == 127.5
        assert binarize(img, result.optimum).pixels.tolist() == [[0, 255]]

    def test_optimum_equals_pixelwise_mean_exactly(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            img = random_gray_image(rng, max_side=20)
            flat = [int(p) for p in img.pixels.reshape(-1)]
            assert mean_threshold(img).optimum == sum(flat) / len(flat)


class TestIterativeOptimumThreshold:
    def test_converges_in_one_step(self):
        result = iterative_optimum_threshold(image_of([10, 20, 30, 40]))
        assert result.method == "iterative"
        assert result.estimate == 25.0
        assert result.optimum == 25.0
        assert result.converged and not result.degenerate
        assert len(result.iterations) == 1
        step = result.iterations[0]
        assert (step.estimate, step.m1, step.m2, step.total_mean) == (25.0, 15.0, 35.0, 25.0)

    def test_converges_in_two_steps(self):
        result = iterative_optimum_threshold(image_of([0, 0, 0, 100]))
        assert result.estimate == 25.0
        assert result.optimum == 50.0
        assert result.converged
        assert len(result.iterations) == 2
        first, second = result.iterations
        assert (first.estimate, first.m1, first.m2, first.total_mean) == (25.0, 0.0, 100.0, 50.0)
        assert (second.estimate, second.m1, second.m2, second.total_mean) == (50.0, 0.0, 100.0, 50.0)

    def test_a_step_exactly_one_level_from_its_threshold_does_not_stop(self):
        # At T = 240 the class means are 239 and 243, so g(T) = 241 lies
        # exactly 1 from T: the stop rule |T - g(T)| < 1 must take one more step.
        counts = np.zeros(256, dtype=np.int64)
        counts[[239, 243]] = [3, 2]
        result = select_iterative(Histogram(counts))
        assert [step.estimate for step in result.iterations] == [240.0, 241.0]
        assert [step.total_mean for step in result.iterations] == [241.0, 241.0]
        assert result.optimum == 241.0 and result.converged

    def test_constant_image_is_degenerate(self):
        result = iterative_optimum_threshold(GrayImage.from_flat(3, 3, [7] * 9))
        assert result.estimate == 7.0
        assert result.optimum == 7.0
        assert result.degenerate and not result.converged
        assert len(result.iterations) == 1
        step = result.iterations[0]
        assert step.m1 == 7.0
        assert step.m2 is None
        assert step.total_mean is None

    def test_all_white_image_is_degenerate(self):
        result = iterative_optimum_threshold(image_of([255, 255, 255]))
        assert result.degenerate
        assert result.optimum == 255.0

    def test_two_distinct_values_never_degenerate(self):
        rng = np.random.default_rng(49)
        for _ in range(200):
            img = random_gray_image(rng, max_side=12)
            result = iterative_optimum_threshold(img)
            distinct = np.unique(img.pixels).size
            if distinct >= 2:
                assert result.converged and not result.degenerate
            else:
                assert result.degenerate and not result.converged

    def test_class_means_bracket_the_threshold(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            img = bimodal_gray_image(rng, max_side=24)
            for step in iterative_optimum_threshold(img).iterations:
                if step.m1 is not None and step.m2 is not None:
                    assert step.m1 <= step.estimate < step.m2
                    assert min(step.m1, step.m2) <= step.total_mean <= max(step.m1, step.m2)

    def test_converged_final_step_satisfies_stop_condition(self):
        rng = np.random.default_rng(60)
        for _ in range(100):
            img = bimodal_gray_image(rng, max_side=24)
            result = iterative_optimum_threshold(img)
            if result.converged:
                last = result.iterations[-1]
                assert abs(last.estimate - last.total_mean) < 1.0
                assert result.optimum == last.total_mean

    @settings(max_examples=500, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 255), st.integers(1, 2**40), min_size=1, max_size=256
        )
    )
    def test_walk_is_monotone_and_bounded(self, bins):
        # Arbitrary histograms straight to the selector, sparse and skewed
        # ones included, pin the termination argument in its docstring.
        counts = np.zeros(256, dtype=np.int64)
        counts[list(bins)] = list(bins.values())
        result = select_iterative(Histogram(counts))
        estimates = [step.estimate for step in result.iterations]
        assert len(estimates) <= 256
        assert len(set(estimates)) == len(estimates)
        assert estimates in (sorted(estimates), sorted(estimates, reverse=True))
        assert result.converged == (len(bins) >= 2)


class TestFixedPointOracle:
    def test_four_pixel_example(self):
        oracle = fixed_point_oracle(build_histogram(image_of([10, 20, 30, 40])))
        assert 25 in oracle
        assert oracle == {25, 30}

    def test_skewed_example(self):
        oracle = fixed_point_oracle(build_histogram(image_of([0, 0, 0, 100])))
        assert 50 in oracle
        assert oracle == {50}

    def test_constant_image_has_no_fixed_point(self):
        assert fixed_point_oracle(build_histogram(GrayImage.from_flat(2, 2, [7] * 4))) == set()

    def test_empty_histogram_has_no_fixed_point(self):
        assert fixed_point_oracle(Histogram(np.zeros(256, dtype=np.int64))) == set()

    def test_shares_no_code_with_the_selectors(self):
        # Acceptance criterion 1 checks the selector against this oracle, so
        # the oracle must keep its own prefix sums and call none of them.
        selector_code = {
            "select_iterative", "select_mean", "iterative_optimum_threshold", "mean_threshold",
            "class_mean", "global_mean", "binarized_histogram", "_split_level",
        }
        assert selector_code.isdisjoint(fixed_point_oracle.__code__.co_names)

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(52)
        for _ in range(60):
            img = random_gray_image(rng, max_side=10)
            midpoints = {t: Reference(img.pixels).midpoint(t) for t in range(255)}
            expected = {t for t, g in midpoints.items() if g is not None and abs(t - g) < 1.0}
            assert fixed_point_oracle(build_histogram(img)) == expected

    def test_oracle_nonempty_for_two_distinct_values(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            img = random_gray_image(rng, max_side=12)
            if np.unique(img.pixels).size >= 2:
                assert fixed_point_oracle(build_histogram(img))


class TestThresholdProperties:
    def test_histogram_selectors_match_image_wrappers(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            img = bimodal_gray_image(rng, max_side=24)
            hist = build_histogram(img)
            assert select_mean(hist) == mean_threshold(img)
            assert select_iterative(hist) == iterative_optimum_threshold(img)

    def test_output_alphabet(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            img = random_gray_image(rng, max_side=16)
            out = binarize(img, float(rng.uniform(0, 255)))
            assert set(np.unique(out.pixels)) <= {0, 255}

    @settings(max_examples=100, deadline=None)
    @given(pixels=gray_pixels(), first=st.floats(0, 255), again=st.floats(0.001, 254.999))
    def test_idempotence(self, pixels, first, again):
        once = binarize(GrayImage(pixels), first)
        assert binarize(once.to_gray(), again) == once

    @settings(max_examples=50, deadline=None)
    @given(pixels=gray_pixels(), data=st.data())
    def test_permutation_invariance_of_both_methods(self, pixels, data):
        order = data.draw(st.permutations(range(pixels.size)))
        img = GrayImage(pixels)
        shuffled = GrayImage.from_flat(img.width, img.height, pixels.reshape(-1)[order])
        assert mean_threshold(shuffled) == mean_threshold(img)
        assert iterative_optimum_threshold(shuffled) == iterative_optimum_threshold(img)

    @settings(max_examples=100, deadline=None)
    @given(base=gray_pixels(high=155), shift=st.integers(1, 99))
    def test_shift_equivariance(self, base, shift):
        img = GrayImage(base)
        shifted = GrayImage(base + shift)
        assert math.isclose(
            mean_threshold(shifted).optimum,
            mean_threshold(img).optimum + shift,
            abs_tol=1e-9,
        )
        assert math.isclose(
            iterative_optimum_threshold(shifted).optimum,
            iterative_optimum_threshold(img).optimum + shift,
            abs_tol=1e-6,
        )
