import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bilevel import (
    BinaryImage,
    EmptyInputError,
    GrayImage,
    Histogram,
    build_histogram,
    class_mean,
    global_mean,
)
from helpers import drawn_forks, forked, image_of, naive_class_mean, random_gray_image, sizes, traced_peak

INT64_MAX = 2**63 - 1


def hist_of(values) -> Histogram:
    return build_histogram(image_of(values))


class TestBuildHistogram:
    def test_counts_are_exact_multiplicities(self):
        hist = hist_of([0, 255, 0, 255])
        assert hist.counts[0] == 2
        assert hist.counts[255] == 2
        assert hist.total == 4
        assert hist.counts.sum() == 4

    def test_constant_image(self):
        hist = build_histogram(GrayImage.from_flat(3, 3, [7] * 9))
        assert hist.counts[7] == 9
        assert hist.total == 9

    def test_conservation_on_random_image(self):
        rng = np.random.default_rng(42)
        img = GrayImage(rng.integers(0, 256, size=(32, 32), dtype=np.uint8))
        hist = build_histogram(img)
        assert hist.total == 1024
        assert int(hist.counts.sum()) == 1024

    def test_every_bin_matches_direct_count(self):
        rng = np.random.default_rng(43)
        img = random_gray_image(rng, max_side=16)
        hist = build_histogram(img)
        flat = img.pixels.reshape(-1).tolist()
        for value in range(256):
            assert hist.counts[value] == flat.count(value)

    # build_histogram counts an image of fewer than 2^21 pixels in slices of
    # 65536 pixels: one short of, exactly and one past a slice, and several
    # slices with a partial last one. From 2^21 pixels on it counts pixel
    # pairs in slices of 65536 pairs: one short of the size (odd), exactly
    # at it (16 whole slices), one past it (odd), and 1449^2, an odd count
    # with a partial last slice. The last two are also counted as a mapped
    # P5 raster sits, a read-only view one byte into a bytes buffer, whose
    # unaligned uint16 pairs np.bincount widens itself.
    @pytest.mark.parametrize(
        "shape",
        [(1, 1), (1, 65535), (256, 256), (1, 65537), (517, 389),
         (1, 2**21 - 1), (1024, 2048), (1, 2**21 + 1), (1449, 1449)],
    )
    def test_sliced_counts_equal_one_bincount(self, shape):
        rng = np.random.default_rng(shape[1])
        pixels = rng.integers(0, 256, size=shape, dtype=np.uint8)
        expected = np.bincount(pixels.reshape(-1), minlength=256)
        images = [GrayImage(pixels)]
        if shape in [(1, 2**21 + 1), (1449, 1449)]:
            mapped = np.frombuffer(b"x" + pixels.tobytes(), np.uint8, offset=1)
            images.append(GrayImage._trusted(mapped.reshape(shape)))
        for image in images:
            assert np.array_equal(build_histogram(image).counts, expected)

    @settings(max_examples=400, deadline=None)
    @given(
        pixels=st.one_of(
            arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))),
            st.builds(
                np.full,
                st.tuples(st.integers(1, 9), st.integers(1, 9)),
                st.integers(0, 255),
                st.just(np.uint8),
            ),
        ),
        kind=st.sampled_from(["gray", "binary", "mapped"]),
        forks=drawn_forks("histogram._PAIR_MIN_PIXELS", "histogram._SLICE_PIXELS"),
    )
    # Odd counts just under and at the pair threshold, an even count at it,
    # and one pixel, which is only the odd last pixel of zero pairs.
    @example(pixels=np.arange(15, dtype=np.uint8).reshape(3, 5), kind="mapped",
             forks=sizes(_PAIR_MIN_PIXELS=15, _SLICE_PIXELS=2))
    @example(pixels=np.arange(15, dtype=np.uint8).reshape(3, 5), kind="gray",
             forks=sizes(_PAIR_MIN_PIXELS=16, _SLICE_PIXELS=2))
    @example(pixels=np.full((4, 4), 200, np.uint8), kind="gray",
             forks=sizes(_PAIR_MIN_PIXELS=16, _SLICE_PIXELS=3))
    @example(pixels=np.full((1, 1), 7, np.uint8), kind="gray",
             forks=sizes(_PAIR_MIN_PIXELS=1, _SLICE_PIXELS=1))
    def test_pair_counts_equal_one_bincount(self, pixels, kind, forks):
        if kind == "binary":
            pixels = np.where(pixels > 127, 255, 0).astype(np.uint8)
            image = BinaryImage(pixels)
        elif kind == "mapped":
            # A mapped P5 raster starts at an odd offset after its header.
            view = np.frombuffer(b"x" + pixels.tobytes(), np.uint8, offset=1)
            image = GrayImage._trusted(view.reshape(pixels.shape))
        else:
            image = GrayImage(pixels)
        with forked(forks):
            counts = build_histogram(image).counts
        assert np.array_equal(counts, np.bincount(pixels.reshape(-1), minlength=256))

    def test_pair_count_peaks_at_its_three_slice_buffers(self):
        # A 2048 x 2048 image is counted in pairs: bincount's widened slice
        # and its output, and the 65536-bin table, are 512 KiB each, and no
        # other buffer nears that size.
        rng = np.random.default_rng(2048)
        image = GrayImage(rng.integers(0, 256, size=(2048, 2048), dtype=np.uint8))
        build_histogram(image)
        assert traced_peak(lambda: build_histogram(image)) <= 1.6 * 2**20


class TestHistogramType:
    def test_needs_256_bins(self):
        with pytest.raises(ValueError, match="256"):
            Histogram(np.zeros(255, dtype=np.int64))

    def test_rejects_float_counts(self):
        with pytest.raises(ValueError, match="integers"):
            Histogram(np.zeros(256, dtype=np.float64))

    def test_rejects_negative_counts(self):
        counts = np.zeros(256, dtype=np.int64)
        counts[3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            Histogram(counts)

    def test_counts_read_only(self):
        hist = hist_of([1, 2, 3])
        with pytest.raises(ValueError):
            hist.counts[0] = 5

    @pytest.mark.parametrize(
        "bins, dtype",
        [
            ({v: 2**63 for v in range(256)}, np.uint64),  # each bin beyond int64
            ({v: 2**62 for v in range(256)}, np.int64),  # the total wraps to 0
            ({0: 1, 255: 2**62}, np.int64),  # the weighted sum wraps negative
            ({0: INT64_MAX, 1: 1}, np.int64),  # the total is one past the limit
            ({0: 1, 255: INT64_MAX // 255 + 1}, np.int64),  # and the weighted sum
            ({0: INT64_MAX, 2: 2**62}, np.uint64),  # both, held in uint64
            # Every bin fits alone, but not their total or their weighted sum.
            ({v: INT64_MAX // 256 + 1 for v in range(256)}, np.int64),
            ({254: INT64_MAX // 300, 255: INT64_MAX // 300}, np.int64),
        ],
    )
    def test_rejects_sums_beyond_int64(self, bins, dtype):
        counts = np.zeros(256, dtype=dtype)
        for value, count in bins.items():
            counts[value] = count
        with pytest.raises(ValueError, match="int64"):
            Histogram(counts)

    @pytest.mark.parametrize(
        "bins",
        [
            {0: INT64_MAX},  # the whole total on the bin of weight 0
            {255: INT64_MAX // 255},  # the largest weighted sum on one bin
            {0: INT64_MAX - INT64_MAX // 255, 255: INT64_MAX // 255},
            {v: INT64_MAX // (255 * 256) for v in range(256)},  # no exact check runs
            {v: INT64_MAX // (255 * 256) + 1 for v in range(256)},  # the exact check runs
        ],
    )
    def test_accepts_sums_up_to_int64_exactly(self, bins):
        counts = np.zeros(256, dtype=np.uint64)
        for value, count in bins.items():
            counts[value] = count
        hist = Histogram(counts)
        total = sum(bins.values())
        weighted = sum(value * count for value, count in bins.items())
        assert hist.counts.tolist() == counts.tolist()
        assert hist.total == total
        assert global_mean(hist) == weighted / total


class TestGlobalMean:
    def test_four_pixel_example(self):
        assert global_mean(hist_of([10, 20, 30, 40])) == 25.0

    def test_constant_image_mean_is_the_constant(self):
        for c in (0, 7, 128, 255):
            assert global_mean(hist_of([c] * 5)) == float(c)

    def test_symmetric_pair(self):
        assert global_mean(hist_of([0, 255])) == 127.5

    def test_empty_histogram_raises(self):
        with pytest.raises(EmptyInputError):
            global_mean(Histogram(np.zeros(256, dtype=np.int64)))


class TestClassMean:
    def test_lower_class_example(self):
        assert class_mean(hist_of([10, 20, 30, 40]), 0, 25) == 15.0

    def test_upper_class_example(self):
        assert class_mean(hist_of([10, 20, 30, 40]), 26, 255) == 35.0

    def test_empty_class_returns_none(self):
        assert class_mean(hist_of([10, 20]), 100, 200) is None

    def test_single_bin_class(self):
        assert class_mean(hist_of([10, 20, 30]), 20, 20) == 20.0

    @pytest.mark.parametrize("lo,hi", [(5, 4), (-1, 10), (0, 256), (300, 400)])
    def test_invalid_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="bounds"):
            class_mean(hist_of([1, 2]), lo, hi)

    def test_matches_naive_filter_and_average(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            img = random_gray_image(rng, max_side=16)
            hist = build_histogram(img)
            lo = int(rng.integers(0, 256))
            hi = int(rng.integers(lo, 256))
            assert class_mean(hist, lo, hi) == naive_class_mean(img.pixels, lo, hi)


class TestHistogramProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            img = random_gray_image(rng, max_side=16)
            flat = img.pixels.reshape(-1).copy()
            rng.shuffle(flat)
            shuffled = GrayImage.from_flat(img.width, img.height, flat)
            assert build_histogram(shuffled) == build_histogram(img)

    def test_decomposition_identity(self):
        # total * mean recombines exactly in the integer domain and to within
        # float rounding once the class means are divided out.
        rng = np.random.default_rng(47)
        for _ in range(50):
            img = random_gray_image(rng, max_side=16)
            hist = build_histogram(img)
            mean = global_mean(hist)
            for t in (0, 63, 127, 191, 254, int(rng.integers(0, 255))):
                n1 = int(hist.counts[: t + 1].sum())
                n2 = hist.total - n1
                recombined = 0.0
                if n1:
                    recombined += n1 * class_mean(hist, 0, t)
                if n2:
                    recombined += n2 * class_mean(hist, t + 1, 255)
                assert math.isclose(recombined, hist.total * mean, rel_tol=1e-12, abs_tol=1e-9)
