import numpy as np
import pytest

from bilevel import (
    BinaryImage,
    GrayImage,
    PgmError,
    PgmFormatError,
    SampleRangeError,
    TruncatedDataError,
    UnsupportedDepthError,
    read_pgm,
    write_pgm,
)
from helpers import random_gray_image


class TestReadPgm:
    def test_minimal_plain_file(self):
        img = read_pgm(b"P2\n2 1\n255\n0 255\n")
        assert img == GrayImage.from_flat(2, 1, [0, 255])

    def test_single_raw_byte(self):
        img = read_pgm(b"P5\n1 1\n255\n\x5d")
        assert img == GrayImage.from_flat(1, 1, [93])

    def test_plain_truncation_reports_counts(self):
        with pytest.raises(TruncatedDataError) as excinfo:
            read_pgm(b"P2\n2 2\n255\n0 0 0\n")
        assert excinfo.value.expected == 4
        assert excinfo.value.found == 3
        assert "4" in str(excinfo.value) and "3" in str(excinfo.value)

    def test_header_comments_skipped(self):
        data = b"P2\n# created by hand\n2 1\n# another note\n255\n0 255\n"
        assert read_pgm(data) == GrayImage.from_flat(2, 1, [0, 255])

    def test_single_line_header(self):
        assert read_pgm(b"P2 2 1 255 0 255") == GrayImage.from_flat(2, 1, [0, 255])

    def test_plain_arbitrary_sample_whitespace(self):
        data = b"P2\n2 2\n255\n0\t1\r\n2    3\n"
        assert read_pgm(data) == GrayImage.from_flat(2, 2, [0, 1, 2, 3])

    def test_raw_pixels_keep_row_major_order(self):
        img = read_pgm(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]


class TestReadPgmRejections:
    @pytest.mark.parametrize("data", [b"", b"P3\n1 1\n255\n0\n", b"P6\n1 1\n255\n\x00", b"Px", b"junk"])
    def test_bad_magic(self, data):
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(data)

    def test_magic_must_be_delimited(self):
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(b"P25 1 255 0 0 0 0 0")

    @pytest.mark.parametrize("maxval", [1, 254, 256, 65535])
    def test_non_8bit_maxval(self, maxval):
        with pytest.raises(UnsupportedDepthError, match=str(maxval)):
            read_pgm(f"P2\n1 1\n{maxval}\n0\n".encode())

    def test_raw_truncation_reports_counts(self):
        with pytest.raises(TruncatedDataError) as excinfo:
            read_pgm(b"P5\n2 2\n255\n\x00\x01")
        assert (excinfo.value.expected, excinfo.value.found) == (4, 2)

    def test_raw_missing_raster_entirely(self):
        with pytest.raises(TruncatedDataError):
            read_pgm(b"P5\n2 2\n255\n")

    @pytest.mark.parametrize("sample", ["256", "99999999999999999999"])
    def test_plain_sample_above_maxval(self, sample):
        with pytest.raises(SampleRangeError, match=sample):
            read_pgm(f"P2\n2 1\n255\n0 {sample}\n".encode())

    def test_plain_negative_sample_is_malformed(self):
        with pytest.raises(PgmFormatError):
            read_pgm(b"P2\n2 1\n255\n0 -1\n")

    def test_plain_non_numeric_sample(self):
        with pytest.raises(PgmFormatError, match="sample"):
            read_pgm(b"P2\n2 1\n255\n0 abc\n")

    def test_plain_surplus_samples_rejected(self):
        with pytest.raises(PgmFormatError, match="surplus"):
            read_pgm(b"P2\n2 1\n255\n0 1 2\n")

    def test_raw_surplus_bytes_rejected(self):
        with pytest.raises(PgmFormatError, match="surplus"):
            read_pgm(b"P5\n2 1\n255\n\x00\x01\x02")

    @pytest.mark.parametrize("data", [b"P2", b"P2\n2", b"P2\n2 1", b"P2\n2 1\n"])
    def test_incomplete_header(self, data):
        with pytest.raises(PgmFormatError):
            read_pgm(data)

    @pytest.mark.parametrize("header", [b"P2\n0 1\n255\n\n", b"P2\n1 0\n255\n\n"])
    def test_zero_dimension_rejected(self, header):
        with pytest.raises(PgmFormatError, match="dimensions"):
            read_pgm(header)

    def test_non_numeric_header_token(self):
        with pytest.raises(PgmFormatError, match="width"):
            read_pgm(b"P2\nwide 1\n255\n0\n")

    def test_all_rejections_are_pgm_errors(self):
        corpus = [
            b"P3\n1 1\n255\n0\n",
            b"P2\n1 1\n254\n0\n",
            b"P2\n2 2\n255\n0 0 0\n",
            b"P2\n1 1\n255\n999\n",
            b"P2\n2 1\n255\n1 99999999999999999999\n",
        ]
        for data in corpus:
            with pytest.raises(PgmError):
                read_pgm(data)


class TestWritePgm:
    def test_raw_single_pixel(self):
        assert write_pgm(GrayImage.from_flat(1, 1, [0]), "P5") == b"P5\n1 1\n255\n\x00"

    def test_plain_transcription(self):
        assert write_pgm(GrayImage.from_flat(2, 1, [93, 140]), "P2") == b"P2\n2 1\n255\n93 140\n"

    def test_plain_one_row_per_line(self):
        data = write_pgm(GrayImage.from_flat(2, 3, [1, 2, 3, 4, 5, 6]), "P2")
        assert data == b"P2\n2 3\n255\n1 2\n3 4\n5 6\n"

    def test_default_flavor_is_raw(self):
        img = GrayImage.from_flat(1, 1, [7])
        assert write_pgm(img) == write_pgm(img, "P5")

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="flavor"):
            write_pgm(GrayImage.from_flat(1, 1, [0]), "P3")

    def test_binary_image_writable(self):
        binary = BinaryImage.from_flat(2, 1, [0, 255])
        assert write_pgm(binary, "P2") == b"P2\n2 1\n255\n0 255\n"


class TestRoundTrip:
    @pytest.mark.parametrize("flavor", ["P2", "P5"])
    def test_random_images_survive_both_flavors(self, flavor):
        rng = np.random.default_rng(1207)
        for _ in range(50):
            img = random_gray_image(rng)
            assert read_pgm(write_pgm(img, flavor)) == img

    def test_flavor_equivalence(self):
        rng = np.random.default_rng(1208)
        for _ in range(50):
            img = random_gray_image(rng)
            assert read_pgm(write_pgm(img, "P2")) == read_pgm(write_pgm(img, "P5"))

    def test_binary_image_round_trips_pixelwise(self):
        binary = BinaryImage.from_flat(3, 1, [0, 255, 0])
        for flavor in ("P2", "P5"):
            back = read_pgm(write_pgm(binary, flavor))
            assert np.array_equal(back.pixels, binary.pixels)

    def test_extreme_values_round_trip(self):
        img = GrayImage.from_flat(4, 1, [0, 255, 0, 255])
        for flavor in ("P2", "P5"):
            assert read_pgm(write_pgm(img, flavor)) == img
