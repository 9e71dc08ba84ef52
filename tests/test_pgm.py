import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from helpers import naive_plain_samples, random_gray_image


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

    def test_raw_pixels_are_a_read_only_view_of_the_input_bytes(self):
        data = b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6])
        pixels = read_pgm(data).pixels
        assert np.shares_memory(pixels, np.frombuffer(data, dtype=np.uint8))
        assert not pixels.flags.writeable
        with pytest.raises(ValueError):
            pixels[0, 0] = 9

    def test_raw_pixels_do_not_alias_a_bytearray_input(self):
        data = bytearray(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
        image = read_pgm(data)
        data[-6:] = bytes(6)
        assert image.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]


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


# Raster pieces for the P2 decoder properties: in-range samples, zero-padded
# ones, samples above 255 up to 30 digits, and the bytes a strict decoder
# must refuse. Separators cover all six whitespace bytes; an empty one
# glues two pieces into one token.
_SAMPLE_TOKENS = st.one_of(
    st.integers(0, 255).map(b"%d".__mod__),
    st.tuples(st.integers(0, 255), st.integers(2, 6)).map(lambda vw: b"%0*d" % (vw[1], vw[0])),
    st.integers(256, 10**30).map(b"%d".__mod__),
)
_ODD_PIECES = st.sampled_from(
    [b"#", b"# note\n", b"-", b"-1", b"+", b"+7", b".", b"1.5", b"\x00", b"\xff", b"0x1"]
)
_SEPARATORS = st.sampled_from([b"", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b" \n "])

# What may stand between header tokens: runs of whitespace and '#' comments,
# which end at a line break and may hold any other byte.
_WHITESPACE_BYTES = st.sampled_from(b" \t\n\r\x0b\x0c")
_COMMENTS = st.builds(
    lambda text, end: b"#" + text.replace(b"\n", b"").replace(b"\r", b"") + end,
    st.binary(max_size=8),
    st.sampled_from([b"\n", b"\r", b"\r\n"]),
)
_FILLERS = st.lists(
    st.one_of(st.lists(_WHITESPACE_BYTES, min_size=1, max_size=3).map(bytes), _COMMENTS),
    min_size=1,
    max_size=3,
).map(b"".join)


def _images(max_side: int):
    return arrays(
        np.uint8,
        st.tuples(st.integers(1, max_side), st.integers(1, max_side)),
        elements=st.integers(0, 255),
    )


@st.composite
def _plain_rasters(draw):
    """(raster, width, height); the dimensions often match the piece count.

    The raster opens with the byte that ends the maxval token: whitespace,
    or a comment that may swallow the rest of its line.
    """
    opening = draw(st.sampled_from([b"\n", b" ", b"\t", b"\r\n", b"#c\n", b"#"]))
    pieces = draw(st.lists(st.one_of(_SAMPLE_TOKENS, _SAMPLE_TOKENS, _ODD_PIECES), max_size=12))
    seps = draw(st.lists(_SEPARATORS, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    body = opening + seps[0] + b"".join(piece + sep for piece, sep in zip(pieces, seps[1:]))
    width = draw(st.integers(1, 4))
    height = draw(st.one_of(st.just(max(1, len(pieces) // width)), st.integers(1, 4)))
    return body, width, height


def decode_outcome(decode, *args):
    """(image pixels, None) on success, else (exception class, message)."""
    try:
        result = decode(*args)
    except PgmError as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(result, "pixels", result)).tolist(), None


def naive_plain_encoding(pixels: np.ndarray) -> bytes:
    height, width = pixels.shape
    rows = "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist())
    return f"P2\n{width} {height}\n255\n".encode() + rows.encode()


class TestCodecProperties:
    @settings(max_examples=400, deadline=None)
    @given(case=_plain_rasters())
    @example(case=(b"\n0 99999999999999999999", 2, 1))
    @example(case=(b" 300 1 99999999999999999999", 3, 1))
    @example(case=(b"\x0b7\x0c00008\r", 1, 2))
    @example(case=(b"#7\n8", 1, 1))
    @example(case=(b"\n", 1, 1))
    @example(case=(b"", 1, 1))
    def test_plain_decode_matches_reference(self, case):
        raster, width, height = case
        header = b"P2\n%d %d\n255" % (width, height)
        assert decode_outcome(read_pgm, header + raster) == decode_outcome(
            naive_plain_samples, raster, width, height
        )

    @settings(max_examples=200, deadline=None)
    @given(pixels=_images(24))
    @example(pixels=np.zeros((1, 1), np.uint8))
    @example(pixels=np.arange(256, dtype=np.uint8).reshape(1, 256))
    @example(pixels=np.arange(256, dtype=np.uint8).reshape(256, 1))
    def test_plain_encode_matches_naive_rows(self, pixels):
        assert write_pgm(GrayImage(pixels), "P2") == naive_plain_encoding(pixels)

    @settings(max_examples=100, deadline=None)
    @given(mask=arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))))
    def test_plain_encode_of_binary_matches_naive_rows(self, mask):
        pixels = np.where(mask, 255, 0).astype(np.uint8)
        assert write_pgm(BinaryImage(pixels), "P2") == naive_plain_encoding(pixels)

    @settings(max_examples=150, deadline=None)
    @given(pixels=_images(8), data=st.data())
    def test_plain_and_raw_decode_to_the_same_image(self, pixels, data):
        height, width = pixels.shape
        # Any legal spelling of the samples: padded tokens, any whitespace run.
        pads = data.draw(st.lists(st.integers(1, 5), min_size=pixels.size, max_size=pixels.size))
        seps = data.draw(
            st.lists(_SEPARATORS.filter(bool), min_size=pixels.size, max_size=pixels.size)
        )
        body = b"".join(
            b"%0*d" % (pad, value) + sep for value, pad, sep in zip(pixels.ravel().tolist(), pads, seps)
        )
        plain = read_pgm(b"P2\n%d %d\n255\n" % (width, height) + body)
        raw = read_pgm(b"P5\n%d %d\n255\n" % (width, height) + pixels.tobytes())
        assert plain == raw == GrayImage(pixels)

    @settings(max_examples=150, deadline=None)
    @given(
        pixels=_images(6),
        fillers=st.lists(_FILLERS, min_size=4, max_size=4),
        raw_separator=_WHITESPACE_BYTES,
    )
    def test_header_comments_and_whitespace_decode_like_the_bare_file(
        self, pixels, fillers, raw_separator
    ):
        # Fillers after the magic, width and height in both flavors, and
        # after maxval in P2; P5 allows one whitespace byte there, no comment.
        image = GrayImage(pixels)
        height, width = pixels.shape
        header = b"%s%d%s%d%s255" % (fillers[0], width, fillers[1], height, fillers[2])
        plain = b"P2" + header + fillers[3] + b" ".join(b"%d" % v for v in pixels.ravel().tolist())
        raw = b"P5" + header + bytes([raw_separator]) + pixels.tobytes()
        assert read_pgm(plain) == read_pgm(write_pgm(image, "P2")) == image
        assert read_pgm(raw) == read_pgm(write_pgm(image, "P5")) == image

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\n1 1\n255#c\n\x07", "expected a single whitespace byte after maxval in P5 header"),
            (b"P5\n1 1\n255 #c\n\x07", "surplus raster data: expected 1 bytes, found 4"),
        ],
    )
    def test_raw_comment_after_maxval_is_rejected(self, data, message):
        with pytest.raises(PgmFormatError, match=f"^{message}$"):
            read_pgm(data)

    @settings(max_examples=400, deadline=None)
    @given(
        prefix=st.sampled_from([b"", b"P2 ", b"P5 ", b"P2 3 2 255 ", b"P5 3 2 255 "]),
        tail=st.binary(max_size=40),
    )
    def test_arbitrary_bytes_raise_only_pgm_errors(self, prefix, tail):
        try:
            image = read_pgm(prefix + tail)
        except PgmError:
            return
        assert isinstance(image, GrayImage)

    @settings(max_examples=100, deadline=None)
    @given(
        flavor=st.sampled_from([b"P2", b"P5"]),
        width=st.integers(2**10, 2**31),
        height=st.integers(2**10, 2**31),
        raster=st.binary(max_size=256),
    )
    def test_huge_declared_dimensions_fail_without_allocating_them(
        self, flavor, width, height, raster
    ):
        # At least 1 MiB declared, at most 256 bytes of raster present.
        data = b"%s\n%d %d\n255\n" % (flavor, width, height) + raster
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedDataError):
                read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
