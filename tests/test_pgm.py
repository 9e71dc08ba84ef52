import collections
import copy
import os
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import bilevel.pgm
import bilevel.threshold
from bilevel import (
    BinaryImage,
    GrayImage,
    PgmError,
    PgmFormatError,
    SampleRangeError,
    TruncatedDataError,
    UnsupportedDepthError,
    binarize,
    read_pgm,
    save_pgm,
    write_pgm,
)
from helpers import (
    OVERLONG_DIGIT_INPUTS,
    WHITESPACE,
    Plan,
    encode,
    naive_plain_samples,
    naive_read_pgm,
    random_gray_image,
    traced_peak,
)


class TestReadPgm:
    def test_minimal_plain_file(self):
        img = _read(b"P2\n2 1\n255\n0 255\n")
        assert img == GrayImage.from_flat(2, 1, [0, 255])

    def test_single_raw_byte(self):
        img = _read(b"P5\n1 1\n255\n\x5d")
        assert img == GrayImage.from_flat(1, 1, [93])

    def test_plain_truncation_reports_counts(self):
        with pytest.raises(TruncatedDataError) as excinfo:
            _read(b"P2\n2 2\n255\n0 0 0\n")
        assert excinfo.value.expected == 4
        assert excinfo.value.found == 3
        assert "4" in str(excinfo.value) and "3" in str(excinfo.value)

    def test_header_comments_skipped(self):
        data = b"P2\n# created by hand\n2 1\n# another note\n255\n0 255\n"
        assert _read(data) == GrayImage.from_flat(2, 1, [0, 255])

    def test_single_line_header(self):
        assert _read(b"P2 2 1 255 0 255") == GrayImage.from_flat(2, 1, [0, 255])

    def test_plain_arbitrary_sample_whitespace(self):
        data = b"P2\n2 2\n255\n0\t1\r\n2    3\n"
        assert _read(data) == GrayImage.from_flat(2, 2, [0, 1, 2, 3])

    def test_raw_pixels_keep_row_major_order(self):
        img = _read(b"P5\n3 2\n255\n" + bytes([1, 2, 3, 4, 5, 6]))
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

    def test_every_error_survives_pickle_and_copy(self):
        # As a process pool sends a decode error back to its caller.
        errors = [PgmError("m"), PgmFormatError("m"), UnsupportedDepthError("m"), TruncatedDataError(4, 2),
                  SampleRangeError("m")]
        assert {type(error) for error in errors} == {PgmError, *PgmError.__subclasses__()}
        for error in errors:
            for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error)):
                assert (type(clone), str(clone), vars(clone)) == (type(error), str(error), vars(error))


class TestReadPgmRejections:
    @pytest.mark.parametrize("data", [b"", b"P3\n1 1\n255\n0\n", b"P6\n1 1\n255\n\x00", b"Px", b"junk"])
    def test_bad_magic(self, data):
        with pytest.raises(PgmFormatError, match="magic"):
            _read(data)

    def test_magic_must_be_delimited(self):
        with pytest.raises(PgmFormatError, match="magic"):
            _read(b"P25 1 255 0 0 0 0 0")

    def test_a_three_byte_file_is_checked_for_its_delimiter(self):
        with pytest.raises(PgmFormatError, match=r"^not an 8-bit PGM file: bad magic b'P2x'$"):
            _read(b"P2x")

    @pytest.mark.parametrize("maxval", [1, 254, 256, 65535])
    def test_non_8bit_maxval(self, maxval):
        with pytest.raises(UnsupportedDepthError, match=str(maxval)):
            _read(f"P2\n1 1\n{maxval}\n0\n".encode())

    def test_raw_truncation_reports_counts(self):
        with pytest.raises(TruncatedDataError) as excinfo:
            _read(b"P5\n2 2\n255\n\x00\x01")
        assert (excinfo.value.expected, excinfo.value.found) == (4, 2)

    def test_raw_missing_raster_entirely(self):
        with pytest.raises(TruncatedDataError):
            _read(b"P5\n2 2\n255\n")

    def test_raw_header_ending_at_maxval(self):
        with pytest.raises(TruncatedDataError) as excinfo:
            _read(b"P5\n2 2\n255")
        assert (excinfo.value.expected, excinfo.value.found) == (4, 0)

    @pytest.mark.parametrize("sample", ["256", "99999999999999999999"])
    def test_plain_sample_above_maxval(self, sample):
        with pytest.raises(SampleRangeError, match=sample):
            _read(f"P2\n2 1\n255\n0 {sample}\n".encode())

    def test_the_first_sample_above_maxval_is_named_not_the_first_with_three_digits(self):
        with pytest.raises(SampleRangeError, match=r"^sample value 300 exceeds maxval 255$"):
            _read(b"P2 2 1 255 100 300")

    def test_plain_negative_sample_is_malformed(self):
        with pytest.raises(PgmFormatError):
            _read(b"P2\n2 1\n255\n0 -1\n")

    def test_plain_non_numeric_sample(self):
        with pytest.raises(PgmFormatError, match="sample"):
            _read(b"P2\n2 1\n255\n0 abc\n")

    def test_plain_surplus_samples_rejected(self):
        with pytest.raises(PgmFormatError, match="surplus"):
            _read(b"P2\n2 1\n255\n0 1 2\n")

    def test_raw_surplus_bytes_rejected(self):
        with pytest.raises(PgmFormatError, match="surplus"):
            _read(b"P5\n2 1\n255\n\x00\x01\x02")

    @pytest.mark.parametrize("data", [b"P2", b"P2\n2", b"P2\n2 1", b"P2\n2 1\n"])
    def test_incomplete_header(self, data):
        with pytest.raises(PgmFormatError):
            _read(data)

    @pytest.mark.parametrize("header", [b"P2\n0 1\n255\n\n", b"P2\n1 0\n255\n\n"])
    def test_zero_dimension_rejected(self, header):
        with pytest.raises(PgmFormatError, match="dimensions"):
            _read(header)

    def test_non_numeric_header_token(self):
        with pytest.raises(PgmFormatError, match="width"):
            _read(b"P2\nwide 1\n255\n0\n")

    @pytest.mark.parametrize("name", sorted(OVERLONG_DIGIT_INPUTS))
    def test_digit_runs_past_int_limits(self, name):
        error, message = {
            "sample": (SampleRangeError, f"sample value {'9' * 5000} exceeds maxval 255"),
            "width": (PgmFormatError, "width in header has more than 20 significant digits"),
            "width-times-height": (PgmFormatError, "width in header has more than 20 significant digits"),
            "maxval": (PgmFormatError, "maxval in header has more than 20 significant digits"),
        }[name]
        with pytest.raises(error) as excinfo:
            _read(OVERLONG_DIGIT_INPUTS[name])
        assert str(excinfo.value) == message

    def test_header_token_length_counts_significant_digits(self):
        padded = b"0" * 30
        assert _read(b"P2 %s1 %s1 %s255 7" % (padded, padded, padded)).pixels.tolist() == [[7]]
        with pytest.raises(TruncatedDataError):
            _read(b"P5 1%s 1 255 " % (b"0" * 19))
        with pytest.raises(PgmFormatError, match="^height in header has more than 20"):
            _read(b"P5 1 1%s 255 " % (b"0" * 20))

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
                _read(data)


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

    def test_unknown_flavor_rejected(self, tmp_path):
        image = GrayImage.from_flat(1, 1, [0])
        with pytest.raises(ValueError, match="flavor"):
            write_pgm(image, "P3")
        # save_pgm checks the flavor before it opens the file.
        with pytest.raises(ValueError, match="flavor"):
            save_pgm(tmp_path / "out.pgm", image, "P6")
        assert not (tmp_path / "out.pgm").exists()

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
# ones, samples above 255 up to 30 digits, also zero-padded, and the bytes a
# strict decoder must refuse. Separators cover all six whitespace bytes,
# one at a time and in one run; an empty one glues two pieces into one token.
_SAMPLE_TOKENS = st.one_of(
    st.integers(0, 255).map(b"%d".__mod__),
    st.tuples(st.integers(0, 255), st.integers(2, 6)).map(lambda vw: b"%0*d" % (vw[1], vw[0])),
    st.integers(256, 10**30).map(b"%d".__mod__),
    st.tuples(st.integers(256, 10**30), st.integers(4, 32)).map(lambda vw: b"%0*d" % (vw[1], vw[0])),
)
_ODD_PIECES = st.sampled_from(
    [b"#", b"# note\n", b"-", b"-1", b"+", b"+7", b".", b"1.5", b"\x00", b"\xff", b"0x1"]
)
_SEPARATORS = st.sampled_from(
    [b"", b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b" \n ", b" \t\n\r\x0b\x0c"]
)


class TestSavePgm:
    """``save_pgm`` writes all of a file or nothing, through a temp file renamed onto the target."""

    IMAGE = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8) * 4)

    def test_a_failure_mid_body_leaves_the_target_as_it_was(self, contract):
        # Blocks of one row: the 8 x 2 P2 body is two chunks, and fails after the first.
        contract.plant("out.pgm", "file")
        contract.check_save("out.pgm", "P2", Plan(chunk=2, raises=MemoryError))  # MemoryError, every entry as it was

    @pytest.mark.parametrize("plant", ["symlink", "hard-link", "file"])
    def test_the_entry_at_the_target_is_replaced_not_written_through(self, contract, plant):
        contract.plant("out.pgm", {"symlink": "file-link"}.get(plant, plant))  # to keep.txt, or in.pgm's inode
        os.chmod(contract.root / "out.pgm", 0o600)
        umask = os.umask(0o022)
        try:
            contract.check_save("out.pgm", "P5")  # a file of the image's bytes, and every other entry as it was
        finally:
            os.umask(umask)
        assert (contract.root / "out.pgm").stat().st_mode & 0o777 == 0o644  # the mode comes from the umask

    @pytest.mark.parametrize("plant", ["symlink", "file"])
    def test_an_entry_at_the_temp_name_fails_the_save_and_is_left_as_it_was(self, contract, plant):
        tmp = f".out.pgm.tmp-{os.getpid()}"
        contract.plant(tmp, {"symlink": "input-link"}.get(plant, plant))
        contract.check_save("out.pgm", "P5")  # FileExistsError, every entry as it was
        assert contract.last.result.filename == tmp

    @pytest.mark.parametrize("path", ["", "/"])
    def test_a_path_without_a_file_name_is_refused_before_any_write(self, tmp_path, monkeypatch, path):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(IsADirectoryError) as raised:  # "" names the working directory
            save_pgm(path, self.IMAGE)
        assert raised.value.filename == (path or ".")
        assert os.listdir(tmp_path) == []

    def test_a_missing_directory_is_named_by_the_temp_path(self, tmp_path):
        with pytest.raises(FileNotFoundError) as raised:
            save_pgm(tmp_path / "no" / "out.pgm", self.IMAGE)
        assert raised.value.filename == str(tmp_path / "no" / f".out.pgm.tmp-{os.getpid()}")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("path", ["out.pgm", ".."])
    def test_an_existing_directory_is_refused_before_anything_is_encoded(self, contract, path):
        for plant in ("dir", "dir-link"):  # a directory, then a symlink to sub/
            contract.plant("out.pgm", plant)
            contract.check_save(path, "P5")  # IsADirectoryError naming path, no chunk drawn, every entry as it was


# What may stand between header tokens: runs of whitespace and '#' comments,
# which end at a line break and may hold any other byte.
_COMMENTS = st.builds(
    lambda text, end: b"#" + text.replace(b"\n", b"").replace(b"\r", b"") + end,
    st.binary(max_size=8),
    st.sampled_from([b"\n", b"\r", b"\r\n"]),
)
_FILLERS = st.one_of(
    _SEPARATORS.filter(bool),
    st.tuples(_SEPARATORS, _COMMENTS, _SEPARATORS, st.one_of(st.just(b""), _COMMENTS)).map(b"".join),
)


def _images(max_side: int):
    return arrays(
        np.uint8,
        st.tuples(st.integers(1, max_side), st.integers(1, max_side)),
        elements=st.integers(0, 255),
    )


@st.composite
def _plain_rasters(draw, separators=_SEPARATORS):
    """(raster, width, height); the width divides the piece count, and the height often matches it or misses it by a row.

    The raster opens with the byte that ends the maxval token: whitespace,
    or a comment that may swallow the rest of its line. No pieces gives a
    blank or comment-only raster.
    """
    opening = draw(st.sampled_from([b"\n", b" ", b"\t", b"\r\n", b"#c\n", b"#"]))
    pieces = draw(st.lists(st.one_of(_SAMPLE_TOKENS, _SAMPLE_TOKENS, _ODD_PIECES), max_size=24))
    seps = draw(st.lists(separators, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    body = opening + seps[0] + b"".join(piece + sep for piece, sep in zip(pieces, seps[1:]))
    width = draw(st.sampled_from([width for width in (1, 2, 3, 4) if len(pieces) % width == 0]))
    exact = max(1, len(pieces) // width)
    height = draw(st.one_of(st.just(exact), st.integers(max(1, exact - 1), exact + 1), st.integers(1, 4)))
    return body, width, height


def _header_tokens(value: int):
    """A header token for ``value``: as written, or zero-padded, or (one in nine) zero, or odd.

    An odd token has more than 20 significant digits, or just 20, or zeros
    that do not count; or it is not a digit run, or it is empty.
    """
    padded = st.integers(2, 24).map(lambda digits: b"%0*d" % (digits, value))
    odd = st.sampled_from([
        b"1" + b"0" * 20, b"0" * 9 + b"9" * 21, b"9" * 20, b"0" * 30 + b"1",
        b"wide", b"-1", b"+1", b"1.5", b"0x1", b"\xff", b"",
    ])
    zero = st.sampled_from([b"0", b"000"])
    return st.sampled_from([st.just(b"%d" % value)] * 5 + [padded, padded, zero, odd]).flatmap(lambda token: token)


@st.composite
def _pgm_files(draw):
    """Whole files from the PGM grammar, each part mostly well formed and sometimes not.

    A magic, P2 or P5 or (one in eleven) a bad one; filler before every
    header token; width, height and a maxval of 255, or one in four of 1,
    254, 256 or 65535, from ``_header_tokens``, an empty token ending the
    file; then a P2 raster from ``_plain_rasters``, so its dimensions often
    match its pieces, no two of them glued into one token; or one delimiter byte
    (whitespace, or one in four ``#``) and a P5 raster one byte short, exact
    or one byte over. One file in eight is cut anywhere and ends in
    arbitrary bytes.
    """
    magic = draw(st.sampled_from([b"P2", b"P5"] * 5 + [b"P3"]))
    if magic == b"P2":
        raster, width, height = draw(_plain_rasters(_SEPARATORS.filter(bool)))
    else:
        width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        size = width * height + draw(st.integers(-1, 1))
        delimiter = draw(st.sampled_from(WHITESPACE + b"##"))
        raster = bytes([delimiter]) + draw(st.binary(min_size=size, max_size=size))
    maxval = draw(st.sampled_from([255] * 12 + [1, 254, 256, 65535]))
    data = magic
    for value in (width, height, maxval):
        token = draw(_header_tokens(value))
        if not token:
            break
        data += draw(_FILLERS) + token
    else:
        data += raster
    if draw(st.sampled_from([False] * 7 + [True])):
        data = data[: draw(st.integers(0, len(data)))] + draw(st.binary(max_size=12))
    return data


def decode_outcome(decode, *args):
    """The decoded pixels as nested lists, or the class, message and attributes of the PgmError raised."""
    try:
        result = decode(*args)
    except PgmError as exc:
        return type(exc), str(exc), vars(exc)
    return np.asarray(getattr(result, "pixels", result)).tolist()


def _read(data):
    """``read_pgm(data)``, once the reference decoder has been seen to agree with it on ``data``."""
    assert decode_outcome(read_pgm, data) == decode_outcome(naive_read_pgm, data)
    return read_pgm(data)


def _ramp(height: int, width: int) -> np.ndarray:
    """A ``height`` x ``width`` image whose pixels step by 37, so they fall on both sides of 127.5."""
    return (np.arange(height * width) * 37 % 256).astype(np.uint8).reshape(height, width)


class TestSlicedCodec:
    @settings(max_examples=600, deadline=None)
    @given(case=_plain_rasters(), slice_bytes=st.integers(1, 64))
    @example(case=(b" 1 2\r\n3 4 ", 2, 2), slice_bytes=1)
    @example(case=(b"\n  \t\n", 1, 1), slice_bytes=2)
    @example(case=(b"\n1 2 3 4 5", 2, 2), slice_bytes=3)
    @example(case=(b"\n1 2 3", 2, 2), slice_bytes=3)
    @example(case=(b"\n1 2 00000000000000000000000000256 3", 2, 2), slice_bytes=4)
    @example(case=(b"\n1 2 # 3\n4 5", 2, 2), slice_bytes=5)
    # Surplus counted over every slice, not up to the one that overflows.
    @example(case=(b"\n00000 0#\n0", 1, 1), slice_bytes=1)
    # A comment holding spaces past the slice's nominal end.
    @example(case=(b"\n1 2 # a b c d\n3 4", 2, 2), slice_bytes=3)
    # A raster that ends in a comment, and a comment right after maxval.
    @example(case=(b"\n1#", 1, 1), slice_bytes=1)
    @example(case=(b"#c\n7", 1, 1), slice_bytes=1)
    # A one-digit token two bytes after another is not their hundreds and ones.
    @example(case=(b"\n5 7", 2, 1), slice_bytes=64)
    # Above 255 only through a nonzero digit with three more after it, or
    # through the last three digits of a zero-padded token.
    @example(case=(b"\n1000", 1, 1), slice_bytes=64)
    @example(case=(b"\n0000256", 1, 1), slice_bytes=64)
    @example(case=(b"\n7 0001000 8", 3, 1), slice_bytes=2)
    # A zero-padded token across the slice's nominal end, and a raster that
    # ends on a digit.
    @example(case=(b"\n1 000000000000000000000000000255 2 3", 2, 2), slice_bytes=5)
    @example(case=(b"\n12 34\n56 255", 2, 2), slice_bytes=3)
    def test_sliced_decode_matches_the_naive_reference(self, case, slice_bytes):
        raster, width, height = case
        data = b"P2\n%d %d\n255" % (width, height) + raster
        with mock.patch.object(bilevel.pgm, "_SLICE_BYTES", slice_bytes):
            sliced = decode_outcome(read_pgm, data)
        assert sliced == decode_outcome(naive_plain_samples, raster, width, height)

    def test_zero_padded_tokens_past_the_int_digit_limit(self):
        # Zero-padded tokens past the interpreter's limit on int() of a digit
        # string: the first reads as 255; the second precedes, in its slice,
        # the sample named above 255.
        assert read_pgm(b"P2 2 1 255 " + b"0" * 40_000 + b"255 1").pixels.tolist() == [[255, 1]]
        with pytest.raises(SampleRangeError, match=r"^sample value 1000 exceeds maxval 255$"):
            read_pgm(b"P2 2 1 255 " + b"0" * 5000 + b"7 0001000")

    def test_commented_and_malformed_rasters_decode_in_bounded_memory(self):
        rng = np.random.default_rng(1313)
        image = GrayImage(rng.integers(0, 256, size=(1024, 1024), dtype=np.uint8))
        clean = write_pgm(image, "P2")
        rows = clean.split(b"\n")
        head = clean.rpartition(b" ")[0]
        long_comment = b"# " + b"long comment " * 330_000  # over 4 MiB, spaces included
        inputs = {
            "clean": (clean, None),
            "comment": (b"\n".join([*rows[:500], b"# one comment line", *rows[500:]]), None),
            "long comment": (b"\n".join([*rows[:500], long_comment, *rows[500:]]), None),
            "bad token last": (head + b" x7\n", PgmFormatError),
            "over-range last": (head + b" 256\n", SampleRangeError),
        }
        peaks = {}
        for name, (data, error) in inputs.items():
            if error is None:
                assert read_pgm(data) == image, name
                peaks[name] = traced_peak(lambda: read_pgm(data))
            else:
                peaks[name] = traced_peak(lambda: pytest.raises(error, read_pgm, data))
        for name, peak in peaks.items():
            assert peak <= peaks["clean"] + 2**19, (name, peaks)
        # The image is 1 MiB of the clean peak. Slices of 2^16 bytes peak at
        # about 1.65 MiB here, slices of 2^17 bytes at about 2.3 MiB.
        assert peaks["clean"] <= 2 * 2**20, peaks

    # With 16-pixel sub-blocks: width 1 (16 rows a sub-block), height 1, a
    # width that does not divide 16, rows wider than a sub-block (one row
    # each), and heights that are not a multiple of the rows per sub-block.
    @pytest.mark.parametrize(
        "height,width", [(37, 1), (1, 1), (1, 40), (7, 5), (3, 20), (9, 4), (16, 16)]
    )
    def test_sub_block_chunks_join_to_the_naive_encoding(self, tmp_path, height, width):
        rng = np.random.default_rng(height * 100 + width)
        image = GrayImage(rng.integers(0, 256, size=(height, width), dtype=np.uint8))
        threshold = 127.5
        binary = binarize(image, threshold)
        rows = min(height, max(1, 16 // width))
        with mock.patch.object(bilevel.pgm, "_SUB_BLOCK_PIXELS", 16), mock.patch.object(
            bilevel.pgm, "_BLOCK_PIXELS", 32
        ):
            chunks = list(bilevel.pgm._pgm_body(image.pixels, "P2"))
            assert len(chunks) == -(-height // rows)
            assert write_pgm(image, "P2") == encode(image.pixels, "P2")
            save_pgm(tmp_path / "out.pgm", image, "P2")
            assert (tmp_path / "out.pgm").read_bytes() == encode(image.pixels, "P2")
            level = bilevel.threshold._split_level(threshold)
            streamed = b"".join(bilevel.pgm._pgm_file(image.pixels, "P2", level))
            assert streamed == encode(binary.pixels, "P2")
            streamed = b"".join(bilevel.pgm._pgm_file(image.pixels, "P5", level))
            assert streamed == write_pgm(binary)

    @pytest.mark.parametrize("level", [50, 100, 200])
    def test_binary_p5_chunks_are_buffers_of_their_own(self, level):
        # Chunks joined after the last is made, as b"".join does: no chunk
        # may be overwritten by a later block. Each level gives the rows of
        # the ramp other bits.
        pixels = np.arange(0, 256, 16, dtype=np.uint8).reshape(4, 4)
        with mock.patch.object(bilevel.pgm, "_BLOCK_PIXELS", 4):
            chunks = list(bilevel.pgm._pgm_file(pixels, "P5", level))
            assert len(chunks) == 5
            streamed = b"".join(chunks)
        assert streamed == write_pgm(binarize(GrayImage(pixels), level), "P5")

    def test_a_gray_token_splits_a_2_byte_word(self):
        # A gray token such as b"12 " puts a token byte and a NUL in one
        # 2-byte half of its word, so a gray body is compacted by bytes.
        gray = bilevel.pgm._TOKEN_WORDS[[12]].view(np.uint8).reshape(-1, 2)
        assert ((gray != 0).any(axis=1) & (gray == 0).any(axis=1)).any()

    def test_every_pattern_table_entry_is_the_tokens_of_its_bits(self):
        # Every table the binary P2 encoder can ask for: a row's last byte
        # holds 1 to 8 pixels, and the row ends after the last of them.
        for tail in range(1, 9):
            table = bilevel.pgm._pattern_table(tail)
            assert table.shape == (512,)
            for byte in range(256):
                bits = np.unpackbits(np.array([byte], np.uint8)).tolist()
                middle = b"".join(b"%d " % (255 * bit) for bit in bits)
                last = b" ".join(b"%d" % (255 * bit) for bit in bits[:tail]) + b"\n"
                assert (table[byte], table[256 + byte]) == (middle, last), (tail, byte)

    @pytest.mark.parametrize("flavor", ["P2", "P5"])
    @pytest.mark.parametrize("level", [None, 0, 127, 255])
    def test_every_body_chunk_is_a_flat_byte_buffer(self, flavor, level):
        # A writer or caller may count a chunk's bytes with len().
        height, width = 9, 5
        pixels = np.random.default_rng(17).integers(0, 256, size=(height, width), dtype=np.uint8)
        with mock.patch.object(bilevel.pgm, "_SUB_BLOCK_PIXELS", 16), mock.patch.object(
            bilevel.pgm, "_BLOCK_PIXELS", 16
        ):
            chunks = [memoryview(chunk) for chunk in bilevel.pgm._pgm_body(pixels, flavor, level)]
        # A binary P2 row is budgeted padded to whole bytes, 8 pixels here.
        span = -(-width // 8) * 8 if flavor == "P2" and level is not None else width
        rows = 16 // span
        assert len(chunks) == (1 if flavor == "P5" and level is None else -(-height // rows))
        for chunk in chunks:
            assert (chunk.format, chunk.ndim, len(chunk)) == ("B", 1, chunk.nbytes)

    @pytest.mark.parametrize("width", [1, 3, 7, 9, 1024])
    def test_binary_p2_body_of_narrow_rows_drains_in_bounded_memory(self, width):
        # b"".join keeps an 80-byte buffer per pattern piece, one piece per
        # row narrower than 8 pixels. Sub-blocks budgeted by width alone
        # peak near 1.5 MiB at width 1; budgeted padded to whole bytes,
        # 184-226 KiB at every width here (numpy 2.4).
        rng = np.random.default_rng(width)
        pixels = rng.integers(0, 256, size=(2**17 // width, width), dtype=np.uint8)
        def drain():
            collections.deque(bilevel.pgm._pgm_body(pixels, "P2", 127), 0)

        drain()  # builds the tables
        assert traced_peak(drain) <= 384 * 2**10


class TestCodecProperties:
    @settings(max_examples=300, deadline=None)
    @given(data=_pgm_files())
    # Inputs no other test reads; every input of TestReadPgm and
    # TestReadPgmRejections meets the reference decoder through _read.
    @example(data=b"P2\n1 2\n255\x0b7\x0c00008\r")
    @example(data=b"P2\n1 1\n255#7\n8")
    @example(data=b"P2\n1 1\n255\n")
    @example(data=b"P2\n1 1\n255")
    @example(data=b"P2\n3 1\n255 300 1 99999999999999999999")
    # The range is known only for a slice of digits and whitespace, so it takes two slices to see the order.
    @example(data=b"P2 2 1 255 256" + b" " * 2**16 + b"x")
    def test_read_matches_the_reference_decoder(self, data):
        assert decode_outcome(read_pgm, data) == decode_outcome(naive_read_pgm, data)

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
        raw = read_pgm(encode(pixels, "P5"))
        assert plain == raw == GrayImage(pixels)

    @settings(max_examples=150, deadline=None)
    @given(
        pixels=_images(6),
        fillers=st.lists(_FILLERS, min_size=4, max_size=4),
        raw_separator=st.sampled_from(WHITESPACE),
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
            _read(data)

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

    @settings(max_examples=200, deadline=None)
    @given(pixels=_images(24))
    @example(pixels=np.zeros((1, 1), np.uint8))
    @example(pixels=np.arange(256, dtype=np.uint8).reshape(1, 256))
    @example(pixels=np.arange(256, dtype=np.uint8).reshape(256, 1))
    def test_plain_encode_matches_naive_rows(self, pixels):
        assert write_pgm(GrayImage(pixels), "P2") == encode(pixels, "P2")

    @settings(max_examples=100, deadline=None)
    @given(mask=arrays(np.bool_, st.tuples(st.integers(1, 24), st.integers(1, 24))))
    def test_plain_encode_of_binary_matches_naive_rows(self, mask):
        pixels = np.where(mask, 255, 0).astype(np.uint8)
        assert write_pgm(BinaryImage(pixels), "P2") == encode(pixels, "P2")

    @settings(max_examples=300, deadline=None)
    @given(
        pixels=st.one_of(_images(40), _images(40).map(lambda p: np.full_like(p, p[0, 0]))),
        flavor=st.sampled_from(["P2", "P5"]),
        threshold=st.one_of(st.sampled_from([0.0, 255.0]), st.floats(0, 255)),
        block_pixels=st.sampled_from([1, 5, 6, 12, 16, 40]),
    )
    @example(
        pixels=np.arange(256, dtype=np.uint8).reshape(256, 1), flavor="P2", threshold=0.0, block_pixels=16
    )
    @example(
        pixels=np.arange(256, dtype=np.uint8).reshape(256, 1), flavor="P5", threshold=255.0, block_pixels=16
    )
    @example(
        pixels=np.arange(40, dtype=np.uint8).reshape(1, 40), flavor="P2", threshold=19.5, block_pixels=16
    )
    @example(
        pixels=np.arange(40, dtype=np.uint8).reshape(1, 40), flavor="P5", threshold=19.5, block_pixels=16
    )
    @example(pixels=np.full((5, 7), 128, np.uint8), flavor="P2", threshold=127.999, block_pixels=16)
    # Widths about a packed byte: each row is packed to whole bytes, so a
    # row narrower than 8 pixels is one partial byte, and a wider one ends
    # in a partial byte unless its width is a multiple of 8.
    @example(pixels=_ramp(13, 1), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(9, 2), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(5, 3), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(4, 7), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(3, 8), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(3, 9), flavor="P2", threshold=127.5, block_pixels=16)
    @example(pixels=_ramp(3, 17), flavor="P2", threshold=127.5, block_pixels=16)
    # Sub-blocks of 6 and of 12 pixels hold less than one row padded to a
    # byte: each is one row.
    @example(pixels=_ramp(9, 2), flavor="P2", threshold=127.5, block_pixels=6)
    @example(pixels=_ramp(20, 1), flavor="P2", threshold=127.5, block_pixels=12)
    def test_binary_body_of_gray_pixels_matches_the_binarized_image(
        self, pixels, flavor, threshold, block_pixels
    ):
        # Sub-blocks and blocks of block_pixels pixels: width 1 gives
        # block_pixels rows a block, a width above block_pixels one row
        # each.
        binary = binarize(GrayImage(pixels), threshold).pixels
        level = bilevel.threshold._split_level(threshold)
        with mock.patch.object(bilevel.pgm, "_SUB_BLOCK_PIXELS", block_pixels), mock.patch.object(
            bilevel.pgm, "_BLOCK_PIXELS", block_pixels
        ):
            body = b"".join(bilevel.pgm._pgm_body(pixels, flavor, level))
        assert body == b"".join(bilevel.pgm._pgm_body(binary, flavor))

    @settings(max_examples=100, deadline=None)
    @given(
        flavor=st.sampled_from([b"P2", b"P5"]),
        width=st.integers(2**10, 10**20 - 1),
        height=st.integers(2**10, 10**20 - 1),
        raster=st.one_of(
            st.binary(max_size=256), st.sampled_from([b"1 2 3", b"0 255\n", b"7 # c\n8"])
        ),
    )
    @example(flavor=b"P2", width=10**20 - 1, height=10**20 - 1, raster=b"1 2 3")
    @example(flavor=b"P2", width=2**20, height=2**20, raster=b"1 2 3")
    def test_huge_declared_dimensions_fail_without_allocating_them(
        self, flavor, width, height, raster
    ):
        # At least 1 MiB declared, at most 256 bytes of raster present. A
        # clean P2 raster must be refused before the slice-wise decoder
        # allocates the declared image.
        data = b"%s\n%d %d\n255\n" % (flavor, width, height) + raster
        assert traced_peak(lambda: pytest.raises(TruncatedDataError, read_pgm, data)) < 2**16

