"""Bit-exact reader and writer for 8-bit PGM images.

Both netpbm graymap flavors are covered: plain text ``P2`` and raw binary
``P5``. Only ``maxval = 255`` is accepted; anything else is rejected rather
than rescaled. Writing then reading an image reproduces it exactly, in
either flavor, and any file whose declared pixel count disagrees with its
payload is rejected instead of being padded or clipped.

Header grammar, the compiled pattern ``_HEADER``: magic, then three decimal
tokens (width, height, maxval), each after filler: whitespace or a ``#``
comment, which runs to the end of its line (CR or LF) and, as ``_COMMENT``,
is also stripped from a P2 raster. A token of more than 20 significant
digits is refused. A P5 raster starts one byte after the maxval token; a P2
raster is a run of whitespace-separated decimal samples, one image row per
line when written by this module.

A P2 raster is parsed from the input buffer in place, in slices of about
``_SLICE_BYTES``, each ending just after a whitespace byte or, if it holds
a ``#``, just before its last ``#``, the next slice starting where that
comment ends. So no token is split, and neither the raster nor a comment is
ever copied whole. A slice's comments are stripped; a slice of ASCII digits
and whitespace only is then parsed byte-wise by numpy into uint16 samples
(:func:`_plain_samples`) and copied into the image, any other is split into
tokens. Every slice is counted, and the first invalid token and the first
sample above 255 are kept, so no raster, commented or malformed, is parsed
whole. After the last slice the first failing check, in a fixed order,
names the error: the sample count (:class:`TruncatedDataError` or surplus
data), then the character set (only ASCII digits and whitespace; the first
other token is quoted), then the range (the first sample above 255 is
quoted without its leading zeros, however many digits it has).

:func:`_pgm_file`, which :func:`write_pgm`, :func:`save_pgm` and the CLI
all write, is the header and then the chunks of :func:`_pgm_body`, the one
encoder of raster bytes, for gray images and, given a split level, for
their binary images, which it never makes whole.
A P2 body is encoded in sub-blocks of about ``_SUB_BLOCK_PIXELS`` pixels,
each through temporaries of its own, and each sub-block's bytes are a chunk
of their own; a binary one looks each gray pixel up in token tables made for
the level, so it binarizes nothing. Each token is gathered NUL-padded to
one uint32 word, and the NULs are dropped by the byte in a gray body and by
the 2-byte word in a binary one. A binary P5 body is binarized in blocks of
``_BLOCK_PIXELS`` pixels into one reused buffer, each block a chunk that is
valid only until the next is requested.
"""

from __future__ import annotations

import itertools
import os
import re
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .image import BinaryImage, GrayImage
from .threshold import _binarize_into

if TYPE_CHECKING:
    import mmap

__all__ = [
    "PgmError",
    "PgmFormatError",
    "UnsupportedDepthError",
    "TruncatedDataError",
    "SampleRangeError",
    "read_pgm",
    "write_pgm",
    "load_pgm",
    "save_pgm",
]

MAXVAL = 255
FLAVORS = ("P2", "P5")

_WHITESPACE = b" \t\n\r\x0b\x0c"
_DIGITS = b"0123456789"
_HASH = 0x23  # '#'
_MAX_HEADER_DIGITS = 20

# Whitespace, '#' and token bytes are disjoint classes and a token may be
# empty (only at the end of the data), so any bytes match in one pass.
_COMMENT = re.compile(rb"#[^\r\n]*")
_HEADER = re.compile(
    3 * rb"(?:[%(space)s]|%(comment)s)*([^%(space)s#]*)"
    % {b"space": re.escape(_WHITESPACE), b"comment": _COMMENT.pattern}
)
_SPACE = re.compile(rb"[%s]" % re.escape(_WHITESPACE))

# Nominal bytes per slice of a P2 raster. The byte-wise parse of a slice
# then makes no temporary above 64 KiB (its uint16 digit sums), under
# glibc's default mmap threshold of 128 KiB; no int64 array is made.
_SLICE_BYTES = 1 << 15

# Pixels per block of a binary P5 body. A 4096 x 4096 P5 output in 2^20
# pixel blocks is no slower than whole; in 2^16 or 2^14 pixel blocks it is
# slower. A lookup table would not beat the compare here: at 2^20 pixels
# (2-vCPU Xeon, numpy 2.4) _binarize_into took 0.07-0.12 ms, np.take of a
# 256-entry uint8 table 1.6-2.2 ms and fancy indexing 3.2-3.6 ms.
_BLOCK_PIXELS = 1 << 20

# Pixels per sub-block of a P2 body. np.take turns a sub-block's uint8
# indices into a 128 KiB intp array, the gathered words take 64 KiB, and
# their NUL mask 64 KiB in a gray body (one element a byte) or 32 KiB in a
# binary one (one element a 2-byte word).
_SUB_BLOCK_PIXELS = 1 << 14

# P2 encoder tables, one entry per sample value: the token b"%d " (and, for
# the last sample of a row, b"%d\n") NUL-padded to one uint32 word, so a
# pixel gathers its token in one step. A token holds no NUL, so the nonzero
# bytes of the gathered words are the body.
_TOKEN_WORDS, _ROW_END_WORDS = (
    np.frombuffer(b"".join((b"%d%s" % (v, end)).ljust(4, b"\0") for v in range(256)), np.uint32)
    for end in (b" ", b"\n")
)


class PgmError(ValueError):
    """Base class for every PGM parsing failure."""


class PgmFormatError(PgmError):
    """Structurally malformed file: bad magic, bad header token, surplus data."""


class UnsupportedDepthError(PgmError):
    """Well-formed file with a maxval other than 255."""


class TruncatedDataError(PgmError):
    """Raster holds fewer samples than the header declares."""

    def __init__(self, expected: int, found: int):
        super().__init__(f"truncated pixel data: expected {expected} samples, found {found}")
        self.expected = expected
        self.found = found


class SampleRangeError(PgmError):
    """A plain-format sample exceeds the declared maxval."""


def read_pgm(data: bytes) -> GrayImage:
    """Decode P2/P5 bytes into a :class:`GrayImage`.

    Raises :class:`PgmFormatError` on a bad magic number or malformed
    header, :class:`UnsupportedDepthError` when maxval is not 255,
    :class:`TruncatedDataError` when samples are missing, and
    :class:`SampleRangeError` when a plain sample exceeds maxval.
    """
    return _decode_pgm(bytes(data))


def _decode_pgm(data: bytes | mmap.mmap) -> GrayImage:
    """:func:`read_pgm` over a read-only buffer, which a P5 image views without a copy.

    ``data`` must not change while the image lives: ``bytes``, or a
    read-only map of a file that nobody rewrites in place.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"not an 8-bit PGM file: bad magic {magic!r}")
    if len(data) > 2 and data[2] not in _WHITESPACE and data[2] != _HASH:
        raise PgmFormatError(f"not an 8-bit PGM file: bad magic {data[:3]!r}")

    header = _HEADER.match(data, 2)
    values = []
    for what, token in zip(("width", "height", "maxval"), header.groups()):
        if not token:
            raise PgmFormatError(f"unexpected end of header while reading {what}")
        if not token.isdigit():
            raise PgmFormatError(f"invalid {what} token {token.decode('ascii', 'replace')!r} in header")
        if len(token.lstrip(b"0")) > _MAX_HEADER_DIGITS:
            raise PgmFormatError(f"{what} in header has more than {_MAX_HEADER_DIGITS} significant digits")
        values.append(int(token))
    width, height, maxval = values
    pos = header.end()
    if width < 1 or height < 1:
        raise PgmFormatError(f"invalid image dimensions {width}x{height}")
    if maxval != MAXVAL:
        raise UnsupportedDepthError(f"unsupported maxval {maxval}: only 8-bit samples (255) are handled")

    expected = width * height
    if magic == b"P5":
        if pos >= len(data):
            raise TruncatedDataError(expected, 0)
        if data[pos] not in _WHITESPACE:
            raise PgmFormatError("expected a single whitespace byte after maxval in P5 header")
        found = len(data) - pos - 1
        if found < expected:
            raise TruncatedDataError(expected, found)
        if found > expected:
            raise PgmFormatError(f"surplus raster data: expected {expected} bytes, found {found}")
        # A read-only view of the immutable buffer: the raster is never copied.
        pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos + 1)
        return GrayImage._trusted(pixels.reshape(height, width))

    return GrayImage._trusted(_parse_plain_raster(data, pos, width, height))


def _parse_plain_raster(data: bytes | mmap.mmap, pos: int, width: int, height: int) -> np.ndarray:
    """The samples of the P2 raster ``data[pos:]``, parsed slice by slice.

    Every slice is counted, and the first invalid token and the first
    sample above 255 are kept; after the last slice, the first failing
    check names the error.
    """
    expected = width * height
    end = len(data)
    # N samples need N tokens and N - 1 separators; with fewer bytes the
    # count check fails, and the image is never allocated.
    pixels = np.empty(expected, np.uint8) if end - pos >= 2 * expected - 1 else None
    found = 0
    invalid = high = None
    start = pos
    while start < end:
        stop = start + _SLICE_BYTES
        if stop < end:
            space = _SPACE.search(data, stop)
            stop = space.end() if space else end
        # A slice never starts inside a comment, so its last '#' opens a
        # comment or lies in one: the slice ends before it, and the next
        # starts where that comment ends.
        last_hash = data.rfind(b"#", start, stop)
        if last_hash < 0:
            text = data[start:stop]
        else:
            text = _COMMENT.sub(b"", data[start:last_hash])
            stop = _COMMENT.match(data, last_hash).end()
        start = stop
        if text.translate(None, _DIGITS + _WHITESPACE):
            tokens = text.split()
            found += len(tokens)
            invalid = invalid or next(token for token in tokens if not token.isdigit())
        elif text and not text.isspace():
            samples, over = _plain_samples(text)
            if over and not high:
                # Stripped of leading zeros, so int() never meets a token
                # past its digit limit.
                significant = (token.lstrip(b"0") for token in text.split())
                high = next(t for t in significant if len(t) > 3 or int(t or b"0") > MAXVAL)
            if pixels is not None and not (invalid or high) and found + samples.size <= expected:
                pixels[found : found + samples.size] = samples
            found += samples.size
    if found < expected:
        raise TruncatedDataError(expected, found)
    if found > expected:
        raise PgmFormatError(f"surplus raster data: expected {expected} samples, found {found}")
    if invalid:
        raise PgmFormatError(f"invalid sample token {invalid.decode('ascii', 'replace')!r}")
    if high:
        raise SampleRangeError(f"sample value {high.decode('ascii')} exceeds maxval {MAXVAL}")
    return pixels.reshape(height, width)


def _plain_samples(text: bytes) -> tuple[np.ndarray, bool]:
    """The samples of ``text`` as uint16, and whether one is above 255.

    ``text`` is ASCII digits and whitespace and holds a token. A sample is
    the value of its token's last three digits, so a zero-padded token of
    any length reads exactly. A token is above 255 if that value is, or if
    it has a nonzero digit with three more digits after it.
    """
    # Whitespace wraps above 9. Two guard bytes before the text and one
    # after keep every shifted view in bounds and end the last token.
    code = np.frombuffer(b"  " + text + b" ", np.uint8) - 48
    digit = code < 10
    code *= digit
    long = (code[2:-3].astype(bool) & digit[3:-2] & digit[4:-1] & digit[5:]).any()
    # The hundreds digit counts only where the tens byte is a digit, so
    # b"5 7" is not 507. Hundreds and tens, counted in tens, stay below 100
    # in uint8; the widening multiply names its dtype, as numpy 1.x would
    # keep a uint8 array times a small scalar in uint8.
    tens = code[:-3] * digit[1:-2]
    tens *= 10
    tens += code[1:-2]
    value = np.multiply(tens, 10, dtype=np.uint16)
    value += code[2:-1]
    samples = np.compress(digit[2:-1] > digit[3:], value)  # at each token's last digit
    return samples, bool(long or samples.max() > MAXVAL)


def _pgm_file(pixels: np.ndarray, flavor: str, level: int | None = None) -> Iterator[bytes | memoryview]:
    """The PGM file of ``pixels``: the header, then the chunks of :func:`_pgm_body`.

    ``flavor`` is checked on the call, not at the first chunk, so before a
    caller opens its file. Write each chunk before asking for the next.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown PGM flavor {flavor!r}: expected one of {FLAVORS}")
    height, width = pixels.shape
    header = f"{flavor}\n{width} {height}\n{MAXVAL}\n".encode("ascii")
    return itertools.chain((header,), _pgm_body(pixels, flavor, level))


def _pgm_body(pixels: np.ndarray, flavor: str, level: int | None = None) -> Iterator[memoryview]:
    """The raster bytes of a 2-D C-contiguous uint8 image, as chunks.

    With ``level`` (a ``threshold._split_level`` result), the bytes are
    those of its binary image: a pixel above ``level`` is 255, every other 0.

    Every chunk is a 1-D byte-format memoryview, so ``len(chunk)`` counts
    its bytes. A gray P5 body is one chunk, a view of ``pixels``, so
    encoding copies nothing. A binary P5 body is binarized by
    ``_binarize_into`` in blocks of whole rows of about ``_BLOCK_PIXELS``
    pixels (one row, if wider) into one buffer, and each chunk is that
    buffer: write it before asking for the next. P2 chunks are the token
    bytes of consecutive sub-blocks of whole rows (one row, if a row is
    wider than ``_SUB_BLOCK_PIXELS``), one text line per row, each gathered
    into fresh temporaries that keep no reference to ``pixels``. A binary
    P2 body gathers from tables made for ``level``, in which each gray value
    has the token of 0 or of 255. The gathered words are NUL-padded tokens,
    compacted by the byte in a gray body and by the 2-byte word in a binary
    one.
    """
    if flavor == "P5" and level is None:
        yield pixels.reshape(-1).data
        return
    height, width = pixels.shape
    rows = min(height, max(1, (_BLOCK_PIXELS if flavor == "P5" else _SUB_BLOCK_PIXELS) // width))
    if flavor == "P5":
        buffer = np.empty((rows, width), np.uint8)
        for top in range(0, height, rows):
            block = pixels[top : top + rows]
            yield _binarize_into(block, level, buffer[: len(block)]).reshape(-1).data
        return
    # A binary body's tables give each gray value the token of 0 or of 255.
    # b"0 ", b"255 ", b"0\n" and b"255\n" fill each 2-byte half of their
    # word or leave it NUL, so a binary body is compacted by 2-byte words,
    # half as many mask elements as bytes. A gray token such as b"12 " puts
    # a token byte and a NUL in one half, so a gray body is compacted by bytes.
    values = np.arange(256) if level is None else np.where(np.arange(256) > level, 255, 0)
    tokens, row_ends = _TOKEN_WORDS[values], _ROW_END_WORDS[values]
    for top in range(0, height, rows):
        block = pixels[top : top + rows]
        words = np.take(tokens, block)
        words[:, -1] = row_ends[block[:, -1]]
        padded = words.view(np.uint8 if level is None else np.uint16).ravel()
        yield np.compress(padded != 0, padded).view(np.uint8).data


def write_pgm(image: GrayImage | BinaryImage, flavor: str = "P5") -> bytes:
    """Encode an image as PGM bytes in the requested flavor.

    The header is exactly ``<flavor>\\n<width> <height>\\n255\\n``. P2 output
    puts one image row per text line.
    """
    return b"".join(_pgm_file(image.pixels, flavor))


def load_pgm(path: str | os.PathLike) -> GrayImage:
    """Read a PGM file from disk."""
    return read_pgm(Path(path).read_bytes())


def save_pgm(path: str | os.PathLike, image: GrayImage | BinaryImage, flavor: str = "P5") -> None:
    """Write an image to disk as PGM."""
    chunks = _pgm_file(image.pixels, flavor)
    with open(path, "wb") as fh:
        fh.writelines(chunks)
