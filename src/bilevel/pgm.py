"""Bit-exact reader and writer for 8-bit PGM images.

Both netpbm graymap flavors are covered: plain text ``P2`` and raw binary
``P5``. Only ``maxval = 255`` is accepted; anything else is rejected rather
than rescaled. Writing then reading an image reproduces it exactly, in
either flavor, and any file whose declared pixel count disagrees with its
payload is rejected instead of being padded or clipped.

Header grammar: magic, then three decimal tokens (width, height, maxval)
separated by whitespace, with ``#`` comments allowed between tokens. A P5
raster starts one byte after the maxval token; a P2 raster is a run of
whitespace-separated decimal samples, one image row per line when written
by this module.

A P2 raster, once its ``#`` comments are stripped, is checked in a fixed
order, and the first failing check names the error: the sample count
(:class:`TruncatedDataError` or surplus data), then the character set
(only ASCII digits and whitespace; the first other token is quoted), then
the range (the first sample above 255 is quoted as written, however many
digits it has). Each check is whole-buffer work in C or numpy; only a
failing check goes back over the tokens to find the one it names.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .image import BinaryImage, GrayImage

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
_NEWLINE = 0x0A

# bytes.translate table: 1 for every byte that is not whitespace, else 0.
_NONSPACE_TABLE = bytes(int(byte not in _WHITESPACE) for byte in range(256))

# P2 encoder tables, one entry per sample value: the token b"%d " padded to
# four bytes, its length, and the mask of its first `length` bytes. Token
# and mask are stored as one uint32 word each so a pixel gathers each in
# one step; viewing the gathered words as bytes gives 4 per pixel.
_TOKENS = [b"%d " % value for value in range(256)]
_TOKEN_LENGTHS = np.frombuffer(bytes(map(len, _TOKENS)), dtype=np.uint8)
_TOKEN_WORDS = np.frombuffer(b"".join(t.ljust(4, b"\0") for t in _TOKENS), dtype=np.uint32)
_TOKEN_MASKS = np.frombuffer(
    b"".join((b"\1" * len(t)).ljust(4, b"\0") for t in _TOKENS), dtype=np.uint32
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


def _skip_filler(data: bytes, pos: int) -> int:
    # Whitespace and '#'-to-end-of-line comments separate header tokens.
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == _HASH:
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    return pos


def _next_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    pos = _skip_filler(data, pos)
    start = pos
    n = len(data)
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != _HASH:
        pos += 1
    token = data[start:pos]
    if not token:
        raise PgmFormatError(f"unexpected end of header while reading {what}")
    if not token.isdigit():
        raise PgmFormatError(f"invalid {what} token {token.decode('ascii', 'replace')!r} in header")
    return int(token), pos


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

    width, pos = _next_int(data, 2, "width")
    height, pos = _next_int(data, pos, "height")
    maxval, pos = _next_int(data, pos, "maxval")
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

    return GrayImage._trusted(_parse_plain_samples(data[pos:], width, height))


def _count_tokens(text: bytes) -> int:
    """``len(text.split())`` without making one bytes object per token.

    The raster opens with the byte that ended the maxval token, whitespace
    or a comment stripped to a newline, so every token starts at a
    non-space byte that follows a space.
    """
    nonspace = np.frombuffer(text.translate(_NONSPACE_TABLE), dtype=np.bool_)
    return int(np.count_nonzero(nonspace[1:] > nonspace[:-1]))


def _parse_plain_samples(text: bytes, width: int, height: int) -> np.ndarray:
    if _HASH in text:
        text = b"\n".join(line.split(b"#", 1)[0] for line in text.splitlines())
    found = _count_tokens(text)
    expected = width * height
    if found < expected:
        raise TruncatedDataError(expected, found)
    if found > expected:
        raise PgmFormatError(f"surplus raster data: expected {expected} samples, found {found}")
    if text.translate(None, _DIGITS + _WHITESPACE):
        bad = next(token for token in text.split() if not token.isdigit())
        raise PgmFormatError(f"invalid sample token {bad.decode('ascii', 'replace')!r}")
    # Only digits and whitespace remain, which text-mode fromstring parses
    # exactly; a token beyond int64 saturates and fails the range check.
    samples = np.fromstring(text, dtype=np.int64, sep=" ")
    if samples.max() > MAXVAL:
        index = int(np.argmax(samples > MAXVAL))
        bad = int(text.split()[index])
        raise SampleRangeError(f"sample value {bad} exceeds maxval {MAXVAL}")
    return samples.astype(np.uint8).reshape(height, width)


def _encode_pgm(image: GrayImage | BinaryImage, flavor: str = "P5") -> tuple[bytes, memoryview]:
    """The PGM file of ``image`` as two chunks, ``(header, body)``, never joined.

    A P5 body is a view of the image's own read-only pixels, so encoding
    copies nothing; a P2 body is the token bytes. Writing both chunks in
    order gives the file :func:`write_pgm` returns.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown PGM flavor {flavor!r}: expected one of {FLAVORS}")
    header = f"{flavor}\n{image.width} {image.height}\n{MAXVAL}\n".encode("ascii")
    pixels = image.pixels
    if flavor == "P5":
        return header, pixels.data
    body = _TOKEN_WORDS[pixels].view(np.uint8)[_TOKEN_MASKS[pixels].view(np.bool_)]
    row_ends = np.cumsum(_TOKEN_LENGTHS[pixels].sum(axis=1, dtype=np.intp)) - 1
    body[row_ends] = _NEWLINE
    return header, body.data


def write_pgm(image: GrayImage | BinaryImage, flavor: str = "P5") -> bytes:
    """Encode an image as PGM bytes in the requested flavor.

    The header is exactly ``<flavor>\\n<width> <height>\\n255\\n``. P2 output
    puts one image row per text line.
    """
    header, body = _encode_pgm(image, flavor)
    return header + body


def load_pgm(path: str | os.PathLike) -> GrayImage:
    """Read a PGM file from disk."""
    return read_pgm(Path(path).read_bytes())


def save_pgm(path: str | os.PathLike, image: GrayImage | BinaryImage, flavor: str = "P5") -> None:
    """Write an image to disk as PGM."""
    chunks = _encode_pgm(image, flavor)
    with open(path, "wb") as fh:
        fh.writelines(chunks)
