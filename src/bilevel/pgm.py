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
digits it has). The work runs in another order, character set first,
because it picks the parse: text of digits and whitespace only is parsed
once by numpy, whose result also gives the count; other text is split into
tokens for the count and the first bad token. Each step is whole-buffer
work in C or numpy; only a failing range check goes back over the tokens
to find the one it names.
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


def _parse_plain_samples(text: bytes, width: int, height: int) -> np.ndarray:
    if _HASH in text:
        text = b"\n".join(line.split(b"#", 1)[0] for line in text.splitlines())
    dirty = text.translate(None, _DIGITS + _WHITESPACE)
    if dirty:
        tokens = text.split()
        found = len(tokens)
    elif text.isspace():  # fromstring would read blank text as one 0
        found = 0
    else:
        # Text-mode fromstring parses digits and whitespace exactly, one
        # sample per token; a token beyond int64 saturates and fails the
        # range check.
        samples = np.fromstring(text, dtype=np.int64, sep=" ")
        found = samples.size
    expected = width * height
    if found < expected:
        raise TruncatedDataError(expected, found)
    if found > expected:
        raise PgmFormatError(f"surplus raster data: expected {expected} samples, found {found}")
    if dirty:
        bad = next(token for token in tokens if not token.isdigit())
        raise PgmFormatError(f"invalid sample token {bad.decode('ascii', 'replace')!r}")
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
    words = _TOKEN_WORDS[pixels]
    words[:, -1] = _ROW_END_WORDS[pixels[:, -1]]
    padded = words.view(np.uint8)
    return header, padded[padded != 0].data


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
