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
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .image import BinaryImage, GrayImage

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
_HASH = 0x23  # '#'


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
    data = bytes(data)
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
        raster = data[pos + 1 :]
        if len(raster) < expected:
            raise TruncatedDataError(expected, len(raster))
        if len(raster) > expected:
            raise PgmFormatError(
                f"surplus raster data: expected {expected} bytes, found {len(raster)}"
            )
        pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
        return GrayImage(pixels)

    return GrayImage(_parse_plain_samples(data[pos:], width, height))


def _parse_plain_samples(text: bytes, width: int, height: int) -> np.ndarray:
    if _HASH in text:
        text = b"\n".join(line.split(b"#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    expected = width * height
    if len(tokens) < expected:
        raise TruncatedDataError(expected, len(tokens))
    if len(tokens) > expected:
        raise PgmFormatError(f"surplus raster data: expected {expected} samples, found {len(tokens)}")
    for token in tokens:
        if not token.isdigit():
            raise PgmFormatError(f"invalid sample token {token.decode('ascii', 'replace')!r}")
    try:
        samples = np.array([int(t) for t in tokens], dtype=np.int64)
    except OverflowError:  # a sample beyond int64 is out of range as well
        bad = next(int(t) for t in tokens if int(t) > MAXVAL)
        raise SampleRangeError(f"sample value {bad} exceeds maxval {MAXVAL}") from None
    if samples.max() > MAXVAL:
        bad = int(samples[samples > MAXVAL][0])
        raise SampleRangeError(f"sample value {bad} exceeds maxval {MAXVAL}")
    return samples.reshape(height, width)


def write_pgm(image: GrayImage | BinaryImage, flavor: str = "P5") -> bytes:
    """Encode an image as PGM bytes in the requested flavor.

    The header is exactly ``<flavor>\\n<width> <height>\\n255\\n``. P2 output
    puts one image row per text line.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"unknown PGM flavor {flavor!r}: expected one of {FLAVORS}")
    header = f"{flavor}\n{image.width} {image.height}\n{MAXVAL}\n".encode("ascii")
    if flavor == "P5":
        return header + image.pixels.tobytes()
    body = "\n".join(" ".join(map(str, row)) for row in image.pixels.tolist())
    return header + body.encode("ascii") + b"\n"


def load_pgm(path: str | os.PathLike) -> GrayImage:
    """Read a PGM file from disk."""
    return read_pgm(Path(path).read_bytes())


def save_pgm(path: str | os.PathLike, image: GrayImage | BinaryImage, flavor: str = "P5") -> None:
    """Write an image to disk as PGM."""
    Path(path).write_bytes(write_pgm(image, flavor))
