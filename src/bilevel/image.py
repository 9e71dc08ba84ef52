"""Immutable 8-bit image buffers shared by the whole library.

Pixels are stored as a read-only ``(height, width)`` uint8 array in
row-major order. ``GrayImage`` carries arbitrary intensities in [0, 255];
``BinaryImage`` is constrained to the two levels 0 and 255.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["GrayImage", "BinaryImage"]

BINARY_LEVELS = (0, 255)


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    """A read-only contiguous ``dtype`` copy of ``arr``, which no caller can change."""
    out = np.array(arr, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _validated_pixels(pixels, binary: bool) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError(f"pixel buffer must be 2-D (height x width), got shape {arr.shape}")
    height, width = arr.shape
    if height < 1 or width < 1:
        raise ValueError(f"image dimensions must be at least 1x1, got {width}x{height}")
    if arr.dtype.kind not in "ui":
        raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
    if arr.dtype != np.uint8:  # every uint8 value is in range already
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > 255:
            raise ValueError(f"pixel values must lie in [0, 255], found range [{lo}, {hi}]")
    if binary and not np.isin(arr, BINARY_LEVELS).all():
        bad = int(arr[~np.isin(arr, BINARY_LEVELS)][0])
        raise ValueError(f"binary image may contain only 0 and 255, found {bad}")
    return _frozen(arr, np.uint8)


@dataclass(frozen=True, eq=False)
class _Image:
    """The body both image types share: a validated, read-only uint8 pixel buffer."""

    pixels: np.ndarray
    _binary = False  # whether __post_init__ admits only the two binary levels

    def __post_init__(self):
        object.__setattr__(self, "pixels", _validated_pixels(self.pixels, self._binary))

    @classmethod
    def _trusted(cls, pixels: np.ndarray):
        """Wrap a 2-D uint8 buffer that the library made itself, without a copy.

        Skips the validation passes and the copy of the public constructor,
        which stays the only way in for buffers from outside. The caller
        hands over the buffer, which must hold only values ``cls`` admits:
        it is made read-only here, and nothing may keep it writable.
        """
        pixels.setflags(write=False)
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", pixels)
        return image

    @classmethod
    def from_flat(cls, width: int, height: int, values: Sequence[int]):
        """Build an image from a row-major flat sequence of ``width * height`` pixel values."""
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be at least 1x1, got {width}x{height}")
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.size != width * height:
            raise ValueError(
                f"pixels length must equal width x height = {width * height}, got {arr.size}"
            )
        return cls(arr.reshape(height, width))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.pixels, other.pixels)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(width={self.width}, height={self.height})"


class GrayImage(_Image):
    """A width x height grid of 8-bit intensity values."""


class BinaryImage(_Image):
    """A width x height grid whose pixels are exactly 0 (background) or 255 (foreground)."""

    _binary = True

    def to_gray(self) -> GrayImage:
        """View the two-level buffer as an ordinary grayscale image."""
        return GrayImage._trusted(self.pixels)
