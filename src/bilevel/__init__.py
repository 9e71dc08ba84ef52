"""Grayscale image binarization via histogram-based global thresholding.

The library selects a single threshold for an 8-bit grayscale image in one
of two ways: the global intensity mean, or an iterative refinement that
averages the two class means until the threshold stops moving. Pixels above
the threshold become foreground (255), pixels at or below it background (0).
PGM (P2/P5) is the interchange format, read and written bit-exactly, and
runs can be serialized as deterministic JSON reports plus histogram CSVs.

The public API is the union of the modules' ``__all__`` lists: a public name
is declared once, in the module that defines it.
"""

from . import histogram, image, pgm, report, threshold
from .histogram import *
from .image import *
from .pgm import *
from .report import *
from .threshold import *

__version__ = "0.1.0"

__all__ = []  # a fresh list: extending a module's own list would change that module's API
__all__ += histogram.__all__
__all__ += image.__all__
__all__ += pgm.__all__
__all__ += report.__all__
__all__ += threshold.__all__
