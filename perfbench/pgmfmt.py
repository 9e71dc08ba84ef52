"""The benchmark's own PGM encoder, kept apart from ``bilevel.pgm``.

Inputs are written with it and expected outputs are rebuilt with it, so the
output check never relies on the codec it is checking. The layout follows
the CLI's documented byte format: header ``<magic>\\n<width> <height>\\n255\\n``,
and for P2 one image row per line with a trailing newline.
"""

from __future__ import annotations

import numpy as np

_DECIMAL = np.array([str(v) for v in range(256)], dtype=object)


def encode(pixels: np.ndarray, flavor: str) -> bytes:
    height, width = pixels.shape
    header = f"{flavor}\n{width} {height}\n255\n".encode("ascii")
    if flavor == "P5":
        return header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes()
    text = _DECIMAL[pixels]
    body = "\n".join(" ".join(row) for row in text)
    return header + body.encode("ascii") + b"\n"
