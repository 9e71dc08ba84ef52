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
of their own. A gray body gathers each pixel's token NUL-padded to one
uint32 word and drops the NULs byte by byte. A binary body binarizes
nothing: the bits of the gray pixels above the level are packed 8 to a
byte, each row to whole bytes, and each byte's text, such as
``b"0 255 0 0 255 255 0 0 "``, is looked up in a table of 256 such
patterns and joined. A binary P5 body is binarized in blocks of
``_BLOCK_PIXELS`` pixels, each block a chunk in a buffer of its own.

This is also the one module that turns files into buffers and chunks into
committed files. :func:`_read_input` maps or reads the CLI's input, and
:func:`_stage_and_commit` looks once at each target of the CLI or
:func:`save_pgm`, refusing a directory, then stages every file to a
temporary name and renames it onto its target under one undo journal.
:func:`load_pgm` reads a whole file and never maps it.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import os
import re
import stat
from collections.abc import Callable, Iterable, Iterator
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

# Nominal bytes per slice of a P2 raster. Against 2^15, a 1024 x 1024 P2 is
# 58 slices instead of 116, half the numpy calls, and its decode peaks at
# 1.65 against 1.32 MiB (tracemalloc); 2^17-byte slices peaked at 2.30 MiB
# and took 490-580 minor faults per repeated call. The byte-wise parse of
# a slice makes no int64 array; its largest temporary, the uint16 digit
# sums, is just over glibc's initial 128 KiB mmap threshold. That threshold
# rises to the size of each freed mapped block, so a process's first decode
# faults about 3800 times (330 with 2^15), and a repeated 1024 x 1024 P2
# call 5 times, as with 2^15.
_SLICE_BYTES = 1 << 16

# Inputs this large are mapped, smaller ones read. Timing main in process
# (P5, -m mean, 2-vCPU Xeon), a map cost 8 % more than a read at 256 KiB,
# broke even at 512 KiB, and saved 4 % at 1 MiB and 20 % at 2 MiB.
_MAP_MIN_BYTES = 1 << 20

# Pixels per block of a binary P5 body. A 4096 x 4096 P5 output in 2^20
# pixel blocks is no slower than whole; in 2^16 or 2^14 pixel blocks it is
# slower. A lookup table would not beat the compare here: at 2^20 pixels
# (2-vCPU Xeon, numpy 2.4) _binarize_into took 0.07-0.12 ms, np.take of a
# 256-entry uint8 table 1.6-2.2 ms and fancy indexing 3.2-3.6 ms.
_BLOCK_PIXELS = 1 << 20

# Pixels per sub-block of a P2 body. In a gray body np.take turns a
# sub-block's uint8 indices into a 128 KiB intp array, and the gathered
# words and their NUL mask take 64 KiB each. In a binary body the bits take
# 16 KiB, and the intp byte indices, the gathered patterns and their list
# 16 KiB each (one element per 8 pixels); its text is at most 64 KiB. Its
# largest temporary is b"".join's table of one 80-byte buffer per pattern,
# 160 KiB for 2048, so a binary sub-block is budgeted by rows padded to
# whole bytes: a 1-pixel-wide image budgeted unpadded peaks near 1.5 MiB.
_SUB_BLOCK_PIXELS = 1 << 14

# Gray P2 encoder tables, one entry per sample value: the token b"%d " (and,
# for the last sample of a row, b"%d\n") NUL-padded to one uint32 word, so
# a pixel gathers its token in one step. A token holds no NUL, so the
# nonzero bytes of the gathered words are the body.
_TOKEN_WORDS, _ROW_END_WORDS = (
    np.frombuffer(b"".join((b"%d%s" % (v, end)).ljust(4, b"\0") for v in range(256)), np.uint32)
    for end in (b" ", b"\n")
)


@functools.cache
def _pattern_table(tail: int) -> np.ndarray:
    """The binary P2 text of each byte that ``np.packbits`` makes of a row of pixels.

    Entry ``b`` is the text of a byte inside a row, entry ``256 + b`` that
    of a row's last byte, whose first ``tail`` bits are pixels. Each pixel
    bit, from the most significant, is a token, ``255`` if set and ``0`` if
    not, followed by ``\\n`` if it ends the row (the ``tail``-th bit of a
    last byte) and by a space otherwise. The table is a read-only object
    array of ``bytes``, so ``np.take`` gathers one pattern per byte; at
    most 8 are made, for 1 <= tail <= 8.
    """
    table = np.empty(512, object)
    table[:] = [
        b"".join(b"%d%c" % (255 * (byte >> (7 - j) & 1), end) for j, end in enumerate(ends))
        for ends in (b" " * 8, b" " * (tail - 1) + b"\n")
        for byte in range(256)
    ]
    table.flags.writeable = False
    return table


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

    def __reduce__(self):
        # An exception pickles and copies as its class called with self.args, here the message.
        return type(self), (self.expected, self.found)


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
    caller opens its file.
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
    pixels (one row, if wider), each into a fresh buffer that is its
    chunk. P2 chunks are the token bytes of consecutive sub-blocks of whole
    rows (one row, if a row is wider than ``_SUB_BLOCK_PIXELS``), one text
    line per row, each made in fresh temporaries that keep no reference to
    ``pixels``. A gray P2 body gathers NUL-padded token words and compacts
    them by the byte. A binary one is budgeted by rows padded to whole
    bytes, and each sub-block's :func:`_binary_patterns` are joined into its
    chunk.
    """
    if flavor == "P5" and level is None:
        yield pixels.reshape(-1).data
        return
    height, width = pixels.shape
    # A binary P2 row is packed to whole bytes, so it is budgeted padded
    # to them (see _SUB_BLOCK_PIXELS).
    span = -(-width // 8) * 8 if flavor == "P2" and level is not None else width
    rows = min(height, max(1, (_BLOCK_PIXELS if flavor == "P5" else _SUB_BLOCK_PIXELS) // span))
    for top in range(0, height, rows):
        block = pixels[top : top + rows]
        if flavor == "P5":
            yield _binarize_into(block, level, np.empty(block.shape, np.uint8)).reshape(-1).data
        elif level is None:
            words = np.take(_TOKEN_WORDS, block)
            words[:, -1] = _ROW_END_WORDS[block[:, -1]]
            padded = words.view(np.uint8).ravel()
            yield np.compress(padded != 0, padded).data
        else:
            yield memoryview(b"".join(_binary_patterns(block, level)))


def _binary_patterns(block: np.ndarray, level: int) -> list[bytes]:
    """The binary P2 text of a uint8 ``block`` of rows, one piece per 8 pixels.

    Each row's bits (a pixel above ``level`` is set) are packed 8 to a
    byte, the last byte zero-padded, and each byte is looked up in
    :func:`_pattern_table`.
    """
    count, width = block.shape
    size = -(-width // 8)
    # packbits(axis=1) costs about 30 ns a row, so rows are padded to whole
    # bytes and packed flat.
    bits = np.zeros((count, 8 * size), np.bool_)
    np.greater(block, np.uint8(level), out=bits[:, :width])
    index = np.packbits(bits).reshape(count, size).astype(np.intp)
    index[:, -1] += 256
    # A row's last byte holds its last 1 to 8 pixels.
    return np.take(_pattern_table(width - 8 * (size - 1)), index).ravel().tolist()


def write_pgm(image: GrayImage | BinaryImage, flavor: str = "P5") -> bytes:
    """Encode an image as PGM bytes in the requested flavor.

    The header is exactly ``<flavor>\\n<width> <height>\\n255\\n``. P2 output
    puts one image row per text line.
    """
    return b"".join(_pgm_file(image.pixels, flavor))


def load_pgm(path: str | os.PathLike) -> GrayImage:
    """Read a PGM file from disk.

    The whole file is read, never mapped, whatever its size: a map whose
    file its owner truncates would kill the caller with ``SIGBUS``.
    """
    return read_pgm(Path(path).read_bytes())


def save_pgm(path: str | os.PathLike, image: GrayImage | BinaryImage, flavor: str = "P5") -> None:
    """Write an image to disk as PGM, all of it or nothing.

    The file is staged as the CLI stages its outputs
    (:func:`_stage_and_commit`): written to ``.NAME.tmp-<pid>`` beside the
    target, then renamed onto it. On any failure the target is left as it
    was and the temp file is removed. So a symlink to a file, or a hard
    link, at ``path`` is replaced, not written through; the new file's mode
    comes from the umask; the directory must accept new entries; and an
    entry already at the temp name, such as a save to the same path running
    at once in the same process, fails the save with ``FileExistsError``.
    The flavor is checked first. Then a directory at ``path``, also behind a
    symlink, raises ``IsADirectoryError`` naming ``path`` before anything is
    encoded; so does a path without a file name, such as ``""`` (the
    working directory) or ``"/"``.
    """
    _stage_and_commit([(Path(path), _pgm_file(image.pixels, flavor))])


def _read_input(fh, source: os.stat_result) -> bytes | mmap.mmap:
    """The input's bytes: a read-only map of a regular file of ``_MAP_MIN_BYTES`` or more, else read.

    A pipe, a small file or a file that cannot be mapped is read, unless
    the map was refused for lack of memory (``ENOMEM``), which is raised.
    The map is never closed: the image may view it, so the last reference
    unmaps it.
    """
    if stat.S_ISREG(source.st_mode) and source.st_size >= _MAP_MIN_BYTES:
        import mmap  # only mapped inputs load the extension module

        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:  # ValueError: the file was emptied after the fstat
            if getattr(exc, "errno", None) == errno.ENOMEM:  # a read would need the memory too
                raise
    return fh.read()


def _stage_and_commit(
    outputs: list[tuple[Path, Iterable[bytes | memoryview]]], hist_dir: Path | None = None
) -> None:
    """Write each payload's chunks to a temp file, then rename every temp file onto its target.

    First each target is looked at once, with ``os.lstat``. A directory,
    also behind a symlink, raises ``IsADirectoryError`` naming the target
    before any directory or temp file is made, because ``os.replace`` onto
    it would fail only after earlier outputs were in place. Any other entry
    at a target existed before the commit, which the rollback keeps.

    A payload is an iterable of chunks, and each chunk is written before
    the next is asked for, so a generator payload runs only while its temp
    file is open. The temp file of ``DIR/NAME`` is ``DIR/.NAME.tmp-<pid>``,
    opened with mode ``"xb"`` (``O_CREAT | O_EXCL``), which fails on any
    entry already at its name and never follows a symlink, so the run
    writes through, and removes, only what it made.

    One journal records each effect once it has succeeded, as ``(undo,
    entry)``: ``os.rmdir`` for each directory that ``os.mkdir`` made for
    ``hist_dir``, one at a time from the top; ``os.unlink`` for each temp
    file; and after a rename ``os.unlink`` for the target instead, or
    nothing when the target existed before. On any exception every undo
    runs, newest first, each with its own ``OSError`` suppressed, and then
    the first exception is raised again. A directory that still holds an
    entry stays, as do its parents; a target that existed before stays
    replaced.
    """
    existing = set()
    for path, _ in outputs:
        try:
            mode = os.lstat(path).st_mode
        except (FileNotFoundError, NotADirectoryError):  # a missing entry is staged
            continue
        if stat.S_ISDIR(mode) or (stat.S_ISLNK(mode) and path.is_dir()):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        existing.add(path)
    journal: list[tuple[Callable[[Path], None], Path]] = []
    try:
        if hist_dir is not None:
            for directory in reversed((hist_dir, *hist_dir.parents)):
                if not directory.is_dir():  # an entry in the way fails mkdir, which names it
                    os.mkdir(directory)
                    journal.append((os.rmdir, directory))
        for path, chunks in outputs:
            tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
            with open(tmp, "xb") as fh:
                journal.append((os.unlink, tmp))
                fh.writelines(chunks)
        first = len(journal) - len(outputs)  # the temp files' entries start here, in output order
        for path, _ in outputs:  # each renames the first temp file left
            os.replace(journal[first][1], path)
            del journal[first]
            if path not in existing:
                journal.append((os.unlink, path))
    except BaseException:
        # Generator payloads run in the loop above, so any exception can land here.
        for undo, entry in reversed(journal):
            with contextlib.suppress(OSError):
                undo(entry)
        raise
