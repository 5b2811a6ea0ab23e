"""Grayscale image container, binary PGM (P5) I/O and cropping.

Pixel model: 8-bit luminance, row-major, index ``y * width + x``. Images are
immutable after construction so they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BoundsError, PgmError

_HEADER_WHITESPACE = b" \t\n\r\x0b\x0c"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned pixel rectangle: top-left corner plus strictly positive size.

    ``x``/``y`` may be negative for intermediate geometry (e.g. an unclipped
    search window); a use site keeps it inside its bounds with ``contains``
    or ``clip``.
    """

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"rect size must be positive, got {self.w}x{self.h}")

    @property
    def x2(self) -> int:
        """One past the right edge."""
        return self.x + self.w

    @property
    def y2(self) -> int:
        """One past the bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    def contains(self, other: "Rect") -> bool:
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def clip(self, bounds: "Rect") -> Optional["Rect"]:
        """The part of this rect inside ``bounds``; None when they share no pixel."""
        x, y = max(self.x, bounds.x), max(self.y, bounds.y)
        x2, y2 = min(self.x2, bounds.x2), min(self.y2, bounds.y2)
        if x >= x2 or y >= y2:
            return None
        return Rect(x, y, x2 - x, y2 - y)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Owned 2-D grid of 8-bit luminance samples.

    ``pixels`` is a read-only ``uint8`` array of shape ``(height, width)``;
    ``pixels[y, x]`` is the sample at column x, row y.
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise ValueError(f"image must be 2-D, got shape {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image dimensions must be positive")
        if px.dtype != np.uint8:
            if not np.issubdtype(px.dtype, np.integer):
                raise ValueError(f"samples must be integers, got dtype {px.dtype}")
            if px.min() < 0 or px.max() > 255:
                raise ValueError("sample values must lie in [0, 255]")
        arr = np.ascontiguousarray(px, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def rect(self) -> Rect:
        return Rect(0, 0, self.width, self.height)

    def tobytes(self) -> bytes:
        """Raw row-major samples."""
        return self.pixels.tobytes()

    def as_float(self) -> np.ndarray:
        """Writable float64 copy of the samples."""
        return self.pixels.astype(np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self) -> int:
        return hash((self.pixels.shape, self.pixels.tobytes()))

    @classmethod
    def full(cls, width: int, height: int, value: int) -> "GrayImage":
        return cls(np.full((height, width), value, dtype=np.uint8))


def _next_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping ``#`` comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c in _HEADER_WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos : pos + 1] not in _HEADER_WHITESPACE and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PgmError("truncated header")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_header_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"malformed {what}: {token!r}")
    return int(token), pos


def load_pgm(data: bytes) -> GrayImage:
    """Parse a binary PGM (P5) byte stream, maxval 255.

    ``#`` comments are accepted anywhere whitespace is legal in the header.
    Exactly one whitespace byte separates the maxval from the raster.
    """
    if not data.startswith(b"P5"):
        raise PgmError(f"bad magic: {data[:2]!r} (expected P5)")
    pos = 2
    nxt = data[pos : pos + 1]
    if nxt == b"" or (nxt not in _HEADER_WHITESPACE and nxt != b"#"):
        raise PgmError("bad magic: P5 not followed by whitespace")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width == 0 or height == 0:
        raise PgmError(f"zero image dimension: {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos : pos + 1] not in _HEADER_WHITESPACE:
        raise PgmError("missing raster separator after maxval")
    pos += 1
    need = width * height
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise PgmError(f"truncated pixel payload: got {len(raster)} of {need} bytes")
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))


def save_pgm(img: GrayImage) -> bytes:
    """Serialize to the canonical P5 form: ``P5\\n<w> <h>\\n255\\n`` + raw samples.

    Bit-exact across platforms; ``load_pgm(save_pgm(img)) == img``.
    """
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.tobytes()


def crop(img: GrayImage, r: Rect) -> GrayImage:
    """Extract the sub-image under ``r``; output (i, j) == input (r.x+i, r.y+j)."""
    if not img.rect.contains(r):
        raise BoundsError(f"rect {r} outside image {img.width}x{img.height}")
    return GrayImage(img.pixels[r.y : r.y2, r.x : r.x2].copy())
