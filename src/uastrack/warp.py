"""Rotational image warping and the rotated template bank.

Patches are resampled by inverse-mapping each output pixel through a pure
rotation about the patch center (y grows downward) and sampling the source
by bilinear interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .imagebuf import GrayImage
from .util import to_gray

DEFAULT_BANK_COUNT = 36

# Positions whose inverse map lands this far past the source border still
# count as inside; absorbs floating-point noise at exact 90-degree multiples.
_EDGE_EPS = 1e-9


@dataclass(frozen=True)
class BankEntry:
    angle_deg: float
    patch: GrayImage


@dataclass(frozen=True)
class TemplateBank:
    """Rotated copies of one patch, ordered by strictly increasing angle."""

    entries: tuple[BankEntry, ...]
    base_width: int
    base_height: int
    # Set by ``matcher.prepare`` or on the bank's first scan; derived data,
    # so not compared or shown.
    kernel: object = field(default=None, init=False, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(e.angle_deg for e in self.entries)


def _bilinear(src: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample float64 ``src`` at real positions; callers guarantee in-bounds."""
    h, w = src.shape
    x0 = np.clip(np.floor(sx).astype(np.intp), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(sy).astype(np.intp), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = src[y0, x0] * (1.0 - fx) + src[y0, x1] * fx
    bot = src[y1, x0] * (1.0 - fx) + src[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def _rotations(src: GrayImage, alphas: list[float]) -> np.ndarray:
    """Copies of ``src`` rotated by each of ``alphas`` radians: a (K, h, w) uint8 stack.

    Every angle runs the same elementwise float64 operations as a single
    one, with its cosine and sine taken from ``math``, so each copy is
    bit-identical to rotating by that angle alone.
    """
    h, w = src.height, src.width
    f = src.as_float()
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    dx, dy = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    rx = dx - cx
    ry = dy - cy
    c = np.array([math.cos(a) for a in alphas])[:, None, None]
    s = np.array([math.sin(a) for a in alphas])[:, None, None]
    # inverse of the forward rotation: R(alpha)^-1 == R(-alpha)
    sx = cx + c * rx - s * ry
    sy = cy + s * rx + c * ry
    inside = (
        (sx >= -_EDGE_EPS)
        & (sx <= w - 1 + _EDGE_EPS)
        & (sy >= -_EDGE_EPS)
        & (sy <= h - 1 + _EDGE_EPS)
    )
    sxc = np.clip(sx, 0.0, float(w - 1))
    syc = np.clip(sy, 0.0, float(h - 1))
    vals = np.where(inside, _bilinear(f, sxc, syc), f.mean())
    return to_gray(vals)


def warp_patch(src: GrayImage, alpha: float) -> GrayImage:
    """Rotate a patch by ``alpha`` radians about its center.

    Output has the source dimensions. Each output pixel is inverse-mapped
    through the rotation and bilinearly sampled; positions falling outside
    the source are filled with the source mean so they stay neutral under
    zero-mean correlation. Samples are rounded to the nearest gray level.
    """
    return GrayImage(_rotations(src, [alpha])[0])


def build_bank(
    patch: GrayImage, count: int = DEFAULT_BANK_COUNT, step_deg: float = 360.0 / DEFAULT_BANK_COUNT
) -> TemplateBank:
    """Generate ``count`` rotated copies at ``step_deg`` spacing covering 360 degrees.

    The step must be ``360.0 / count`` as computed in floats, which
    ``count * step_deg`` does not always give back as 360. Entry k holds
    angle ``k * step_deg``; entry 0 is the unmodified patch. All other
    entries come from one batched rotation, each equal to ``warp_patch`` at
    its angle.
    """
    if not (count >= 1 and step_deg == 360.0 / count):
        raise ConfigError(
            f"bank must cover exactly 360 degrees, got {count} x {step_deg}"
        )
    angles = [k * step_deg for k in range(1, count)]
    stack = _rotations(patch, [math.radians(a) for a in angles])
    entries = [BankEntry(0.0, patch)]
    entries += [BankEntry(a, GrayImage(px)) for a, px in zip(angles, stack)]
    return TemplateBank(tuple(entries), patch.width, patch.height)
