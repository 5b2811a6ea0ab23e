"""Zero-mean normalized cross-correlation, windowed scanning, match centroids.

Scores follow the classic ZMNCC form: the zero-mean product sum over the
region under the template, divided by the product of the root sums of
squared deviations of region and template. Scores live in [-1, 1]; a region
or template with zero variance scores 0 (no information, never a match).

All positions are template-center coordinates. A template of width ``tw``
centered at integer ``u`` covers columns ``[u - (tw-1)//2, u - (tw-1)//2 + tw)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundsError
from .imagebuf import GrayImage, Rect
from .warp import TemplateBank

DEFAULT_THRESHOLD = 0.9

# Cap on the elements of each array a scan chunk materializes (~16 MB of
# float64); a chunk holds a few such arrays at once.
_CHUNK_ELEMS = 2_000_000

# Windows of at least this many center positions take the FFT numerator.
# Both numerator routes give the same exact integers, so this sets speed only.
_FFT_MIN_POSITIONS = 2_500

# Largest distance from an integer accepted for an FFT correlation value.
_FFT_MAX_RESIDUAL = 0.25

# Candidate margin of the pooled pre-test in ``scan``. The pooled score
# num * (1/sqrt(var_t)), its bar (threshold - margin) * sqrt(var_f) and
# ``zmncc``'s own score each take three roundings of relative size
# u = 2**-53, so any position whose ``zmncc`` score is >= threshold passes
# the test once the margin exceeds 9u (1e-15). 1e-12 is far above that.
_POOL_MARGIN = 1e-12


@dataclass(frozen=True)
class MatchPoint:
    """One above-threshold template-center position."""

    u: int
    v: int
    score: float
    angle_deg: float


@dataclass(frozen=True)
class Detection:
    """Centroid of all match points plus the single best-scoring one."""

    x: float
    y: float
    best_score: float
    best_angle_deg: float
    support: int


def template_origin(center: int, size: int) -> int:
    """Left/top pixel of a ``size``-wide template centered at ``center``."""
    return center - (size - 1) // 2


def center_bounds(tpl_size: int, frame_size: int) -> tuple[int, int]:
    """Inclusive range of center positions keeping the template in frame."""
    lo = (tpl_size - 1) // 2
    hi = frame_size - tpl_size + lo
    return lo, hi


def valid_center_rect(tpl_w: int, tpl_h: int, frame_w: int, frame_h: int) -> Rect:
    """All center positions at which a tpl_w x tpl_h template fits the frame."""
    xlo, xhi = center_bounds(tpl_w, frame_w)
    ylo, yhi = center_bounds(tpl_h, frame_h)
    if xhi < xlo or yhi < ylo:
        raise BoundsError(
            f"template {tpl_w}x{tpl_h} larger than frame {frame_w}x{frame_h}"
        )
    return Rect(xlo, ylo, xhi - xlo + 1, yhi - ylo + 1)


def zmncc(img: GrayImage, tpl: GrayImage, u: int, v: int) -> float:
    """Correlation score of ``tpl`` centered at ``(u, v)`` in ``img``.

    Sums are accumulated as exact integers, so constant regions are detected
    exactly and the score is reproducible to the last bit.
    """
    th, tw = tpl.pixels.shape
    x0 = template_origin(u, tw)
    y0 = template_origin(v, th)
    if x0 < 0 or y0 < 0 or x0 + tw > img.width or y0 + th > img.height:
        raise BoundsError(
            f"template {tw}x{th} at center ({u}, {v}) outside image "
            f"{img.width}x{img.height}"
        )
    f = img.pixels[y0 : y0 + th, x0 : x0 + tw].astype(np.int64)
    t = tpl.pixels.astype(np.int64)
    n = tw * th
    sf = int(f.sum())
    st = int(t.sum())
    var_f = n * int((f * f).sum()) - sf * sf
    var_t = n * int((t * t).sum()) - st * st
    if var_f == 0 or var_t == 0:
        return 0.0
    num = n * int((f * t).sum()) - sf * st
    c = num / math.sqrt(float(var_f) * float(var_t))
    return min(1.0, max(-1.0, c))


def score_arrays(region: np.ndarray, template: np.ndarray) -> float:
    """ZMNCC of two equal-shaped float arrays, without 8-bit quantization."""
    f = np.asarray(region, dtype=np.float64)
    t = np.asarray(template, dtype=np.float64)
    if f.shape != t.shape:
        raise ValueError(f"shape mismatch {f.shape} vs {t.shape}")
    df = f - f.mean()
    dt = t - t.mean()
    den = math.sqrt(float((df * df).sum()) * float((dt * dt).sum()))
    if den == 0.0:
        return 0.0
    c = float((df * dt).sum()) / den
    return min(1.0, max(-1.0, c))


def _clamp_window(window: Rect, tpl_w: int, tpl_h: int, frame_w: int, frame_h: int):
    xlo, xhi = center_bounds(tpl_w, frame_w)
    ylo, yhi = center_bounds(tpl_h, frame_h)
    u0 = max(window.x, xlo)
    u1 = min(window.x + window.w - 1, xhi)
    v0 = max(window.y, ylo)
    v1 = min(window.y + window.h - 1, yhi)
    return u0, u1, v0, v1


@dataclass(frozen=True)
class _BankConstants:
    """Template-side terms of the score, cached on the bank by ``_bank_constants``."""

    weights: np.ndarray  # (K, n) n*t - sum(t): integers with sum 0
    var_t: np.ndarray    # (K,) n*sum(t*t) - sum(t)**2, an integer
    inv_sd_t: np.ndarray # (K,) 1/sqrt(var_t), 0 for a flat template
    angles: np.ndarray


def _bank_constants(bank: TemplateBank) -> _BankConstants:
    consts = bank.kernel_cache.get("constants")
    if consts is None:
        t = np.stack([e.patch.pixels for e in bank.entries]).astype(np.int64)
        t = t.reshape(len(bank), -1)
        n = t.shape[1]
        st = t.sum(axis=1)
        var_t = (n * (t * t).sum(axis=1) - st * st).astype(np.float64)
        with np.errstate(divide="ignore"):
            inv_sd_t = np.where(var_t > 0.0, 1.0 / np.sqrt(var_t), 0.0)
        weights = (n * t - st[:, None]).astype(np.float64)
        consts = _BankConstants(weights, var_t, inv_sd_t, np.array(bank.angles))
        bank.kernel_cache["constants"] = consts
    return consts


def _window_sums(sub: np.ndarray, tw: int, th: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum(f) and sum(f*f) of every tw x th window, from summed-area tables."""
    f = sub.astype(np.int64)

    def box(a: np.ndarray) -> np.ndarray:
        sat = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.int64)
        sat[1:, 1:] = a.cumsum(axis=0).cumsum(axis=1)
        return sat[th:, tw:] - sat[:-th, tw:] - sat[th:, :-tw] + sat[:-th, :-tw]

    return box(f), box(f * f)


def _chunks(total: int, per_chunk: int) -> list[tuple[int, int]]:
    """``[start, stop)`` ranges of at most ``per_chunk`` (at least 1) covering ``total``."""
    step = max(1, per_chunk)
    return [(i, min(i + step, total)) for i in range(0, total, step)]


def _smooth5(size: int) -> int:
    """Smallest 2**a * 3**b * 5**c at or above ``size``: a fast FFT length."""
    while True:
        rest = size
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


# The numerator routes below yield (position slice, bank slice, num[k, m]):
# the exact integer n*sum(f*t) - sum(f)*sum(t) of k bank entries at m window
# positions (row-major), as the correlation of f with the weights n*t - sum(t).
# |num| <= n**2 * 255**2, which float64 holds exactly for any template under
# 370,000 pixels.


def _numerator_matmul(sub: np.ndarray, bank: TemplateBank, consts: _BankConstants):
    """Materialized windows times the weights, in row chunks.

    Every product and partial sum is an integer no larger than that bound, so
    the float64 matmul is exact in any summation order.
    """
    th, tw = bank.base_height, bank.base_width
    windows = sliding_window_view(sub.astype(np.float64), (th, tw))
    nv, nu = windows.shape[:2]
    for r0, r1 in _chunks(nv, _CHUNK_ELEMS // (nu * tw * th)):
        block = windows[r0:r1].reshape((r1 - r0) * nu, tw * th)
        yield slice(r0 * nu, r1 * nu), slice(0, len(bank)), consts.weights @ block.T


def _numerator_fft(sub: np.ndarray, bank: TemplateBank, consts: _BankConstants, keep: bool):
    """Circular FFT cross-correlation at a padded shape, rounded to integers.

    The padded shape is at least ``sub``'s, so no valid window wraps around.
    The weights sum to 0, so subtracting the mean of ``sub`` first changes no
    sum but shrinks the transform's rounding error, which stays orders of
    magnitude below 0.5 for 8-bit samples; a value further than
    ``_FFT_MAX_RESIDUAL`` from an integer raises ``ArithmeticError``.

    The bank is transformed in chunks of about ``_CHUNK_ELEMS`` samples. Its
    spectra at the padded shape are cached on the bank when ``keep`` is set,
    replacing any other shape's.
    """
    th, tw = bank.base_height, bank.base_width
    nv, nu = sub.shape[0] - th + 1, sub.shape[1] - tw + 1
    shape = (_smooth5(sub.shape[0]), _smooth5(sub.shape[1]))
    chunks = _chunks(len(bank), _CHUNK_ELEMS // (shape[0] * shape[1]))
    cached = bank.kernel_cache.get("spectra")
    if cached is None or cached[0] != shape:
        weights = consts.weights.reshape(len(bank), th, tw)
        spectra = np.empty((len(bank), shape[0], shape[1] // 2 + 1), dtype=np.complex128)
        for k0, k1 in chunks:
            spectra[k0:k1] = np.fft.rfft2(weights[k0:k1], shape)
        cached = (shape, np.conjugate(spectra, out=spectra))
        if keep:
            bank.kernel_cache["spectra"] = cached
    spectra = cached[1]
    frame = np.fft.rfft2(sub - sub.mean(), shape)
    for k0, k1 in chunks:
        corr = np.fft.irfft2(spectra[k0:k1] * frame, shape)[:, :nv, :nu]
        num = np.rint(corr)
        corr -= num
        residual = max(float(corr.max()), -float(corr.min()))
        if not residual <= _FFT_MAX_RESIDUAL:
            raise ArithmeticError(
                f"FFT correlation lies {residual:g} from an integer "
                f"(limit {_FFT_MAX_RESIDUAL}); its sums would not be exact"
            )
        yield slice(0, nv * nu), slice(k0, k1), num.reshape(k1 - k0, nv * nu)


def scan(
    img: GrayImage,
    bank: TemplateBank,
    window: Rect,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[MatchPoint]:
    """Score every center position in ``window`` against the whole bank.

    The score at a position is the maximum over bank entries of ``zmncc``,
    equal to it bit for bit. A position becomes a match point when its score
    is at or above ``threshold`` (``score >= threshold``, with no tolerance:
    a threshold equal to a score includes it, the next float above excludes
    it), tagged with the maximizing entry's angle (ties resolved to the
    lowest angle). Results are in row-major position order. The window is
    clamped so the template always fits; an empty effective window yields an
    empty list.

    Window sums come from summed-area tables and the correlation numerator
    from a matmul (small windows) or an FFT (large ones); both give the same
    exact integers, so the route never changes the result.
    """
    tw, th = bank.base_width, bank.base_height
    u0, u1, v0, v1 = _clamp_window(window, tw, th, img.width, img.height)
    if u0 > u1 or v0 > v1:
        return []
    nu = u1 - u0 + 1
    nv = v1 - v0 + 1
    n = tw * th
    ox = template_origin(u0, tw)
    oy = template_origin(v0, th)
    sub = img.pixels[oy : oy + nv + th - 1, ox : ox + nu + tw - 1]
    consts = _bank_constants(bank)
    sf, sff = _window_sums(sub, tw, th)
    var_f = (n * sff - sf * sf).astype(np.float64).ravel()

    # Above a positive threshold, only positions whose pooled score
    # max_k(num_k / sqrt(var_t_k)) / sqrt(var_f) comes within _POOL_MARGIN of
    # it are scored exactly; the rest cannot reach it. Otherwise every
    # position is scored exactly.
    pooled = threshold - _POOL_MARGIN > 0.0
    if pooled:
        bar = np.where(var_f > 0.0, (threshold - _POOL_MARGIN) * np.sqrt(var_f), np.inf)

    best = np.full(nv * nu, -np.inf)
    best_idx = np.zeros(nv * nu, dtype=np.intp)
    if nv * nu >= _FFT_MIN_POSITIONS:
        # Whole-frame scans (acquisition, re-detection) repeat one padded
        # shape, so only theirs is cached; tracking windows change size.
        numerators = _numerator_fft(sub, bank, consts, keep=sub.shape == img.pixels.shape)
    else:
        numerators = _numerator_matmul(sub, bank, consts)
    for pos, ks, num in numerators:
        at = np.arange(pos.start, pos.stop)
        if pooled:
            cand = np.flatnonzero((num * consts.inv_sd_t[ks, None]).max(axis=0) >= bar[pos])
            num, at = num[:, cand], at[cand]
        # as zmncc: a zero-variance region or template (den == 0) scores 0
        den = np.sqrt(consts.var_t[ks, None] * var_f[at])
        scores = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        np.clip(scores, -1.0, 1.0, out=scores)
        top = scores.max(axis=0)
        better = top > best[at]  # earlier chunks hold lower angles and win ties
        best[at[better]] = top[better]
        best_idx[at[better]] = scores.argmax(axis=0)[better] + ks.start

    hits = np.flatnonzero(best >= threshold)
    return [
        MatchPoint(u, v, s, a)
        for u, v, s, a in zip(
            (u0 + hits % nu).tolist(),
            (v0 + hits // nu).tolist(),
            best[hits].tolist(),
            consts.angles[best_idx[hits]].tolist(),
        )
    ]


def detect(points: list[MatchPoint], threshold: float = DEFAULT_THRESHOLD) -> Detection | None:
    """Centroid of all match points; best score/angle from the top point.

    Returns None on an empty list. Ties on score keep the earliest point in
    scan order, so output is deterministic.
    """
    if not points:
        return None
    best = max(points, key=lambda p: p.score)
    return Detection(
        x=sum(p.u for p in points) / len(points),
        y=sum(p.v for p in points) / len(points),
        best_score=best.score,
        best_angle_deg=best.angle_deg,
        support=len(points),
    )
