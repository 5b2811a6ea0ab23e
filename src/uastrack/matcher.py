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
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError
from .imagebuf import GrayImage, Rect
from .util import LazyPool
from .warp import TemplateBank

DEFAULT_THRESHOLD = 0.9

# Cap on the elements (entries x padded area) of one chunk of the bank. A
# chunk's complex arrays hold about half as many complex values, 8 bytes per
# counted element, so each takes at most 1.4 MB, within a core's 2 MiB L2
# cache. The cap holds the whole 36-entry bank of a common tracking window
# at 90x54, 7 entries at 180x125 and 2 at 240x320; a larger entry makes a
# chunk of its own. Chosen by measurement (README, "Scan kernel").
_CHUNK_ELEMS = 174_960

# Transform work (entries x padded area) below which a scan whose bank
# spectra are cached runs inline on the calling thread: 36 entries at 90x54
# (174,960) and 90x60 do, and leave the other core to the next frame's noise
# draw; from 96x72 (248,832) on, windows that grew after misses split.
_INLINE_ELEMS = 230_000

# Largest distance from an integer accepted for an FFT correlation value.
_FFT_MAX_RESIDUAL = 0.25

# Budget for the spectra a bank keeps at tracking-window shapes, least
# recently used evicted first. The common 1,551-position window of a 22x36
# template pads to 90x54, whose 36 spectra take 1.5 MB. The whole-frame
# spectra are kept apart and never evicted by window scans.
_WINDOW_SPECTRA_BYTES = 16 << 20


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        return os.cpu_count() or 1


# Scan worker threads: one per CPU this process may run on. With one, the
# bank's chunks run inline on the calling thread.
_WORKERS = _cpu_count()
_pool = LazyPool("uastrack-scan")

# Each thread's chunk arrays, reused from chunk to chunk and scan to scan.
_scratch = threading.local()

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

    weights: np.ndarray  # (K, th, tw) n*t - sum(t): integers with sum 0
    var_t: np.ndarray    # (K,) n*sum(t*t) - sum(t)**2, an integer
    inv_sd_t: np.ndarray # (K,) 1/sqrt(var_t), 0 for a flat template
    angles: np.ndarray


def _bank_constants(bank: TemplateBank) -> _BankConstants:
    consts = bank.kernel_cache.get("constants")
    if consts is None:
        t = np.stack([e.patch.pixels for e in bank.entries]).astype(np.int64)
        n = bank.base_width * bank.base_height
        st = t.sum(axis=(1, 2))
        var_t = (n * (t * t).sum(axis=(1, 2)) - st * st).astype(np.float64)
        with np.errstate(divide="ignore"):
            inv_sd_t = np.where(var_t > 0.0, 1.0 / np.sqrt(var_t), 0.0)
        weights = (n * t - st[:, None, None]).astype(np.float64)
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


def _cached_spectra(bank: TemplateBank, shape: tuple, whole: tuple) -> np.ndarray | None:
    """The bank's conjugate spectra at padded ``shape``, if it keeps them."""
    cache = bank.kernel_cache
    if shape == whole:
        kept = cache.get("frame")
        return kept[1] if kept is not None and kept[0] == shape else None
    windows = cache.get("windows", {})
    spectra = windows.pop(shape, None)
    if spectra is not None:
        windows[shape] = spectra  # most recently used last
    return spectra


def _keep_spectra(bank: TemplateBank, shape: tuple, whole: tuple, spectra: np.ndarray) -> None:
    """Keep whole-frame spectra in their own slot, window spectra within budget."""
    cache = bank.kernel_cache
    if shape == whole:
        cache["frame"] = (shape, spectra)
        return
    windows = cache.setdefault("windows", {})
    windows[shape] = spectra
    while sum(s.nbytes for s in windows.values()) > _WINDOW_SPECTRA_BYTES:
        del windows[next(iter(windows))]


@dataclass(frozen=True)
class _ScanJob:
    """What every chunk of one scan shares; chunks write disjoint entries of
    ``spectra`` when ``fresh`` and read nothing another chunk writes."""

    frame: np.ndarray    # rfft2 of the mean-centred sub-image at ``shape``
    spectra: np.ndarray  # (K, shape[0], shape[1]//2 + 1) conjugate bank spectra
    fresh: bool          # spectra still to be computed, each chunk its own
    shape: tuple
    nv: int
    nu: int
    consts: _BankConstants
    var_f: np.ndarray    # (nv*nu,) n*sum(f*f) - sum(f)**2 per position
    bar: np.ndarray | None  # pooled pre-test bar per position, None to score all


def _scratch_array(name: str, dtype, shape: tuple) -> np.ndarray:
    """This thread's array ``name`` viewed at ``shape``; grown only when too small.

    A chunk's arrays hold at most ``_CHUNK_ELEMS`` elements, or one bank
    entry's padded area if that is more, which bounds these too.
    """
    size = math.prod(shape)
    held = getattr(_scratch, name, None)
    if held is None or held.size < size:
        held = np.empty(size, dtype)
        setattr(_scratch, name, held)
    return held[:size].reshape(shape)


def _bank_spectra(weights: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.fft.rfft2(weights, shape)`` bit for bit, by a cheaper route.

    The padded rows past the template's height are zero and transform to
    zero, so the width transform runs on the template's rows only; the
    height transform then runs along contiguous memory of a transposed copy.
    Each is the same one-dimensional transform of the same values as in
    ``rfft2``. Returns a transposed view.
    """
    rows = np.fft.rfft(weights, shape[1], axis=2)
    cols = np.fft.fft(np.ascontiguousarray(rows.transpose(0, 2, 1)), shape[0], axis=2)
    return cols.transpose(0, 2, 1)


def _score_chunk(job: _ScanJob, k0: int, k1: int):
    """Exact scores of bank entries ``[k0, k1)``: (positions, top score, entry).

    Positions are None when the chunk scored every position of the window.
    The numerator n*sum(f*t) - sum(f)*sum(t) is the correlation of the frame
    with the weights n*t - sum(t), an integer with |num| <= n**2 * 255**2,
    which float64 holds exactly for any template under 370,000 pixels. It is
    computed as a circular FFT correlation at the padded shape, at least the
    sub-image's, so no valid window wraps around, and rounded to integers.
    The weights sum to 0, so centring the frame first changes no sum but
    shrinks the transform's rounding error, which stays orders of magnitude
    below 0.5 for 8-bit samples; a value further than ``_FFT_MAX_RESIDUAL``
    from an integer raises ``ArithmeticError``. The transforms write into
    this thread's scratch arrays; what the chunk returns is its own.
    """
    c = job.consts
    kc, (h, w), nv, nu = k1 - k0, job.shape, job.nv, job.nu
    if job.fresh:
        np.conjugate(_bank_spectra(c.weights[k0:k1], job.shape), out=job.spectra[k0:k1])
    product = _scratch_array("product", np.complex128, (kc, h, w // 2 + 1))
    np.multiply(job.spectra[k0:k1], job.frame, out=product)
    # irfft2, dropping between its two passes the rows no valid position needs
    spectrum = _scratch_array("ifft", np.complex128, product.shape)
    np.fft.ifft(product, axis=1, out=spectrum)
    corr = _scratch_array("irfft", np.float64, (kc, nv, w))
    np.fft.irfft(spectrum[:, :nv], w, axis=2, out=corr)
    corr = corr[:, :, :nu]
    num = np.rint(corr, out=_scratch_array("rint", np.float64, (kc, nv, nu)))
    corr -= num
    residual = max(float(corr.max()), -float(corr.min()))
    if not residual <= _FFT_MAX_RESIDUAL:
        raise ArithmeticError(
            f"FFT correlation lies {residual:g} from an integer "
            f"(limit {_FFT_MAX_RESIDUAL}); its sums would not be exact"
        )
    num = num.reshape(kc, nv * nu)
    at = None
    var_f = job.var_f
    # Above a positive threshold, only positions whose pooled score
    # max_k(num_k / sqrt(var_t_k)) / sqrt(var_f) comes within _POOL_MARGIN of
    # it are scored exactly; the rest cannot reach it.
    if job.bar is not None:
        at = np.flatnonzero((num * c.inv_sd_t[k0:k1, None]).max(axis=0) >= job.bar)
        num = num[:, at]
        var_f = var_f[at]
    # as zmncc: a zero-variance region or template (den == 0) scores 0
    den = np.sqrt(c.var_t[k0:k1, None] * var_f)
    scores = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    np.clip(scores, -1.0, 1.0, out=scores)
    return at, scores.max(axis=0), scores.argmax(axis=0) + k0


def _executor():
    """The scan worker pool, started on first use: importing starts no thread."""
    return _pool.get(_WORKERS)


def _run_chunks(job: _ScanJob, bounds: list[tuple[int, int]], split: bool) -> list:
    """``_score_chunk`` of every bank range, results in range order.

    The chunks run on the worker pool when ``split``, else on this thread.
    """
    if not split or _WORKERS == 1 or len(bounds) == 1:
        return [_score_chunk(job, k0, k1) for k0, k1 in bounds]
    from concurrent.futures import wait

    futures = [_executor().submit(_score_chunk, job, k0, k1) for k0, k1 in bounds]
    wait(futures)
    return [f.result() for f in futures]


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
    from an exact FFT correlation. The bank is split into chunks of entries
    within ``_CHUNK_ELEMS``. A scan whose spectra are cached and whose work
    is under ``_INLINE_ELEMS`` scores its chunks on the calling thread; any
    other scan, including every whole-frame scan, on the worker threads. The
    chunks' results are merged in entry order, so neither choice changes the
    result.
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
    bar = None
    if threshold - _POOL_MARGIN > 0.0:
        bar = np.where(var_f > 0.0, (threshold - _POOL_MARGIN) * np.sqrt(var_f), np.inf)

    whole = (_smooth5(img.height), _smooth5(img.width))
    shape = (_smooth5(sub.shape[0]), _smooth5(sub.shape[1]))
    spectra = _cached_spectra(bank, shape, whole)
    fresh = spectra is None
    if fresh:
        spectra = np.empty((len(bank), shape[0], shape[1] // 2 + 1), dtype=np.complex128)
    frame = np.fft.rfft2(sub - sub.mean(), shape)
    job = _ScanJob(frame, spectra, fresh, shape, nv, nu, consts, var_f, bar)
    k = len(bank)
    area = shape[0] * shape[1]
    per_chunk = max(1, _CHUNK_ELEMS // area)
    count = min(k, max(_WORKERS, -(-k // per_chunk)))
    bounds = [(k * i // count, k * (i + 1) // count) for i in range(count)]
    split = fresh or shape == whole or k * area >= _INLINE_ELEMS
    results = _run_chunks(job, bounds, split)
    if fresh:
        _keep_spectra(bank, shape, whole, spectra)

    best = np.full(nv * nu, -np.inf)
    best_idx = np.zeros(nv * nu, dtype=np.intp)
    for at, top, idx in results:
        # earlier chunks hold lower angles and win ties
        better = top > (best if at is None else best[at])
        where = better if at is None else at[better]
        best[where] = top[better]
        best_idx[where] = idx[better]

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
