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
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BoundsError
from .imagebuf import GrayImage, Rect
from .util import LazyPool
from .warp import TemplateBank

DEFAULT_THRESHOLD = 0.9

# Cap on the elements of one piece of a band's work: a chunk of its
# correlations, counted as basis images x padded area (3 images of a 320x240
# frame's 144x320 band; chosen by measurement, README "Scan kernel"), and a
# chunk of kept positions, counted as bank entries x positions (4,860 of a
# 36-entry bank, more than a band keeps at 0.9, bounding the pairs it holds).
_CHUNK_ELEMS = 174_960


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        return os.cpu_count() or 1


# Scan worker threads: one per CPU this process may run on, and a whole
# frame's parts. With one, every scan is one part on the calling thread.
_WORKERS = _cpu_count()
_pool = LazyPool("uastrack-scan")

# Part of every candidate margin for the roundings of the bounds' own few
# operations: a projected score, its bar (threshold - margin) * ||f_c|| and
# ``zmncc``'s own score each take a few roundings of relative size
# u = 2**-53, under 1e-15 together. 1e-12 is far above that.
_ROUND_MARGIN = 1e-12

# Images in the basis that scans correlate in place of the bank's entries
# (``_kernel``): a third of a 36-entry bank's transforms. At 12
# the largest relative residual of a builtin target's bank is 0.07-0.30.
_BASIS_RANK = 12

# Bound on an FFT correlation value's absolute error, per unit of
# log2(area) * ||x|| * ||b||_1 (argued at ``_basis_margin``).
_FFT_ERROR = 32 * 2.0**-53

# Added to each squared relative residual of the basis (``_kernel``).
_RESID_ALLOWANCE = 1e-12


@dataclass(frozen=True)
class MatchPoint:
    """One above-threshold template-center position."""

    u: int
    v: int
    score: float
    angle_deg: float


@dataclass(frozen=True)
class Detection:
    """Centroid of the best match point's cluster plus the best point itself."""

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
    if not img.rect.contains(Rect(x0, y0, tw, th)):
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


def _window_sums(sub: np.ndarray, tw: int, th: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact sum(f) and sum(f*f) of every tw x th window, from running sums.

    Separable: a running sum down the columns, differenced ``th`` rows
    apart, gives each column's sums over ``th`` rows; the same across them
    over ``tw`` columns gives the windows'. The int32 running sums may wrap
    around, but a window's sum, the difference of two, is exact while n *
    255**2 < 2**31; a larger template takes int64.
    """
    dtype = np.int32 if tw * th * 255 * 255 < 2**31 else np.int64
    f = sub.astype(dtype)

    def box(a: np.ndarray) -> np.ndarray:
        run = a.cumsum(axis=0, dtype=dtype)
        rows = np.empty((run.shape[0] - th + 1, run.shape[1]), dtype)
        rows[0] = run[th - 1]
        np.subtract(run[th:], run[:-th], out=rows[1:])
        run = rows.cumsum(axis=1, dtype=dtype)
        out = np.empty((run.shape[0], run.shape[1] - tw + 1), dtype)
        out[:, 0] = run[:, tw - 1]
        np.subtract(run[:, tw:], run[:, :-tw], out=out[:, 1:])
        return out.astype(np.int64, copy=False)  # widened once the differences are taken

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


@dataclass(eq=False)
class _Kernel:
    """What every scan of one bank shares, built by ``prepare`` or on its
    first scan (``_kernel``): the template-side terms of the score, the
    low-rank basis, and in ``frame`` the basis spectra at the band shape of
    the last frame size scanned, which every part of a scan reads (``_band``)."""

    weights: np.ndarray   # (K, th, tw) w_k = n*t - sum(t): integers with sum 0
    var_t: np.ndarray     # (K,) n*sum(t*t) - sum(t)**2 = ||w_k||**2 / n, an integer
    angles: np.ndarray
    images: np.ndarray    # (r, th, tw) orthonormal, each summing to 0
    coef: np.ndarray      # (K, r) entry k's coordinates a_k over the images, / ||w_k||
    resid: np.ndarray     # (K,) ||w_k - a_k B|| / ||w_k||; 0 for a flat template
    mode: np.ndarray      # (r,) each image's angle mode; a mode's images are consecutive
    starts: np.ndarray    # (G,) the first image of each mode g
    amp: np.ndarray       # (G,) max over entries of ||a_k,g|| / ||w_k||, a_k's part in mode g
    frame: tuple | None = None  # (band shape, spectra), written by ``_spectra`` only


def _kernel(bank: TemplateBank) -> _Kernel:
    """The bank's kernel, built by ``prepare`` or its first scan, kept on the bank.

    The basis is the weights' top angle-Fourier modes, orthonormalised. A
    rotated bank's weights vary smoothly with the angle, so their
    Karhunen-Loeve basis is close to the Fourier series over the angle
    (Uenohara & Kanade 1997): the rfft along the angle axis, whose modes,
    taken in order of energy, each give a real and an imaginary image. Up
    to ``_BASIS_RANK`` of these are made orthonormal by Gram-Schmidt, with
    a second pass wherever the first removed more than half the norm
    (Daniel, Gragg, Kaufman & Stewart 1976); an image with almost nothing
    left is skipped. Each pass centres the image, so it sums to 0 as the
    weights do (a mode of rounding noise alone need not), and each keeps
    its mode, for the per-mode position test. A residual comes from ||w_k||**2
    - ||a_k||**2 plus an allowance, so it bounds the exact ||w_k - a_k B||
    from above. Element-wise products and sums only: no BLAS call.
    """
    if bank.kernel is not None:
        return bank.kernel
    t = np.stack([e.patch.pixels for e in bank.entries]).astype(np.int64)
    n = bank.base_width * bank.base_height
    st = t.sum(axis=(1, 2))
    var_t = (n * (t * t).sum(axis=(1, 2)) - st * st).astype(np.float64)
    with np.errstate(divide="ignore"):
        inv_norm = np.where(var_t > 0.0, 1.0 / np.sqrt(var_t), 0.0) / math.sqrt(n)
    weights = (n * t - st[:, None, None]).astype(np.float64)
    w = weights.reshape(len(bank), -1)
    modes = np.fft.rfft(w, axis=0)
    order = np.argsort(-(modes.real**2 + modes.imag**2).sum(axis=1), kind="stable")
    images = np.empty((_BASIS_RANK, w.shape[1]))
    mode = np.empty(_BASIS_RANK, np.intp)
    r = 0
    for j, part in ((j, p) for j in order for p in (modes[j].real, modes[j].imag)):
        if r == _BASIS_RANK:
            break
        v = np.array(part)
        norm = left = math.sqrt(float((v * v).sum()))
        for _ in range(2):  # a second pass only if the first removed much (DGKS)
            v -= ((images[:r] * v).sum(axis=1)[:, None] * images[:r]).sum(axis=0)
            v -= v.mean()
            before, left = left, math.sqrt(float((v * v).sum()))
            if left > 0.5 * before:
                break
        if left > 1e-6 * norm:
            images[r] = v / left
            mode[r] = j
            r += 1
    coef = np.empty((len(w), r))
    for j in range(r):
        coef[:, j] = (w * images[j]).sum(axis=1)
    coef *= inv_norm[:, None]
    # ||e_k||**2 = ||w_k||**2 - ||a_k||**2 for orthonormal images; the
    # allowance covers their rounding and that of the sums, both under 1e-13.
    resid = np.sqrt(np.maximum(1.0 - (coef * coef).sum(axis=1), 0.0) + _RESID_ALLOWANCE)
    starts = np.flatnonzero(np.diff(mode[:r], prepend=-1))
    kernel = _Kernel(
        weights,
        var_t,
        np.array(bank.angles),
        images[:r].reshape(r, bank.base_height, bank.base_width),
        coef,
        np.where(inv_norm > 0.0, resid, 0.0),
        mode[:r],
        starts,
        np.sqrt(np.add.reduceat(coef * coef, starts, axis=1)).max(axis=0),
    )
    object.__setattr__(bank, "kernel", kernel)  # a frozen bank's one derived slot
    return kernel


def _fft_error(x: np.ndarray, area: int, n: int) -> float:
    """eta: the bound on an FFT correlation's error per unit of the kernel's norm.

    A correlation with a kernel b is computed by three transforms and a
    product: the kernel's at the band shape, which a part reads sampled
    (``_band``), and the sub-image's and the inverse at its padded shape,
    which has no more points. So ``area`` is the band's, the most points
    of the three. Each transform stage adds at most about 7u (u = 2**-53)
    of the norm (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, sec. 24.1), and the kernel's spectrum is at most ||b||_1 <=
    sqrt(n) ||b|| in size, so the correlation is within eta * ||b|| of its
    exact value, eta = 32u * log2(area) * ||x|| * sqrt(n), where x is the
    centred sub-image. The largest error measured, on 0/255 noise at
    320x240, is 3.3e-13 for a unit kernel, under 1e-4 of eta there.

    A flat window is never scored. Any other has var_f >= n - 1, an
    integer, so ||f_c||**2 = var_f / n >= 1/2: a projected score, the
    correlation over ||b||, is within eta of its exact value, and within
    sqrt(2) * eta once both are divided by ||f_c|| into units of score.
    """
    return _FFT_ERROR * math.log2(area) * math.sqrt(float((x * x).sum()) * n)


def _basis_margin(eta: float, r: int) -> float:
    """Margin of the low-rank bounds for FFT rounding, in units of score.

    With r basis images of error at most ``eta`` each (``_fft_error``), a
    projected score and rho move by at most sqrt(2r) eta, the per-mode sum
    of its G <= r groups by at most sqrt(G) sqrt(2r) eta <= sqrt(2) r eta,
    and sqrt(1 - rho**2) by at most the root of 2 sqrt(2r) eta + 2 r eta**2
    (README, "Low-rank route"). ``_ROUND_MARGIN`` covers the rounding of
    the bounds' own few operations.
    """
    spread = math.sqrt(2 * r) * eta
    return math.sqrt(2.0) * r * eta + math.sqrt(2.0 * spread + 2 * r * eta * eta) + _ROUND_MARGIN


def _parts(n: int, k: int) -> list[tuple[int, int]]:
    """``range(n)`` in ``min(k, n)`` runs ``[lo, hi)``, sizes differing by at most one."""
    k = min(k, n)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _band_shape(size: tuple, th: int) -> tuple:
    """The band shape of a frame of ``size``: the padded shape of the
    sub-image of a worker's share of its rows of positions, ``ceil((H - th
    + 1) / _WORKERS)`` rows, the most any part of a scan has (``scan``)."""
    rows = -(-(size[0] - th + 1) // _WORKERS)
    return _smooth5(rows + th - 1), _smooth5(size[1])


def _fill_spectra(images: np.ndarray, shape: tuple) -> np.ndarray:
    """``np.conj(np.fft.rfft2(images, shape))`` bit for bit, on the calling thread.

    The padded rows past the template's height are zero and transform to
    zero, so the width transform runs on the template's rows only, into a
    buffer zero-padded to the height; the height transform and the
    conjugate then run in place. Each is the same one-dimensional transform
    of the same values as in ``rfft2``.
    """
    spectra = np.zeros((len(images), shape[0], shape[1] // 2 + 1), np.complex128)
    spectra[:, : images.shape[1]] = np.fft.rfft(images, shape[1], axis=2)
    np.fft.fft(spectra, axis=1, out=spectra)
    return np.conjugate(spectra, out=spectra)


def _spectra(kernel: _Kernel, band: tuple) -> np.ndarray:
    """The basis spectra at band shape ``band``: ``kernel.frame``'s when
    they are kept at that shape, else filled by ``_fill_spectra`` and kept
    at once, before any correlation reads them. The store's one writer."""
    if kernel.frame is None or kernel.frame[0] != band:
        kernel.frame = (band, _fill_spectra(kernel.images, band))
    return kernel.frame[1]


def _correlation(frame: np.ndarray, spectra: np.ndarray, shape: tuple, nv: int, nu: int) -> np.ndarray:
    """The frame spectrum correlated with each of ``spectra`` at every valid position.

    A circular FFT correlation at the padded shape, at least the
    sub-image's, so no valid window wraps around. The result, (len(spectra),
    nv, nu), is a view of the inverse transform.

    The first inverse pass runs in place on the product, so a call frees
    one transient array of that size, not two. Two such frees can cross
    glibc malloc's trim threshold at a window's size, returning the pages
    to the system to be faulted back in on the next scan.
    """
    # irfft2, dropping between its two passes the rows no valid position needs
    spectrum = spectra * frame
    np.fft.ifft(spectrum, axis=1, out=spectrum)
    return np.fft.irfft(spectrum[:, :nv], shape[1], axis=2)[:, :, :nu]


def _on_workers(task, parts: list) -> list:
    """``task(*part)`` for every part, results in order: one part on this
    thread, more on the workers, whose pool the first such call starts."""
    if len(parts) == 1:
        return [task(*parts[0])]
    from concurrent.futures import wait

    futures = [_pool.get(_WORKERS).submit(task, *part) for part in parts]
    wait(futures)
    return [f.result() for f in futures]


def _kept_positions(c, kernel, bar, norm_f):
    """Positions where the low-rank position test reaches ``bar``: (positions,
    ||(I - P) f_c|| there).

    Entry k's weights are w_k = a_k B + e_k, with e_k orthogonal to the
    basis images B, and f_c is a window minus its mean. The images sum to
    0, so the correlations ``c`` (r, positions) are B f_c, and rho =
    ||P f_c|| / ||f_c||. By Cauchy-Schwarz, entry k's score times ||f_c||
    lies within its slack eps_k ||(I - P) f_c|| of its projected score
    a_k c / ||w_k||. A position is kept if both rho and the per-mode sum
    sum_g max_k ||a_k,g|| ||c_g|| / (||w_k|| ||f_c||), plus max(eps)
    sqrt(1 - rho**2), reach the bar.
    """
    inside, modal = np.zeros(c.shape[1]), np.zeros(c.shape[1])  # r may be 0: flat templates
    # a mode at a time, so that a band holds no (r, positions) temporary
    for g0, g1, amp in zip(kernel.starts, [*kernel.starts[1:], len(c)], kernel.amp):
        part = (c[g0:g1] ** 2).sum(axis=0)  # ||c_g||**2
        inside += part
        modal += amp * np.sqrt(part)
    outside = np.sqrt(np.maximum(norm_f * norm_f - inside, 0.0))  # ||(I - P) f_c||
    reach = kernel.resid.max() * outside
    at = np.flatnonzero((np.sqrt(inside) + reach >= bar) & (modal + reach >= bar))
    return at, outside[at]


def _candidate_pairs(c, kernel, bar, outside):
    """Pairs of kept positions and entries whose own bound reaches ``bar``:
    (indices into those positions, entries, projected scores, slacks).

    An entry's bound, its projected score plus its slack (``_kept_positions``),
    is screened first by a looser one: the three leading coordinates exact
    and the rest by Cauchy-Schwarz.
    """
    coef, resid = kernel.coef, kernel.resid
    head = resid[:, None] * outside
    for j in range(min(3, len(c))):
        head += coef[:, j, None] * c[j]
    head += np.sqrt((coef[:, 3:] ** 2).sum(axis=1))[:, None] * np.sqrt((c[3:] ** 2).sum(axis=0))
    ks, cols = np.divmod(np.flatnonzero(head >= bar), len(bar))
    proj = (coef[ks] * c[:, cols].T).sum(axis=1)
    slack = resid[ks] * outside[cols]
    keep = proj + slack >= bar[cols]
    return cols[keep], ks[keep], proj[keep], slack[keep]


def _exact_top(pairs, exact, at):
    """Each position's top exact score over its candidate pairs: (positions, top, entry).

    ``pairs`` are (indices into the positions ``at``, entries, projected
    scores, slacks): a pair's exact score times ||f_c|| lies within its
    slack plus ``margin`` * ||f_c|| of its projected score. A pair whose
    upper end is below the best lower end at its position can neither be
    the top nor tie it, and is dropped. The rest are scored from the
    pixels and the integer weights, every product and partial sum an
    integer below 2**53. An exact score outside its pair's interval means
    the correlations are wrong, and raises ``ArithmeticError``. Each
    position keeps its top score, from its lowest entry on ties.
    """
    sub, kernel, var_f, norm_f, margin, nu = exact
    i, ks, proj, slack = pairs
    pos = at[i]
    reach = slack + margin * norm_f[pos]
    floor = np.full(len(at), -np.inf)
    np.maximum.at(floor, i, proj - reach)
    keep = proj + reach >= floor[i]
    pos, ks, proj, reach = pos[keep], ks[keep], proj[keep], reach[keep]
    th, tw = kernel.weights.shape[1:]
    windows = sliding_window_view(sub, (th, tw))
    num = np.empty(len(pos))
    step = max(1, _CHUNK_ELEMS // (th * tw))
    for j in range(0, len(pos), step):
        p, k = pos[j : j + step], ks[j : j + step]
        num[j : j + step] = (windows[p // nu, p % nu] * kernel.weights[k]).sum(axis=(1, 2))
    den = np.sqrt(kernel.var_t[ks] * var_f[pos])
    scores = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    np.clip(scores, -1.0, 1.0, out=scores)
    off = np.abs(scores * norm_f[pos] - proj) - reach
    if len(off) and not off.max() <= 0.0:
        raise ArithmeticError(
            f"an exact score lies {off.max():g} past its bound; "
            "the FFT correlations are wrong"
        )
    order = np.lexsort((ks, -scores, pos))
    first = order[np.flatnonzero(np.diff(pos[order], prepend=-1))]
    return pos[first], scores[first], ks[first]


def _band(sub, kernel, spectra, band, threshold, first):
    """Each position's top exact score in sub-image ``sub``, one row part
    of a scan's, at most ``band[0]`` rows: (positions, counted from
    ``first``, top, entry, var_f).

    Its padded shape is, on each axis, the smallest divisor of the band
    shape's length that holds the sub-image. The transform of a template
    zero-padded to H x W is its transform at the band shape Hb x Wb sampled
    every Hb // H rows and Wb // W columns, so the band reads the kept
    spectra at that stride. Its own window sums, transform, margin (at the
    band's area, whose transform made the spectra) and bar; its
    correlations, a chunk of images at a time; one position test; then the
    entry bound and the exact stage on chunks of at most ``_CHUNK_ELEMS //
    K`` kept positions, so it holds one chunk's pairs at a time."""
    th, tw = kernel.weights.shape[1:]
    nv, nu, n = sub.shape[0] - th + 1, sub.shape[1] - tw + 1, tw * th
    sy, sx = (max(s for s in range(1, b // size + 1) if b % s == 0)
              for b, size in zip(band, sub.shape))
    shape = (band[0] // sy, band[1] // sx)
    spectra = spectra[:, ::sy, ::sx]
    sf, sff = _window_sums(sub, tw, th)
    var_f = (n * sff - sf * sf).astype(np.float64).ravel()
    norm_f = np.sqrt(var_f / n)  # ||f_c||, exact from the running sums
    centred = sub - sub.mean()
    frame = np.fft.rfft2(centred, shape)
    r = len(spectra)
    margin = _basis_margin(_fft_error(centred, band[0] * band[1], n), r)
    bar = np.where(var_f > 0.0, (threshold - margin) * norm_f, np.inf)
    c = np.empty((r, nv * nu))
    step = max(1, _CHUNK_ELEMS // (shape[0] * shape[1]))  # basis images a chunk
    for k in range(0, r, step):
        c.reshape(r, nv, nu)[k : k + step] = _correlation(frame, spectra[k : k + step], shape, nv, nu)
    at, outside = _kept_positions(c, kernel, bar, norm_f)
    step = max(1, _CHUNK_ELEMS // len(kernel.coef))
    tops = []
    for i in range(0, len(at) or 1, step):
        part = at[i : i + step]
        pairs = _candidate_pairs(c[:, part], kernel, bar[part], outside[i : i + step])
        tops.append(_exact_top(pairs, (sub, kernel, var_f, norm_f, margin, nu), part))
        del pairs  # freed before the next chunk's are built
    at, top, idx = (np.concatenate(a) for a in zip(*tops))
    return at + first, top, idx, var_f


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
    clipped to ``valid_center_rect``, so the template always fits; a window
    outside it, or a template larger than the frame, yields an empty list.

    Every scan correlates the bank's basis images (``_kernel``), which
    only pick candidate pairs of position and entry (``_kept_positions``,
    ``_candidate_pairs``), and scores them from the pixels (``_exact_top``).
    Every scan reads the one spectra array the bank keeps, at the frame's
    band shape (``_band_shape``, ``_spectra``), as ``prepare`` fills it.
    Every scan takes the workers in proportion to its share of the frame's
    rows of positions: its ``nv`` rows split into ``ceil(nv * _WORKERS /
    full.h)`` even parts (``_parts``), so a whole frame takes one per worker
    and no part has more rows than a worker's share. Each part runs
    ``_band``: one on the calling thread, more on the workers.
    """
    tw, th = bank.base_width, bank.base_height
    if tw > img.width or th > img.height:
        return []
    full = valid_center_rect(tw, th, img.width, img.height)
    window = window.clip(full)
    if window is None:
        return []
    u0, v0, nu, nv = window.x, window.y, window.w, window.h
    ox, oy = template_origin(u0, tw), template_origin(v0, th)
    sub = img.pixels[oy : oy + nv + th - 1, ox : ox + nu + tw - 1]
    kernel = _kernel(bank)
    band = _band_shape((img.height, img.width), th)
    spectra = _spectra(kernel, band)
    tops = _on_workers(_band, [(sub[lo : hi + th - 1], kernel, spectra, band, threshold, lo * nu)
                               for lo, hi in _parts(nv, -(-nv * _WORKERS // full.h))])
    at, top, idx, var_f = (np.concatenate(a) for a in zip(*tops))

    best = np.full(nv * nu, -np.inf)
    best[at] = top
    if threshold <= 0.0:  # zmncc scores a flat window 0 at every angle; no bound reaches it
        best[var_f == 0.0] = 0.0
    best_idx = np.zeros(nv * nu, dtype=np.intp)
    best_idx[at] = idx

    hits = np.flatnonzero(best >= threshold)
    return [
        MatchPoint(u, v, s, a)
        for u, v, s, a in zip(
            (u0 + hits % nu).tolist(),
            (v0 + hits // nu).tolist(),
            best[hits].tolist(),
            kernel.angles[best_idx[hits]].tolist(),
        )
    ]


def prepare(bank: TemplateBank, frame_w: int, frame_h: int) -> None:
    """Build the bank's kernel and, on the calling thread, the spectra every
    scan of a frame_w x frame_h frame reads (``_spectra`` at ``_band_shape``),
    as that scan would build them. Does nothing when they are kept, or the
    template does not fit."""
    if bank.base_width > frame_w or bank.base_height > frame_h:
        return
    _spectra(_kernel(bank), _band_shape((frame_h, frame_w), bank.base_height))


def detect(points: list[MatchPoint], threshold: float = DEFAULT_THRESHOLD,
           box: tuple[int, int] | None = None) -> Detection | None:
    """Centroid of the best point's cluster; best score/angle from the top point.

    With ``box`` = (tw, th), the template's size, the cluster is the points
    within +-(tw // 2, th // 2) of the best point, edges included, so a
    false match elsewhere in the window does not pull the centroid; with no
    box it is every point. ``support`` is the cluster's size. Returns None
    on an empty list. Ties on score keep the earliest point in scan order,
    so output is deterministic. ``threshold`` is not read: ``scan`` has
    already dropped every point below it.
    """
    if not points:
        return None
    best = max(points, key=lambda p: p.score)
    if box is not None:
        hx, hy = box[0] // 2, box[1] // 2
        points = [p for p in points if abs(p.u - best.u) <= hx and abs(p.v - best.v) <= hy]
    return Detection(
        x=sum(p.u for p in points) / len(points),
        y=sum(p.v for p in points) / len(points),
        best_score=best.score,
        best_angle_deg=best.angle_deg,
        support=len(points),
    )
