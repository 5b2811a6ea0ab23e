import ast
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings, strategies as st

from oracles import zmncc_loops
from strategies import scenarios
from uastrack import matcher
from uastrack.errors import BoundsError
from uastrack.imagebuf import GrayImage, Rect
from uastrack.matcher import (
    Detection,
    MatchPoint,
    center_bounds,
    detect,
    scan,
    score_arrays,
    template_origin,
    valid_center_rect,
    zmncc,
)
from uastrack.scenesim import (
    BUILTIN_NAMES,
    JumpTrajectory,
    LineTrajectory,
    Occlusion,
    Ramp,
    Scenario,
    default_target_patch,
)
from uastrack.warp import build_bank, warp_patch


def plant(frame_pixels, patch, u, v):
    """Paste a patch with its center at (u, v); returns the frame array."""
    th, tw = patch.pixels.shape
    x0 = template_origin(u, tw)
    y0 = template_origin(v, th)
    frame_pixels[y0 : y0 + th, x0 : x0 + tw] = patch.pixels
    return frame_pixels


@pytest.fixture
def tpl8(rng):
    return GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))


class TestZmncc:
    def test_perfect_match(self, rng, tpl8):
        frame = GrayImage(plant(rng.integers(0, 256, (32, 32), dtype=np.uint8), tpl8, 16, 16))
        assert zmncc(frame, tpl8, 16, 16) == pytest.approx(1.0, abs=1e-12)

    def test_affine_intensity_invariance(self, rng):
        # even template values make 0.5*t + 40 exact in 8 bits: no quantization
        tpl = GrayImage((rng.integers(20, 100, (8, 8)) * 2).astype(np.uint8))
        region = (tpl.pixels.astype(np.float64) * 0.5 + 40).astype(np.uint8)
        frame_px = np.zeros((20, 20), dtype=np.uint8)
        frame_px[6:14, 6:14] = region
        assert zmncc(GrayImage(frame_px), tpl, 9, 9) == pytest.approx(1.0, abs=1e-9)

    def test_contrast_inversion(self, rng, tpl8):
        inverted = GrayImage(255 - tpl8.pixels)
        frame = GrayImage(plant(np.zeros((20, 20), dtype=np.uint8), inverted, 10, 10))
        assert zmncc(frame, tpl8, 10, 10) == pytest.approx(-1.0, abs=1e-9)

    def test_matches_brute_force_oracle(self, rng):
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        tpl = GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        img_list = img.pixels.tolist()
        tpl_list = tpl.pixels.tolist()
        for _ in range(20):
            u = int(rng.integers(4, 28))
            v = int(rng.integers(4, 28))
            assert zmncc(img, tpl, u, v) == pytest.approx(
                zmncc_loops(img_list, tpl_list, u, v), abs=1e-9
            )

    def test_degenerate_region_scores_zero(self, tpl8):
        flat = GrayImage.full(32, 32, 128)
        assert zmncc(flat, tpl8, 16, 16) == 0.0

    def test_degenerate_template_scores_zero(self, rng):
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        assert zmncc(img, GrayImage.full(8, 8, 55), 16, 16) == 0.0

    def test_out_of_bounds_rejected(self, rng, tpl8):
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        with pytest.raises(BoundsError):
            zmncc(img, tpl8, 2, 16)

    def test_gain_offset_invariance_on_floats(self, rng, tpl8):
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        region = img[10:18, 10:18]
        base = score_arrays(region, tpl8.pixels)
        for a, b in ((0.5, 40.0), (1.7, -10.0), (3.0, 0.0)):
            scaled = a * region.astype(np.float64) + b
            assert score_arrays(scaled, tpl8.pixels) == pytest.approx(base, abs=1e-9)

    def test_score_range(self, rng, tpl8):
        img = GrayImage(rng.integers(0, 256, (40, 40), dtype=np.uint8))
        for u in range(4, 36, 3):
            for v in range(4, 36, 3):
                assert -1.0 <= zmncc(img, tpl8, u, v) <= 1.0


class TestScan:
    def test_planted_target_found(self, rng, checker22x36):
        bank = build_bank(checker22x36)
        frame = GrayImage(plant(rng.integers(0, 256, (120, 160), dtype=np.uint8), checker22x36, 80, 60))
        points = scan(frame, bank, Rect(70, 50, 21, 21), 0.9)
        hits = [p for p in points if (p.u, p.v) == (80, 60)]
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(1.0, abs=1e-9)
        assert hits[0].angle_deg == 0.0

    def test_uniform_frame_is_empty(self, checker22x36):
        bank = build_bank(checker22x36)
        frame = GrayImage.full(160, 120, 128)
        assert scan(frame, bank, Rect(0, 0, 160, 120), 0.9) == []

    def test_rotated_target_best_angle(self, rng, checker22x36):
        from uastrack.scenesim import BUILTIN_NAMES, default_target_patch

        patch = default_target_patch(3)
        bank = build_bank(patch)
        rotated = warp_patch(patch, math.radians(90.0))  # lossless quarter turn
        frame = GrayImage(plant(np.full((120, 160), 128, dtype=np.uint8), rotated, 80, 60))
        points = scan(frame, bank, Rect(78, 58, 5, 5), 0.9)
        best = max(points, key=lambda p: p.score)
        assert (best.u, best.v) == (80, 60)
        assert best.angle_deg == 90.0

    def test_window_clamped_to_valid_centers(self, rng, checker22x36):
        bank = build_bank(checker22x36)
        frame = GrayImage(rng.integers(0, 256, (120, 160), dtype=np.uint8))
        points = scan(frame, bank, Rect(-50, -50, 400, 400), 0.0)
        xlo, xhi = center_bounds(22, 160)
        ylo, yhi = center_bounds(36, 120)
        assert len(points) == (xhi - xlo + 1) * (yhi - ylo + 1)
        assert all(xlo <= p.u <= xhi and ylo <= p.v <= yhi for p in points)

    def test_empty_effective_window(self, checker22x36):
        bank = build_bank(checker22x36)
        frame = GrayImage.full(120, 160, 10)
        assert scan(frame, bank, Rect(-30, -30, 5, 5), 0.5) == []
        narrow = GrayImage.full(21, 160, 10)  # no centre fits the 22-wide template
        assert scan(narrow, bank, narrow.rect, 0.5) == []

    def test_subwindow_scores_subset(self, rng, checker22x36):
        bank = build_bank(checker22x36)
        frame = GrayImage(plant(rng.integers(0, 256, (120, 160), dtype=np.uint8), checker22x36, 80, 60))
        w1 = scan(frame, bank, Rect(75, 55, 11, 11), 0.3)
        w2 = scan(frame, bank, Rect(70, 50, 21, 21), 0.3)
        by_pos = {(p.u, p.v): p for p in w2}
        for p in w1:
            assert by_pos[(p.u, p.v)] == p

    def test_scan_agrees_with_zmncc(self, rng, checker22x36):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(rng.integers(0, 256, (120, 160), dtype=np.uint8))
        points = scan(frame, bank, Rect(40, 40, 9, 9), -1.0)
        for p in points:
            best = max(zmncc(frame, e.patch, p.u, p.v) for e in bank.entries)
            assert p.score == best


def scan_with(img, bank, window, threshold, workers, chunk_elems=matcher._CHUNK_ELEMS):
    """``scan`` on ``workers`` scan threads (1 runs every chunk inline).

    A ``chunk_elems`` of 1 makes every chunk one bank entry.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcher, "_WORKERS", workers)
        mp.setattr(matcher, "_CHUNK_ELEMS", chunk_elems)
        return scan(img, bank, window, threshold)


def rank_k_scan(img, bank, window, threshold):
    """A reference scan that shares no code with ``matcher``.

    One numpy FFT correlation of the clamped window's pixels with all the
    bank's weights n*t - sum(t) gives every pair's score up to rounding;
    each position's pairs within a generous margin of its best are then
    rescored exactly from int64 sums, as ``zmncc`` scores them.
    """
    th, tw = bank.entries[0].patch.pixels.shape
    n = tw * th
    u0, v0 = max(window.x, (tw - 1) // 2), max(window.y, (th - 1) // 2)
    u1 = min(window.x + window.w - 1, img.width - tw + (tw - 1) // 2)
    v1 = min(window.y + window.h - 1, img.height - th + (th - 1) // 2)
    if u0 > u1 or v0 > v1:
        return []
    x0, y0 = u0 - (tw - 1) // 2, v0 - (th - 1) // 2
    nu, nv = u1 - u0 + 1, v1 - v0 + 1
    f = img.pixels[y0 : y0 + nv + th - 1, x0 : x0 + nu + tw - 1].astype(np.int64)
    t = np.stack([e.patch.pixels for e in bank.entries]).astype(np.int64)
    st = t.sum(axis=(1, 2))
    var_t = n * (t * t).sum(axis=(1, 2)) - st * st
    sf = sliding_window_view(f, (th, tw)).sum(axis=(2, 3)).ravel()
    var_f = n * sliding_window_view(f * f, (th, tw)).sum(axis=(2, 3)).ravel() - sf * sf
    weights = (n * t - st[:, None, None]).astype(np.float64)
    spectra = np.fft.rfft2(f - f.mean(), f.shape) * np.conj(np.fft.rfft2(weights, f.shape))
    num = np.fft.irfft2(spectra, f.shape)[:, :nv, :nu].reshape(len(t), -1)
    den = np.sqrt(var_t[:, None].astype(np.float64) * var_f[None, :].astype(np.float64))
    approx = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    best = approx.max(axis=0)
    ks, pos = np.nonzero((approx >= best - 1e-6) & (best >= threshold - 1e-6))
    windows = sliding_window_view(f, (th, tw))
    exact = np.empty(len(pos))
    for i in range(0, len(pos), 4096):  # a few MB of pixel products at a time
        k, p = ks[i : i + 4096], pos[i : i + 4096]
        prod = (windows[p // nu, p % nu] * t[k]).sum(axis=(1, 2))
        d = np.sqrt(var_f[p].astype(np.float64) * var_t[k].astype(np.float64))
        s = np.divide((n * prod - sf[p] * st[k]).astype(np.float64), d, out=np.zeros(len(k)), where=d > 0.0)
        exact[i : i + 4096] = np.clip(s, -1.0, 1.0)
    order = np.lexsort((ks, -exact, pos))  # per position, the top score at the lowest entry
    first = order[np.flatnonzero(np.diff(pos[order], prepend=-1))]
    angles = np.array(bank.angles)
    return [MatchPoint(u0 + int(p) % nu, v0 + int(p) // nu, float(exact[i]), float(angles[ks[i]]))
            for i, p in zip(first, pos[first]) if exact[i] >= threshold]


def best_of_bank(img, bank, u, v):
    """Max zmncc over the bank and the lowest angle reaching it."""
    scores = [zmncc(img, e.patch, u, v) for e in bank.entries]
    best = max(scores)
    return best, bank.angles[scores.index(best)]


@st.composite
def scan_cases(draw, min_frame, max_frame):
    """Random frame with uniform and 0/255 blocks, a bank of 1, 4 or 36 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tw, th = draw(st.integers(2, 9)), draw(st.integers(2, 9))  # odd and even
    w = draw(st.integers(max(tw, min_frame), max_frame))
    h = draw(st.integers(max(th, min_frame), max_frame))
    px = rng.integers(0, 256, (h, w), dtype=np.uint8)
    for fill in (lambda shape: np.uint8(rng.integers(0, 256)),
                 lambda shape: (rng.integers(0, 2, shape) * 255).astype(np.uint8)):
        bw, bh = int(rng.integers(1, w + 1)), int(rng.integers(1, h + 1))
        x, y = int(rng.integers(0, w - bw + 1)), int(rng.integers(0, h - bh + 1))
        px[y : y + bh, x : x + bw] = fill((bh, bw))
    kind = draw(st.sampled_from(["random", "uniform", "saturated", "frame"]))
    if kind == "random":
        tpx = rng.integers(0, 256, (th, tw), dtype=np.uint8)
    elif kind == "uniform":
        tpx = np.full((th, tw), rng.integers(0, 256), dtype=np.uint8)
    elif kind == "saturated":
        tpx = (rng.integers(0, 2, (th, tw)) * 255).astype(np.uint8)
    else:  # a copy of the frame: exact matches and ties
        tpx = px[:th, :tw].copy()
    count = draw(st.sampled_from([1, 4, 36]))
    bank = build_bank(GrayImage(tpx), count, 360.0 / count)
    threshold = draw(st.sampled_from([0.9, 0.0, -1.0]))
    return GrayImage(px), bank, threshold


windows = st.lists(
    st.tuples(st.integers(-5, 90), st.integers(-5, 90), st.integers(1, 70), st.integers(1, 70)),
    min_size=1,
    max_size=6,
)


class TestScanExactness:
    @settings(max_examples=40, deadline=None)
    @given(scan_cases(min_frame=2, max_frame=22))
    def test_pooled_and_inline_scans_equal_zmncc_at_every_position(self, case):
        img, bank, threshold = case
        full = valid_center_rect(bank.base_width, bank.base_height, img.width, img.height)
        expected = []
        for v in range(full.y, full.y2):
            for u in range(full.x, full.x2):
                best, angle = best_of_bank(img, bank, u, v)
                if best >= threshold:
                    expected.append(MatchPoint(u, v, best, angle))
        for workers in (1, 2, 3):  # 3: chunks and bands split unevenly
            assert scan_with(img, bank, full, threshold, workers) == expected
            assert scan_with(img, bank, full, threshold, workers, chunk_elems=1) == expected

    @settings(max_examples=12, deadline=None)
    @given(scan_cases(min_frame=68, max_frame=90), windows)
    def test_whole_frame_spectra_survive_window_scans(self, case, rects):
        """At each worker count (a process's is fixed at import, and the
        frame slot's band shape follows it), a bare bank's whole frame keeps
        its spectra at the frame's band shape, and no window scan, near-whole
        or not, replaces them."""
        img, bank, threshold = case
        assert bank.kernel is None  # building a bank transforms nothing
        full = valid_center_rect(bank.base_width, bank.base_height, img.width, img.height)
        whole = scan(img, bank, full, threshold)
        for p in whole[:: max(1, len(whole) // 25)]:
            assert (p.score, p.angle_deg) == best_of_bank(img, bank, p.u, p.v)
        for workers in (1, 2, 3):
            bank = build_bank(bank.entries[0].patch, len(bank), 360.0 / len(bank))
            assert scan_with(img, bank, full, threshold, workers) == whole
            kept = bank.kernel.frame
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(matcher, "_WORKERS", workers)
                assert kept[0] == frame_slot(img, bank)
            for rect in rects:
                window = Rect(*rect)
                inside = [p for p in whole if window.contains(Rect(p.u, p.v, 1, 1))]
                assert scan_with(img, bank, window, threshold, workers) == inside
                assert bank.kernel.frame is kept
        assert bank == build_bank(bank.entries[0].patch, len(bank), 360.0 / len(bank))
        assert "kernel" not in repr(bank)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("img_size, patch_size, rect, parts", [
        # 195 of the frame's 205 rows of 299 positions: one part at one
        # worker's 240x320, or ceil(195 * 2 / 205) = 2 parts of 97 and 98
        # rows at two workers' 144x320, their 132 and 133 rows of pixels
        # padded to 144
        ((320, 240), (22, 36), (0, 20, 320, 195),
         {1: [(0, (240, 320))], 2: [(0, (144, 320)), (97 * 299, (144, 320))]}),
        # 65 of 71 rows of 65 positions: one part at 72x72, or two of 32 and
        # 33 rows at two workers' 40x72, their 33 and 34 rows of pixels
        # padded to 40, the divisor of 40 that holds them
        ((72, 72), (2, 2), (-5, -5, 70, 70),
         {1: [(0, (72, 72))], 2: [(0, (40, 72)), (32 * 65, (40, 72))]}),
    ])
    def test_near_whole_window_scans_as_a_window(self, rng, workers, img_size, patch_size,
                                                 rect, parts, monkeypatch):
        """A window with fewer rows of positions than the frame scans by the
        rule every window takes: ``ceil(nv * workers / full.h)`` even parts,
        here one a worker, one on the calling thread and two on the workers.
        Each pads to the smallest divisors of the band shape that hold its
        sub-image and reads the spectra ``prepare`` kept, filling none."""
        monkeypatch.setattr(matcher, "_WORKERS", workers)
        img = GrayImage(rng.integers(0, 256, img_size[::-1], dtype=np.uint8))
        patch = GrayImage(rng.integers(0, 256, patch_size[::-1], dtype=np.uint8))
        bank = build_bank(patch, 4, 90.0)
        matcher.prepare(bank, *img_size)
        kept = bank.kernel.frame
        assert kept[0] == frame_slot(img, bank)
        fills = chunk_threads(monkeypatch, "_fill_spectra")
        calls = part_calls(monkeypatch)
        window = Rect(*rect)
        assert scanned(img, bank, window).h < valid_center_rect(*patch_size, *img_size).h
        assert scan(img, bank, window, 0.5) == rank_k_scan(img, bank, window, 0.5)
        assert sorted((c.first, c.shapes) for c in calls) == [
            (first, {shape}) for first, shape in parts[workers]]
        assert all(c.band == kept[0] for c in calls)
        threads = {c.thread for c in calls}
        assert threads == {threading.main_thread()} if workers == 1 else on_workers(threads)
        assert fills == [] and bank.kernel.frame is kept
        assert scan(img, bank, img.rect, 0.5) == rank_k_scan(img, bank, img.rect, 0.5)
        assert fills == [] and bank.kernel.frame is kept

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("h, th", [(240, 36), (8, 6), (8, 5)])
    def test_whole_frame_parts_are_one_per_worker(self, rng, workers, h, th, monkeypatch):
        """A whole frame's nv rows of positions split as ``_parts(nv,
        workers)``: one part a worker, or a row when there are fewer rows,
        on the workers when there is more than one part. Not as few parts as
        the padded band holds: 8 rows of a 6-row template at two workers
        pad 7 rows of pixels to 8, a band holding all 3 rows of positions,
        and 8 rows of a 5-row template at three workers give a 6-row band
        holding 2 of the 4."""
        monkeypatch.setattr(matcher, "_WORKERS", workers)
        img = GrayImage(rng.integers(0, 256, (h, 30), dtype=np.uint8))
        bank = build_bank(GrayImage(rng.integers(0, 256, (th, 4), dtype=np.uint8)), 4, 90.0)
        calls = part_calls(monkeypatch)
        assert scan(img, bank, img.rect, 0.0) == rank_k_scan(img, bank, img.rect, 0.0)
        nv, nu = h - th + 1, 30 - 4 + 1
        parts = matcher._parts(nv, workers)
        assert len(parts) == min(workers, nv)
        assert sorted((c.first, c.rows - th + 1) for c in calls) == [
            (lo * nu, hi - lo) for lo, hi in parts]
        threads = {c.thread for c in calls}
        assert threads == {threading.main_thread()} if len(parts) == 1 else on_workers(threads)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_threshold_equal_to_score_includes_next_float_excludes(self, rng, checker22x36, workers):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(rng.integers(0, 256, (80, 90), dtype=np.uint8))
        window = Rect(30, 30, 9, 9)
        for u, v in ((32, 33), (35, 31), (38, 38)):
            s, _ = best_of_bank(frame, bank, u, v)
            at = {(p.u, p.v) for p in scan_with(frame, bank, window, s, workers)}
            above = {(p.u, p.v) for p in scan_with(frame, bank, window, np.nextafter(s, 2), workers)}
            assert (u, v) in at
            assert (u, v) not in above

    @pytest.mark.parametrize(
        "workers, chunk_elems, expected",
        [
            # (first position, padded shape) of each band of a whole 82x54
            # frame: its 47 x 33 = 1,551 positions split by rows, every band
            # padded as the tallest band's sub-image, its rows + 35
            (1, matcher._CHUNK_ELEMS, [(0, (90, 54))]),  # the frame's own shape
            (2, matcher._CHUNK_ELEMS, [(0, (60, 54)), (23 * 33, (60, 54))]),  # 23 and 24 rows
            (5, matcher._CHUNK_ELEMS, [(row * 33, (45, 54)) for row in (0, 9, 18, 28, 37)]),
            # a cap of 24,300 elements holds 7 images at 60x54, and 675
            # positions of 36 entries
            (2, 24_300, [(0, (60, 54)), (23 * 33, (60, 54))]),
        ],
    )
    def test_bank_splits_evenly_into_chunks_within_the_cap(
        self, rng, workers, chunk_elems, expected, monkeypatch
    ):
        """A whole frame's rows of positions split evenly into one band per
        worker, each at the padded shape of the tallest band, whose spectra
        the bank keeps. Each band correlates its basis images in chunks of
        at most cap // (padded area), runs one position test over its
        positions, then the entry bound and the exact stage on chunks of at
        most cap // K kept positions: at threshold 0 every position of a
        noise frame is kept."""
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (82, 54), dtype=np.uint8))  # pads to 90x54
        bands, chunks, tests, entries, exacts = split_calls(monkeypatch)
        points = scan_with(frame, bank, frame.rect, 0.0, workers, chunk_elems)
        assert sorted(bands) == expected
        per_chunk = min(12, chunk_elems // (expected[0][1][0] * expected[0][1][1]))
        images = [per_chunk] * (12 // per_chunk) + [12 % per_chunk] * (12 % per_chunk > 0)
        assert sorted(chunks) == sorted(images * len(expected))
        edges = [first for first, _ in expected] + [1551]
        sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
        assert sorted(tests) == sorted(sizes)  # one test per band
        step = chunk_elems // len(bank)
        kept = sorted(min(step, size - b) for size in sizes for b in range(0, size, step))
        assert sorted(entries) == sorted(exacts) == kept
        assert bank.kernel.frame[0] == expected[0][1]
        assert points == rank_k_scan(frame, bank, frame.rect, 0.0)

    def test_whole_320x240_frame_takes_one_144x320_band_per_worker(self, rng, monkeypatch):
        """Two workers split a whole frame's 205 rows of 299 positions into
        bands of 102 and 103 rows, each padded to 144x320; the bank keeps
        12 spectra at that shape, 4.2 MiB. Each band at 0.9 runs one
        position test over its positions; on noise it keeps a handful, far
        fewer than 4,860, so its entry bound and exact stage run as one
        chunk. One worker scans the frame as one band at 240x320, 2 images
        a chunk."""
        bank = build_bank(default_target_patch(3))
        frame = GrayImage(plant(rng.integers(0, 256, (240, 320), dtype=np.uint8),
                                bank.entries[9].patch, 200, 90))
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        bands, chunks, tests, entries, exacts = split_calls(monkeypatch)
        points = scan(frame, bank, frame.rect, 0.9)
        assert sorted(bands) == [(0, (144, 320)), (102 * 299, (144, 320))]
        assert chunks == [3] * 8  # 174,960 // (144 * 320) images a chunk, 4 chunks a band
        assert sorted(tests) == [102 * 299, 103 * 299]
        assert len(entries) == 2 and sorted(entries) == sorted(exacts)
        assert all(kept < 4860 for kept in entries)
        assert bank.kernel.frame[1].shape == (12, 144, 161)
        assert bank.kernel.frame[1].nbytes == 12 * 144 * 161 * 16  # 4.2 MiB
        assert points == rank_k_scan(frame, bank, frame.rect, 0.9)
        assert (200, 90, 1.0, 90.0) in {(p.u, p.v, p.score, p.angle_deg) for p in points}
        bands.clear()
        chunks.clear()
        alone = build_bank(default_target_patch(3))
        assert scan_with(frame, alone, frame.rect, 0.9, workers=1) == points
        assert bands == [(0, (240, 320))] and alone.kernel.frame[0] == (240, 320)
        assert chunks == [2] * 6

    def test_band_at_minus_1_runs_in_chunks_of_4860_kept_positions(self, rng, monkeypatch):
        """At threshold -1 a band keeps every position but the flat ones, and
        runs its entry bound and exact stage in chunks of at most 4,860 of
        them, one chunk's pairs at a time."""
        bank = build_bank(default_target_patch(1))
        px = plant(rng.integers(0, 256, (120, 160), dtype=np.uint8), bank.entries[3].patch, 60, 50)
        px[70:, 120:] = 33  # flat at every centre with u >= 130 and v >= 87
        frame = GrayImage(px)
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        bands, chunks, tests, entries, exacts = split_calls(monkeypatch)
        points = scan(frame, bank, frame.rect, -1.0)
        flat = (148 - 130 + 1) * (101 - 87 + 1)  # of 139 x 85 = 11,815 positions
        assert sorted(first for first, _ in bands) == [0, 42 * 139]  # rows 0-41 and 42-84
        assert sorted(tests) == [42 * 139, 43 * 139]
        assert sorted(entries) == sorted(exacts) and sum(entries) == 11815 - flat
        assert len(entries) == 4 and max(entries) == 4860  # two chunks a band
        assert points == rank_k_scan(frame, bank, frame.rect, -1.0)
        assert len(points) == 11815 and (60, 50, 1.0) in {(p.u, p.v, p.score) for p in points}

    def test_pool_starts_on_the_first_split_scan(self, rng, checker22x36, monkeypatch):
        """Importing, installing a bank (a session's construction and
        ``apply_template``, each of which prepares it) and a window scan
        import no ``concurrent.futures`` and start no thread, on two
        workers; the first scan that splits, here a whole frame, starts the
        pool. On one worker no scan starts it."""
        probe = (
            "import sys, threading\n"
            "import numpy as np\n"
            "import uastrack.cli\n"
            "from uastrack import matcher, warp\n"
            "from uastrack.imagebuf import GrayImage, Rect\n"
            "from uastrack.tracker import OpticsConfig, TrackerConfig, TrackerSession\n"
            "def state():\n"
            "    print('concurrent.futures' in sys.modules, threading.active_count())\n"
            "state()\n"
            "matcher._WORKERS = 2\n"
            "img = GrayImage(np.arange(1600, dtype=np.uint8).reshape(40, 40))\n"
            "cfg = TrackerConfig(optics=OpticsConfig(frame_w=40, frame_h=40))\n"
            "session = TrackerSession(warp.build_bank(GrayImage(img.pixels[:5, :7]), 4, 90.0), cfg)\n"
            "state()\n"
            "session.apply_template(GrayImage(img.pixels[3:8, 2:9]))\n"
            "state()\n"
            "assert session.bank.kernel.frame is not None\n"
            "matcher.scan(img, session.bank, Rect(10, 10, 9, 9))\n"
            "state()\n"
            "matcher.scan(img, session.bank, img.rect)\n"
            "state()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(matcher.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        states = [tuple(line.split()) for line in out.stdout.splitlines()]
        # imported, constructed, template applied, window scanned: no pool
        assert states[:4] == [("False", "1")] * 4
        assert states[4][0] == "True" and int(states[4][1]) > 1
        monkeypatch.setattr(matcher, "_pool", no_pool("one worker started a pool"))
        frame = GrayImage(rng.integers(0, 256, (80, 90), dtype=np.uint8))
        scan_with(frame, build_bank(checker22x36, 4, 90.0), frame.rect, 0.9, workers=1, chunk_elems=1)

    @pytest.mark.parametrize("size", [1, 7, 8, 97, 240, 241, 299, 445, 619])
    def test_fft_length_is_smallest_5_smooth(self, size):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        got = matcher._smooth5(size)
        assert got >= size and smooth(got)
        assert not any(smooth(k) for k in range(size, got))


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 20), st.integers(0, 20))
    @example(seed=0, tw=1, th=1, extra_w=0, extra_h=0)  # one pixel, one window
    @example(seed=1, tw=1, th=1, extra_w=9, extra_h=4)  # 1-pixel template
    @example(seed=2, tw=7, th=1, extra_w=0, extra_h=5)
    def test_window_sums_equal_brute_force_box_sums(self, seed, tw, th, extra_w, extra_h):
        rng = np.random.default_rng(seed)
        h, w = th + extra_h, tw + extra_w
        px = rng.integers(0, 256, (h, w), dtype=np.uint8)
        for value in (int(rng.integers(0, 256)), 255):  # a flat block and a saturated one
            bh, bw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            y, x = int(rng.integers(0, h - bh + 1)), int(rng.integers(0, w - bw + 1))
            px[y : y + bh, x : x + bw] = value
        sf, sff = matcher._window_sums(px, tw, th)
        f = px.astype(np.int64)
        expected = [[(int(f[v : v + th, u : u + tw].sum()), int((f[v : v + th, u : u + tw] ** 2).sum()))
                     for u in range(w - tw + 1)] for v in range(h - th + 1)]
        assert sf.dtype == sff.dtype == np.int64
        assert np.array_equal(np.stack([sf, sff], axis=-1), np.array(expected, dtype=np.int64))

    @pytest.mark.parametrize("h, w, tw, th", [
        (960, 1280, 22, 36),  # int32 running sums wrap around: 36 * 255**2 * 1280 > 2**31
        (1322, 27, 25, 1321),  # n * 255**2 just under 2**31: the largest n on int32
        (190, 186, 182, 182),  # n * 255**2 >= 2**31: int64
    ])
    def test_window_sums_of_saturated_frames(self, rng, h, w, tw, th):
        """A saturated frame, with a block of noise in one corner that the
        last window leaves out, against the brute-force box sum at a grid of
        windows that takes in the last row and column, where the running
        sums are largest and the last window's sums are n * 255 and n * 255**2."""
        px = np.full((h, w), 255, np.uint8)
        bh, bw = min(h // 4, h - th), min(w // 4, w - tw)
        px[:bh, :bw] = rng.integers(0, 256, (bh, bw))
        sf, sff = matcher._window_sums(px, tw, th)
        assert sf.shape == sff.shape == (h - th + 1, w - tw + 1)
        assert sf.dtype == sff.dtype == np.int64
        f = px.astype(np.int64)
        for v in sorted({*range(0, h - th + 1, 37), h - th}):
            for u in sorted({*range(0, w - tw + 1, 41), w - tw}):
                box = f[v : v + th, u : u + tw]
                assert (sf[v, u], sff[v, u]) == (box.sum(), (box * box).sum())
        assert (sf[-1, -1], sff[-1, -1]) == (tw * th * 255, tw * th * 255**2)


# A point-symmetric template whose basis images of rounding noise summed to
# 5.0 and 0.15 when they were not centred.
UNCENTRED_NOISE_5X5 = np.array([[235, 235, 223, 223, 223], [235, 235, 223, 223, 223], [71] * 5,
                                [223, 223, 223, 235, 235], [223, 223, 223, 235, 235]], dtype=np.uint8)


def scanned(img, bank, window):
    """The centre positions of ``window`` that ``scan`` scores in ``img``:
    the window clipped to ``valid_center_rect``, or None when it has none."""
    return window.clip(valid_center_rect(bank.base_width, bank.base_height, img.width, img.height))


_expected = {}


def expected_points(img, bank, window, threshold):
    """Brute-force ``scan``: ``best_of_bank`` at every valid position of ``window``,
    computed once per frame, bank, window and threshold."""
    key = (img.pixels.tobytes(), img.pixels.shape, bank.angles,
           tuple(e.patch.pixels.tobytes() for e in bank.entries), window, threshold)
    if key not in _expected:
        r = scanned(img, bank, window)
        points = []
        for v in range(r.y, r.y2) if r else ():
            for u in range(r.x, r.x2):
                best, angle = best_of_bank(img, bank, u, v)
                if best >= threshold:
                    points.append(MatchPoint(u, v, best, angle))
        _expected[key] = points
    return list(_expected[key])


def chunk_threads(monkeypatch, name="_correlation"):
    """The threads that run each call of the scan task ``name`` from now on, in call order."""
    threads = []
    task = getattr(matcher, name)

    def recording(*args):
        threads.append(threading.current_thread())
        return task(*args)

    monkeypatch.setattr(matcher, name, recording)
    return threads


@dataclass
class PartCall:
    """One ``_band`` call: its first position, band shape, rows of
    sub-image and thread, and the padded shape of each of its correlations."""

    first: int
    band: tuple
    rows: int
    thread: threading.Thread
    shapes: set = field(default_factory=set)


def part_calls(monkeypatch):
    """Every ``_band`` call from now on, a ``PartCall`` each, in the order they start."""
    calls, local = [], threading.local()
    band, correlation = matcher._band, matcher._correlation

    def recording_band(*args):
        local.call = PartCall(args[5], args[3], args[0].shape[0], threading.current_thread())
        calls.append(local.call)
        return band(*args)

    def recording_correlation(*args):
        local.call.shapes.add(args[2])
        return correlation(*args)

    monkeypatch.setattr(matcher, "_band", recording_band)
    monkeypatch.setattr(matcher, "_correlation", recording_correlation)
    return calls


def no_pool(why):
    """A stand-in for ``matcher._pool`` that fails the test with ``why`` if a scan starts it."""
    return SimpleNamespace(get=lambda workers: pytest.fail(why))


def frame_slot(img, bank):
    """The padded shape of the bands of a whole ``img``, at which ``bank`` keeps
    its whole-frame spectra."""
    return matcher._band_shape((img.height, img.width), bank.base_height)


def split_calls(monkeypatch):
    """What scans run from now on: the (first position, band shape) of every
    band, the shape a whole frame's bands pad to, the number of basis images
    of every correlation, and the number of positions of every position
    test, of every chunk of the entry bound and of every chunk of the exact
    stage."""
    calls = ([], [], [], [], [])
    names = ("_band", "_correlation", "_kept_positions", "_candidate_pairs", "_exact_top")
    for ran, name, record in zip(calls, names, (lambda a: (a[5], a[3]), lambda a: len(a[1]),
                                                lambda a: len(a[2]), lambda a: len(a[2]),
                                                lambda a: len(a[2]))):
        def recording(*args, task=getattr(matcher, name), ran=ran, record=record):
            ran.append(record(args))
            return task(*args)

        monkeypatch.setattr(matcher, name, recording)
    return calls


def on_workers(threads):
    return bool(threads) and all(t is not threading.main_thread() for t in threads)


scan_steps = st.lists(
    st.tuples(
        st.integers(0, 1),  # which bank
        st.one_of(st.none(), st.tuples(st.integers(-3, 30), st.integers(-3, 30),
                                       st.integers(1, 30), st.integers(1, 30))),  # None: whole frame
        st.sampled_from([0.9, 0.0, -1.0]),
        st.sampled_from([matcher._CHUNK_ELEMS, 1]),
    ),
    min_size=2,
    max_size=8,
)


class TestReusedBuffersAndWhereChunksRun:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), scan_steps)
    def test_scan_sequences_equal_brute_force(self, seed, steps):
        rng = np.random.default_rng(seed)
        h, w = (int(x) for x in rng.integers(12, 30, 2))
        px = rng.integers(0, 256, (h, w), dtype=np.uint8)
        px[: h // 3, : w // 3] = rng.integers(0, 256)  # a flat block: zero-variance windows
        img = GrayImage(px)
        patches = [GrayImage(px[2:7, 3:9].copy()), GrayImage(rng.integers(0, 256, (8, 3), dtype=np.uint8))]
        counts = [4, 1]
        references = {}
        for workers in (1, 2, 3):
            banks = [build_bank(p, c, 360.0 / c) for p, c in zip(patches, counts)]
            for which, rect, threshold, chunk_elems in steps:
                bank = banks[which]
                window = img.rect if rect is None else Rect(*rect)
                got = scan_with(img, bank, window, threshold, workers, chunk_elems)
                fresh = build_bank(patches[which], counts[which], 360.0 / counts[which])
                assert got == scan(img, fresh, window, threshold)
                key = (which, window, threshold)
                if key not in references:
                    references[key] = expected_points(img, bank, window, threshold)
                assert got == references[key]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_scan_after_a_failed_chunk_is_exact(self, rng, checker22x36, workers, monkeypatch):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(plant(rng.integers(0, 256, (80, 90), dtype=np.uint8), checker22x36, 45, 40))
        window = Rect(38, 33, 15, 15)
        whole = scan_with(frame, bank, frame.rect, 0.0, workers)  # spectra now cached
        inside = scan_with(frame, bank, window, 0.3, workers)
        correlation = matcher._correlation
        with monkeypatch.context() as mp:  # correlations three times too large
            mp.setattr(matcher, "_correlation", lambda *args: 3.0 * correlation(*args))
            with pytest.raises(ArithmeticError, match="past its bound"):
                scan_with(frame, bank, frame.rect, 0.0, workers, chunk_elems=1)
        assert scan_with(frame, bank, window, 0.3, workers) == inside
        assert scan_with(frame, bank, frame.rect, 0.0, workers) == whole
        assert inside == expected_points(frame, bank, window, 0.3)
        assert any((p.u, p.v, p.score) == (45, 40, 1.0) for p in whole)

    def test_warm_tracking_window_runs_on_the_calling_thread(self, rng, monkeypatch):
        """A tracking window correlates its basis and runs its bounds on the
        calling thread, cold or warm, at any threshold, and never starts the
        pool."""
        bank = build_bank(default_target_patch(7))
        px = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), bank.entries[5].patch, 116, 103)
        frame = GrayImage(px)
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch)
        calls = low_rank_calls(monkeypatch)
        _, _, _, entries, _ = split_calls(monkeypatch)
        common = Rect(100, 80, 33, 47)  # 12 images at 144x64
        wide = Rect(40, 40, 121, 91)  # 12 images at 144x160
        scans = [(common, 0.9), (common, 0.9), (wide, 0.9), (wide, 0.9), (common, 0.0), (common, -1.0)]
        got = []
        with monkeypatch.context() as mp:
            mp.setattr(matcher, "_pool", no_pool("a window scan split"))
            for window, threshold in scans:  # each shape cold, then warm
                threads.clear()
                got.append(scan(frame, bank, window, threshold))
                assert threads and set(threads) == {threading.main_thread()}  # on this thread
        # one position test a scan, over 1,551 or 11,011 positions; 0.9 keeps
        # fewer than 4,860 of them, so one entry chunk a scan, and 0 and -1 keep all
        assert [len(args[2]) for args in calls] == [1551, 1551, 11011, 11011, 1551, 1551]
        assert len(entries) == 6 and all(0 < n < 4860 for n in entries[:4])
        assert entries[4:] == [1551, 1551]
        for (window, threshold), points in zip(scans, got):
            assert points == rank_k_scan(frame, bank, window, threshold)
        assert any((p.u, p.v, p.score) == (116, 103, 1.0) for p in got[0])
        assert len(got[-1]) == 33 * 47

    def test_only_scans_beyond_a_workers_share_split(self, rng, monkeypatch):
        """A whole frame hands its bands, each with its own correlation, to
        the workers, cold or warm; a window within a worker's share of the
        frame's rows of positions, at any threshold, is one band on the
        calling thread."""
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch)
        bands = chunk_threads(monkeypatch, "_band")
        common = Rect(100, 80, 33, 47)  # 144x64; a worker's share is 103 rows
        grown = Rect(90, 70, 51, 61)  # 144x80
        for window, threshold in ((common, 0.0), (grown, 0.9), (grown, 0.9)):
            threads.clear()
            bands.clear()
            scan(frame, bank, window, threshold)
            assert threads + bands == [threading.main_thread()] * 2, window
        small = GrayImage(rng.integers(0, 256, (40, 30), dtype=np.uint8))
        small_bank = build_bank(GrayImage(small.pixels[:5, :7]), 4, 90.0)
        for img, b in ((frame, bank), (frame, bank), (small, small_bank), (small, small_bank)):
            threads.clear()  # a whole frame splits even when warm and small
            bands.clear()
            scan(img, b, img.rect, 0.9 if img is frame else 0.0)
            assert on_workers(threads) and on_workers(bands) and len(bands) == 2

    def test_every_spectra_fill_takes_one_path(self, rng, monkeypatch):
        """``prepare``, a bare bank's first whole frame and a bare bank's first
        window each fill the bank's one spectra array through
        ``_fill_spectra``, at the frame's band shape, 144x320, on the calling
        thread with two workers, before any correlation reads it. Every later
        scan, a window of any padded shape too, fills nothing. What is kept
        is a C-contiguous complex128 array of shape (r, band rows, band
        columns // 2 + 1), which whole frames read along their rows and
        windows at a stride."""
        events = []
        fill, correlation = matcher._fill_spectra, matcher._correlation
        monkeypatch.setattr(matcher, "_fill_spectra", lambda *args: events.append(args[1]) or fill(*args))
        monkeypatch.setattr(matcher, "_correlation", lambda *args: events.append("c") or correlation(*args))
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch, "_fill_spectra")
        patch = default_target_patch(7)
        frame = GrayImage(plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), patch, 150, 100))
        prepared, bare, windowed = build_bank(patch), build_bank(patch), build_bank(patch)
        matcher.prepare(prepared, 320, 240)
        assert events == [(144, 320)] and threads == [threading.main_thread()]
        common, grown = Rect(140, 90, 33, 47), Rect(130, 80, 51, 61)  # padded 144x64, 144x80
        scans = [(prepared, frame.rect, []), (bare, frame.rect, [(144, 320)]),
                 (bare, frame.rect, []), (bare, common, []), (bare, common, []),
                 (bare, grown, []), (bare, common, []), (prepared, common, []),
                 (windowed, grown, [(144, 320)]), (windowed, frame.rect, []), (windowed, common, [])]
        for bank, window, filled in scans:
            events.clear()
            threads.clear()
            got = scan(frame, bank, window, 0.9)
            # a whole frame: 2 bands at 144x320, each correlating 4 chunks of 3 images
            chunks = 8 if window == frame.rect else 1
            assert events == filled + ["c"] * chunks  # filled whole, then correlated
            assert threads == [threading.main_thread()] * len(filled)
            assert got == rank_k_scan(frame, bank, window, 0.9)
        kept = [bank.kernel.frame for bank in (prepared, bare, windowed)]
        assert np.array_equal(kept[0][1], kept[1][1]) and np.array_equal(kept[0][1], kept[2][1])
        for shape, spectra in kept:
            assert shape == (144, 320)
            assert spectra.dtype == np.complex128 and spectra.flags.c_contiguous
            assert spectra.shape == (12, shape[0], shape[1] // 2 + 1)

    def test_large_windows_split_over_the_workers(self, rng, monkeypatch):
        """A window with more rows of positions than a worker's share, 103 of
        a 320x240 frame's 205 with a 22x36 template on two workers, splits
        into ceil(nv * 2 / 205) even parts on the workers: 110 rows into 55
        and 55, 150 into 75 and 75. Each part's sub-image fits the 144-row
        band; each runs one position test over its positions and the later
        stages in chunks of at most 4,860 kept positions, as the part alone
        scans as a window, and the whole equals the reference."""
        bank = build_bank(default_target_patch(7))
        px = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), bank.entries[5].patch, 150, 120)
        frame = GrayImage(px)
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        calls = low_rank_calls(monkeypatch)
        _, _, _, entries, exacts = split_calls(monkeypatch)
        runs = part_calls(monkeypatch)
        parts = {Rect(40, 40, 130, 110): [Rect(40, 40, 130, 55), Rect(40, 95, 130, 55)],
                 Rect(60, 45, 200, 150): [Rect(60, 45, 200, 75), Rect(60, 120, 200, 75)]}
        for window, halves in parts.items():
            runs.clear()
            got = scan(frame, bank, window, 0.9)
            assert any((p.u, p.v, p.score) == (150, 120, 1.0) for p in got)
            assert got == rank_k_scan(frame, bank, window, 0.9)
            assert sorted((c.first, c.rows - 35) for c in runs) == [
                ((half.y - window.y) * window.w, half.h) for half in halves]
            assert all(c.rows <= c.band[0] == 144 for c in runs)
            assert on_workers({c.thread for c in runs})
        halves = [half for pair in parts.values() for half in pair]
        assert sorted(len(args[2]) for args in calls) == sorted(half.area for half in halves)
        assert sorted(entries) == sorted(exacts) and len(entries) == 4
        assert 0 < sum(entries) and max(entries) <= 4860
        kept = sorted(entries)
        entries.clear()
        with monkeypatch.context() as mp:
            mp.setattr(matcher, "_pool", no_pool("a part alone split"))
            for half in halves:
                scan(frame, bank, half, 0.9)
        assert sorted(entries) == kept

    def test_bank_keeps_the_spectra_of_the_last_frame_size(self, rng, checker22x36):
        """A bank keeps one spectra array, at the band shape of the last frame
        size it scanned, equal to a fresh bank's: a whole frame or a window
        of another frame size replaces it, and any scan of the same size, a
        window of any padded shape too, reuses the array it kept."""
        bank = build_bank(checker22x36, 4, 90.0)
        small = GrayImage(rng.integers(0, 256, (60, 80), dtype=np.uint8))
        large = GrayImage(rng.integers(0, 256, (120, 160), dtype=np.uint8))
        kept = []
        for img, window in ((small, small.rect), (large, large.rect), (small, small.rect),
                            (small, small.rect), (large, Rect(40, 40, 5, 5)), (large, Rect(40, 40, 9, 9)),
                            (large, Rect(40, 40, 5, 5)), (small, Rect(20, 20, 9, 9)), (small, small.rect)):
            fresh = build_bank(checker22x36, 4, 90.0)
            assert scan(img, bank, window, 0.5) == scan(img, fresh, window, 0.5)
            assert bank.kernel.frame[0] == fresh.kernel.frame[0] == frame_slot(img, bank)
            assert np.array_equal(bank.kernel.frame[1], fresh.kernel.frame[1])
            kept.append(bank.kernel.frame[1])
        assert [kept[i] is kept[i - 1] for i in range(1, len(kept))] == [
            False, False, True, False, True, True, False, True]

    @pytest.mark.parametrize("shape", [(90, 54), (240, 320), (480, 640), (144, 320), (48, 32),
                                       (270, 640)])
    def test_pruned_bank_spectra_equal_rfft2(self, shape):
        """The fill transforms the template's rows alone, then the height in
        place: bit for bit the conjugate of ``rfft2``, of the basis images and
        of the bank's weights, whose transforms are larger."""
        kernel = matcher._kernel(build_bank(default_target_patch(7)))
        for images in (kernel.images, kernel.weights):
            expected = np.conj(np.fft.rfft2(images, shape))
            assert np.array_equal(matcher._fill_spectra(images, shape), expected)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
           st.sampled_from([(144, 320), (90, 54), (40, 72), (36, 24), (75, 200)]))
    def test_band_spectra_sampled_at_a_divisor_shape_equal_rfft2(self, seed, tw, th, band):
        """At every H x W that holds the template, H dividing the band's rows
        Hb and W its columns Wb, the spectra kept at the band shape sampled
        every Hb // H rows and Wb // W columns, the slice a band padded to
        H x W reads, equal ``conj(rfft2)`` at H x W within 32u log2(Hb Wb)
        ||b||_1 per value, u = 2**-53: the error ``_fft_error`` allows a
        kernel's spectrum. (Measured: under 3e-16 of the largest value.)"""
        rng = np.random.default_rng(seed)
        bank = build_bank(GrayImage(rng.integers(0, 256, (th, tw), dtype=np.uint8)), 12, 30.0)
        images = matcher._kernel(bank).images
        kept = matcher._fill_spectra(images, band)
        bound = matcher._FFT_ERROR * math.log2(band[0] * band[1]) * np.abs(images).sum(axis=(1, 2))
        shapes = [(h, w) for h in range(th, band[0] + 1) if band[0] % h == 0
                  for w in range(tw, band[1] + 1) if band[1] % w == 0]
        assert (band[0], band[1]) in shapes
        for h, w in shapes:
            got = kept[:, :: band[0] // h, :: band[1] // w]
            expected = np.conj(np.fft.rfft2(images, (h, w)))
            assert got.shape == expected.shape
            assert np.all(np.abs(got - expected) <= bound[:, None, None])

    @settings(max_examples=15, deadline=None)
    @given(scan_cases(min_frame=24, max_frame=40), st.sampled_from([2, 3]), st.data())
    def test_window_taller_than_a_band_equals_brute_force(self, case, workers, data):
        """A window of every row of positions but the last, from a drawn
        column on, has a sub-image taller than a band of two or three
        workers: it splits into ceil(nv * workers / full.h) = workers even
        parts on the workers, each with at most a worker's share of rows,
        within the band, and equals ``zmncc`` at every position and
        ``rank_k_scan``."""
        img, bank, threshold = case
        th = bank.base_height
        full = valid_center_rect(bank.base_width, th, img.width, img.height)
        x = data.draw(st.integers(full.x, full.x2 - 1))
        window = Rect(x, full.y, full.x2 - x, full.h - 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "_WORKERS", workers)
            calls = part_calls(mp)
            got = scan(img, bank, window, threshold)
            shape = frame_slot(img, bank)
        assert got == expected_points(img, bank, window, threshold)
        assert got == rank_k_scan(img, bank, window, threshold)
        assert window.h + th - 1 > shape[0]
        assert sorted((c.first, c.rows - th + 1) for c in calls) == [
            (lo * window.w, hi - lo) for lo, hi in matcher._parts(window.h, workers)]
        assert len(calls) == workers and on_workers({c.thread for c in calls})
        assert all(c.rows - th + 1 <= -(-full.h // workers) and c.rows <= shape[0] for c in calls)


def low_rank_calls(monkeypatch):
    """The arguments of every position test (``_kept_positions``) from now on."""
    calls = []
    top = matcher._kept_positions

    def recording(*args):
        calls.append(args)
        return top(*args)

    monkeypatch.setattr(matcher, "_kept_positions", recording)
    return calls


@st.composite
def low_rank_cases(draw):
    """A 36-entry bank of a template of 5x5 or more, a frame holding one of its
    entries, a window and the bank's largest basis residual. The entries of a
    point-symmetric template 180 degrees apart often have equal pixels, so
    their scores tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tw, th = draw(st.integers(5, 12)), draw(st.integers(5, 12))
    kind = draw(st.sampled_from(["blocky", "symmetric", "random", "saturated"]))
    if kind in ("blocky", "symmetric"):  # smooth under rotation, so a small residual
        coarse = rng.integers(0, 256, (th // 3 + 1, tw // 3 + 1))
        tpx = np.kron(coarse, np.ones((3, 3), dtype=np.int64))[:th, :tw].astype(np.uint8)
        if kind == "symmetric":  # entries 180 degrees apart tie
            tpx = np.maximum(tpx, tpx[::-1, ::-1])
    elif kind == "random":
        tpx = rng.integers(0, 256, (th, tw), dtype=np.uint8)
    else:
        tpx = (rng.integers(0, 2, (th, tw)) * 255).astype(np.uint8)
    bank = build_bank(GrayImage(tpx))
    w, h = draw(st.integers(40, 64)), draw(st.integers(40, 64))  # a window pads to less
    px = rng.integers(0, 256, (h, w), dtype=np.uint8)
    bw, bh = int(rng.integers(1, w)), int(rng.integers(1, h))
    px[: bh, : bw] = rng.integers(0, 256)  # a flat block: zero-variance windows
    full = valid_center_rect(tw, th, w, h)
    u = int(rng.integers(full.x, full.x2))
    v = int(rng.integers(full.y, full.y2))
    plant(px, bank.entries[draw(st.integers(0, 35))].patch, u, v)
    du, dv = draw(st.integers(0, 6)), draw(st.integers(0, 6))  # the window holds (u, v)
    window = Rect(u - du, v - dv, du + draw(st.integers(1, 7)), dv + draw(st.integers(1, 7)))
    eps = matcher._kernel(bank).resid.max()
    return GrayImage(px), bank, window, eps


class TestLowRankRoute:
    @pytest.mark.parametrize("seed, largest", [(1, 0.172), (3, 0.295), (7, 0.170), (42, 0.213)])
    def test_basis_is_orthonormal_and_bounds_every_residual(self, seed, largest):
        bank = build_bank(default_target_patch(seed))
        consts = basis = matcher._kernel(bank)
        assert matcher._kernel(bank) is basis  # built once, then cached
        images = basis.images.reshape(len(basis.images), -1)
        assert len(images) == matcher._BASIS_RANK
        gram = (images[:, None, :] * images[None, :, :]).sum(axis=2)
        assert np.abs(gram - np.eye(len(images))).max() < 1e-12
        assert np.abs(images.sum(axis=1)).max() < 1e-12
        w = consts.weights.reshape(len(bank), -1)
        a = (w[:, None, :] * images[None, :, :]).sum(axis=2)
        rest = w - (a[:, :, None] * images[None, :, :]).sum(axis=1)
        exact = np.sqrt((rest * rest).sum(axis=1) / (w * w).sum(axis=1))
        assert np.all(basis.resid >= exact)  # an upper bound, and a close one
        assert np.all(basis.resid <= exact + 1e-9)
        assert np.allclose(basis.coef, a / np.sqrt((w * w).sum(axis=1))[:, None], rtol=0, atol=1e-12)
        assert basis.resid.max() == pytest.approx(largest, abs=5e-4)

    def test_basis_of_a_point_symmetric_template_is_orthonormal(self):
        """Its odd angle modes are rounding noise, nearly parallel to the
        images before them, so one Gram-Schmidt pass is not enough, and
        need not sum to 0 as the weights do: each image is made to, so a
        window's coordinates do not depend on the mean it was centred on."""
        tpx = np.array([[209, 209, 209, 82, 82], [209, 209, 209, 82, 82], [209, 209, 209, 209, 209],
                        [82, 82, 209, 209, 209], [82, 82, 209, 209, 209]], dtype=np.uint8)
        for patch in (tpx, UNCENTRED_NOISE_5X5):
            images = matcher._kernel(build_bank(GrayImage(patch))).images.reshape(-1, 25)
            gram = (images[:, None, :] * images[None, :, :]).sum(axis=2)
            assert len(images) == 12
            assert np.abs(gram - np.eye(12)).max() < 1e-14
            assert np.abs(images.sum(axis=1)).max() < 1e-14

    def test_window_of_a_point_symmetric_template_is_exact(self):
        """A window whose sub-image mean is far from its windows' means, with
        ``UNCENTRED_NOISE_5X5``: every threshold scans without an
        ``ArithmeticError`` and equals brute force."""
        px = np.full((10, 10), 7, np.uint8)
        px[:6, :5] = [*UNCENTRED_NOISE_5X5, [229, 167, 88, 20, 243]]
        img, bank, window = GrayImage(px), build_bank(GrayImage(UNCENTRED_NOISE_5X5)), Rect(2, 2, 1, 2)
        for threshold in (0.0126540465, 0.5, -1.0):
            assert scan(img, bank, window, threshold) == expected_points(img, bank, window, threshold)

    @settings(max_examples=30, deadline=None)
    @given(low_rank_cases())
    def test_per_mode_bound_covers_every_exact_score(self, case):
        """With c the exact coordinates of a centred window f_c, the per-mode
        test's bound, sum_g max_k ||a_k,g|| ||c_g|| / ||w_k|| + max(eps)
        ||(I - P) f_c||, is at least every entry's score times ||f_c||, and
        the bounds keep every position's top entry at a bar of its own
        score: the position test keeps the position and the entry bound the
        entry. The images of one angle mode form one group."""
        img, bank, window, eps = case
        consts = basis = matcher._kernel(bank)
        r = len(basis.images)
        sizes = np.diff(basis.starts, append=r)
        assert np.array_equal(basis.starts, np.flatnonzero(np.diff(basis.mode, prepend=-1)))
        assert len(np.unique(basis.mode)) == len(basis.starts)  # a mode's images are consecutive
        assert set(sizes.tolist()) <= {1, 2}  # a mode gives a real and an imaginary image, or one
        th, tw = bank.base_height, bank.base_width
        win = scanned(img, bank, window)
        x0, y0 = template_origin(win.x, tw), template_origin(win.y, th)
        f = sliding_window_view(img.pixels.astype(np.float64), (th, tw))[
            y0 : y0 + win.h, x0 : x0 + win.w].reshape(-1, th * tw)
        f_c = f - f.mean(axis=1, keepdims=True)
        norm = np.sqrt((f_c * f_c).sum(axis=1))
        c = (f_c[None] * basis.images.reshape(r, 1, -1)).sum(axis=2)  # (r, positions)
        w = consts.weights.reshape(len(bank), 1, -1)
        w_norm = np.sqrt((w * w).sum(axis=2))
        scaled = np.divide((f_c[None] * w).sum(axis=2), w_norm,  # each score times ||f_c||
                           out=np.zeros((len(bank), len(f))), where=w_norm > 0.0)
        modal = sum(a * np.sqrt((c[s : s + n] ** 2).sum(axis=0))
                    for a, s, n in zip(basis.amp, basis.starts, sizes))
        outside = np.sqrt(np.maximum(norm**2 - (c**2).sum(axis=0), 0.0))
        assert np.all(scaled <= modal + basis.resid.max() * outside + 1e-9 * (norm + 1.0))
        bar = np.where(norm > 0.0, scaled.max(axis=0) - 1e-9 * (norm + 1.0), np.inf)
        at, outside = matcher._kept_positions(c, basis, bar, norm)
        i, ks, _, _ = matcher._candidate_pairs(c[:, at], basis, bar[at], outside)
        kept = set(zip(at[i].tolist(), ks.tolist()))
        top = scaled.argmax(axis=0)
        assert all((p, int(top[p])) in kept for p in np.flatnonzero(norm > 0.0))

    @settings(max_examples=40, deadline=None)
    @given(low_rank_cases())
    def test_scans_equal_brute_force_and_the_rank_k_route(self, case):
        img, bank, window, eps = case
        images = matcher._kernel(bank).images
        images = images.reshape(len(images), -1)
        gram = (images[:, None, :] * images[None, :, :]).sum(axis=2)
        assert np.abs(gram - np.eye(len(images))).max() < 1e-14  # orthonormal to working precision
        r = scanned(img, bank, window)
        best = {(u, v): best_of_bank(img, bank, u, v)
                for v in range(r.y, r.y2) for u in range(r.x, r.x2)}
        scores = sorted(s for s, _ in best.values() if s > eps)
        thresholds = [float(np.nextafter(eps, 2.0)), eps + (1.0 - eps) / 2, eps, 0.0, -1.0]
        if scores:
            thresholds += [scores[0], scores[-1], scores[len(scores) // 2]]  # real scores
        with pytest.MonkeyPatch.context() as mp:
            calls = low_rank_calls(mp)
            for threshold in thresholds:
                expected = [MatchPoint(u, v, s, a) for (u, v), (s, a) in best.items()
                            if s >= threshold]
                expected.sort(key=lambda p: (p.v, p.u))
                got = scan(img, bank, window, threshold)
                assert got == expected
                assert got == rank_k_scan(img, bank, window, threshold)
        assert len(calls) == len(thresholds)  # one position test a scan

    @pytest.mark.parametrize(
        "case",
        ["window", "whole frame", "large window", "at the residual", "below the residual",
         "threshold 0", "threshold -1", "flat windows", "flat bank", "12 entries", "4x3 template"],
    )
    def test_route(self, rng, monkeypatch, case):
        """Every scan bounds each of its positions once, whatever its
        threshold, bank or size, and equals brute force. A whole frame and a
        window of more rows than a worker's share run on the workers; a
        smaller window runs on the calling thread."""
        patch = default_target_patch(1)
        count = 12 if case == "12 entries" else 36
        if case == "4x3 template":
            patch = GrayImage(patch.pixels[:3, :4])
        elif case == "flat bank":
            patch = GrayImage.full(patch.width, patch.height, 90)
        bank = build_bank(patch, count, 360.0 / count)
        px = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), bank.entries[3].patch, 40, 32)
        if case == "flat windows":  # flat at every centre of the window but u > 48 or v > 41
            px[:60, :60] = 77
        frame = GrayImage(px)
        window = Rect(30, 22, 21, 21)
        if case == "whole frame":  # 64x80, smaller than many windows
            frame = GrayImage(frame.pixels[:64, :80].copy())
            window = frame.rect
        elif case == "large window":  # two parts of 55 rows, padded 144x160
            window = Rect(40, 40, 130, 110)
        threshold = {"threshold 0": 0.0, "threshold -1": -1.0, "flat windows": 0.0, "flat bank": 0.0}.get(case, 0.9)
        if "residual" in case:
            resid = matcher._kernel(bank).resid.max()
            threshold = resid if case == "at the residual" else resid / 2
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        calls = low_rank_calls(monkeypatch)
        threads = chunk_threads(monkeypatch)
        got = scan(frame, bank, window, threshold)
        positions = scanned(frame, bank, window).area
        assert sum(len(args[2]) for args in calls) == positions  # each bounded once
        if case in ("whole frame", "large window"):
            assert on_workers(threads)
        else:  # a flat bank has no basis images to correlate
            assert set(threads) == ({threading.main_thread()} if case != "flat bank" else set())
        assert isinstance(bank.kernel, matcher._Kernel)
        if case == "large window":
            assert got == rank_k_scan(frame, bank, window, threshold)
        else:
            assert got == expected_points(frame, bank, window, threshold)
        if case == "flat bank":
            assert len(matcher._kernel(bank).images) == 0
            assert got == [MatchPoint(p.u, p.v, 0.0, 0.0) for p in got] and len(got) == 21 * 21

    def test_flat_windows_are_never_scored(self, rng, monkeypatch):
        bank = build_bank(default_target_patch(7))
        px = rng.integers(0, 256, (120, 160), dtype=np.uint8)
        px[10:80, 10:90] = 77  # every window centred in (20..78, 27..62) is flat
        calls = low_rank_calls(monkeypatch)
        assert scan(GrayImage(px), bank, Rect(20, 27, 40, 30), 0.9) == []
        assert len(calls) == 1

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("where", ["window", "frame"])  # a window or the whole frame
    def test_bound_check_raises_and_keeps_the_cache_sound(self, rng, monkeypatch, where, warm):
        """Every scan shares one check: an exact score outside its bound raises.
        On the whole frame it raises on a worker, in one band or in both, and
        one of the errors raised reaches the caller unchanged."""
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(plant(rng.integers(0, 256, (120, 160), dtype=np.uint8),
                                bank.entries[5].patch, 80, 60))
        window = Rect(70, 50, 21, 21) if where == "window" else frame.rect
        expected = rank_k_scan(frame, bank, window, 0.9)
        assert (80, 60, 1.0) in {(p.u, p.v, p.score) for p in expected}  # the planted entry matches
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        if warm:
            assert scan(frame, bank, window, 0.9) == expected
        kept = matcher._kernel(bank).frame
        raised = []
        exact_top = matcher._exact_top

        def recording(*args):
            try:
                return exact_top(*args)
            except ArithmeticError as exc:
                raised.append((exc, threading.current_thread()))
                raise

        correlation = matcher._correlation
        with monkeypatch.context() as mp:  # correlations three times too large
            mp.setattr(matcher, "_correlation", lambda *args: 3.0 * correlation(*args))
            mp.setattr(matcher, "_exact_top", recording)
            with pytest.raises(ArithmeticError, match="past its bound") as excinfo:
                scan(frame, bank, window, 0.9)
        assert any(excinfo.value is exc for exc, _ in raised)  # an error raised, unchanged
        on_worker = [thread is not threading.main_thread() for _, thread in raised]
        assert on_worker == [where == "frame"] * len(raised)
        # the spectra are filled and kept before any correlation, so a failed
        # scan of either kind, cold or warm, leaves sound spectra: those
        # ``prepare`` fills, and a warm scan's the very array it had
        prepared = build_bank(default_target_patch(7))
        matcher.prepare(prepared, frame.width, frame.height)
        assert bank.kernel.frame[0] == prepared.kernel.frame[0]
        assert np.array_equal(bank.kernel.frame[1], prepared.kernel.frame[1])
        assert (bank.kernel.frame is kept) == warm
        assert scan(frame, bank, window, 0.9) == expected

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_closed_loop_scans_equal_the_rank_k_route(self, name, monkeypatch):
        """Every scan of a run equals the reference and bounds each of its
        positions once, the acquisition scan of the whole frame too."""
        from uastrack.scenesim import make_scenario
        from uastrack.sim import run_sim
        from uastrack.tracker import TrackerConfig

        compared = []

        def both(img, bank, window, threshold):
            got = scan(img, bank, window, threshold)
            assert got == rank_k_scan(img, bank, window, threshold)
            compared.append((len(got), scanned(img, bank, window).area))
            return got

        calls = low_rank_calls(monkeypatch)
        monkeypatch.setattr(matcher, "scan", both)
        run_sim(make_scenario(name, frames=30, seed=1), TrackerConfig())
        points, positions = (sum(column) for column in zip(*compared))
        assert len(compared) == 30 and points > 0
        assert sum(len(args[2]) for args in calls) == positions  # every position bounded once

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(scenarios(), st.booleans())
    # 640x480, so bands run at a second frame size: warm on a prepared bank,
    # cold on a bare one
    @example(Scenario("generated", frame_w=640, frame_h=480, trajectory=LineTrajectory(-60.0, 25.0, 4.0, -3.0),
                      target_spin=3.0, noise_sigma=2.0, occlusions=(Occlusion(3, 5, Rect(0, 0, 40, 40)),),
                      seed=11, frames=5), True)
    @example(Scenario("generated", frame_w=640, frame_h=480, trajectory=JumpTrajectory(-30.0, 10.0, 90.0, -60.0, 2),
                      target_spin=-2.0, gain=Ramp((0.0, 4.0), (1.0, 0.7)), seed=12, frames=5), False)
    def test_generated_closed_loop_scans_equal_the_rank_k_route(self, sc, prepared):
        """Over generated scenes, every scan of a run, cold or warm and of any
        window shape, equals the reference, and at a sample of its positions,
        its top point and four drawn ones, equals brute force: the top
        ``zmncc`` over the bank, on ties the lowest angle, a match point
        exactly when it reaches the threshold. A bank that is not prepared
        fills its spectra in its first scan. Every frame
        has one status and a window inside the valid centres, holding its
        detection, and a finite, positive trace of P. A second run of the
        scene writes a byte-identical track log."""
        import tempfile

        from uastrack.sim import run_sim, scenario_optics
        from uastrack.tracker import STATUS_INITIALIZED, STATUS_LOST, STATUS_MISS, \
            STATUS_REDETECTING, STATUS_TRACKING, TrackerConfig, write_log

        def logged(result):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "log.csv")
                write_log(result.outcomes, path)
                return Path(path).read_bytes()

        sampled = []

        def both(img, bank, window, threshold):
            got = scan(img, bank, window, threshold)
            assert got == rank_k_scan(img, bank, window, threshold)
            r = scanned(img, bank, window)
            rng = np.random.default_rng(len(sampled))
            at = {(p.u, p.v): p for p in got}
            top = [max(got, key=lambda p: p.score)] if got else []
            for u, v in [(p.u, p.v) for p in top] + list(zip(rng.integers(r.x, r.x2, 4).tolist(),
                                                              rng.integers(r.y, r.y2, 4).tolist())):
                best, angle = best_of_bank(img, bank, u, v)
                p = at.get((u, v))
                assert (p and (p.score, p.angle_deg)) == ((best, angle) if best >= threshold else None)
                sampled.append((u, v))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "scan", both)
            if not prepared:
                mp.setattr(matcher, "prepare", lambda bank, w, h: None)
            result = run_sim(sc, TrackerConfig(optics=scenario_optics(sc)))
        assert len(sampled) >= 4 * sc.frames  # every scan sampled
        assert logged(run_sim(sc, TrackerConfig(optics=scenario_optics(sc)))) == logged(result)
        full = valid_center_rect(sc.patch_w, sc.patch_h, sc.frame_w, sc.frame_h)
        statuses = {STATUS_INITIALIZED, STATUS_TRACKING, STATUS_MISS, STATUS_REDETECTING, STATUS_LOST}
        assert [o.frame_index for o in result.outcomes] == list(range(sc.frames))
        for o in result.outcomes:
            assert o.status in statuses
            assert full.contains(o.window) and o.window.w > 0 and o.window.h > 0
            d, w = o.detection, o.window
            assert d is None or (w.x <= d.x <= w.x2 - 1 and w.y <= d.y <= w.y2 - 1)
            assert o.state is None or 0.0 < float(o.state.P.trace()) < math.inf


def test_scan_makes_no_blas_call():
    """No matrix product or ``linalg`` call in ``matcher``: no ``@``, ``np.dot``, ``np.linalg``.

    A float64 matmul numerator for small windows woke OpenBLAS's threads,
    which then kept the second core busy: the next full-frame scan slowed
    from ~43 to 58-84 ms, and ``test_c09_windowed_speedup`` (>= 20x)
    failed in 11 of 14 solo runs at 7.8-10.7x, passing with
    ``OPENBLAS_NUM_THREADS=1``. A bank basis from ``np.linalg.svd`` woke
    them the same way and slowed the first tracking frame. The scan's
    numerators are FFT correlations and element-wise sums.
    """
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}
    found = [
        node.lineno
        for node in ast.walk(ast.parse(Path(matcher.__file__).read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in blas
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any("linalg" in name for name in [getattr(node, "module", None) or ""]
                + [alias.name for alias in node.names])
    ]
    assert found == []


class TestDetect:
    def test_singleton(self):
        d = detect([MatchPoint(50, 60, 0.97, 20.0)], 0.9)
        assert d == Detection(50.0, 60.0, 0.97, 20.0, 1)

    def test_centroid_of_two(self):
        d = detect(
            [MatchPoint(10, 10, 0.91, 0.0), MatchPoint(12, 14, 0.95, 10.0)], 0.9
        )
        assert (d.x, d.y) == (11.0, 12.0)
        assert d.best_score == 0.95
        assert d.best_angle_deg == 10.0
        assert d.support == 2

    def test_empty_is_none(self):
        assert detect([], 0.9) is None

    def test_centroid_inside_bounding_box(self, rng):
        points = [
            MatchPoint(int(u), int(v), float(s), 0.0)
            for u, v, s in zip(
                rng.integers(5, 50, 25), rng.integers(5, 50, 25), rng.uniform(0.9, 1.0, 25)
            )
        ]
        d = detect(points, 0.9)
        assert min(p.u for p in points) <= d.x <= max(p.u for p in points)
        assert min(p.v for p in points) <= d.y <= max(p.v for p in points)

    def test_box_keeps_a_far_false_cluster_out_of_the_centroid(self):
        true = [MatchPoint(100, 80, 0.97, 10.0), MatchPoint(102, 83, 0.93, 10.0)]
        false = [MatchPoint(200, 150, 0.95, 40.0), MatchPoint(201, 150, 0.94, 40.0)]
        d = detect(false + true, 0.9, (22, 36))
        assert d == Detection(101.0, 81.5, 0.97, 10.0, 2)
        # with no box every point counts, as before
        assert detect(false + true, 0.9).support == 4

    def test_box_support_is_the_cluster_size(self, rng):
        best = MatchPoint(60, 70, 0.99, 0.0)
        near = [
            MatchPoint(60 + int(du), 70 + int(dv), 0.9, 0.0)
            for du, dv in zip(rng.integers(-11, 12, 30), rng.integers(-18, 19, 30))
        ]
        far = [MatchPoint(60 + 12, 70, 0.95, 0.0), MatchPoint(60, 70 - 19, 0.95, 0.0)]
        d = detect(near + far + [best], 0.9, (22, 36))
        assert d.support == len(near) + 1
        assert d.x == sum(p.u for p in near + [best]) / d.support
        assert d.y == sum(p.v for p in near + [best]) / d.support

    @pytest.mark.parametrize("du, dv", [(11, 0), (-11, 0), (0, 18), (0, -18), (11, -18), (-11, 18)])
    def test_box_edge_is_inside(self, du, dv):
        # a 22x36 box reaches +-(22 // 2, 36 // 2) = +-(11, 18), edges included
        best = MatchPoint(50, 50, 0.99, 0.0)
        edge = MatchPoint(50 + du, 50 + dv, 0.91, 0.0)
        assert detect([best, edge], 0.9, (22, 36)).support == 2
        beyond = MatchPoint(edge.u + int(np.sign(du)), edge.v + int(np.sign(dv)), 0.91, 0.0)
        assert detect([best, beyond], 0.9, (22, 36)).support == 1

    def test_tie_keeps_first(self):
        d = detect(
            [MatchPoint(1, 1, 0.95, 30.0), MatchPoint(2, 2, 0.95, 40.0)], 0.9
        )
        assert d.best_angle_deg == 30.0


class TestGeometryHelpers:
    def test_template_origin_convention(self):
        assert template_origin(10, 22) == 0  # 22-wide template at center 10 starts at 0
        assert template_origin(5, 7) == 2

    def test_center_bounds(self):
        lo, hi = center_bounds(22, 160)
        assert (lo, hi) == (10, 148)
        assert hi - 10 + 22 == 160  # rightmost placement exactly fits

    def test_valid_center_rect_too_big(self):
        with pytest.raises(BoundsError):
            valid_center_rect(50, 50, 40, 60)
