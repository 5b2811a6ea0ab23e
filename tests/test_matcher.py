import ast
import dataclasses
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import zmncc_loops
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
from uastrack.scenesim import BUILTIN_NAMES, default_target_patch
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
    """``scan`` on the rank-K route: the pixels under the clamped window
    scanned as a whole frame, with a fresh bank, the points shifted back."""
    tw, th = bank.base_width, bank.base_height
    u0, u1, v0, v1 = matcher._clamp_window(window, tw, th, img.width, img.height)
    if u0 > u1 or v0 > v1:
        return []
    x0, y0 = template_origin(u0, tw), template_origin(v0, th)
    sub = GrayImage(img.pixels[y0 : y0 + v1 - v0 + th, x0 : x0 + u1 - u0 + tw].copy())
    points = scan(sub, dataclasses.replace(bank), sub.rect, threshold)
    return [dataclasses.replace(p, u=p.u + x0, v=p.v + y0) for p in points]


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
        for workers in (1, 2):
            assert scan_with(img, bank, full, threshold, workers) == expected
            assert scan_with(img, bank, full, threshold, workers, chunk_elems=1) == expected

    @settings(max_examples=12, deadline=None)
    @given(scan_cases(min_frame=68, max_frame=90), windows)
    def test_whole_frame_spectra_survive_window_scans(self, case, rects):
        img, bank, threshold = case
        assert bank.kernel_cache == {}  # building a bank transforms nothing
        full = valid_center_rect(bank.base_width, bank.base_height, img.width, img.height)
        whole = scan(img, bank, full, threshold)
        kept = bank.kernel_cache["frame"]
        assert kept[0] == (matcher._smooth5(img.height), matcher._smooth5(img.width))
        for workers, rect in zip([1, 2] * len(rects), rects):
            window = Rect(*rect)
            inside = [p for p in whole if window.contains(Rect(p.u, p.v, 1, 1))]
            assert scan_with(img, bank, window, threshold, workers) == inside
            assert bank.kernel_cache["frame"] is kept
        for p in whole[:: max(1, len(whole) // 25)]:
            assert (p.score, p.angle_deg) == best_of_bank(img, bank, p.u, p.v)
        assert bank == build_bank(bank.entries[0].patch, len(bank), 360.0 / len(bank))
        assert "kernel_cache" not in repr(bank)

    def test_window_spectra_stay_within_their_budget(self, rng, checker22x36, monkeypatch):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(rng.integers(0, 256, (120, 160), dtype=np.uint8))
        scan(frame, bank, frame.rect, 0.0)
        kept = bank.kernel_cache["frame"]
        budget = 600_000  # two or three of the shapes below
        monkeypatch.setattr(matcher, "_WINDOW_SPECTRA_BYTES", budget)
        for side in range(1, 60, 3):
            window = Rect(40, 40, side, side)
            fresh = build_bank(checker22x36, 4, 90.0)
            assert scan(frame, bank, window, 0.0) == scan(frame, fresh, window, 0.0)
            shapes = bank.kernel_cache["windows"]
            assert 0 < sum(s.nbytes for s in shapes.values()) <= budget
            assert bank.kernel_cache["frame"] is kept
        assert len(shapes) >= 2
        assert list(shapes)[-1] == (matcher._smooth5(58 + 35), matcher._smooth5(58 + 21))
        monkeypatch.setattr(matcher, "_WINDOW_SPECTRA_BYTES", 0)
        newest = (matcher._smooth5(5 + 35), matcher._smooth5(5 + 21))
        scan(frame, bank, Rect(40, 40, 5, 5), 0.0)
        only = bank.kernel_cache["windows"]
        assert list(only) == [newest]  # over the budget alone, the newest shape is kept
        scan(frame, bank, Rect(40, 40, 5, 5), 0.0)
        assert bank.kernel_cache["windows"][newest] is only[newest]  # and reused warm
        assert bank.kernel_cache["frame"] is kept

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
            (1, matcher._CHUNK_ELEMS, [(0, 36)]),
            (2, matcher._CHUNK_ELEMS, [(0, 18), (18, 36)]),
            (5, matcher._CHUNK_ELEMS, [(0, 7), (7, 14), (14, 21), (21, 28), (28, 36)]),
            # a cap of 5 entries at 90x54 needs 8 chunks
            (2, 5 * 90 * 54, [(0, 4), (4, 9), (9, 13), (13, 18), (18, 22), (22, 27), (27, 31), (31, 36)]),
        ],
    )
    def test_bank_splits_evenly_into_chunks_within_the_cap(
        self, rng, workers, chunk_elems, expected, monkeypatch
    ):
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (82, 54), dtype=np.uint8))  # pads to 90x54
        window = frame.rect
        ran = []
        score_chunk = matcher._score_chunk

        def recording(job, k0, k1):
            ran.append((k0, k1))
            return score_chunk(job, k0, k1)

        monkeypatch.setattr(matcher, "_score_chunk", recording)
        points = scan_with(frame, bank, window, 0.0, workers, chunk_elems)
        assert sorted(ran) == expected
        assert points == scan_with(frame, build_bank(default_target_patch(7)), window, 0.0, 1)

    def test_pool_starts_on_the_first_split_scan(self, rng, checker22x36, monkeypatch):
        probe = (
            "import sys, threading\n"
            "import numpy as np\n"
            "import uastrack.cli\n"
            "from uastrack import matcher, warp\n"
            "from uastrack.imagebuf import GrayImage\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
            "matcher._WORKERS = 2\n"
            "img = GrayImage(np.arange(1600, dtype=np.uint8).reshape(40, 40))\n"
            "matcher.scan(img, warp.build_bank(GrayImage(img.pixels[:5, :7]), 4, 90.0), img.rect)\n"
            "print(threading.active_count())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(matcher.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        imported, before, after = out.stdout.split()
        assert (imported, before) == ("False", "1")  # importing starts no thread
        assert int(after) > 1
        monkeypatch.setattr(matcher, "_executor", lambda: pytest.fail("one worker started a pool"))
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


def expected_points(img, bank, window, threshold):
    """Brute-force ``scan``: ``best_of_bank`` at every valid position of ``window``."""
    tw, th = bank.base_width, bank.base_height
    u0, u1, v0, v1 = matcher._clamp_window(window, tw, th, img.width, img.height)
    expected = []
    for v in range(v0, v1 + 1):
        for u in range(u0, u1 + 1):
            best, angle = best_of_bank(img, bank, u, v)
            if best >= threshold:
                expected.append(MatchPoint(u, v, best, angle))
    return expected


def chunk_threads(monkeypatch, name="_score_chunk"):
    """The threads that run each chunk task ``name`` from now on, in call order."""
    threads = []
    task = getattr(matcher, name)

    def recording(job, k0, k1):
        threads.append(threading.current_thread())
        return task(job, k0, k1)

    monkeypatch.setattr(matcher, name, recording)
    return threads


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
    def test_scan_sequences_stay_exact_on_reused_buffers(self, seed, steps):
        rng = np.random.default_rng(seed)
        h, w = (int(x) for x in rng.integers(12, 30, 2))
        px = rng.integers(0, 256, (h, w), dtype=np.uint8)
        px[: h // 3, : w // 3] = rng.integers(0, 256)  # a flat block: zero-variance windows
        img = GrayImage(px)
        patches = [GrayImage(px[2:7, 3:9].copy()), GrayImage(rng.integers(0, 256, (8, 3), dtype=np.uint8))]
        counts = [4, 1]
        references = {}
        for workers in (1, 2):
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_after_a_failed_chunk_is_exact(self, rng, checker22x36, workers, monkeypatch):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(plant(rng.integers(0, 256, (80, 90), dtype=np.uint8), checker22x36, 45, 40))
        window = Rect(38, 33, 15, 15)
        whole = scan_with(frame, bank, frame.rect, 0.0, workers)  # spectra now cached
        inside = scan_with(frame, bank, window, 0.3, workers)
        correlation = matcher._correlation
        with monkeypatch.context() as mp:  # correlations three times too large
            mp.setattr(matcher, "_correlation", lambda job, k0, k1: 3.0 * correlation(job, k0, k1))
            with pytest.raises(ArithmeticError, match="past its bound"):
                scan_with(frame, bank, frame.rect, 0.0, workers, chunk_elems=1)
        assert scan_with(frame, bank, window, 0.3, workers) == inside
        assert scan_with(frame, bank, frame.rect, 0.0, workers) == whole
        assert inside == expected_points(frame, bank, window, 0.3)
        assert any((p.u, p.v, p.score) == (45, 40, 1.0) for p in whole)

    def test_warm_tracking_window_runs_on_the_calling_thread(self, rng, monkeypatch):
        """A tracking window takes the rank-r route, which correlates its basis
        on the calling thread, cold or warm, at any threshold, and never
        starts the pool."""
        bank = build_bank(default_target_patch(7))
        px = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), bank.entries[5].patch, 116, 103)
        frame = GrayImage(px)
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch)
        calls = low_rank_calls(monkeypatch)
        common = Rect(100, 80, 33, 47)  # 12 images at 90x54
        wide = Rect(40, 40, 121, 91)  # 12 images at 144x128
        scans = [(common, 0.9), (common, 0.9), (wide, 0.9), (wide, 0.9), (common, 0.0), (common, -1.0)]
        got = []
        with monkeypatch.context() as mp:
            mp.setattr(matcher, "_executor", lambda: pytest.fail("a window scan split"))
            for window, threshold in scans:  # each shape cold, then warm
                threads.clear()
                got.append(scan(frame, bank, window, threshold))
                assert threads == []  # no entry went through the rank-K chunks
        assert len(calls) == len(scans)
        for (window, threshold), points in zip(scans, got):
            assert points == rank_k_scan(frame, bank, window, threshold)
        assert any((p.u, p.v, p.score) == (116, 103, 1.0) for p in got[0])
        assert len(got[-1]) == 33 * 47

    def test_only_whole_frame_scans_split(self, rng, monkeypatch):
        """The rank-K route, which only a whole frame takes, hands its chunks to
        the workers, cold or warm; a window of any size, at any threshold,
        stays on the calling thread."""
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch)
        calls = low_rank_calls(monkeypatch)
        common = Rect(100, 80, 33, 47)  # 90x54
        grown = Rect(90, 70, 51, 61)  # 96x72
        for window, threshold in ((common, 0.0), (grown, 0.9), (grown, 0.9)):
            threads.clear()
            scan(frame, bank, window, threshold)
            assert threads == [], window
        assert len(calls) == 3
        for _ in range(2):
            threads.clear()
            scan(frame, bank, frame.rect, 0.0)
            assert on_workers(threads)
        small = GrayImage(rng.integers(0, 256, (40, 30), dtype=np.uint8))
        small_bank = build_bank(GrayImage(small.pixels[:5, :7]), 4, 90.0)
        for _ in range(2):  # a whole frame splits even when warm and small
            threads.clear()
            scan(small, small_bank, small.rect, 0.0)
            assert on_workers(threads)
        assert len(calls) == 3

    def test_large_windows_take_rank_r(self, rng, monkeypatch):
        """A window takes the rank-r route on the calling thread whatever its
        size, and equals the rank-K route."""
        bank = build_bank(default_target_patch(7))
        px = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), bank.entries[5].patch, 150, 120)
        frame = GrayImage(px)
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        calls = low_rank_calls(monkeypatch)
        for window in (Rect(40, 40, 130, 110), Rect(60, 45, 200, 150)):  # padded 150x160, 192x225
            with monkeypatch.context() as mp:
                mp.setattr(matcher, "_executor", lambda: pytest.fail("a window scan split"))
                got = scan(frame, bank, window, 0.9)
            assert any((p.u, p.v, p.score) == (150, 120, 1.0) for p in got)
            assert got == rank_k_scan(frame, bank, window, 0.9)
        assert len(calls) == 2

    @pytest.mark.parametrize("shape", [(90, 54), (240, 320), (480, 640)])
    def test_pruned_bank_spectra_equal_rfft2(self, shape):
        weights = matcher._bank_constants(build_bank(default_target_patch(7))).weights
        assert np.array_equal(matcher._bank_spectra(weights, shape), np.fft.rfft2(weights, shape))


def low_rank_calls(monkeypatch):
    """The arguments of every scan that takes the rank-r route from now on."""
    calls = []
    top = matcher._low_rank_top

    def recording(*args):
        calls.append(args)
        return top(*args)

    monkeypatch.setattr(matcher, "_low_rank_top", recording)
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
    eps = matcher._bank_basis(bank, matcher._bank_constants(bank)).resid.max()
    return GrayImage(px), bank, window, eps


class TestLowRankRoute:
    @pytest.mark.parametrize("seed, largest", [(1, 0.172), (3, 0.295), (7, 0.170), (42, 0.213)])
    def test_basis_is_orthonormal_and_bounds_every_residual(self, seed, largest):
        bank = build_bank(default_target_patch(seed))
        consts = matcher._bank_constants(bank)
        basis = matcher._bank_basis(bank, consts)
        assert matcher._bank_basis(bank, consts) is basis  # built once, then cached
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
        images before them, so one Gram-Schmidt pass is not enough."""
        tpx = np.array([[209, 209, 209, 82, 82], [209, 209, 209, 82, 82], [209, 209, 209, 209, 209],
                        [82, 82, 209, 209, 209], [82, 82, 209, 209, 209]], dtype=np.uint8)
        bank = build_bank(GrayImage(tpx))
        images = matcher._bank_basis(bank, matcher._bank_constants(bank)).images.reshape(-1, 25)
        gram = (images[:, None, :] * images[None, :, :]).sum(axis=2)
        assert len(images) == 12
        assert np.abs(gram - np.eye(12)).max() < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(low_rank_cases())
    def test_scans_equal_brute_force_and_the_rank_k_route(self, case):
        img, bank, window, eps = case
        images = matcher._bank_basis(bank, matcher._bank_constants(bank)).images
        images = images.reshape(len(images), -1)
        gram = (images[:, None, :] * images[None, :, :]).sum(axis=2)
        assert np.abs(gram - np.eye(len(images))).max() < 1e-14  # orthonormal to working precision
        u0, u1, v0, v1 = matcher._clamp_window(window, bank.base_width, bank.base_height,
                                               img.width, img.height)
        best = {(u, v): best_of_bank(img, bank, u, v)
                for v in range(v0, v1 + 1) for u in range(u0, u1 + 1)}
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
        assert len(calls) == len(thresholds)  # every scan above took the rank-r route

    @pytest.mark.parametrize(
        "case",
        ["window", "whole frame", "large window", "at the residual", "below the residual",
         "threshold 0", "threshold -1", "flat windows", "flat bank", "12 entries", "4x3 template"],
    )
    def test_route(self, rng, monkeypatch, case):
        """Only a scan whose padded shape is the whole frame's takes rank K, on
        the workers. Every window takes rank r, on the calling thread, whatever
        its threshold, bank or size, and equals brute force."""
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
        elif case == "large window":  # 12 images at 160x150
            window = Rect(40, 40, 130, 110)
        threshold = {"threshold 0": 0.0, "threshold -1": -1.0, "flat windows": 0.0, "flat bank": 0.0}.get(case, 0.9)
        if "residual" in case:
            resid = matcher._bank_basis(bank, matcher._bank_constants(bank)).resid.max()
            threshold = resid if case == "at the residual" else resid / 2
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        calls = low_rank_calls(monkeypatch)
        threads = chunk_threads(monkeypatch)
        got = scan(frame, bank, window, threshold)
        assert len(calls) == (case != "whole frame")
        assert on_workers(threads) == (case == "whole frame")
        assert ("basis" in bank.kernel_cache) == (case != "whole frame")
        if case == "large window":
            assert got == rank_k_scan(frame, bank, window, threshold)
        else:
            assert got == expected_points(frame, bank, window, threshold)
        if case == "flat bank":
            assert len(matcher._bank_basis(bank, matcher._bank_constants(bank)).images) == 0
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
        """Both routes share one check: an exact score outside its bound raises.
        On the whole frame it raises on a worker and reaches the caller unchanged."""
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(plant(rng.integers(0, 256, (120, 160), dtype=np.uint8),
                                bank.entries[5].patch, 80, 60))
        window = Rect(70, 50, 21, 21) if where == "window" else frame.rect
        expected = expected_points(frame, bank, window, 0.9)
        assert (80, 60, 1.0) in {(p.u, p.v, p.score) for p in expected}  # the planted entry matches
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        if warm:
            assert scan(frame, bank, window, 0.9) == expected
        kept = dict(bank.kernel_cache.get("windows", {}))
        kept_frame = bank.kernel_cache.get("frame")
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
            mp.setattr(matcher, "_correlation", lambda job, k0, k1: 3.0 * correlation(job, k0, k1))
            mp.setattr(matcher, "_exact_top", recording)
            with pytest.raises(ArithmeticError, match="past its bound") as excinfo:
                scan(frame, bank, window, 0.9)
        assert excinfo.value is raised[0][0]  # the first error, unchanged
        on_worker = [thread is not threading.main_thread() for _, thread in raised]
        assert on_worker == [where == "frame"] * len(raised)
        assert bank.kernel_cache.get("frame") is kept_frame  # a failed scan keeps no new spectra
        windows = bank.kernel_cache.get("windows", {})
        assert windows.keys() == kept.keys()
        assert all(windows[key] is spectra for key, spectra in kept.items())
        assert scan(frame, bank, window, 0.9) == expected
        assert scan(frame, bank, window, 0.9) == rank_k_scan(frame, bank, window, 0.9)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_closed_loop_scans_equal_the_rank_k_route(self, name, monkeypatch):
        """Every scan of a run equals the rank-K route's, and the only scans
        that take the rank-K route are of the whole frame."""
        from uastrack.scenesim import make_scenario
        from uastrack.sim import run_sim
        from uastrack.tracker import TrackerConfig

        twins = {}
        compared = []

        def both(img, bank, window, threshold):
            before = len(calls)
            got = scan(img, bank, window, threshold)
            if len(calls) == before:
                assert window == valid_center_rect(bank.base_width, bank.base_height,
                                                   img.width, img.height)
            twin = twins.setdefault(id(bank), dataclasses.replace(bank))  # its own caches
            assert got == rank_k_scan(img, twin, window, threshold)
            compared.append(len(got))
            return got

        calls = low_rank_calls(monkeypatch)
        monkeypatch.setattr(matcher, "scan", both)
        run_sim(make_scenario(name, frames=30, seed=1), TrackerConfig())
        assert len(compared) == 30 and sum(compared) > 0
        assert len(calls) >= 25  # every tracking window, not the acquisition scan


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
