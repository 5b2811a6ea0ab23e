import ast
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
from uastrack.scenesim import default_target_patch
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
        from uastrack.scenesim import default_target_patch

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
        scan(frame, bank, Rect(40, 40, 5, 5), 0.0)
        assert bank.kernel_cache["windows"] == {}
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

    def test_fft_residual_check_raises(self, rng, checker22x36, monkeypatch):
        bank = build_bank(checker22x36, 4, 90.0)
        frame = GrayImage(rng.integers(0, 256, (80, 90), dtype=np.uint8))
        monkeypatch.setattr(matcher, "_FFT_MAX_RESIDUAL", -1.0)
        raised = {}
        score_chunk = matcher._score_chunk

        def recording(job, k0, k1):
            try:
                return score_chunk(job, k0, k1)
            except ArithmeticError as exc:
                raised[k0] = (exc, threading.current_thread())
                raise

        monkeypatch.setattr(matcher, "_score_chunk", recording)
        with pytest.raises(ArithmeticError, match="integer") as excinfo:
            scan_with(frame, bank, frame.rect, 0.9, workers=2, chunk_elems=1)
        assert sorted(raised) == [0, 1, 2, 3]  # every chunk ran, each on a worker
        assert all(thread is not threading.main_thread() for _, thread in raised.values())
        assert excinfo.value is raised[0][0]  # the first chunk's error, unchanged
        assert "frame" not in bank.kernel_cache  # a failed scan keeps no spectra

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
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        window = Rect(100, 80, 33, 47)  # pads to 90x54
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


def chunk_threads(monkeypatch):
    """The threads that score each chunk from now on, recorded in call order."""
    threads = []
    score_chunk = matcher._score_chunk

    def recording(job, k0, k1):
        threads.append(threading.current_thread())
        return score_chunk(job, k0, k1)

    monkeypatch.setattr(matcher, "_score_chunk", recording)
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
        with monkeypatch.context() as mp:
            mp.setattr(matcher, "_FFT_MAX_RESIDUAL", -1.0)
            for rect, threshold in ((window, 0.3), (frame.rect, 0.0)):
                with pytest.raises(ArithmeticError):
                    scan_with(frame, bank, rect, threshold, workers, chunk_elems=1)
        assert scan_with(frame, bank, window, 0.3, workers) == inside
        assert scan_with(frame, bank, frame.rect, 0.0, workers) == whole
        assert inside == expected_points(frame, bank, window, 0.3)
        assert any((p.u, p.v, p.score) == (45, 40, 1.0) for p in whole)

    def test_warm_tracking_window_runs_on_the_calling_thread(self, rng, monkeypatch):
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        window = Rect(100, 80, 33, 47)  # 36 entries at 90x54, under the cutoff
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        first = scan(frame, bank, window, 0.0)  # cold: fills the spectra
        threads = chunk_threads(monkeypatch)
        monkeypatch.setattr(matcher, "_executor", lambda: pytest.fail("a warm window split"))
        assert 36 * 90 * 54 < matcher._INLINE_ELEMS
        assert scan(frame, bank, window, 0.0) == first
        assert threads and all(t is threading.main_thread() for t in threads)

    def test_cold_grown_and_whole_frame_scans_split(self, rng, monkeypatch):
        bank = build_bank(default_target_patch(7))
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        monkeypatch.setattr(matcher, "_WORKERS", 2)
        threads = chunk_threads(monkeypatch)
        grown = Rect(90, 70, 51, 61)  # 36 entries at 96x72, over the cutoff
        assert 36 * 96 * 72 >= matcher._INLINE_ELEMS
        for window in (Rect(100, 80, 33, 47), grown, grown, frame.rect, frame.rect):
            threads.clear()
            scan(frame, bank, window, 0.9)  # cold, then warm for the last two
            assert on_workers(threads), window
        small = GrayImage(rng.integers(0, 256, (40, 30), dtype=np.uint8))
        small_bank = build_bank(GrayImage(small.pixels[:5, :7]), 4, 90.0)
        for _ in range(2):  # a whole frame splits even when warm and small
            threads.clear()
            scan(small, small_bank, small.rect, 0.0)
            assert on_workers(threads)

    @pytest.mark.parametrize("shape", [(90, 54), (240, 320), (480, 640)])
    def test_pruned_bank_spectra_equal_rfft2(self, shape):
        weights = matcher._bank_constants(build_bank(default_target_patch(7))).weights
        assert np.array_equal(matcher._bank_spectra(weights, shape), np.fft.rfft2(weights, shape))


def test_scan_makes_no_blas_call():
    """No matrix product of any size in ``matcher``: no ``@``, ``np.dot`` or ``np.matmul``.

    A float64 matmul numerator for small windows woke OpenBLAS's threads,
    which then kept the second core busy: the next full-frame scan slowed
    from ~43 to 58-84 ms, and ``test_c09_windowed_speedup`` (>= 20x)
    failed in 11 of 14 solo runs at 7.8-10.7x, passing with
    ``OPENBLAS_NUM_THREADS=1``. The scan's one numerator route is the FFT.
    """
    blas = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    found = [
        node.lineno
        for node in ast.walk(ast.parse(Path(matcher.__file__).read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in blas
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
