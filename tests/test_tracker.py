import math

import numpy as np
import pytest

from uastrack import matcher, scenesim
from uastrack.ekf import NoiseConfig
from uastrack.errors import ConfigError
from uastrack.imagebuf import GrayImage
from uastrack.matcher import Detection, template_origin
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import (
    STATUS_INITIALIZED,
    STATUS_LOST,
    STATUS_MISS,
    STATUS_REDETECTING,
    STATUS_TRACKING,
    OpticsConfig,
    TrackerConfig,
    TrackerSession,
    gimbal_offset,
    outcome_to_row,
    read_log,
    write_log,
)
from uastrack.warp import build_bank, warp_patch

OPTICS_640 = OpticsConfig(hfov=math.radians(30.0), frame_w=640, frame_h=480)


def plant(frame_pixels, patch, u, v):
    th, tw = patch.pixels.shape
    x0 = template_origin(u, tw)
    y0 = template_origin(v, th)
    frame_pixels[y0 : y0 + th, x0 : x0 + tw] = patch.pixels
    return GrayImage(frame_pixels)


@pytest.fixture
def patch():
    return scenesim.default_target_patch(3)


@pytest.fixture
def session(patch):
    cfg = TrackerConfig(optics=OpticsConfig(frame_w=320, frame_h=240))
    return TrackerSession(build_bank(patch), cfg)


def blank(w=320, h=240, value=128):
    return GrayImage.full(w, h, value)


class TestGimbalOffset:
    def test_centered_detection_no_motion(self):
        d = Detection(x=(640 - 1) / 2, y=(480 - 1) / 2, best_score=1.0, best_angle_deg=0.0, support=1)
        assert gimbal_offset(d, OPTICS_640) == (0, 0)

    def test_worked_example_100px(self):
        cx, cy = (640 - 1) / 2, (480 - 1) / 2
        d = Detection(x=cx + 100, y=cy, best_score=1.0, best_angle_deg=0.0, support=1)
        assert gimbal_offset(d, OPTICS_640) == (818, 0)

    def test_half_pixel_quantization(self):
        cx, cy = (640 - 1) / 2, (480 - 1) / 2
        d = Detection(x=cx + 0.5, y=cy, best_score=1.0, best_angle_deg=0.0, support=1)
        assert gimbal_offset(d, OPTICS_640) == (4, 0)

    def test_odd_symmetry(self, rng):
        cx, cy = (640 - 1) / 2, (480 - 1) / 2
        for _ in range(200):
            ex = float(rng.uniform(-200, 200))
            ey = float(rng.uniform(-150, 150))
            pos = gimbal_offset(Detection(cx + ex, cy + ey, 1.0, 0.0, 1), OPTICS_640)
            neg = gimbal_offset(Detection(cx - ex, cy - ey, 1.0, 0.0, 1), OPTICS_640)
            assert pos == (-neg[0], -neg[1])


class TestInitialize:
    def test_planted_target(self, session, patch, rng):
        frame = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), patch, 100, 80)
        out = session.process(frame)
        assert out.status == STATUS_INITIALIZED
        assert out.detection is not None
        assert out.state.x == pytest.approx(100, abs=1.0)
        assert out.state.y == pytest.approx(80, abs=1.0)
        assert out.gimbal_cmd is not None

    def test_blank_frame_lost(self, session):
        out = session.process(blank())
        assert out.status == STATUS_LOST
        assert out.detection is None and out.state is None

    def test_rotated_target_best_angle(self, session, patch):
        rotated = warp_patch(patch, math.radians(40.0))
        frame = plant(np.full((240, 320), 128, dtype=np.uint8), rotated, 160, 120)
        out = session.process(frame)
        assert out.status == STATUS_INITIALIZED
        assert out.detection.best_angle_deg == 40.0

    def test_template_larger_than_frame(self, patch):
        cfg = TrackerConfig(optics=OpticsConfig(frame_w=320, frame_h=240))
        session = TrackerSession(build_bank(patch), cfg)
        with pytest.raises(ConfigError):
            session.process(blank(16, 16))

    @pytest.mark.parametrize("w, h", [(640, 480), (321, 240), (320, 239)])
    def test_frame_of_another_size_than_configured(self, session, patch, rng, w, h):
        """The gimbal is aimed from the configured frame's centre, so a frame
        of any other size is refused, naming both sizes, and changes nothing."""
        frame = plant(rng.integers(0, 256, (h, w), dtype=np.uint8), patch, 100, 80)
        with pytest.raises(ConfigError, match=f"frame is {w}x{h}, but frame_w x frame_h is 320x240"):
            session.process(frame)
        assert (session.frame_index, session.clock, session.state) == (-1, 0.0, None)

    @pytest.mark.parametrize(
        "cls, name, value",
        [(TrackerConfig, "miss_limit", 2.7), (TrackerConfig, "bank_count", 36.0),
         (OpticsConfig, "frame_w", 320.5), (OpticsConfig, "frame_h", 240.0)],
    )
    def test_integer_fields_reject_fractions(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls, name",
        [(NoiseConfig, "sigma"), (NoiseConfig, "r_pos"), (NoiseConfig, "kappa"),
         (TrackerConfig, "p0_vel_var"), (OpticsConfig, "counts_per_radian")],
    )
    def test_non_finite_fields_rejected(self, cls, name, value):
        with pytest.raises(ConfigError, match=name):
            cls(**{name: value})

    def test_process_before_any_template(self):
        session = TrackerSession(None, TrackerConfig())
        with pytest.raises(RuntimeError):
            session.process(blank())

    @pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan, math.inf])
    def test_process_rejects_a_bad_dt_and_changes_nothing(self, session, dt):
        for frames in (0, 2):  # with no frame yet, then after two more
            for _ in range(frames):
                session.process(blank())
            before = (session.frame_index, session.clock)
            with pytest.raises(ConfigError, match="dt must be positive and finite"):
                session.process(blank(), dt)
            assert (session.frame_index, session.clock) == before

    def test_retry_after_lost(self, session, patch, rng):
        assert session.process(blank()).status == STATUS_LOST
        frame = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), patch, 100, 80)
        assert session.process(frame).status == STATUS_INITIALIZED


def frame_slot(w, h, th=36):
    """The padded shape of the bands of a whole w x h frame: one band of rows
    per scan worker, each padded as the tallest."""
    return matcher._band_shape((h, w), th)


class TestPreparedBank:
    """A session prepares every bank it installs for frames of the configured size."""

    def test_bank_is_prepared_on_construction_and_on_apply_template(self, patch):
        cfg = TrackerConfig(optics=OpticsConfig(frame_w=200, frame_h=150))
        session = TrackerSession(build_bank(patch), cfg)
        kept = session.bank.kernel.frame
        assert kept[0] == frame_slot(200, 150)
        assert TrackerSession(session.bank, cfg).bank.kernel.frame is kept  # done once
        session.apply_template(scenesim.default_target_patch(5))
        assert session.bank.kernel.frame[0] == frame_slot(200, 150)
        assert session.bank.kernel.frame is not kept

    def test_apply_template_prepares_the_new_bank_before_installing_it(self, patch, monkeypatch):
        cfg = TrackerConfig(optics=OpticsConfig(frame_w=200, frame_h=150))
        session = TrackerSession(build_bank(patch), cfg)
        old = session.bank
        seen = []
        prepare = matcher.prepare
        monkeypatch.setattr(
            matcher, "prepare", lambda bank, w, h: seen.append((bank, session.bank)) or prepare(bank, w, h)
        )
        session.apply_template(scenesim.default_target_patch(5))
        assert len(seen) == 1
        prepared, installed = seen[0]
        assert installed is old
        assert prepared is session.bank and prepared is not old
        assert prepared.kernel.frame[0] == frame_slot(200, 150)

    @pytest.mark.parametrize("workers, shape", [(1, (150, 200)), (2, (96, 200)), (3, (75, 200))])
    def test_prepared_shape_is_the_tallest_band_for_each_worker_count(self, patch, monkeypatch,
                                                                      workers, shape):
        """At the padded shape of the tallest band of the frame's 115 rows of
        positions, one band a worker: 150, 93 and 74 rows of pixels, padded to
        5-smooth lengths."""
        monkeypatch.setattr(matcher, "_WORKERS", workers)
        cfg = TrackerConfig(optics=OpticsConfig(frame_w=200, frame_h=150))
        session = TrackerSession(build_bank(patch), cfg)
        assert session.bank.kernel.frame[0] == shape == frame_slot(200, 150)
        session.apply_template(scenesim.default_target_patch(5))
        assert session.bank.kernel.frame[0] == shape

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_prepared_spectra_equal_those_a_whole_frame_scan_keeps(self, seed, rng):
        target = scenesim.default_target_patch(seed)
        session = TrackerSession(build_bank(target), TrackerConfig())
        fresh = build_bank(target)
        frame = GrayImage(rng.integers(0, 256, (240, 320), dtype=np.uint8))
        matcher.scan(frame, fresh, matcher.valid_center_rect(22, 36, 320, 240))
        assert fresh.kernel.frame[0] == session.bank.kernel.frame[0]
        assert np.array_equal(fresh.kernel.frame[1], session.bank.kernel.frame[1])

    def test_first_frame_builds_no_spectra_and_scores_as_unprepared(self, patch, rng, monkeypatch):
        frame = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), patch, 100, 80)
        cfg = TrackerConfig(optics=OpticsConfig(frame_w=320, frame_h=240))
        prepared = TrackerSession(build_bank(patch), cfg)
        with monkeypatch.context() as mp:
            mp.setattr(matcher, "prepare", lambda bank, w, h: None)
            bare = TrackerSession(build_bank(patch), cfg)
        assert bare.bank.kernel is None
        calls = []
        spectra = matcher._fill_spectra
        monkeypatch.setattr(matcher, "_fill_spectra", lambda *a: calls.append(a) or spectra(*a))
        out = prepared.process(frame)
        assert calls == []
        expected = bare.process(frame)
        assert len(calls) > 0  # the unprepared bank builds them in its scan
        assert out.status == expected.status == STATUS_INITIALIZED
        assert outcome_to_row(out) == outcome_to_row(expected)

    @pytest.mark.parametrize("w, h", [(16, 16), (21, 240), (320, 35)])
    def test_template_larger_than_the_configured_frame(self, patch, w, h):
        session = TrackerSession(build_bank(patch), TrackerConfig(optics=OpticsConfig(frame_w=w, frame_h=h)))
        assert session.bank.kernel is None
        with pytest.raises(ConfigError):
            session.process(blank(w, h))

    def test_template_the_size_of_the_frame_is_prepared(self, patch):
        session = TrackerSession(build_bank(patch), TrackerConfig(optics=OpticsConfig(frame_w=22, frame_h=36)))
        assert session.bank.kernel.frame[0] == frame_slot(22, 36) == (36, 24)  # one band

    def test_flat_template_prepares_no_basis_images(self):
        flat = GrayImage.full(22, 36, 90)
        session = TrackerSession(build_bank(flat), TrackerConfig())
        shape, spectra = session.bank.kernel.frame
        assert spectra.shape == (0, shape[0], shape[1] // 2 + 1) and shape == frame_slot(320, 240)
        assert session.process(blank()).status == STATUS_LOST


def run_scenario(name, frames, seed=7, miss_limit=5, frame_w=320, frame_h=240):
    sc = scenesim.make_scenario(name, frame_w=frame_w, frame_h=frame_h, frames=frames, seed=seed)
    result = run_sim(sc, TrackerConfig(optics=scenario_optics(sc), miss_limit=miss_limit))
    return result.outcomes, result.truths


class TestStep:
    def test_hundred_frames_all_tracking(self):
        outcomes, _ = run_scenario("cv", 100)
        assert outcomes[0].status == STATUS_INITIALIZED
        assert all(o.status == STATUS_TRACKING for o in outcomes[1:])
        for o in outcomes[1:]:
            d = o.detection
            assert o.window.x <= d.x <= o.window.x2 - 1
            assert o.window.y <= d.y <= o.window.y2 - 1

    def test_occlusion_miss_then_recover(self):
        outcomes, _ = run_scenario("occlude", 60)
        statuses = [o.status for o in outcomes]
        assert statuses[40:44] == [STATUS_MISS] * 4
        areas = [o.window.area for o in outcomes[40:44]]
        assert all(a < b for a, b in zip(areas, areas[1:]))
        traces = [float(o.state.P.trace()) for o in outcomes[40:44]]
        assert all(a < b for a, b in zip(traces, traces[1:]))
        assert STATUS_TRACKING in statuses[44:46]
        assert all(s == STATUS_TRACKING for s in statuses[46:])

    def test_exactly_one_of_detection_or_miss(self):
        outcomes, _ = run_scenario("occlude", 60)
        prev_misses = 0
        for o in outcomes:
            if o.detection is not None:
                assert o.state.misses == 0
            else:
                assert o.state.misses == prev_misses + 1
            prev_misses = o.state.misses

    def test_window_centered_on_prediction(self):
        outcomes, _ = run_scenario("cv", 60)
        for o in outcomes[1:]:
            if o.status not in (STATUS_TRACKING, STATUS_MISS):
                continue
            # window is clamp-free in this run, so its center is the
            # rounded prediction; detection stays near that center
            assert o.window.w % 2 == 1 and o.window.h % 2 == 1
            cx = o.window.x + o.window.w // 2
            cy = o.window.y + o.window.h // 2
            assert abs(cx - o.detection.x) <= o.window.w
            assert abs(cy - o.detection.y) <= o.window.h

    def test_redetect_full_frame_after_budget(self):
        outcomes, truths = run_scenario("redetect", 60)
        statuses = [o.status for o in outcomes]
        assert statuses[30:34] == [STATUS_MISS] * 4
        assert statuses[34] == STATUS_REDETECTING
        # full-frame rescan reacquires within 3 frames of the budget running out
        assert STATUS_TRACKING in statuses[35:38]
        first = 35 + statuses[35:38].index(STATUS_TRACKING)
        full_area = outcomes[first].window.area
        assert outcomes[first].window.w == 320 - 22 + 1
        gx, gy, _ = truths[first]
        d = outcomes[first].detection
        assert math.hypot(d.x - gx, d.y - gy) <= 2.0
        assert full_area > outcomes[1].window.area

    def test_trace_rises_on_misses_and_drops_on_reacquire(self):
        outcomes, _ = run_scenario("occlude", 60)
        traces = [float(o.state.P.trace()) for o in outcomes]
        statuses = [o.status for o in outcomes]
        for k in range(1, len(outcomes)):
            if statuses[k] == STATUS_MISS and statuses[k - 1] == STATUS_MISS:
                assert traces[k] > traces[k - 1]
            if statuses[k] == STATUS_TRACKING and statuses[k - 1] == STATUS_MISS:
                assert traces[k] < traces[k - 1]


class TestLog:
    def test_header_plus_row(self, tmp_path, session, patch, rng):
        frame = plant(rng.integers(0, 256, (240, 320), dtype=np.uint8), patch, 100, 80)
        out = session.process(frame)
        path = tmp_path / "log.csv"
        write_log([out], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "frame,time_s,status,x,y,score,angle_deg,support,"
            "win_x,win_y,win_w,win_h,pan_counts,tilt_counts,trace_P"
        )

    def test_miss_row_has_empty_fields(self, tmp_path):
        outcomes, _ = run_scenario("occlude", 45)
        path = tmp_path / "log.csv"
        write_log(outcomes, str(path))
        rows = read_log(str(path))
        miss_rows = [r for r in rows if r.status == STATUS_MISS]
        assert miss_rows
        for r in miss_rows:
            assert r.x is None and r.y is None and r.score is None
            assert r.pan_counts is None
            assert r.win_w > 0 and r.trace_P is not None

    @pytest.mark.parametrize("column", ["frame", "win_w"])
    def test_empty_required_field_rejected(self, tmp_path, column):
        outcomes, _ = run_scenario("cv", 2)
        path = tmp_path / "log.csv"
        write_log(outcomes, str(path))
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = ""
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError):
            read_log(str(path))

    def test_roundtrip_reproduces_outcomes_exactly(self, tmp_path):
        outcomes, _ = run_scenario("cv", 40)
        path = tmp_path / "log.csv"
        write_log(outcomes, str(path))
        rows = read_log(str(path))
        assert len(rows) == len(outcomes)
        for row, out in zip(rows, outcomes):
            assert row == outcome_to_row(out)
