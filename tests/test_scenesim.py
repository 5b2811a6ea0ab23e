import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uastrack import scenesim
from uastrack.errors import ScenarioError
from uastrack.gimbal import GimbalState, command
from uastrack.imagebuf import GrayImage, Rect
from uastrack.matcher import scan, detect, zmncc
from uastrack.scenesim import (
    BUILTIN_NAMES,
    CircleTrajectory,
    JumpTrajectory,
    LineTrajectory,
    Ramp,
    Scenario,
    WaypointTrajectory,
    camera_origin,
    ground_truth,
    make_scenario,
    render,
    target_patch,
)
from uastrack.tracker import gimbal_offset, OpticsConfig
from uastrack.warp import build_bank, warp_patch

from strategies import trajectories


def static_scenario(noise=0.0, **kw):
    defaults = dict(
        name="static",
        trajectory=LineTrajectory(0.0, 0.0, 0.0, 0.0),
        noise_sigma=noise,
        frames=50,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestDeterminism:
    def test_static_zero_noise_frames_identical(self):
        sc = static_scenario()
        g = GimbalState()
        assert render(sc, g, 0) == render(sc, g, 1)

    def test_same_frame_re_rendered_identical(self):
        sc = static_scenario(noise=2.5)
        g = GimbalState(pan_counts=40, tilt_counts=-12)
        assert render(sc, g, 7) == render(sc, g, 7)

    def test_noise_differs_between_frames(self):
        sc = static_scenario(noise=2.5)
        g = GimbalState()
        assert render(sc, g, 0) != render(sc, g, 1)

    def test_seed_changes_world(self):
        a = static_scenario(seed=1)
        b = static_scenario(seed=2)
        assert render(a, GimbalState(), 0) != render(b, GimbalState(), 0)


def textbook_upsample(coarse, h, w, cell):
    """Bilinear upsampling as the textbook writes it: the oracle for
    ``scenesim._upsample_bilinear``, whose operation order it fixes."""
    y = np.arange(h) / cell
    x = np.arange(w) / cell
    y0 = np.minimum(y.astype(np.intp), coarse.shape[0] - 2)
    x0 = np.minimum(x.astype(np.intp), coarse.shape[1] - 2)
    fy = (y - y0)[:, None]
    fx = (x - x0)[None, :]
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    return c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx + c10 * fy * (1 - fx) + c11 * fy * fx


class TestWorld:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300), st.sampled_from([16, 7]))
    def test_upsample_equals_the_textbook_expression_bit_for_bit(self, seed, h, w, cell):
        coarse = np.random.default_rng(seed).uniform(55.0, 175.0, (h // cell + 2, w // cell + 2))
        assert np.array_equal(scenesim._upsample_bilinear(coarse, h, w, cell),
                              textbook_upsample(coarse, h, w, cell))

    @pytest.mark.parametrize("h, w", [(1, 1), (15, 17), (37, 53), (241, 319), (336, 566)])
    def test_upsample_equals_the_textbook_expression_off_the_cell_grid(self, h, w):
        coarse = np.random.default_rng(h * w).uniform(55.0, 175.0, (h // 16 + 2, w // 16 + 2))
        assert np.array_equal(scenesim._upsample_bilinear(coarse, h, w, 16),
                              textbook_upsample(coarse, h, w, 16))

    @pytest.mark.parametrize(
        "seed, w, h, digest",
        [
            (7, 566, 336, "193f95d144abe2628b0751c9834dc9d2b5aec18d5ed05691079879216bd72370"),
            (1, 503, 371, "bc790a207d3b46e1670193267c533867ba487380df3b03126a3338731b0e2129"),
            (42, 97, 61, "a7956d5e1ce4b6f1bc0f6e9b1615a4f1f1af8d556776a1607b13931721856205"),
        ],
    )
    def test_world_pixels_are_pinned(self, seed, w, h, digest):
        world = scenesim._make_world(seed, w, h)
        assert world.shape == (h, w) and world.dtype == np.uint8
        assert hashlib.sha256(world.tobytes()).hexdigest() == digest

    def test_world_is_row_major(self):
        """The render crops rows of the world: a column-major world gives the
        same pixels and digests but slows every frame."""
        assert scenesim._make_world(7, 566, 336).flags.c_contiguous


class TestCameraCoupling:
    def test_command_from_own_detection_recenters(self, rng):
        # displace the camera, detect, command: next frame target within 1 px
        # of frame center (the two pixel<->count mappings invert each other);
        # an aperiodic noise patch makes the detection land exactly on target
        noise_patch = GrayImage(rng.integers(0, 256, (36, 22), dtype=np.uint8))
        sc = static_scenario(patch=noise_patch)
        bank = build_bank(target_patch(sc))
        optics = OpticsConfig(hfov=sc.hfov, frame_w=sc.frame_w, frame_h=sc.frame_h)
        gimbal = command(GimbalState(), -700, 400)
        frame = render(sc, gimbal, 0)
        gx, gy, _ = ground_truth(sc, gimbal, 0)
        cx, cy = (sc.frame_w - 1) / 2, (sc.frame_h - 1) / 2
        assert math.hypot(gx - cx, gy - cy) > 20  # meaningfully off-center
        d = detect(scan(frame, bank, frame.rect, 0.9), 0.9)
        assert (d.x, d.y) == (gx, gy)
        gimbal = command(gimbal, *gimbal_offset(d, optics))
        nx, ny, _ = ground_truth(sc, gimbal, 1)
        assert math.hypot(nx - cx, ny - cy) <= 1.0

    def test_pan_moves_view_toward_positive_x(self):
        sc = static_scenario()
        base = ground_truth(sc, GimbalState(), 0)
        panned = ground_truth(sc, GimbalState(pan_counts=500), 0)
        assert panned[0] < base[0]  # view moved right, target moved left in frame

    def test_origin_clamped_to_world(self):
        sc = static_scenario()
        g = GimbalState(pan_counts=30_000)
        ox, oy = camera_origin(sc, g)
        assert ox >= 0 and oy >= 0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([(320, 240), (640, 480)]), st.integers(1, 60).flatmap(
        lambda frames: st.tuples(st.just(frames), trajectories(frames))))
    def test_base_origin_lies_inside_the_world(self, size, horizon):
        """The world spans the trajectory plus the frame and a pad on each
        side, so the camera's origin at zero gimbal is in range unclamped."""
        frames, trajectory = horizon
        sc = Scenario("generated", frame_w=size[0], frame_h=size[1], trajectory=trajectory,
                      frames=frames)
        g = scenesim._geometry(sc)
        assert 0 <= g.base_origin_x <= g.world_w - sc.frame_w
        assert 0 <= g.base_origin_y <= g.world_h - sc.frame_h
        assert (g.base_origin_x, g.base_origin_y) == camera_origin(sc, GimbalState())


class TestIllumination:
    def test_gain_doubling_keeps_correlation(self, rng):
        # dim patch keeps the sprite unsaturated at gain 2, so the region
        # under the template sees a pure affine intensity change
        dim = GrayImage((rng.integers(20, 60, (36, 22)) * 2).astype(np.uint8))
        sc = static_scenario(patch=dim, gain=Ramp((0.0, 49.0), (1.0, 2.0)), seed=5)
        bank = build_bank(target_patch(sc))
        g = GimbalState()
        for k in (0, 25, 49):
            frame = render(sc, g, k)
            gx, gy, _ = ground_truth(sc, g, k)
            score = zmncc(frame, bank.entries[0].patch, int(gx), int(gy))
            assert score >= 0.99

    def test_gain_must_stay_positive(self):
        with pytest.raises(ScenarioError):
            static_scenario(gain=Ramp((0.0, 10.0), (1.0, -0.5)))


class TestTargetCompositing:
    def test_quarter_turn_spin_is_lossless_composite(self):
        sc = static_scenario(target_spin=3.0, frames=40)
        g = GimbalState()
        k = 30  # 90 degrees
        frame = render(sc, g, k)
        gx, gy, ga = ground_truth(sc, g, k)
        assert ga == 90.0
        expected = warp_patch(target_patch(sc), math.radians(90.0))
        x0 = int(gx) - (sc.patch_w - 1) // 2
        y0 = int(gy) - (sc.patch_h - 1) // 2
        region = frame.pixels[y0 : y0 + sc.patch_h, x0 : x0 + sc.patch_w]
        assert np.array_equal(region, expected.pixels)

    def test_occlusion_paints_panel(self):
        sc = static_scenario(
            occlusions=(scenesim.Occlusion(5, 8, Rect(100, 80, 120, 120)),)
        )
        g = GimbalState()
        occluded = render(sc, g, 5)
        panel = occluded.pixels[80:200, 100:220]
        assert panel.min() == panel.max() == 64
        assert render(sc, g, 8) != occluded

    def test_error_names_the_frame_that_leaves_the_world(self):
        # the world spans the trajectory, the frame and 48 px a side; a patch
        # of 2 * 128 + 1 px touches its left edge on frame 0 and sticks 1 px
        # out of its right edge on the last frame only
        with pytest.raises(ScenarioError, match="world at frame 99$"):
            Scenario("x", frame_w=160, frame_h=120, patch_w=257, patch_h=36,
                     trajectory=LineTrajectory(0, 0, 1.0, 0), frames=100)
        Scenario("x", frame_w=160, frame_h=120, patch_w=255, patch_h=36,
                 trajectory=LineTrajectory(0, 0, 1.0, 0), frames=100)


class TestTrajectories:
    def test_line(self):
        t = LineTrajectory(1.0, 2.0, 0.5, -0.25)
        assert t.position(0) == (1.0, 2.0)
        assert t.position(4) == (3.0, 1.0)

    def test_circle_radius_preserved(self):
        t = CircleTrajectory(0.0, 0.0, 10.0, 0.1)
        for k in range(50):
            x, y = t.position(k)
            assert math.hypot(x, y) == pytest.approx(10.0, abs=1e-9)

    def test_waypoints_hold_at_end(self):
        t = WaypointTrajectory(((0.0, 0.0), (10.0, 0.0)), speed=3.0)
        assert t.position(1) == (3.0, 0.0)
        assert t.position(100) == (10.0, 0.0)

    def test_jump(self):
        t = JumpTrajectory(0.0, 0.0, 5.0, 5.0, at_frame=3)
        assert t.position(2) == (0.0, 0.0)
        assert t.position(3) == (5.0, 5.0)


class TestBuiltins:
    def test_names_resolvable(self):
        scenarios = [make_scenario(n) for n in BUILTIN_NAMES]
        assert [s.name for s in scenarios] == list(BUILTIN_NAMES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError):
            make_scenario("nope")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_runs_full_horizon(self, name):
        sc = make_scenario(name)
        assert sc.frames == 300
        g = GimbalState()
        for k in (0, 150, 299):  # construction validates all 300 positions
            frame = render(sc, g, k)
            assert (frame.width, frame.height) == (320, 240)
        with pytest.raises(ScenarioError):
            render(sc, g, 300)

    def test_spin_angle_at_frame_30(self):
        sc = make_scenario("spin")
        assert ground_truth(sc, GimbalState(), 30)[2] == 90.0

    def test_ground_truth_exported_per_frame(self):
        sc = make_scenario("cv", frames=20)
        g = GimbalState()
        xs = [ground_truth(sc, g, k)[0] for k in range(20)]
        assert xs == sorted(xs)  # +x velocity, fixed camera: monotone drift
