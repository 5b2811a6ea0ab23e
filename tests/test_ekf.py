import ast
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import kalman_1d_posterior
import uastrack
from uastrack.ekf import (
    NoiseConfig,
    TrackState,
    initial_state,
    mark_miss,
    predict,
    process_jacobian,
    process_noise,
    search_window,
    update,
)
from uastrack.errors import ConfigError
from uastrack.imagebuf import Rect
from uastrack.matcher import valid_center_rect

CFG = NoiseConfig()  # sigma 0.4, r_pos 1.0, kappa 3.0


def make_state(x=0.0, y=0.0, vx=0.0, vy=0.0, p=None, misses=0):
    P = np.eye(4) if p is None else p
    return TrackState(x=x, y=y, vx=vx, vy=vy, P=P, misses=misses)


class TestProcessJacobian:
    def test_unit_dt(self):
        A = process_jacobian(1.0)
        assert A.tolist() == [
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    @pytest.mark.parametrize("dt", [0.1, 0.033])
    def test_off_diagonal_is_dt(self, dt):
        A = process_jacobian(dt)
        assert A[0, 2] == dt and A[1, 3] == dt
        assert np.array_equal(A - np.eye(4), dt * np.eye(4, k=2))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            process_jacobian(0.0)
        with pytest.raises(ConfigError):
            process_jacobian(-1.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            process_jacobian(dt)
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            process_noise(dt, CFG)


class TestProcessNoise:
    def test_unit_dt_default_sigma(self):
        Q = process_noise(1.0, CFG)
        a = 0.4 + 0.4 / 3.0
        b = 0.2
        expected = np.array(
            [
                [a, 0, b, 0],
                [0, a, 0, b],
                [b, 0, 0.4, 0],
                [0, b, 0, 0.4],
            ]
        )
        assert np.abs(Q - expected).max() < 1e-15
        # positive semidefinite: 2x2 block determinant is positive
        assert a * 0.4 - b * b > 0

    def test_small_dt_vanishes_linearly(self):
        Q = process_noise(0.01, CFG)
        assert Q.max() < 0.01 * 0.4 * 1.01
        assert Q.min() >= 0.0

    @pytest.mark.parametrize("dt", [0.033, 0.5, 1.0, 3.0])
    def test_symmetric_and_psd(self, dt):
        Q = process_noise(dt, NoiseConfig(sigma=0.7))
        assert np.array_equal(Q, Q.T)
        assert np.linalg.eigvalsh(Q).min() >= -1e-12


class TestPredict:
    def test_constant_velocity_step(self):
        s = make_state(10.0, 20.0, 1.0, 2.0)
        out = predict(s, 1.0, CFG)
        assert (out.x, out.y) == (11.0, 22.0)
        assert (out.vx, out.vy) == (1.0, 2.0)

    def test_stationary_position_fixed_covariance_grows(self):
        s = make_state(5.0, 5.0, 0.0, 0.0)
        out = predict(s, 0.5, CFG)
        assert (out.x, out.y) == (5.0, 5.0)
        assert out.P.trace() > s.P.trace()

    def test_trace_always_grows(self, rng):
        s = make_state(p=np.diag(rng.uniform(0.1, 10.0, 4)))
        for dt in (0.033, 0.4, 2.0):
            assert predict(s, dt, CFG).P.trace() > s.P.trace()

    def test_misses_preserved(self):
        out = predict(make_state(misses=3), 1.0, CFG)
        assert out.misses == 3


class TestUpdate:
    def test_zero_innovation_keeps_state_shrinks_trace(self):
        s = make_state(10.0, 20.0, 1.0, -1.0, p=np.diag([4.0, 4.0, 9.0, 9.0]))
        out = update(s, (10.0, 20.0), CFG)
        assert (out.x, out.y, out.vx, out.vy) == (10.0, 20.0, 1.0, -1.0)
        assert out.P.trace() < s.P.trace()

    def test_huge_prior_trusts_measurement(self):
        s = make_state(0.0, 0.0, p=1e6 * np.eye(4))
        out = update(s, (123.0, -45.0), CFG)
        assert out.x == pytest.approx(123.0, abs=0.01)
        assert out.y == pytest.approx(-45.0, abs=0.01)

    def test_tiny_prior_trusts_prediction(self):
        s = make_state(50.0, 60.0, p=1e-6 * np.eye(4))
        out = update(s, (80.0, 90.0), CFG)
        assert out.x == pytest.approx(50.0, abs=0.01)
        assert out.y == pytest.approx(60.0, abs=0.01)

    def test_scalar_gain_half(self):
        # decoupled x-axis with unit variances: hand Kalman algebra (K = 0.5)
        s = make_state(10.0, 0.0, p=np.diag([1.0, 1.0, 1.0, 1.0]))
        out = update(s, (14.0, 0.0), NoiseConfig(r_pos=1.0))
        expected_x, expected_p = kalman_1d_posterior(10.0, 1.0, 14.0, 1.0)
        assert out.x == pytest.approx(expected_x, abs=1e-12)  # midpoint = 12
        assert out.x == 12.0
        assert out.P[0, 0] == pytest.approx(expected_p, abs=1e-12)

    def test_resets_misses(self):
        out = update(make_state(misses=4), (0.0, 0.0), CFG)
        assert out.misses == 0

    @pytest.mark.parametrize("p00", [-1.0, math.nan])
    def test_rejects_non_positive_definite_innovation(self, p00):
        s = make_state(p=np.diag([p00, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="positive definite"):
            update(s, (1.0, 1.0), CFG)


class TestFilterProperties:
    def test_long_random_sequence_stays_sane(self, rng):
        s = initial_state(0.0, 0.0, CFG, 25.0)
        for _ in range(1000):
            s = predict(s, 1.0, CFG)
            assert np.abs(s.P - s.P.T).max() <= 1e-9
            assert s.P.diagonal().min() > 0
            z = rng.normal(0.0, 3.0, 2)
            s = update(s, (float(z[0]), float(z[1])), CFG)
            assert np.abs(s.P - s.P.T).max() <= 1e-9
            assert s.P.diagonal().min() > 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_steps_keep_covariance_pd_and_window_in_frame(self, seed):
        # 2 x 50,000 seeded steps in random order: predict with random dt,
        # update with a noisy or wild measurement, or mark a miss. Each track
        # restarts after 2,000 steps, with a fresh noise setting.
        rng = np.random.default_rng(seed)
        configs = [CFG, NoiseConfig(sigma=6.0, r_pos=0.05, kappa=3.0), NoiseConfig(0.01, 25.0, 1.5)]
        full = valid_center_rect(22, 36, 320, 240)
        for _ in range(25):
            cfg = configs[int(rng.integers(len(configs)))]
            s = initial_state(*rng.uniform(0.0, 320.0, 2), cfg, float(rng.uniform(0.1, 100.0)))
            for action, dt, noise in zip(
                rng.choice(3, 2000, p=[0.5, 0.3, 0.2]),
                rng.uniform(0.05, 3.0, 2000),
                rng.standard_cauchy((2000, 2)),
            ):
                if action == 0:
                    s = predict(s, float(dt), cfg)
                elif action == 1:
                    s = update(s, (s.x + float(noise[0]), s.y + float(noise[1])), cfg)
                else:
                    s = mark_miss(s)
                assert np.array_equal(s.P, s.P.T)
                np.linalg.cholesky(s.P)  # raises unless positive definite
                win = search_window(s, full, cfg)
                assert win.area > 0 and full.contains(win)

    def test_converges_on_noiseless_constant_velocity(self):
        # exact simulation of the linear system: position error -> ~0,
        # velocity estimate -> true velocity
        vx, vy = 2.0, -1.0
        s = initial_state(0.0, 0.0, CFG, 25.0)
        for k in range(1, 51):
            s = predict(s, 1.0, CFG)
            s = update(s, (vx * k, vy * k), CFG)
        assert math.hypot(s.x - vx * 50, s.y - vy * 50) <= 0.5
        assert abs(s.vx - vx) / abs(vx) <= 0.05
        assert abs(s.vy - vy) / abs(vy) <= 0.05


class TestSearchWindow:
    def test_frozen_half_extents(self):
        # sqrt(4)=2 sigma, kappa 3 -> 6 each side of the predicted centre
        s = make_state(200.0, 200.0, p=np.diag([4.0, 4.0, 1.0, 1.0]))
        win = search_window(s, valid_center_rect(22, 36, 640, 480), CFG)
        assert (win.w, win.h) == (13, 13)
        assert (win.x, win.y) == (200 - 6, 200 - 6)

    def test_infinite_variance_full_frame(self):
        s = make_state(50.0, 50.0, p=np.diag([np.inf, np.inf, 1.0, 1.0]))
        win = search_window(s, valid_center_rect(22, 36, 320, 240), CFG)
        assert win == Rect(10, 17, 320 - 22 + 1, 240 - 36 + 1)

    def test_windows_nest_across_misses(self):
        s = make_state(100.0, 100.0, p=np.diag([2.0, 2.0, 4.0, 4.0]))
        first = predict(s, 1.0, CFG)
        second = predict(mark_miss(first), 1.0, CFG)
        w1 = search_window(first, valid_center_rect(22, 36, 640, 480), CFG)
        w2 = search_window(second, valid_center_rect(22, 36, 640, 480), CFG)
        assert w2.contains(w1)
        assert w2.area > w1.area

    def test_area_non_decreasing_until_full(self):
        s = make_state(160.0, 120.0, p=np.diag([1.0, 1.0, 4.0, 4.0]))
        areas = []
        for _ in range(40):
            s = predict(mark_miss(s), 1.0, CFG)
            areas.append(search_window(s, valid_center_rect(22, 36, 320, 240), CFG).area)
        assert all(a <= b for a, b in zip(areas, areas[1:]))
        full = Rect(10, 17, 299, 205).area
        assert areas[-1] == full

    def test_off_frame_prediction_returns_full_area(self):
        s = make_state(-500.0, -500.0, p=np.eye(4))
        win = search_window(s, valid_center_rect(22, 36, 320, 240), CFG)
        assert win == Rect(10, 17, 299, 205)


class TestInitialState:
    def test_covariance_layout(self):
        s = initial_state(12.0, 34.0, NoiseConfig(r_pos=2.0), vel_var=25.0)
        assert (s.x, s.y, s.vx, s.vy) == (12.0, 34.0, 0.0, 0.0)
        assert s.P.diagonal().tolist() == [2.0, 2.0, 25.0, 25.0]
        assert s.misses == 0

    def test_noise_config_validated(self):
        with pytest.raises(ConfigError):
            NoiseConfig(sigma=0.0)
        with pytest.raises(ConfigError):
            NoiseConfig(r_pos=-1.0)


def test_package_checks_are_not_asserts():
    """``python -O`` strips assert statements, so no check in the package may be one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(uastrack.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
