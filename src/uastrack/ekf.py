"""Constant-velocity Kalman filter driving the adaptive search window.

State is (x, y, vx, vy) in pixels and pixels per time unit. The transition
is the exact constant-velocity propagation, so predict/correct reduce to
the linear filter equations. Position-only measurements enter through
H = [[1,0,0,0],[0,1,0,0]] with isotropic noise. All algebra is fixed-size
4x4 / 4x2 / 2x2 with a closed-form 2x2 inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .imagebuf import Rect
from .util import round_half_away

_H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def check_positive(name: str, value: float) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` is finite and positive."""
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class NoiseConfig:
    """Filter noise intensities and the window sigma multiplier."""

    sigma: float = 0.4      # per-axis process noise, applied uniformly
    r_pos: float = 1.0      # measurement variance per position axis
    kappa: float = 3.0      # window half-extent in predicted sigmas

    def __post_init__(self) -> None:
        for name in ("sigma", "r_pos", "kappa"):
            check_positive(name, getattr(self, name))


@dataclass(frozen=True)
class TrackState:
    """Filter state: position, velocity, covariance, consecutive miss count."""

    x: float
    y: float
    vx: float
    vy: float
    P: np.ndarray
    misses: int = 0

    def __post_init__(self) -> None:
        P = np.array(self.P, dtype=np.float64)
        if P.shape != (4, 4):
            raise ValueError(f"covariance must be 4x4, got {P.shape}")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)
        if self.misses < 0:
            raise ValueError("miss count must be non-negative")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.x, self.y, self.vx, self.vy])


def initial_state(x: float, y: float, cfg: NoiseConfig, vel_var: float) -> TrackState:
    """Fresh track at a detected position: zero velocity, generous velocity variance."""
    P = np.diag([cfg.r_pos, cfg.r_pos, vel_var, vel_var])
    return TrackState(x=x, y=y, vx=0.0, vy=0.0, P=P, misses=0)


def process_jacobian(dt: float) -> np.ndarray:
    """Constant-velocity transition: identity with dt coupling position to velocity."""
    check_positive("dt", dt)
    A = np.eye(4)
    A[0, 2] = dt
    A[1, 3] = dt
    return A


def process_noise(dt: float, cfg: NoiseConfig) -> np.ndarray:
    """Process covariance added per prediction.

    Diagonal position terms a = dt*sigma + dt^3*sigma/3, velocity terms
    v = dt*sigma, and position-velocity coupling b = dt^2*sigma/2 at
    (0,2)/(2,0) and (1,3)/(3,1).
    """
    check_positive("dt", dt)
    s = cfg.sigma
    a = dt * s + (dt ** 3) * s / 3.0
    b = 0.5 * dt * dt * s
    v = dt * s
    return np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, b],
            [b, 0.0, v, 0.0],
            [0.0, b, 0.0, v],
        ]
    )


def _symmetrized(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def predict(s: TrackState, dt: float, cfg: NoiseConfig) -> TrackState:
    """Propagate state and inflate covariance; misses unchanged."""
    A = process_jacobian(dt)
    xv = A @ s.vector
    P = _symmetrized(A @ s.P @ A.T + process_noise(dt, cfg))
    return TrackState(x=xv[0], y=xv[1], vx=xv[2], vy=xv[3], P=P, misses=s.misses)


def update(s: TrackState, z: tuple[float, float], cfg: NoiseConfig) -> TrackState:
    """Correct a predicted state with a measured position; resets misses."""
    P = s.P
    s00 = P[0, 0] + cfg.r_pos
    s01 = P[0, 1]
    s10 = P[1, 0]
    s11 = P[1, 1] + cfg.r_pos
    det = s00 * s11 - s01 * s10
    if not det > 0.0:  # also rejects NaN
        raise ValueError(f"innovation covariance must be positive definite, det={det}")
    s_inv = np.array([[s11, -s01], [-s10, s00]]) / det
    K = P[:, :2] @ s_inv
    innov = np.array([z[0] - s.x, z[1] - s.y])
    xv = s.vector + K @ innov
    P_new = _symmetrized((np.eye(4) - K @ _H) @ P)
    return TrackState(x=xv[0], y=xv[1], vx=xv[2], vy=xv[3], P=P_new, misses=0)


def mark_miss(s: TrackState) -> TrackState:
    """Record a frame with no accepted detection."""
    return replace(s, misses=s.misses + 1)


def search_window(s: TrackState, full: Rect, cfg: NoiseConfig) -> Rect:
    """Center-position window around the predicted position.

    Half-extents are kappa predicted position sigmas. The window is clipped
    to ``full``, the center positions where the template fits the frame
    (``matcher.valid_center_rect``); a window with a non-finite extent, or
    none inside ``full``, is ``full``.
    """
    sx = math.sqrt(max(s.P[0, 0], 0.0))
    sy = math.sqrt(max(s.P[1, 1], 0.0))
    if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(s.x) and math.isfinite(s.y)):
        return full
    half_x = math.ceil(cfg.kappa * sx)
    half_y = math.ceil(cfg.kappa * sy)
    cx = round_half_away(s.x)
    cy = round_half_away(s.y)
    return Rect(cx - half_x, cy - half_y, 2 * half_x + 1, 2 * half_y + 1).clip(full) or full
