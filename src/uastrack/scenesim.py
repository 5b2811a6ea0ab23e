"""Deterministic synthetic scenes: a textured target over a textured world.

The world is a fixed seeded texture larger than the frame; the camera is a
frame-sized window whose offset follows the gimbal state through the inverse
of the pixel-error-to-counts mapping, so a correct pointing command recenters
a static target. Rendering is a pure function of (scenario, gimbal state,
frame index): noise comes from a counter-based generator keyed on
(seed, stream, frame), never from evaluation order.

Every noise draw runs on one background thread, and a render of frame k
hands frame k + 1's to it, as a camera reads out its next frame while the
tracker works on this one; see ``_NoiseAhead``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import ScenarioError
from .gimbal import GimbalState, pan_signed
from .imagebuf import GrayImage, Rect
from .matcher import template_origin
from .tracker import OpticsConfig
from .util import LazyPool, clamp, round_half_away, to_gray
from .warp import warp_patch

_STREAM_WORLD = 1
_STREAM_PATCH = 2
_STREAM_NOISE = 3

_MASK64 = (1 << 64) - 1

OCCLUSION_GRAY = 64.0


@dataclass(frozen=True)
class LineTrajectory:
    """Constant velocity in pixels per frame from a starting point."""

    x0: float
    y0: float
    vx: float
    vy: float

    def position(self, frame: int) -> tuple[float, float]:
        return self.x0 + self.vx * frame, self.y0 + self.vy * frame


@dataclass(frozen=True)
class CircleTrajectory:
    cx: float
    cy: float
    radius: float
    angular_rate: float  # radians per frame, from angle 0 at frame 0

    def position(self, frame: int) -> tuple[float, float]:
        a = self.angular_rate * frame
        return self.cx + self.radius * math.cos(a), self.cy + self.radius * math.sin(a)


@dataclass(frozen=True)
class WaypointTrajectory:
    """Constant speed along a polyline; holds position at the final waypoint."""

    points: tuple[tuple[float, float], ...]
    speed: float  # pixels per frame

    def position(self, frame: int) -> tuple[float, float]:
        remaining = self.speed * frame
        px, py = self.points[0]
        for qx, qy in self.points[1:]:
            seg = math.hypot(qx - px, qy - py)
            if remaining <= seg or seg == 0.0:
                if seg == 0.0:
                    continue
                t = remaining / seg
                return px + t * (qx - px), py + t * (qy - py)
            remaining -= seg
            px, py = qx, qy
        return px, py


@dataclass(frozen=True)
class JumpTrajectory:
    """Hold at one point, then teleport to another at a given frame."""

    x0: float
    y0: float
    x1: float
    y1: float
    at_frame: int

    def position(self, frame: int) -> tuple[float, float]:
        if frame < self.at_frame:
            return self.x0, self.y0
        return self.x1, self.y1


Trajectory = Union[LineTrajectory, CircleTrajectory, WaypointTrajectory, JumpTrajectory]


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear value over frame index (constant beyond the ends)."""

    frames: tuple[float, ...] = (0.0,)
    values: tuple[float, ...] = (1.0,)

    def at(self, frame: int) -> float:
        return float(np.interp(frame, self.frames, self.values))


@dataclass(frozen=True)
class Occlusion:
    """Solid panel of gray ``OCCLUSION_GRAY`` painted over frame-space ``rect``
    for frames [start, end)."""

    start: int
    end: int
    rect: Rect

    def active(self, frame: int) -> bool:
        return self.start <= frame < self.end


@dataclass(frozen=True)
class Scenario:
    name: str
    frame_w: int = OpticsConfig.frame_w
    frame_h: int = OpticsConfig.frame_h
    patch_w: int = 22
    patch_h: int = 36
    trajectory: Trajectory = field(default_factory=lambda: LineTrajectory(0.0, 0.0, 0.0, 0.0))
    target_spin: float = 0.0          # degrees per frame
    gain: Ramp = field(default_factory=Ramp)
    noise_sigma: float = 0.0          # gray levels
    occlusions: tuple[Occlusion, ...] = ()
    seed: int = 7
    frames: int = 300                 # validated horizon
    hfov: float = OpticsConfig.hfov
    counts_per_radian: float = OpticsConfig.counts_per_radian
    patch: Optional[GrayImage] = None  # None: seeded procedural pattern

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ScenarioError("scenario needs at least one frame")
        if min(self.gain.values) <= 0.0:
            raise ScenarioError("illumination gain must stay positive")
        if self.noise_sigma < 0.0:
            raise ScenarioError("noise sigma must be non-negative")
        if self.patch is not None and (self.patch.width, self.patch.height) != (
            self.patch_w,
            self.patch_h,
        ):
            raise ScenarioError("explicit patch must match patch_w x patch_h")
        _geometry(self)  # validates target-vs-world bounds at construction

    @property
    def pixels_per_count(self) -> float:
        """Camera-window shift per encoder count; inverse of the count mapping."""
        return self.frame_w / (self.hfov * self.counts_per_radian)


def _philox(seed: int, stream: int, frame: int = 0) -> np.random.Generator:
    sub = ((stream << 48) ^ frame) & _MASK64
    key = np.array([seed & _MASK64, sub], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _upsample_bilinear(coarse: np.ndarray, h: int, w: int, cell: int) -> np.ndarray:
    """``coarse`` bilinearly interpolated to h x w, ``cell`` pixels a coarse step.

    The operation order is part of the output: each pixel is c00*(1-fy)*(1-fx)
    + c01*(1-fy)*fx + c10*fy*(1-fx) + c11*fy*fx, in that order. Each term's
    row product is formed on the coarse columns, then gathered along them.
    """
    y = np.arange(h) / cell
    x = np.arange(w) / cell
    y0 = np.minimum(y.astype(np.intp), coarse.shape[0] - 2)
    x0 = np.minimum(x.astype(np.intp), coarse.shape[1] - 2)
    fy = (y - y0)[:, None]
    fx = x - x0
    out, term = np.empty((h, w)), np.empty((h, w))  # row-major, as the render reads the world
    dst = out  # the first term itself, as 0 + t == t; each sum rounds as in the expression
    for rows, wy in ((y0, 1 - fy), (y0 + 1, fy)):
        row = coarse[rows] * wy
        for cols, wx in ((x0, 1 - fx), (x0 + 1, fx)):
            row.take(cols, axis=1, out=dst, mode="clip")  # in range; "raise" would buffer out
            dst *= wx
            if dst is term:
                out += term
            dst = term
    return out


def default_target_patch(seed: int, w: int = Scenario.patch_w, h: int = Scenario.patch_h) -> GrayImage:
    """Seeded blob pattern: smooth (tolerates small rotations), asymmetric
    (distinguishes rotations), values kept off the rails for relighting."""
    rng = _philox(seed, _STREAM_PATCH)
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    vals = np.full((h, w), 112.0)
    n_blobs = 6
    for _ in range(n_blobs):
        bx = rng.uniform(0.15 * w, 0.85 * w)
        by = rng.uniform(0.15 * h, 0.85 * h)
        r = rng.uniform(2.5, 5.0)
        amp = rng.uniform(45.0, 80.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        vals += amp * np.exp(-((xx - bx) ** 2 + (yy - by) ** 2) / (2.0 * r * r))
    # deterministic asymmetry so opposite rotations never look alike
    vals += 30.0 * np.exp(-((xx - 0.25 * w) ** 2 + (yy - 0.2 * h) ** 2) / (2.0 * 9.0))
    vals -= 30.0 * np.exp(-((xx - 0.8 * w) ** 2 + (yy - 0.85 * h) ** 2) / (2.0 * 9.0))
    return GrayImage(to_gray(vals, 30.0, 190.0))


def _make_world(seed: int, w: int, h: int) -> np.ndarray:
    """Seeded background texture, smooth at large scale with mild detail."""
    rng = _philox(seed, _STREAM_WORLD)
    cell = 16
    coarse = rng.uniform(55.0, 175.0, (h // cell + 2, w // cell + 2))
    base = _upsample_bilinear(coarse, h, w, cell)
    base += rng.uniform(-7.0, 7.0, (h, w))
    return to_gray(base, 30.0, 196.0)


@dataclass(frozen=True)
class _Geometry:
    world_w: int
    world_h: int
    traj_offset_x: float   # world coords = trajectory coords + offset
    traj_offset_y: float
    base_origin_x: int     # camera origin at zero gimbal
    base_origin_y: int


def _target_rect(sc: Scenario, cx: int, cy: int) -> Rect:
    """The pixels the target's sprite covers when centred at (cx, cy)."""
    return Rect(template_origin(cx, sc.patch_w), template_origin(cy, sc.patch_h), sc.patch_w, sc.patch_h)


@lru_cache(maxsize=32)
def _geometry(sc: Scenario) -> _Geometry:
    """The world spans the trajectory plus the frame and ``pad`` on each side."""
    pad = 48
    xs = []
    ys = []
    for k in range(sc.frames):
        px, py = sc.trajectory.position(k)
        xs.append(px)
        ys.append(py)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    world_w = int(math.ceil(hi_x - lo_x)) + sc.frame_w + 2 * pad
    world_h = int(math.ceil(hi_y - lo_y)) + sc.frame_h + 2 * pad
    off_x = -lo_x + pad + sc.frame_w / 2.0
    off_y = -lo_y + pad + sc.frame_h / 2.0

    world = Rect(0, 0, world_w, world_h)
    for k, (px, py) in enumerate(zip(xs, ys)):
        placed = _target_rect(sc, round_half_away(px + off_x), round_half_away(py + off_y))
        if not world.contains(placed):
            raise ScenarioError(
                f"trajectory leaves the {world_w}x{world_h} world at frame {k}"
            )

    x0, y0 = sc.trajectory.position(0)
    base_x = template_origin(round_half_away(x0 + off_x), sc.frame_w)
    base_y = template_origin(round_half_away(y0 + off_y), sc.frame_h)
    return _Geometry(world_w, world_h, off_x, off_y, base_x, base_y)


@lru_cache(maxsize=8)
def _world_cached(seed: int, w: int, h: int) -> np.ndarray:
    world = _make_world(seed, w, h)
    world.setflags(write=False)
    return world


@lru_cache(maxsize=16)
def target_patch(sc: Scenario) -> GrayImage:
    if sc.patch is not None:
        return sc.patch
    return default_target_patch(sc.seed, sc.patch_w, sc.patch_h)


# Sized so the 120 poses of a 3 degree/frame spin stay cached.
@lru_cache(maxsize=128)
def _sprite(sc: Scenario, angle_deg: float) -> np.ndarray:
    """The target as composited at ``angle_deg``; one that does not spin is warped once."""
    return warp_patch(target_patch(sc), math.radians(angle_deg)).pixels


def _draw_noise(seed: int, frame_index: int, shape: tuple[int, int], sigma: float) -> np.ndarray:
    """Sensor noise of one frame, a function of its arguments only: the bits of
    ``normal(0.0, sigma, shape)`` but a zero's sign, which a pixel's sum erases."""
    noise = _philox(seed, _STREAM_NOISE, frame_index).standard_normal(shape)
    noise *= sigma
    return noise


class _NoiseAhead:
    """Draws every frame's noise on one background thread, frame k + 1's while
    frame k is tracked.

    A render of frame k takes the draw in flight if its key (seed, frame
    index, shape, sigma) equals frame k's; every other render (frame 0, an
    out-of-order or repeated frame, another scenario) cancels the draw in
    flight and submits its own. Either way it then hands frame k + 1's draw
    to the thread, except on the last frame of a horizon. numpy's generators
    release the interpreter lock while they fill an array, so a draw runs
    alongside the scan, or alongside the rest of its own render. The thread
    starts with the first noisy render; a forked child drops the draw it
    inherited.
    """

    def __init__(self) -> None:
        self._pool = LazyPool("uastrack-noise")
        self._forget()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        self._lock = threading.Lock()
        self._pending = None  # (key, future) of the draw in flight

    def take(self, key: tuple, ahead: tuple | None) -> Callable[[], np.ndarray]:
        """A call returning the noise for ``key``; starts the draw for ``ahead``
        unless it is None. The call waits for the draw and re-raises its
        error, so a render makes it as late as it can."""
        with self._lock:
            pool = self._pool.get(1)
            pending, self._pending = self._pending, None
            if pending is not None and pending[0] == key:
                mine = pending[1]
            else:
                if pending is not None:
                    pending[1].cancel()
                mine = pool.submit(_draw_noise, *key)
            if ahead is not None:
                self._pending = (ahead, pool.submit(_draw_noise, *ahead))
        return mine.result


_noise_ahead = _NoiseAhead()


def camera_origin(sc: Scenario, gimbal: GimbalState) -> tuple[int, int]:
    """World position of the frame's top-left for a given gimbal state."""
    g = _geometry(sc)
    dx = round_half_away(pan_signed(gimbal) * sc.pixels_per_count)
    dy = round_half_away(gimbal.tilt_counts * sc.pixels_per_count)
    ox = clamp(g.base_origin_x + dx, 0, g.world_w - sc.frame_w)
    oy = clamp(g.base_origin_y + dy, 0, g.world_h - sc.frame_h)
    return ox, oy


def target_world_center(sc: Scenario, frame_index: int) -> tuple[int, int]:
    """Composited target center in world coordinates (integer placement)."""
    g = _geometry(sc)
    px, py = sc.trajectory.position(frame_index)
    return round_half_away(px + g.traj_offset_x), round_half_away(py + g.traj_offset_y)


def target_angle_deg(sc: Scenario, frame_index: int) -> float:
    return (sc.target_spin * frame_index) % 360.0


def ground_truth(sc: Scenario, gimbal: GimbalState, frame_index: int) -> tuple[float, float, float]:
    """Frame-space target center (x, y) and rotation angle for one render."""
    ox, oy = camera_origin(sc, gimbal)
    wx, wy = target_world_center(sc, frame_index)
    return float(wx - ox), float(wy - oy), target_angle_deg(sc, frame_index)


def render(sc: Scenario, gimbal: GimbalState, frame_index: int) -> GrayImage:
    """Render one frame; deterministic in (scenario, gimbal, frame_index)."""
    if frame_index < 0 or frame_index >= sc.frames:
        raise ScenarioError(
            f"frame {frame_index} outside scenario horizon [0, {sc.frames})"
        )
    noise = None
    if sc.noise_sigma > 0.0:
        shape = (sc.frame_h, sc.frame_w)
        ahead = (sc.seed, frame_index + 1, shape, sc.noise_sigma)
        noise = _noise_ahead.take(
            (sc.seed, frame_index, shape, sc.noise_sigma),
            ahead if frame_index + 1 < sc.frames else None,
        )
    g = _geometry(sc)
    world = _world_cached(sc.seed, g.world_w, g.world_h)
    ox, oy = camera_origin(sc, gimbal)
    frame = world[oy : oy + sc.frame_h, ox : ox + sc.frame_w].astype(np.float64)

    # composite the rotated target (full sprite rectangle, mean-filled corners)
    view = Rect(0, 0, sc.frame_w, sc.frame_h)
    wx, wy = target_world_center(sc, frame_index)
    placed = _target_rect(sc, wx - ox, wy - oy)
    r = placed.clip(view)
    if r is not None:
        sprite = _sprite(sc, target_angle_deg(sc, frame_index))
        sx, sy = r.x - placed.x, r.y - placed.y
        frame[r.y : r.y2, r.x : r.x2] = sprite[sy : sy + r.h, sx : sx + r.w]

    for occ in sc.occlusions:
        if occ.active(frame_index):
            r = occ.rect.clip(view)
            if r is not None:
                frame[r.y : r.y2, r.x : r.x2] = OCCLUSION_GRAY

    # gain * frame + noise, rounded half up and clipped, in place
    frame *= sc.gain.at(frame_index)
    if noise is not None:
        frame += noise()
    return GrayImage(to_gray(frame))


def _centre_panel(frame_w: int, frame_h: int, side: int, start: int, end: int) -> Occlusion:
    """A ``side`` px square panel over the frame's centre for frames [start, end)."""
    return Occlusion(start, end, Rect((frame_w - side) // 2, (frame_h - side) // 2, side, side))


def _presets(frame_w: int, frame_h: int, frames: int) -> dict[str, dict]:
    """Each builtin scenario's settings other than its size, horizon and seed;
    ``noise_sigma`` is 2.0 where a preset does not set it."""
    drift = LineTrajectory(0.0, 0.0, 1.2, 0.5)
    return {
        "cv": dict(trajectory=drift),
        "turn": dict(trajectory=CircleTrajectory(0.0, 0.0, 40.0, 0.02)),
        "spin": dict(target_spin=3.0),
        "occlude": dict(trajectory=drift, occlusions=(_centre_panel(frame_w, frame_h, 120, 40, 44),)),
        "relight": dict(trajectory=drift, gain=Ramp((0.0, float(max(frames - 1, 1))), (0.7, 1.3)),
                        noise_sigma=1.0),
        "blurless-stopstart": dict(trajectory=WaypointTrajectory(((0.0, 0.0), (90.0, 30.0)), speed=2.0)),
        # the target teleports while a panel hides its old position; the search
        # budget runs out and a full-frame scan must reacquire it
        "redetect": dict(trajectory=JumpTrajectory(0.0, 0.0, 120.0, 90.0, at_frame=30),
                         occlusions=(_centre_panel(frame_w, frame_h, 60, 30, 35),)),
    }


BUILTIN_NAMES = tuple(_presets(Scenario.frame_w, Scenario.frame_h, Scenario.frames))


def make_scenario(
    name: str,
    frame_w: int = Scenario.frame_w,
    frame_h: int = Scenario.frame_h,
    frames: int = Scenario.frames,
    seed: int = Scenario.seed,
) -> Scenario:
    """Build a named preset scenario (``_presets``) at the requested size and horizon."""
    presets = _presets(frame_w, frame_h, frames)
    if name not in presets:
        raise ScenarioError(f"unknown scenario {name!r}")
    settings = {"noise_sigma": 2.0, **presets[name]}
    return Scenario(name, frame_w=frame_w, frame_h=frame_h, frames=frames, seed=seed, **settings)
