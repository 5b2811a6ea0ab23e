"""Deterministic synthetic scenes: a textured target over a textured world.

The world is a fixed seeded texture larger than the frame; the camera is a
frame-sized window whose offset follows the gimbal state through the inverse
of the pixel-error-to-counts mapping, so a correct pointing command recenters
a static target. Rendering is a pure function of (scenario, gimbal state,
frame index): noise comes from a counter-based generator keyed on
(seed, stream, frame), never from evaluation order.

A render of frame k hands the noise draw of frame k + 1 to one background
thread, as a camera reads out its next frame while the tracker works on
this one; see ``_NoiseAhead``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .errors import ScenarioError
from .gimbal import GimbalState, pan_signed
from .imagebuf import GrayImage, Rect
from .util import LazyPool, round_half_away
from .warp import warp_patch

_STREAM_WORLD = 1
_STREAM_PATCH = 2
_STREAM_NOISE = 3

_MASK64 = (1 << 64) - 1


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
    angular_rate: float  # radians per frame
    phase: float = 0.0

    def position(self, frame: int) -> tuple[float, float]:
        a = self.phase + self.angular_rate * frame
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

    @classmethod
    def constant(cls, value: float) -> "Ramp":
        return cls((0.0,), (float(value),))


@dataclass(frozen=True)
class Occlusion:
    """Solid panel painted over frame-space ``rect`` for frames [start, end)."""

    start: int
    end: int
    rect: Rect
    fill: int = 64

    def active(self, frame: int) -> bool:
        return self.start <= frame < self.end


@dataclass(frozen=True)
class Scenario:
    name: str
    frame_w: int = 320
    frame_h: int = 240
    patch_w: int = 22
    patch_h: int = 36
    trajectory: Trajectory = field(default_factory=lambda: LineTrajectory(0.0, 0.0, 0.0, 0.0))
    target_spin: float = 0.0          # degrees per frame
    gain: Ramp = field(default_factory=lambda: Ramp.constant(1.0))
    offset: Ramp = field(default_factory=lambda: Ramp.constant(0.0))
    noise_sigma: float = 0.0          # gray levels
    occlusions: tuple[Occlusion, ...] = ()
    seed: int = 7
    frames: int = 300                 # validated horizon
    hfov: float = math.radians(30.0)
    counts_per_radian: float = 1e4
    world_w: Optional[int] = None     # None: sized automatically from the trajectory
    world_h: Optional[int] = None
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
    return (
        c00 * (1 - fy) * (1 - fx)
        + c01 * (1 - fy) * fx
        + c10 * fy * (1 - fx)
        + c11 * fy * fx
    )


def default_target_patch(seed: int, w: int = 22, h: int = 36) -> GrayImage:
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
    return GrayImage(np.clip(np.floor(vals + 0.5), 30.0, 190.0).astype(np.uint8))


def _make_world(seed: int, w: int, h: int) -> np.ndarray:
    """Seeded background texture, smooth at large scale with mild detail."""
    rng = _philox(seed, _STREAM_WORLD)
    cell = 16
    coarse = rng.uniform(55.0, 175.0, (h // cell + 2, w // cell + 2))
    base = _upsample_bilinear(coarse, h, w, cell)
    base += rng.uniform(-7.0, 7.0, (h, w))
    return np.clip(np.floor(base + 0.5), 30.0, 196.0).astype(np.uint8)


@dataclass(frozen=True)
class _Geometry:
    world_w: int
    world_h: int
    traj_offset_x: float   # world coords = trajectory coords + offset
    traj_offset_y: float
    base_origin_x: int     # camera origin at zero gimbal
    base_origin_y: int


@lru_cache(maxsize=32)
def _geometry(sc: Scenario) -> _Geometry:
    pad = 48
    xs = []
    ys = []
    for k in range(sc.frames):
        px, py = sc.trajectory.position(k)
        xs.append(px)
        ys.append(py)
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)

    if sc.world_w is None:
        world_w = int(math.ceil(hi_x - lo_x)) + sc.frame_w + 2 * pad
        off_x = -lo_x + pad + sc.frame_w / 2.0
    else:
        world_w = sc.world_w
        off_x = (world_w - (hi_x + lo_x)) / 2.0
    if sc.world_h is None:
        world_h = int(math.ceil(hi_y - lo_y)) + sc.frame_h + 2 * pad
        off_y = -lo_y + pad + sc.frame_h / 2.0
    else:
        world_h = sc.world_h
        off_y = (world_h - (hi_y + lo_y)) / 2.0
    if world_w < sc.frame_w or world_h < sc.frame_h:
        raise ScenarioError(
            f"world {world_w}x{world_h} smaller than the {sc.frame_w}x{sc.frame_h} frame"
        )

    half_w = (sc.patch_w - 1) // 2
    half_h = (sc.patch_h - 1) // 2
    for px, py in zip(xs, ys):
        wx = round_half_away(px + off_x)
        wy = round_half_away(py + off_y)
        if (
            wx - half_w < 0
            or wy - half_h < 0
            or wx - half_w + sc.patch_w > world_w
            or wy - half_h + sc.patch_h > world_h
        ):
            raise ScenarioError(
                f"trajectory leaves the {world_w}x{world_h} world at frame "
                f"{xs.index(px)}"
            )

    x0, y0 = sc.trajectory.position(0)
    base_x = round_half_away(x0 + off_x) - (sc.frame_w - 1) // 2
    base_y = round_half_away(y0 + off_y) - (sc.frame_h - 1) // 2
    base_x = max(0, min(base_x, world_w - sc.frame_w))
    base_y = max(0, min(base_y, world_h - sc.frame_h))
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
    """Sensor noise of one frame, a function of its arguments only."""
    return _philox(seed, _STREAM_NOISE, frame_index).normal(0.0, sigma, shape)


class _NoiseAhead:
    """Draws frame k + 1's noise on a background thread while frame k is tracked.

    A render of frame k takes the draw in flight if its key (seed, frame
    index, shape, sigma) equals frame k's and hands frame k + 1's to the
    thread; every other render (frame 0, an out-of-order or repeated frame,
    another scenario) draws inline. The last frame of a horizon hands
    nothing on. numpy's generators release the interpreter lock while they
    fill an array, so the draw runs alongside the scan. The thread starts
    with the first noisy render that has a next frame; a forked child drops
    the draw it inherited.
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
        unless it is None. The call waits for a draw in flight and re-raises
        its error, so a render makes it as late as it can."""
        with self._lock:
            pending, self._pending = self._pending, None
            if ahead is not None:
                self._pending = (ahead, self._pool.get(1).submit(_draw_noise, *ahead))
        if pending is not None:
            if pending[0] == key:
                return pending[1].result
            pending[1].cancel()
        return partial(_draw_noise, *key)


_noise_ahead = _NoiseAhead()


def camera_origin(sc: Scenario, gimbal: GimbalState) -> tuple[int, int]:
    """World position of the frame's top-left for a given gimbal state."""
    g = _geometry(sc)
    dx = round_half_away(pan_signed(gimbal) * sc.pixels_per_count)
    dy = round_half_away(gimbal.tilt_counts * sc.pixels_per_count)
    ox = max(0, min(g.base_origin_x + dx, g.world_w - sc.frame_w))
    oy = max(0, min(g.base_origin_y + dy, g.world_h - sc.frame_h))
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
    sprite = _sprite(sc, target_angle_deg(sc, frame_index))
    wx, wy = target_world_center(sc, frame_index)
    left = wx - (sc.patch_w - 1) // 2 - ox
    top = wy - (sc.patch_h - 1) // 2 - oy
    fx0 = max(left, 0)
    fy0 = max(top, 0)
    fx1 = min(left + sc.patch_w, sc.frame_w)
    fy1 = min(top + sc.patch_h, sc.frame_h)
    if fx0 < fx1 and fy0 < fy1:
        frame[fy0:fy1, fx0:fx1] = sprite[fy0 - top : fy1 - top, fx0 - left : fx1 - left]

    for occ in sc.occlusions:
        if occ.active(frame_index):
            r = occ.rect
            x0, y0 = max(r.x, 0), max(r.y, 0)
            x1, y1 = min(r.x2, sc.frame_w), min(r.y2, sc.frame_h)
            if x0 < x1 and y0 < y1:
                frame[y0:y1, x0:x1] = float(occ.fill)

    # gain * frame + offset + noise, rounded half up and clipped, in place
    frame *= sc.gain.at(frame_index)
    frame += sc.offset.at(frame_index)
    if noise is not None:
        frame += noise()
    frame += 0.5
    np.floor(frame, out=frame)
    np.clip(frame, 0.0, 255.0, out=frame)
    return GrayImage(frame.astype(np.uint8))


def _center_occlusion(frame_w: int, frame_h: int, start: int, end: int, size: int = 120) -> Occlusion:
    return Occlusion(
        start,
        end,
        Rect((frame_w - size) // 2, (frame_h - size) // 2, size, size),
    )


def make_scenario(
    name: str,
    frame_w: int = 320,
    frame_h: int = 240,
    frames: int = 300,
    seed: int = 7,
) -> Scenario:
    """Build a named preset scenario at the requested size and horizon."""
    cx, cy = frame_w / 2.0, frame_h / 2.0
    common = dict(frame_w=frame_w, frame_h=frame_h, frames=frames, seed=seed)
    if name == "cv":
        return Scenario(
            name, trajectory=LineTrajectory(0.0, 0.0, 1.2, 0.5), noise_sigma=2.0, **common
        )
    if name == "turn":
        return Scenario(
            name,
            trajectory=CircleTrajectory(0.0, 0.0, 40.0, 0.02),
            noise_sigma=2.0,
            **common,
        )
    if name == "spin":
        return Scenario(
            name,
            trajectory=LineTrajectory(0.0, 0.0, 0.0, 0.0),
            target_spin=3.0,
            noise_sigma=2.0,
            **common,
        )
    if name == "occlude":
        return Scenario(
            name,
            trajectory=LineTrajectory(0.0, 0.0, 1.2, 0.5),
            noise_sigma=2.0,
            occlusions=(_center_occlusion(frame_w, frame_h, 40, 44),),
            **common,
        )
    if name == "relight":
        return Scenario(
            name,
            trajectory=LineTrajectory(0.0, 0.0, 1.2, 0.5),
            gain=Ramp((0.0, float(max(frames - 1, 1))), (0.7, 1.3)),
            noise_sigma=1.0,
            **common,
        )
    if name == "blurless-stopstart":
        return Scenario(
            name,
            trajectory=WaypointTrajectory(((0.0, 0.0), (90.0, 30.0)), speed=2.0),
            noise_sigma=2.0,
            **common,
        )
    if name == "redetect":
        # target teleports while a panel hides its old position; the search
        # budget runs out and a full-frame scan must reacquire it
        return Scenario(
            name,
            trajectory=JumpTrajectory(0.0, 0.0, 120.0, 90.0, at_frame=30),
            noise_sigma=2.0,
            occlusions=(
                Occlusion(30, 35, Rect((frame_w - 60) // 2, (frame_h - 60) // 2, 60, 60)),
            ),
            **common,
        )
    raise ScenarioError(f"unknown scenario {name!r}")


BUILTIN_NAMES = (
    "cv",
    "turn",
    "spin",
    "occlude",
    "relight",
    "blurless-stopstart",
    "redetect",
)


def builtin_scenarios() -> list[Scenario]:
    """Preset scenarios at default size, horizon, and seed."""
    return [make_scenario(name) for name in BUILTIN_NAMES]
