"""Hypothesis strategies over the simulator's scenes, shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from uastrack.imagebuf import Rect
from uastrack.scenesim import (
    CircleTrajectory,
    JumpTrajectory,
    LineTrajectory,
    Occlusion,
    Ramp,
    Scenario,
    WaypointTrajectory,
)

coords = st.floats(-150.0, 150.0)
points = st.tuples(coords, coords)


@st.composite
def trajectories(draw, horizon: int):
    """A line, circle, waypoint or jump trajectory over ``horizon`` frames."""
    kind = draw(st.sampled_from(["line", "circle", "waypoint", "jump"]))
    if kind == "line":
        rate = st.floats(-6.0, 6.0)
        return LineTrajectory(draw(coords), draw(coords), draw(rate), draw(rate))
    if kind == "circle":
        return CircleTrajectory(draw(coords), draw(coords), draw(st.floats(0.0, 90.0)),
                                draw(st.floats(-0.3, 0.3)))
    if kind == "waypoint":
        return WaypointTrajectory(tuple(draw(st.lists(points, min_size=1, max_size=4))),
                                  draw(st.floats(0.5, 6.0)))
    (x0, y0), (x1, y1) = draw(points), draw(points)
    return JumpTrajectory(x0, y0, x1, y1, draw(st.integers(0, horizon)))


@st.composite
def scenarios(draw, frame_w: int = 320, frame_h: int = 240, max_frames: int = 30):
    """A ``frame_w`` x ``frame_h`` scenario of at most ``max_frames`` frames:
    a drawn trajectory, spin, one occlusion, a gain ramp, noise sigma 0 or
    2 and target seed."""
    frames = draw(st.integers(1, max_frames))
    x, y = draw(st.integers(-40, frame_w)), draw(st.integers(-40, frame_h))
    start = draw(st.integers(0, frames))
    occlusion = Occlusion(start, start + draw(st.integers(1, 10)),
                          Rect(x, y, draw(st.integers(1, 160)), draw(st.integers(1, 160))))
    gains = st.floats(0.5, 1.5)
    return Scenario(
        "generated",
        frame_w=frame_w,
        frame_h=frame_h,
        trajectory=draw(trajectories(frames)),
        target_spin=draw(st.floats(-6.0, 6.0)),
        gain=Ramp((0.0, float(draw(st.integers(1, frames)))), (draw(gains), draw(gains))),
        noise_sigma=draw(st.sampled_from([0.0, 2.0])),
        occlusions=(occlusion,),
        seed=draw(st.integers(0, 2**16)),
        frames=frames,
    )
