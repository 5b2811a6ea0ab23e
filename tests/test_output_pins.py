"""The simulator's and the bank's output, pinned byte for byte.

Each digest is the sha256 of pixels that the scene render, the target patch
and the rotated bank produce; a change to how they are drawn, composited or
rounded that moves one gray level anywhere fails here. One more pins the
builtin scenarios themselves, whose panels and ramps the 10-frame renders
never reach.
"""

import hashlib

from uastrack import scenesim
from uastrack.gimbal import GimbalState, command
from uastrack.warp import build_bank

FRAMES = 10
# (pan, tilt) counts commanded before each frame; they drive the camera
# into the world's clamp on both axes and back out
MOVES = [(240 * k - 1000, 700 - 160 * k) for k in range(FRAMES)]

RENDERS = "50d82f61b7e1e0a974b7d7b9c64955a5f8847f706c6b4291250e21297e29409b"
PATCHES = "d01071a0ba6e39571feedc22a92dd6841b037182f17a317fd8b5af7cccf075d7"
BANKS = "a646cbf967ad8addc42fcf8996f3827dac66e180595feb6d1b229124afd89c75"
BENCH_FRAME = "ba40379c112bd46d3a3cfcf34b2b098fc25333d0e030bdb17cde6c20bf8f063c"
SCENARIOS = "10ab3a41ce0678510961c88b95f478f197f21a9542026d0323cc7baf686ec501"


def _renders() -> str:
    h = hashlib.sha256()
    for name in scenesim.BUILTIN_NAMES:
        for seed in (1, 7):
            sc = scenesim.make_scenario(name, frames=FRAMES, seed=seed)
            g = GimbalState()
            for k, (d_pan, d_tilt) in enumerate(MOVES):
                g = command(g, d_pan, d_tilt)
                h.update(scenesim.render(sc, g, k).pixels.tobytes())
    return h.hexdigest()


def _patches() -> str:
    h = hashlib.sha256()
    for seed in range(1, 21):
        h.update(scenesim.default_target_patch(seed).pixels.tobytes())
    return h.hexdigest()


def _banks() -> str:
    h = hashlib.sha256()
    for seed in (1, 7, 42):
        for entry in build_bank(scenesim.default_target_patch(seed)).entries:
            h.update(repr(entry.angle_deg).encode())
            h.update(entry.patch.pixels.tobytes())
    return h.hexdigest()


def _bench_frame() -> str:
    """The 640x480 frame of ``uastrack bench`` with its default template."""
    template = scenesim.default_target_patch(seed=11)
    sc = scenesim.Scenario(
        name="bench",
        frame_w=640,
        frame_h=480,
        patch_w=template.width,
        patch_h=template.height,
        trajectory=scenesim.LineTrajectory(0.0, 0.0, 0.0, 0.0),
        seed=11,
        frames=1,
    )
    return hashlib.sha256(scenesim.render(sc, GimbalState(), 0).pixels.tobytes()).hexdigest()


def _scenarios() -> str:
    """Every builtin at three frame sizes, three horizons and two seeds, as ``repr``."""
    h = hashlib.sha256()
    for name in scenesim.BUILTIN_NAMES:
        for w, hh in ((320, 240), (640, 480), (200, 150)):
            for frames in (1, 50, 300):
                for seed in (1, 7):
                    h.update(repr(scenesim.make_scenario(name, w, hh, frames, seed)).encode())
    return h.hexdigest()


def test_builtin_scenarios_are_pinned():
    assert _scenarios() == SCENARIOS


def test_renders_patches_banks_and_bench_frame_are_pinned():
    assert (_renders(), _patches(), _banks(), _bench_frame()) == (
        RENDERS,
        PATCHES,
        BANKS,
        BENCH_FRAME,
    )
