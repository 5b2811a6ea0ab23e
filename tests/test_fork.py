"""A process forked after the package started its threads can still scan and render."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from uastrack import matcher

# The parent starts both pools, holds a noise draw in flight on its noise
# thread, and forks. The child inherits the pool objects but none of their
# threads; within SIGALRM's 10 s it must scan, on the pool and inline, with
# the bank it inherited and with a fresh one, and render, each with the
# parent's result.
PROBE = """
import os, signal, threading
import numpy as np
from uastrack import matcher, scenesim, warp
from uastrack.gimbal import GimbalState
from uastrack.imagebuf import GrayImage

matcher._WORKERS = 2
img = GrayImage(np.random.default_rng(5).integers(0, 256, (60, 80), dtype=np.uint8))
patch = GrayImage(img.pixels[:9, :7])
bank = warp.build_bank(patch, 4, 90.0)
window = matcher.Rect(0, 0, 30, 25)  # holds the patch's own place
points = matcher.scan(img, bank, img.rect, 0.5)  # on the pool
inside = matcher.scan(img, bank, window, 0.5)    # warm and small: inline
assert points and inside
sc = scenesim.make_scenario("cv", frames=4)
g = GimbalState()
frame = scenesim.render(sc, g, 1)

release = threading.Event()
draw = scenesim._draw_noise

def held(*key):
    if threading.current_thread().name.startswith("uastrack-noise"):
        release.wait()
    return draw(*key)

scenesim._draw_noise = held
scenesim.render(sc, g, 0)  # frame 1's draw waits on the noise thread
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    # each bit: a scan or render that differs from the parent's
    fresh = warp.build_bank(patch, 4, 90.0)
    differs = [
        matcher.scan(img, bank, img.rect, 0.5) != points,
        matcher.scan(img, bank, window, 0.5) != inside,
        matcher.scan(img, fresh, img.rect, 0.5) != points,
        matcher.scan(img, fresh, window, 0.5) != inside,
        scenesim.render(sc, g, 1) != frame,
    ]
    os._exit(sum(bit << i for i, bit in enumerate(differs)))
release.set()
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_scans_and_renders_after_fork():
    env = {**os.environ, "PYTHONPATH": str(Path(matcher.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    # -14: SIGALRM ended a child that hung; > 0: bits of the results that differ
    assert out.stdout.split() == ["0"]
