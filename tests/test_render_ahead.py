"""Render ahead: frame k + 1's noise is drawn on a background thread while
frame k is tracked, and every frame still equals the inline draw."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uastrack import scenesim
from uastrack.gimbal import GimbalState
from uastrack.scenesim import LineTrajectory, Scenario, _philox, render

HORIZON = 6

# Scenarios that share or differ in seed, noise sigma and frame size, with
# two different names on one key so a draw made for one serves the other.
SCENARIOS = [
    Scenario(
        name,
        frame_w=w,
        frame_h=h,
        trajectory=LineTrajectory(0.0, 0.0, 1.0, 0.5),
        noise_sigma=sigma,
        seed=seed,
        frames=HORIZON,
    )
    for name in ("a", "b")
    for seed in (1, 2)
    for sigma in (0.0, 1.0, 2.0)
    for w, h in ((64, 48), (72, 56))
]


def reference(sc: Scenario, g: GimbalState, k: int) -> np.ndarray:
    """Frame k with its noise drawn here; gain 1 and offset 0 keep the
    noise-free render exact, so adding the noise to it is the render's sum."""
    base = render(dataclasses.replace(sc, noise_sigma=0.0), g, k).pixels.astype(np.float64)
    if sc.noise_sigma > 0.0:
        base += _philox(sc.seed, 3, k).normal(0.0, sc.noise_sigma, base.shape)
    return np.clip(np.floor(base + 0.5), 0.0, 255.0).astype(np.uint8)


def frame_runs():
    """Runs of frame indices: in order, repeated, reversed or skipping one."""
    run = st.tuples(
        st.integers(0, len(SCENARIOS) - 1),
        st.integers(0, HORIZON - 1),
        st.integers(1, HORIZON),
        st.sampled_from([1, 0, -1, 2]),
        st.sampled_from([0, 40, 62_762]),  # pan counts, wrapping past 0
    )
    return st.lists(run, min_size=1, max_size=6)


@given(runs=frame_runs())
@settings(max_examples=40, deadline=None)
def test_every_frame_equals_its_inline_draw(runs):
    for idx, start, length, step, pan in runs:
        sc = SCENARIOS[idx]
        g = GimbalState(pan_counts=pan)
        for k in (start + i * step for i in range(length)):
            if not 0 <= k < HORIZON:
                break
            assert np.array_equal(render(sc, g, k).pixels, reference(sc, g, k))


@pytest.fixture
def draws(monkeypatch):
    """Every noise draw as (thread name, key), in call order."""
    seen = []
    draw = scenesim._draw_noise

    def recording(*key):
        seen.append((threading.current_thread().name, key))
        return draw(*key)

    monkeypatch.setattr(scenesim, "_draw_noise", recording)
    return seen


def test_frames_in_order_are_drawn_ahead(draws):
    sc = dataclasses.replace(SCENARIOS[2], seed=90_210)
    g = GimbalState()
    for k in range(HORIZON):
        assert np.array_equal(render(sc, g, k).pixels, reference(sc, g, k))
    mine = {key[1]: name.startswith("uastrack-noise") for name, key in draws if key[0] == 90_210}
    assert len(draws) == HORIZON
    assert mine == {k: k > 0 for k in range(HORIZON)}  # only frame 0 is drawn inline


def test_last_frame_submits_no_draw(draws):
    sc = dataclasses.replace(SCENARIOS[2], seed=90_211)
    render(sc, GimbalState(), HORIZON - 2)
    assert scenesim._noise_ahead._pending[0][1] == HORIZON - 1
    render(sc, GimbalState(), HORIZON - 1)
    assert scenesim._noise_ahead._pending is None
    assert sorted(key[1] for _, key in draws) == [HORIZON - 2, HORIZON - 1]


def test_error_in_the_background_draw_reaches_its_render(monkeypatch):
    sc = dataclasses.replace(SCENARIOS[2], seed=90_212)
    g = GimbalState()
    draw = scenesim._draw_noise

    def failing(*key):
        if key[1] == 3 and threading.current_thread().name.startswith("uastrack-noise"):
            raise RuntimeError("noise draw failed")
        return draw(*key)

    monkeypatch.setattr(scenesim, "_draw_noise", failing)
    for k in range(3):
        render(sc, g, k)
    with pytest.raises(RuntimeError, match="noise draw failed"):
        render(sc, g, 3)
    assert np.array_equal(render(sc, g, 4).pixels, reference(sc, g, 4))
    assert np.array_equal(render(sc, g, 3).pixels, reference(sc, g, 3))


def test_import_and_noise_free_renders_start_no_thread():
    probe = (
        "import sys, threading\n"
        "import uastrack, uastrack.cli\n"
        "from uastrack import scenesim\n"
        "from uastrack.gimbal import GimbalState\n"
        "counts = [threading.active_count()]\n"
        "quiet = scenesim.Scenario('quiet', frames=4)  # noise_sigma 0\n"
        "for k in range(4):\n"
        "    scenesim.render(quiet, GimbalState(), k)\n"
        "sc = scenesim.make_scenario('cv', frames=4)\n"
        "counts.append(threading.active_count())\n"
        "scenesim.render(sc, GimbalState(), 3)  # the last frame draws nothing ahead\n"
        "counts.append(threading.active_count())\n"
        "print(*counts, 'concurrent.futures' in sys.modules)\n"
        "scenesim.render(sc, GimbalState(), 0)\n"
        "print(threading.active_count())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(scenesim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    first, second = out.stdout.splitlines()
    assert first.split() == ["1", "1", "1", "False"]
    assert int(second) == 2  # the noise thread starts with the first draw ahead


def test_threads_rendering_at_once_get_their_own_frames():
    """Four threads (more than this box's cores) render interleaved scenarios
    through the one draw-ahead slot, with a short switch interval."""
    wrong = []

    def worker(i):
        sc = SCENARIOS[(2, 4, 8, 10)[i]]
        for k in list(range(HORIZON)) * 3:
            if not np.array_equal(render(sc, GimbalState(), k).pixels, reference(sc, GimbalState(), k)):
                wrong.append((i, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
