#!/usr/bin/env python3
"""Digest of every builtin scenario's closed-loop run, for "same behaviour" checks.

Runs the builtin scenarios at seeds 1 and 7 through ``run_sim`` with the
default tracker config and prints one line per run: the scenario, the seed,
the sha256 of its CSV track log, the sha256 of every scan's window,
threshold and match points, the number of scans, and the sha256 of the
pixels of every frame the loop renders along its gimbal path. Run it on two
commits and ``diff`` the outputs: equal lines mean byte-identical logs,
equal match points in every scan and equal frames.

    PYTHONPATH=src python3 scripts/behaviour_digest.py [--frames N]
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from uastrack import matcher, scenesim
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import TrackerConfig, write_log

SEEDS = (1, 7)


def digest(name: str, seed: int, frames: int) -> str:
    """The digest line of one run; ``matcher.scan`` and ``scenesim.render``
    are wrapped only during it."""
    scans = hashlib.sha256()
    frames_seen = hashlib.sha256()
    count = 0
    scan, render = matcher.scan, scenesim.render

    def recording(img, bank, window, threshold=matcher.DEFAULT_THRESHOLD):
        nonlocal count
        points = scan(img, bank, window, threshold)
        scans.update(repr((window, threshold, points)).encode())
        count += 1
        return points

    def rendering(sc, gimbal, frame_index):
        frame = render(sc, gimbal, frame_index)
        frames_seen.update(frame.pixels.tobytes())
        return frame

    sc = scenesim.make_scenario(name, frames=frames, seed=seed)
    matcher.scan, scenesim.render = recording, rendering
    try:
        result = run_sim(sc, TrackerConfig(optics=scenario_optics(sc)))
    finally:
        matcher.scan, scenesim.render = scan, render
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.csv"
        write_log(result.outcomes, str(log))
        logged = hashlib.sha256(log.read_bytes()).hexdigest()
    return f"{name} {seed} {logged} {scans.hexdigest()} {count} {frames_seen.hexdigest()}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--frames", type=int, default=120)
    args = ap.parse_args()
    for name in scenesim.BUILTIN_NAMES:
        for seed in SEEDS:
            print(digest(name, seed, args.frames), flush=True)


if __name__ == "__main__":
    main()
