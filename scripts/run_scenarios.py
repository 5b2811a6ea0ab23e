#!/usr/bin/env python3
"""Run every builtin scenario closed-loop for each process-noise sigma and
seed, and print tracking quality beside the search window and the speed.

A larger sigma keeps a bigger window (more robust to maneuvers, more
correlation work per frame); a smaller one trusts the prediction and shrinks
it. The window areas count only Kalman-sized windows, not the whole-frame
scans of acquisition and re-detection. cpu/wall is the process CPU time
over the wall time of the run: near 1 when the main and noise threads share
one CPU, 1.6-1.8 when they run on two (README "Scene render and threads").
"""

import argparse
import itertools
import math
import resource
import time

from uastrack import matcher, scenesim
from uastrack.ekf import NoiseConfig
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import TrackerConfig


def comma_list(kind):
    return lambda text: [kind(s) for s in text.split(",")]


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def mean(xs: list[float]) -> float:
    return sum(xs) / len(xs) if xs else math.nan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=150)
    ap.add_argument("--sigmas", type=comma_list(float), default=[NoiseConfig().sigma],
                    help="comma-separated process-noise sigmas of the filter")
    ap.add_argument("--seeds", type=comma_list(int), default=[7],
                    help="comma-separated scenario seeds")
    args = ap.parse_args()

    print(f"{'sigma':>6s} {'seed':>5s} {'scenario':20s} {'tracked':>8s} {'miss':>5s} {'redet':>6s} "
          f"{'track err':>10s} {'center err':>11s} {'mean win area':>14s} {'max win area':>13s} "
          f"{'ms/frame':>9s} {'cpu/wall':>9s}")
    for sigma, seed, name in itertools.product(args.sigmas, args.seeds, scenesim.BUILTIN_NAMES):
        sc = scenesim.make_scenario(name, frames=args.frames, seed=seed)
        cfg = TrackerConfig(noise=NoiseConfig(sigma=sigma), optics=scenario_optics(sc))
        cpu0, wall0 = cpu_s(), time.perf_counter()
        result = run_sim(sc, cfg)
        cpu_wall = (cpu_s() - cpu0) / (time.perf_counter() - wall0)
        r = result.report
        track_err = r.mean_abs_pixel_error if r.mean_abs_pixel_error is not None else math.nan
        # centering error once the loop has settled: frames 30 onward
        cx, cy = (sc.frame_w - 1) / 2, (sc.frame_h - 1) / 2
        center_err = mean([math.hypot(gx - cx, gy - cy) for gx, gy, _ in result.truths[30:]])
        patch = scenesim.target_patch(sc)
        full = matcher.valid_center_rect(patch.width, patch.height, sc.frame_w, sc.frame_h)
        areas = [o.window.area for o in result.outcomes if o.window != full]
        print(f"{sigma:6.2f} {seed:5d} {name:20s} {r.tracked_count:8d} {r.miss_count:5d} "
              f"{r.redetect_count:6d} {track_err:9.2f}px {center_err:10.2f}px "
              f"{mean(areas):14.0f} {max(areas, default=math.nan):13.0f} "
              f"{r.ms_per_frame:9.1f} {cpu_wall:9.2f}")


if __name__ == "__main__":
    main()
