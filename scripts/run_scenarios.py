#!/usr/bin/env python3
"""Run every builtin scenario closed-loop and print a summary table."""

import argparse
import math

from uastrack import scenesim
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import TrackerConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=150)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print(f"{'scenario':20s} {'tracked':>8s} {'miss':>5s} {'redet':>6s} "
          f"{'track err':>10s} {'center err':>11s} {'ms/frame':>9s}")
    for name in scenesim.BUILTIN_NAMES:
        sc = scenesim.make_scenario(name, frames=args.frames, seed=args.seed)
        result = run_sim(sc, TrackerConfig(optics=scenario_optics(sc)))
        r = result.report
        track_err = r.mean_abs_pixel_error if r.mean_abs_pixel_error is not None else math.nan
        # centering error once the loop has settled: frames 30 onward
        cx, cy = (sc.frame_w - 1) / 2, (sc.frame_h - 1) / 2
        centering = [math.hypot(gx - cx, gy - cy) for gx, gy, _ in result.truths[30:]]
        center_err = sum(centering) / len(centering) if centering else math.nan
        print(f"{name:20s} {r.tracked_count:8d} {r.miss_count:5d} {r.redetect_count:6d} "
              f"{track_err:9.2f}px {center_err:10.2f}px {r.ms_per_frame:9.1f}")


if __name__ == "__main__":
    main()
