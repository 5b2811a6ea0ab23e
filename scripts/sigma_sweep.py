#!/usr/bin/env python3
"""Sweep the process-noise intensity and report its effect on the search window.

Shows the covariance-to-window coupling: larger sigma keeps a bigger window
(more robust to maneuvers, more correlation work per frame), smaller sigma
trusts the prediction and shrinks it.
"""

import argparse
import math

from uastrack import scenesim
from uastrack.ekf import NoiseConfig
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import TrackerConfig


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="occlude", choices=scenesim.BUILTIN_NAMES)
    ap.add_argument("--frames", type=int, default=120)
    ap.add_argument("--sigmas", default="0.1,0.2,0.4,0.8,1.6")
    args = ap.parse_args()

    sigmas = [float(s) for s in args.sigmas.split(",")]
    sc = scenesim.make_scenario(args.scenario, frames=args.frames)
    optics = scenario_optics(sc)

    print(f"{'sigma':>6s} {'tracked':>8s} {'mean win area':>14s} {'max win area':>13s} {'ms/frame':>9s}")
    for sigma in sigmas:
        result = run_sim(sc, TrackerConfig(noise=NoiseConfig(sigma=sigma), optics=optics))
        r = result.report
        areas = [o.window.area for o in result.outcomes[1:]]  # frame 0 is the full-frame acquisition
        mean_area = sum(areas) / len(areas) if areas else math.nan
        max_area = max(areas, default=math.nan)
        print(f"{sigma:6.2f} {r.tracked_count:8d} {mean_area:14.0f} "
              f"{max_area:13.0f} {r.ms_per_frame:9.1f}")


if __name__ == "__main__":
    main()
