#!/usr/bin/env python3
"""Isolated cold and warm scan timings, the table README "Scan kernel" quotes.

For each target seed, each scan and each threshold, one round builds the
bank of that seed's default target (the target of ``cv`` at that seed),
times its first scan, which builds the basis and its spectra (cold), then
the median of ``--reps`` scans after it (warm). The bank is bare: it is not
prepared (``matcher.prepare``) as a ``TrackerSession`` prepares the banks it
installs, so cold is the cost of a first scan without that preparation. The frame is uniform 8-bit
noise with one bank entry planted at its centre. The scans are the whole
frame and the 11x11-position window around the planted entry. Rounds go
through every case in turn, so a shared machine's drift spreads over all of
them. Nothing else runs in the process: no noise thread, no render.

Each row prints the range over the rounds of the cold time and of the warm
median, in ms, and the match point count, which must be the same in every
round (else the exit code is 1). The last line is the process's peak
resident set size, then the largest basis spectra any bank kept, in MiB:
those of its whole-frame slot (``frame_spectra_mib``) and those of its
window slot (``window_spectra_mib``). Run it on two commits,
alternating, to compare them.

    PYTHONPATH=src python3 scripts/scan_table.py [--seeds 1 3 7 42]
        [--thresholds 0.9] [--rounds 5] [--reps 7] [--frame 320x240] [--smoke]
"""

import argparse
import resource
import statistics
import sys
import time

import numpy as np

from uastrack.imagebuf import GrayImage, Rect
from uastrack.matcher import scan, template_origin
from uastrack.scenesim import default_target_patch
from uastrack.warp import build_bank

WINDOW = (11, 11)  # the common tracking window, in positions (``ekf.search_window``)


def case_frame(seed: int, w: int, h: int):
    """The noise frame with bank entry 5 of ``seed``'s target planted at its centre."""
    patch = build_bank(default_target_patch(seed)).entries[5].patch
    px = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    u, v = w // 2, h // 2
    x0, y0 = template_origin(u, patch.width), template_origin(v, patch.height)
    px[y0 : y0 + patch.height, x0 : x0 + patch.width] = patch.pixels
    return GrayImage(px), Rect(u - WINDOW[0] // 2, v - WINDOW[1] // 2, *WINDOW)


def timed(img, bank, window, threshold):
    t0 = time.perf_counter()
    points = scan(img, bank, window, threshold)
    return (time.perf_counter() - t0) * 1e3, len(points)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 3, 7, 42])
    ap.add_argument("--thresholds", type=float, nargs="+", default=[0.9])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--frame", default="320x240", help="frame size WxH")
    ap.add_argument("--smoke", action="store_true", help="one round of one rep, seed 1 only")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seeds, args.rounds, args.reps = args.seeds[:1], 1, 1
    w, h = (int(x) for x in args.frame.split("x"))
    frames = {seed: case_frame(seed, w, h) for seed in args.seeds}
    cases = [(kind, threshold, seed) for kind in ("frame", "window")
             for threshold in args.thresholds for seed in args.seeds]
    cold = {case: [] for case in cases}
    warm = {case: [] for case in cases}
    points = {case: set() for case in cases}
    kept = {"frame": 0, "window": 0}  # bytes of spectra a bank keeps, the largest seen
    for _ in range(args.rounds):
        for case in cases:
            kind, threshold, seed = case
            img, window = frames[seed]
            window = img.rect if kind == "frame" else window
            bank = build_bank(default_target_patch(seed))
            ms, count = timed(img, bank, window, threshold)
            cold[case].append(ms)
            points[case].add(count)
            reps = [timed(img, bank, window, threshold) for _ in range(args.reps)]
            warm[case].append(statistics.median(ms for ms, _ in reps))
            points[case].update(count for _, count in reps)
            for kind in kept:  # each kind's slot on the kernel
                slot = getattr(bank.kernel, kind)
                kept[kind] = max(kept[kind], slot[1].nbytes if slot else 0)
    print("scan threshold seed cold_ms warm_ms points")
    name = {"frame": f"frame{w}x{h}", "window": f"window{WINDOW[0]}x{WINDOW[1]}"}
    for case in cases:
        kind, threshold, seed = case
        spans = [f"{min(t):.1f}-{max(t):.1f}" for t in (cold[case], warm[case])]
        counts = "/".join(str(c) for c in sorted(points[case]))
        print(name[kind], threshold, seed, *spans, counts)
    print(f"# peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}",
          f"frame_spectra_mib {kept['frame'] / 2**20:.1f}", f"window_spectra_mib {kept['window'] / 2**20:.1f}")
    return 0 if all(len(p) == 1 for p in points.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
