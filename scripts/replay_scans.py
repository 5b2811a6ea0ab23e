#!/usr/bin/env python3
"""Record the closed loop's scans once, then replay them and time them apart.

Runs the given builtin scenarios at the given seeds and frame size
(``--frame WxH``) through ``run_sim`` with the default tracker config,
recording every ``matcher.scan`` call (frame, bank, window, threshold)
through a wrapper, as ``behaviour_digest.py`` does. The source ``planted``
runs no loop: each seed's frame is its uniform 8-bit noise with entry 5 of
its default target's bank planted at the centre, scanned 8 times at 0.9 as
the whole frame and 8 times as a settled filter's 11x11-position window,
each case on its own bank. Each round then replays every recorded scan in
its recorded order on fresh banks built from the recorded ones, so the
kernel each bank keeps (its template terms, basis and spectra) fills as
it did in the loop. A bank is built just before its first recorded scan
and dropped after its last. A scan is timed as one of four kinds: a whole
frame (its window holds every valid centre) or a window, and cold (its
bank's first scan of that kind, which may build the basis or spectra) or
warm. The banks are bare: unlike a ``TrackerSession``'s, they are not prepared
(``matcher.prepare``) before their first whole frame. ``--threshold T`` replays every scan at T in
place of its recorded threshold. Each tree must return the same match
points in every round (else the exit code is 1).

With ``--other DIR``, that source tree is imported under another package
name and replayed in the same process, in turn with this tree, the side
that goes first alternating from round to round. Each tree scans banks
built by its own ``warp.build_bank`` over windows of its own
``imagebuf.Rect``, so the two may keep different state on a bank, and a
tree that compares a window with its valid centres sees a whole frame as
one. The two must return equal match points for every scan (else the
exit code is 1).

Each row prints, for one tree and one kind, the number of scans and the
median and range over the rounds of the mean ms per scan. The closing
``#`` line prints the process's peak resident set size and, for each tree,
the largest spectra its banks kept in each slot of their kernel (an
attribute holding a (shape, spectra) pair, or None), in MiB: this tree's
one, ``frame``, and as many as another tree's kernel has.

With ``--stages``, every tree replays on one scan worker, with each of the
scan's stages (``STAGES``) timed through a wrapper on its ``matcher``, and
a second table prints, for each tree and kind, the median over the rounds
of the ms per scan in each stage, and in the rest of the scan ("other").
A stage's time leaves out that of the stages it calls, so a tree whose
correlation fills the spectra itself shows the fill apart too.
Its last columns (``COUNTS``) total, over the kind's scans, what the
wrappers see pass through the stages: the positions entering the position
test, the positions it keeps, the candidate pairs of position and entry,
and the positions given a top exact score. The counts do not depend on
timing, so the trees must count alike too (else the exit code is 1).

    PYTHONPATH=src python3 scripts/replay_scans.py [--scenarios cv redetect planted]
        [--seeds 1 2] [--frames 120] [--frame 640x480] [--rounds 5]
        [--threshold 0.7] [--other ../parent] [--stages] [--smoke]
"""

import argparse
import importlib
import importlib.util
import itertools
import re
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from uastrack import imagebuf, matcher, scenesim, warp
from uastrack.sim import run_sim, scenario_optics
from uastrack.tracker import TrackerConfig

KINDS = ("frame_cold", "frame_warm", "window_cold", "window_warm")
STAGES = ("_window_sums", "_fill_spectra", "_correlation", "_kept_positions", "_candidate_pairs",
          "_exact_top")
# (column, count) taken from a stage's arguments and result, by stage
COUNTS = {
    "_kept_positions": (("positions", lambda args, out: len(args[2])),  # a bar per position
                        ("kept", lambda args, out: len(out[0]))),
    "_candidate_pairs": (("pairs", lambda args, out: len(out[0])),),
    "_exact_top": (("tops", lambda args, out: len(out[0])),),
}
COUNT_COLUMNS = tuple(column for counts in COUNTS.values() for column, _ in counts)
PLANTED = "planted"  # the source of noise frames with the target planted, beside the builtins


def planted(seed, w, h, whole):
    """A bare bank of ``seed``'s default target, a ``w`` x ``h`` frame of
    ``seed``'s uniform noise with the bank's entry 5 planted at its centre,
    and the window to scan: the whole frame or the 11x11 positions about the
    centre, a settled filter's window (``ekf.search_window``)."""
    bank = warp.build_bank(scenesim.default_target_patch(seed))
    patch = bank.entries[5].patch
    px = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
    u, v = w // 2, h // 2
    x0, y0 = matcher.template_origin(u, patch.width), matcher.template_origin(v, patch.height)
    px[y0 : y0 + patch.height, x0 : x0 + patch.width] = patch.pixels
    img = imagebuf.GrayImage(px)
    return bank, img, img.rect if whole else imagebuf.Rect(u - 5, v - 5, 11, 11)


def record(names, seeds, frames, size=(scenesim.Scenario.frame_w, scenesim.Scenario.frame_h)):
    """Every scan of the runs at ``size`` (w, h), ``PLANTED``'s cases where
    it is named: (bank index, frame, window, threshold), and the (patch,
    count) each bank index was built from."""
    scans, banks = [], {}
    scan = matcher.scan

    def key(bank):
        return banks.setdefault(id(bank), (len(banks), bank))[0]

    def recording(img, bank, window, threshold=matcher.DEFAULT_THRESHOLD):
        scans.append((key(bank), img, window, threshold))
        return scan(img, bank, window, threshold)

    matcher.scan = recording
    try:
        for name in names:
            if name == PLANTED:  # every seed's whole frame, then every seed's window
                for whole, seed in itertools.product((True, False), seeds):
                    bank, img, window = planted(seed, *size, whole)
                    scans += [(key(bank), img, window, matcher.DEFAULT_THRESHOLD)] * 8  # 1 cold, 7 warm
                continue
            for seed in seeds:
                sc = scenesim.make_scenario(name, *size, frames, seed)
                run_sim(sc, TrackerConfig(optics=scenario_optics(sc)))
    finally:
        matcher.scan = scan
    made = [(bank.entries[0].patch, len(bank)) for _, bank in banks.values()]  # in index order
    return scans, made


def import_tree(root: Path):
    """``matcher``, ``warp`` and ``imagebuf`` of the source tree at ``root``,
    imported as ``uastrack_other``."""
    pkg = root / "src" / "uastrack"
    spec = importlib.util.spec_from_file_location(
        "uastrack_other", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["uastrack_other"] = module
    spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"uastrack_other.{name}")
                 for name in ("matcher", "warp", "imagebuf"))


@contextmanager
def timed_stages(scan_module, spent, tally):
    """``scan_module`` on one worker, each of its ``STAGES`` adding its ms to
    ``spent`` and its ``COUNTS`` to ``tally``."""
    missing = [name for name in STAGES if not hasattr(scan_module, name)]
    if missing:
        sys.exit(f"error: {scan_module.__name__} has no {', '.join(missing)}")
    saved = {name: getattr(scan_module, name) for name in ("_WORKERS", *STAGES)}
    running = []  # the stages in progress, innermost last

    def timed(name, stage):
        def wrapper(*args, **kwargs):
            running.append(name)
            t0 = time.perf_counter()
            try:
                out = stage(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - t0) * 1e3
                running.pop()
                spent[name] += ms
                if running:  # the calling stage's own time leaves this call out
                    spent[running[-1]] -= ms
            for column, count in COUNTS.get(name, ()):
                tally[column] += count(args, out)
            return out
        return wrapper

    scan_module._WORKERS = 1
    for name in STAGES:
        setattr(scan_module, name, timed(name, saved[name]))
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(scan_module, name, value)


def spectra_bytes(bank) -> dict:
    """The bytes of spectra in each slot of ``bank``'s kernel: each attribute
    holding a (shape, spectra) pair, or None (0 bytes). A tree may name its
    slots as it likes, or have none."""
    kernel = getattr(bank, "kernel", None)
    return {slot: held[1].nbytes if held else 0
            for slot, held in (vars(kernel) if kernel is not None else {}).items()
            if held is None or isinstance(held, tuple) and isinstance(held[1], np.ndarray)}


def replay(tree, scans, made, override=None, stages=False):
    """One pass over the scans on fresh banks of the tree's own ``warp``, each
    over its recorded window as the tree's own ``Rect`` and at its recorded
    threshold or at ``override``: ms per kind, ms per kind and stage and
    counts per kind (zero without ``stages``), every result, and the most
    bytes of spectra a bank kept after any scan, per slot. A bank is built
    at its first scan and dropped after its last, so a round holds only the
    banks that have scans left."""
    scan_module, warp_module, imagebuf_module = tree
    last = {key: i for i, (key, _, _, _) in enumerate(scans)}
    banks = {}
    windows = [imagebuf_module.Rect(w.x, w.y, w.w, w.h) for _, _, w, _ in scans]
    seen = set()
    ms = {kind: [] for kind in KINDS}
    spent = dict.fromkeys(STAGES, 0.0)
    staged = {kind: dict.fromkeys(STAGES, 0.0) for kind in KINDS}
    tally = dict.fromkeys(COUNT_COLUMNS, 0)
    counted = {kind: dict.fromkeys(COUNT_COLUMNS, 0) for kind in KINDS}
    kept = {}
    results = []
    with timed_stages(scan_module, spent, tally) if stages else nullcontext():
        for i, ((key, img, window, threshold), own_window) in enumerate(zip(scans, windows)):
            if key not in banks:
                patch, count = made[key]
                banks[key] = warp_module.build_bank(patch, count, 360.0 / count)
            bank = banks[key]
            whole = window.contains(matcher.valid_center_rect(bank.base_width, bank.base_height,
                                                              img.width, img.height))
            kind = ("frame" if whole else "window") + ("_warm" if (key, whole) in seen else "_cold")
            seen.add((key, whole))
            before, counted_before = dict(spent), dict(tally)
            t0 = time.perf_counter()
            points = scan_module.scan(img, bank, own_window, threshold if override is None else override)
            ms[kind].append((time.perf_counter() - t0) * 1e3)
            for name in STAGES:
                staged[kind][name] += spent[name] - before[name]
            for column in COUNT_COLUMNS:
                counted[kind][column] += tally[column] - counted_before[column]
            results.append([(p.u, p.v, p.score, p.angle_deg) for p in points])
            for slot, nbytes in spectra_bytes(bank).items():
                kept[slot] = max(kept.get(slot, 0), nbytes)
            if last[key] == i:
                del banks[key]  # freed once ``bank`` names the next scan's
    return ms, staged, counted, results, kept


def frame_size(text: str) -> tuple[int, int]:
    """``--frame``'s ``WxH`` as (W, H), two positive integers."""
    match = re.fullmatch(r"0*([1-9][0-9]*)x0*([1-9][0-9]*)", text)
    if match is None:
        raise argparse.ArgumentTypeError(f"expected WxH, two positive integers, got {text!r}")
    return int(match[1]), int(match[2])


def positive_int(text: str) -> int:
    """``--rounds`` as an integer of at least 1."""
    if re.fullmatch(r"0*[1-9][0-9]*", text) is None:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--scenarios", nargs="+", default=list(scenesim.BUILTIN_NAMES),
                    help=f"builtins, or {PLANTED} for noise frames with the target planted")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--frames", type=int, default=120, help="the horizon of each builtin run")
    ap.add_argument("--frame", type=frame_size, default="320x240", help="frame size WxH")
    ap.add_argument("--rounds", type=positive_int, default=5)
    ap.add_argument("--threshold", type=float, help="replay every scan at this threshold")
    ap.add_argument("--other", type=Path, help="a second source tree to replay in turn")
    ap.add_argument("--stages", action="store_true",
                    help="replay on one worker and time each stage of the scan")
    ap.add_argument("--smoke", action="store_true", help="one round of the first scenario, 3 frames")
    args = ap.parse_args(argv)
    if args.smoke:
        args.scenarios, args.seeds, args.frames, args.rounds = args.scenarios[:1], args.seeds[:1], 3, 1
    scans, made = record(args.scenarios, args.seeds, args.frames, args.frame)
    trees = {"this": (matcher, warp, imagebuf)}
    if args.other is not None:
        trees["other"] = import_tree(args.other.resolve())
    means = {(tree, kind): [] for tree in trees for kind in KINDS}
    stage_means = {(tree, kind): [] for tree in trees for kind in KINDS}
    counts, stage_counts = {}, {}
    first, kept = {}, {}  # each tree's results in its first round, its banks' largest spectra
    same = counted_alike = repeated = True
    for i in range(args.rounds):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        results, tallies = [], []
        for tree in order:
            ms, staged, counted, got, kept[tree] = replay(trees[tree], scans, made, args.threshold,
                                                          args.stages)
            results.append(got)
            repeated = repeated and first.setdefault(tree, got) == got
            tallies.append(counted)
            for kind in KINDS:
                stage_counts[tree, kind] = counted[kind]
            for kind, times in ms.items():
                counts[kind] = len(times)
                if times:
                    means[tree, kind].append(statistics.fmean(times))
                    per_scan = {name: total / len(times) for name, total in staged[kind].items()}
                    per_scan["other"] = statistics.fmean(times) - sum(per_scan.values())
                    stage_means[tree, kind].append(per_scan)
        same = same and all(got == results[0] for got in results)
        counted_alike = counted_alike and all(c == tallies[0] for c in tallies)
    print(f"# {len(scans)} scans of {' '.join(args.scenarios)} at seeds "
          f"{' '.join(map(str, args.seeds))}, {args.frames} frames, {args.rounds} rounds, "
          + ("recorded thresholds" if args.threshold is None else f"threshold {args.threshold:g}")
          + (", one worker, stages timed" if args.stages else ""))
    print("tree kind scans median_ms range_ms")
    for (tree, kind), values in means.items():
        if values:
            print(tree, kind, counts[kind], f"{statistics.median(values):.2f}",
                  f"{min(values):.2f}-{max(values):.2f}")
    if args.stages:
        columns = (*STAGES, "other")
        print("tree kind", *(name.lstrip("_") for name in columns), *COUNT_COLUMNS)
        for (tree, kind), rounds in stage_means.items():
            if rounds:
                print(tree, kind, *(f"{statistics.median(r[name] for r in rounds):.2f}"
                                    for name in columns),
                      *(stage_counts[tree, kind][column] for column in COUNT_COLUMNS))
    print(f"# peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}",
          *(f"{tree} " + " ".join(f"{slot}_spectra_mib {n / 2**20:.1f}" for slot, n in kept[tree].items())
            for tree in trees))
    if not same:
        print("# the trees returned different match points", file=sys.stderr)
    if not repeated:
        print("# a tree returned different match points in different rounds", file=sys.stderr)
    if not counted_alike:
        print("# the trees' stages counted different positions or pairs", file=sys.stderr)
    return 0 if same and repeated and counted_alike else 1


if __name__ == "__main__":
    sys.exit(main())
