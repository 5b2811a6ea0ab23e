"""Closed-loop tracking benchmark.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; it imports ``uastrack`` from
``src/`` there and nowhere else. With ``--trace 0`` the last stdout line
is a JSON object holding the end-to-end metrics. With ``--trace 1`` a
plan of half the seconds runs once untraced and once traced, and the
object holds the per-layer metrics. The full report (environment, sample
counts and quartiles, per-episode figures and log digests) and the spans
go to ``perfbench/out/``. The exit code is 1 when a correctness check
failed; a run that cannot start or crashes exits non-zero with no result
line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 12   # half before the pass and half after it


def _import_uastrack():
    """Put ``<root>/src`` first on the path and import the package from there."""
    pkg = ROOT / "src" / "uastrack"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no uastrack sources at {pkg}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import uastrack

    if Path(uastrack.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported uastrack from {uastrack.__file__}, not {pkg}")


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("steady", "reacquire", "retarget"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _setup_probe(args) -> None:
    """Child mode: set up the plan's first episode, print the time, exit."""
    import closedloop

    ep = closedloop.plan(args.workload, args.seed, args.seconds)[0]
    sc = closedloop.make_scenario(ep)
    link = closedloop.Link() if args.workload == "retarget" else None
    closedloop.make_session(sc, with_bank=link is None)
    print(repr(time.perf_counter()))
    if link is not None:
        link.close()


def _setup_seconds(args, probes: int) -> list[float]:
    """Process start to first frame, measured in fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        out.append(float(child.stdout.split()[-1]) - t0)
    return out


def _trace_targets():
    """(owner, attribute, span name, annotate) for every layer entry point."""
    from uastrack import ekf, gimbal, groundlink, matcher, scenesim, tracker, warp

    def scan_attrs(args, points):
        img, bank, window = args[0], args[1], args[2]
        full = matcher.valid_center_rect(bank.base_width, bank.base_height, img.width, img.height)
        w = max(0, min(window.x2, full.x2) - max(window.x, full.x))
        h = max(0, min(window.y2, full.y2) - max(window.y, full.y))
        return {
            "kind": "full" if window == full else "window",
            "positions": w * h,
            "scores": w * h * len(bank),
            "points": len(points),
        }

    def status(args, out):
        return {"status": out.status}

    def area(args, rect):
        return {"area": rect.area}

    return [
        (scenesim, "make_scenario", "scenesim.make_scenario", None),
        (scenesim, "render", "scenesim.render", None),
        (scenesim, "ground_truth", "scenesim.ground_truth", None),
        (warp, "build_bank", "warp.build_bank", None),
        (tracker, "build_bank", "warp.build_bank", None),   # apply_template's lookup
        (tracker.TrackerSession, "process", "tracker.process", status),
        (tracker.TrackerSession, "apply_template", "tracker.apply_template", None),
        (matcher, "scan", "matcher.scan", scan_attrs),
        (matcher, "detect", "matcher.detect", None),
        (ekf, "predict", "ekf.predict", None),
        (ekf, "update", "ekf.update", None),
        (ekf, "search_window", "ekf.search_window", area),
        (ekf, "mark_miss", "ekf.mark_miss", None),
        (ekf, "initial_state", "ekf.initial_state", None),
        (gimbal, "command", "gimbal.command", None),
        (groundlink, "decimate", "groundlink.decimate", None),
        (groundlink, "encode_frame_sample", "groundlink.encode", None),
        (groundlink, "encode_patch_upload", "groundlink.encode", None),
        (groundlink, "decode", "groundlink.decode", None),
        (groundlink, "poll_messages", "groundlink.poll", None),
    ]


def main(argv=None) -> int:
    args = _args(argv)
    _import_uastrack()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        _setup_probe(args)
        return 0

    import closedloop
    import report
    from spans import Tracer, installed

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_dir = OUT / tag
    log_dir.mkdir(parents=True, exist_ok=True)
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    episodes = closedloop.plan(args.workload, args.seed, seconds)
    if args.trace:
        # both passes then start from the same scene-cache state
        closedloop.warm_scene_caches(episodes)
    setups = [] if args.trace else _setup_seconds(args, SETUP_PROBES // 2)
    t0 = time.perf_counter()
    untraced = closedloop.ClosedLoop(args.workload, episodes, log_dir).run()
    passes = [untraced]
    track = report.tracking(untraced)
    result: dict = {}
    if args.trace:
        tracer = Tracer()
        with installed(tracer, _trace_targets()):
            traced = closedloop.ClosedLoop(args.workload, episodes, log_dir, tracer).run()
        passes.append(traced)
        if traced.digests != untraced.digests:
            traced.violations.append("tracing changed the track logs")
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = report.layers(tracer, traced, untraced)
        rejected = metrics["groundlink.rejected"]["value"]
        if rejected != traced.link.get("malformed", 0):
            traced.violations.append(
                f"{traced.link.get('malformed', 0)} malformed datagrams sent, {rejected:g} rejected"
            )
        frame_p50 = track["frame_ms.p50"]["value"]
        result["window_scan_plus_render_share_of_frame_ms.p50"] = (
            metrics["matcher.scan.window.ms"]["value"] + metrics["scenesim.render.ms"]["value"]
        ) / frame_p50 if frame_p50 else None
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        setups += _setup_seconds(args, SETUP_PROBES - len(setups))
        track["setup_s"] = report.metric(statistics.median(setups), "s", setups)
        metrics = {m["name"]: track[m["name"]] for m in spec["end_to_end"]}
    measured_s = time.perf_counter() - t0

    violations = [v for p in passes for v in p.violations]
    rows, _ = report.episode_figures(untraced)
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "environment": report.environment(),
        "metrics": metrics,
        "tracking": track,
        "link": untraced.link,
        "no_call_site": {
            "imagebuf": "no entry point of its own in the loop; its types are built inside other layers",
            "cli": "not imported; the loop is driven through the library API",
        },
        "episodes": [
            {"scenario": ep.scenario, "seed": ep.seed, "log_sha256": digest, **row}
            for ep, digest, row in zip(episodes, untraced.digests, rows)
        ],
        "violations": violations[:20],
    })
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")

    for ep in result["episodes"]:
        print(f"log {args.workload} {ep['scenario']} seed={ep['seed']} sha256={ep['log_sha256']}")
    for v in violations[:20]:
        print(f"VIOLATION {v}", file=sys.stderr)
    print(json.dumps({
        "correct": not violations,
        "attempted": len(untraced.frames),
        "failed": sum(f.failed for f in untraced.frames),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
