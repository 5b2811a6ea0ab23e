"""Metrics of one run: end to end from the untraced pass, per layer from spans."""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path

import numpy as np

from closedloop import Pass
from spans import ATTRS, END, NAME, PARENT, START, Tracer


def metric(value: float, unit: str, samples=()) -> dict:
    """A metric with the sample count and quartiles of what it summarises."""
    xs = [float(x) for x in samples]
    m = {"value": float(value), "unit": unit, "samples": len(xs)}
    if len(xs) >= 2:
        m["q1"], m["q2"], m["q3"] = statistics.quantiles(xs, n=4)
    elif xs:
        m["q1"] = m["q2"] = m["q3"] = xs[0]
    return m


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _episodes(p: Pass):
    by: dict[int, list] = {}
    for f in p.frames:
        by.setdefault(f.episode, []).append(f)
    return [by[i] for i in sorted(by)]


def episode_figures(p: Pass) -> tuple[list[dict], list[float]]:
    """Per-episode closed-loop figures, and the recovery time of every loss event."""
    rows, recover = [], []
    for i, frames in enumerate(_episodes(p)):
        windowed = [f.ms for f in frames if f.windowed]
        errors = [f.err for f in frames if f.err is not None]
        row = {
            "frames": len(frames),
            "failed": sum(f.failed for f in frames),
            "frame_ms.p50": _median(windowed) if windowed else None,
            "frame_ms.p95": float(np.percentile(windowed, 95)) if windowed else None,
            "track_err_px": float(np.mean(errors)) if errors else None,
            "acquire_ms": None,
            "fps": None,
        }
        rows.append(row)
        lock = next((j for j, f in enumerate(frames) if f.err is not None), None)
        if lock is None:
            continue
        row["acquire_ms"] = 1000.0 * (frames[lock].t1 - p.given[i])
        after = frames[lock + 1 :]
        if after:
            row["fps"] = len(after) / sum(f.t1 - f.t0 for f in after)
        lost_at = None
        for f in after:
            if f.err is None and lost_at is None:
                lost_at = f.t0
            elif f.err is not None and lost_at is not None:
                recover.append(1000.0 * (f.t1 - lost_at))
                lost_at = None
    return rows, recover


def tracking(p: Pass) -> dict:
    """Closed-loop figures of one pass, with the samples behind each.

    The end-to-end figures are computed per episode and the run reports the
    median over episodes, so one episode that locks onto a false match (a
    tracker defect, counted in ``failed``) moves that episode's figures and
    not the run's. ``recover_ms.p50``, ``track_err_px`` and ``fail_frac``
    pool all loss events, detections and frames of the pass.
    """
    rows, recover = episode_figures(p)

    def over_episodes(key: str, unit: str) -> dict:
        xs = [r[key] for r in rows if r[key] is not None]
        return metric(_median(xs), unit, xs)

    errors = [f.err for f in p.frames if f.err is not None]
    return {
        "fps": over_episodes("fps", "1/s"),
        "frame_ms.p50": over_episodes("frame_ms.p50", "ms"),
        "frame_ms.p95": over_episodes("frame_ms.p95", "ms"),
        "acquire_ms.p50": over_episodes("acquire_ms", "ms"),
        "recover_ms.p50": metric(_median(recover), "ms", recover),
        "track_err_px": metric(float(np.mean(errors)) if errors else 0.0, "px", errors),
        "fail_frac": metric(sum(r["failed"] for r in rows) / max(len(p.frames), 1), "ratio"),
    }


def _scan_metrics(tr: Tracer, kind: str) -> dict:
    spans = [s for s in tr.by_name("matcher.scan") if s[ATTRS]["kind"] == kind]
    ms = [1000.0 * (s[END] - s[START]) for s in spans]
    ns = [1e9 * (s[END] - s[START]) / s[ATTRS]["scores"] for s in spans if s[ATTRS]["scores"]]
    return {
        f"matcher.scan.{kind}.ms": metric(_median(ms), "ms", ms),
        f"matcher.scan.{kind}.ns_per_score": metric(_median(ns), "ns", ns),
        f"matcher.scan.{kind}.calls": metric(len(spans), "count"),
    }


def layers(tr: Tracer, traced: Pass, untraced: Pass) -> dict:
    """Per-layer metrics of the traced pass."""

    def times(name: str, unit: str) -> dict:
        scale = {"ms": 1e3, "us": 1e6}[unit]
        xs = [scale * (s[END] - s[START]) for s in tr.by_name(name)]
        return {f"{name}.{unit}": metric(_median(xs), unit, xs)}

    out: dict = {}
    scans = tr.by_name("matcher.scan")
    out.update(_scan_metrics(tr, "window"))
    out.update(_scan_metrics(tr, "full"))
    out["matcher.scan.positions"] = metric(sum(s[ATTRS]["positions"] for s in scans), "count")
    out["matcher.scan.points"] = metric(sum(s[ATTRS]["points"] for s in scans), "count")
    hits = [1.0 if s[ATTRS]["points"] else 0.0 for s in scans]
    out["matcher.scan.hit_ratio"] = metric(float(np.mean(hits)) if hits else 0.0, "ratio")
    out.update(times("matcher.detect", "us"))
    out.update(times("scenesim.render", "ms"))
    out["scenesim.render.calls"] = metric(len(tr.by_name("scenesim.render")), "count")
    out.update(times("scenesim.make_scenario", "ms"))
    out.update(times("warp.build_bank", "ms"))
    out["warp.build_bank.calls"] = metric(len(tr.by_name("warp.build_bank")), "count")
    for fn in ("predict", "update", "search_window"):
        out.update(times(f"ekf.{fn}", "us"))
    areas = [s[ATTRS]["area"] for s in tr.by_name("ekf.search_window")]
    out["ekf.window_area.p50"] = metric(_median(areas), "px2", areas)

    own = tr.self_times()
    process_self = [1e3 * own[i] for i, s in enumerate(tr.spans) if s[NAME] == "tracker.process"]
    out["tracker.process.self_ms"] = metric(_median(process_self), "ms", process_self)
    out.update(times("tracker.apply_template", "ms"))
    statuses = [s[ATTRS]["status"] for s in tr.by_name("tracker.process")]
    for st in ("initialized", "tracking", "miss", "redetecting", "lost"):
        out[f"tracker.status.{st}"] = metric(statuses.count(st), "count")
    out.update(times("gimbal.command", "us"))
    out["gimbal.command.calls"] = metric(len(tr.by_name("gimbal.command")), "count")

    for fn in ("decimate", "encode", "decode", "poll"):
        out.update(times(f"groundlink.{fn}", "us"))
    polls = {i for i, s in enumerate(tr.spans) if s[NAME] == "groundlink.poll"}
    rejected = sum(
        1 for s in tr.by_name("groundlink.decode") if s[PARENT] in polls and s[ATTRS]
    )
    for key in ("sent", "received", "send_errors", "bytes_down"):
        out[f"groundlink.{key}"] = metric(traced.link.get(key, 0), "count")
    out["groundlink.rejected"] = metric(rejected, "count")

    t_loop = sum(f.t1 - f.t0 for f in traced.frames)
    u_loop = sum(f.t1 - f.t0 for f in untraced.frames)
    out["trace.overhead_frac"] = metric(t_loop / u_loop - 1.0, "ratio")
    frames = {f.gid: f.t1 - f.t0 for f in traced.frames}
    out["trace.coverage_frac"] = metric(tr.covered(frames), "ratio")
    return out


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "loadavg": _read("/proc/loadavg").split()[:3],
    }
