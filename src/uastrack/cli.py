"""Command-line front end: track, sim, bank, bench, serve, roi.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error,
3 initialization never acquired a target. All randomness flows from the
configured seeds; logged values never depend on wall-clock time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Optional

import numpy as np

from . import groundlink, matcher, scenesim
from .errors import ConfigError, UastrackError
from .gimbal import GimbalState
from .imagebuf import GrayImage, Rect, load_pgm, save_pgm
from .sim import LinkRuntime, RunReport, print_outcome, run_sim
from .tracker import (
    DEFAULT_HFOV_DEG,
    TrackerConfig,
    TrackerSession,
    TrackOutcome,
    write_log,
)
from .warp import DEFAULT_BANK_COUNT, build_bank

class UsageError(UastrackError):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2)
        raise UsageError(f"{message}\n{self.format_usage()}")


# The config file's tracker keys and the ``TrackerConfig`` field each sets.
# ``hfov_deg`` is in degrees; ``OpticsConfig.hfov`` is in radians.
_TRACKER_KEYS = {
    "threshold": "threshold",
    "sigma": "noise.sigma",
    "r_pos": "noise.r_pos",
    "kappa": "noise.kappa",
    "miss_limit": "miss_limit",
    "bank_count": "bank_count",
    "hfov_deg": "optics.hfov",
    "frame_w": "optics.frame_w",
    "frame_h": "optics.frame_h",
    "p0_vel_var": "p0_vel_var",
}


def _config_defaults() -> dict:
    """Config-file keys with the defaults of the tracker's config dataclasses."""
    cfg = TrackerConfig()
    defaults = {key: attrgetter(field)(cfg) for key, field in _TRACKER_KEYS.items()}
    return {**defaults, "hfov_deg": DEFAULT_HFOV_DEG, "sample_every": 4}


def load_config(path: Optional[str]) -> dict:
    """Merge a JSON config over the defaults; unknown keys are rejected."""
    merged = _config_defaults()
    if path is None:
        return merged
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path}: {e}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be a JSON object")
    unknown = sorted(set(data) - set(merged))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {unknown}")
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config {path}: {key} must be a number")
        # the keys with integer defaults are counts and sizes
        if isinstance(merged[key], int) and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config {path}: {key} must be an integer, got {value}")
        if key == "hfov_deg" and not 0.0 < value < 180.0:  # NaN too
            written = json.dumps(value)
            raise ConfigError(f"config {path}: hfov_deg must be in (0, 180), got {written}")
    if data.get("sample_every", 1) < 1:
        raise ConfigError(f"config {path}: sample_every must be >= 1")
    merged.update(data)
    return merged


def tracker_config(cfg: dict) -> TrackerConfig:
    """The ``TrackerConfig`` of a config map, each value cast to its default's type."""
    defaults = _config_defaults()
    parts: dict[str, dict] = {}  # "" holds TrackerConfig's own fields
    for key, field in _TRACKER_KEYS.items():
        part, _, name = field.rpartition(".")
        value = type(defaults[key])(cfg[key])
        parts.setdefault(part, {})[name] = math.radians(value) if key == "hfov_deg" else value
    base = TrackerConfig()
    nested = {part: dataclasses.replace(getattr(base, part), **fields)
              for part, fields in parts.items() if part}
    return TrackerConfig(**parts[""], **nested)


def _read_pgm_file(path: str) -> GrayImage:
    return load_pgm(Path(path).read_bytes())


def _frame_paths(frames_arg: str) -> list[Path]:
    p = Path(frames_arg)
    if p.is_dir():
        paths = sorted(p.glob("*.pgm"))
    elif p.suffix == ".list":
        paths = [Path(line.strip()) for line in p.read_text().splitlines() if line.strip()]
    else:
        raise UsageError(f"--frames expects a directory of PGMs or a .list file, got {frames_arg}")
    if not paths:
        raise UsageError(f"no frames found under {frames_arg}")
    return paths


def _finish(args, outcomes: list[TrackOutcome], report: RunReport) -> int:
    """Write the log if asked, print the summary; 3 when nothing was acquired."""
    if args.log:
        write_log(outcomes, args.log)
    print(report.summary())
    if all(o.state is None for o in outcomes):
        return 3
    return 0


def cmd_track(args) -> int:
    cfg_map = load_config(args.config)
    cfg = tracker_config(cfg_map)
    template = _read_pgm_file(args.template)
    session = TrackerSession(None, cfg)
    session.apply_template(template)
    outcomes = []
    t0 = time.perf_counter()
    for path in _frame_paths(args.frames):
        frame = _read_pgm_file(str(path))
        out = session.process(frame, args.dt)
        outcomes.append(out)
        if not args.quiet:
            print_outcome(out)
    elapsed = time.perf_counter() - t0
    return _finish(args, outcomes, RunReport.of(outcomes, [], elapsed))


def _scenario_setup(args) -> tuple[dict, scenesim.Scenario, TrackerConfig]:
    """Config map, scenario and tracker config of a ``sim`` or ``serve`` run."""
    cfg_map = load_config(args.config)
    cfg = tracker_config(cfg_map)
    optics = cfg.optics
    scenario = scenesim.make_scenario(
        args.scenario, optics.frame_w, optics.frame_h, args.frames, args.seed
    )
    return cfg_map, dataclasses.replace(scenario, hfov=optics.hfov), cfg


def cmd_sim(args) -> int:
    _, scenario, cfg = _scenario_setup(args)
    result = run_sim(scenario, cfg, dt=args.dt, dump_dir=args.dump_frames, quiet=args.quiet)
    return _finish(args, result.outcomes, result.report)


def cmd_bank(args) -> int:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    template = _read_pgm_file(args.template)
    bank = build_bank(template, args.count, 360.0 / args.count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, entry in enumerate(bank.entries):
        name = f"bank_{k:02d}_{int(entry.angle_deg):03d}deg.pgm"
        (out / name).write_bytes(save_pgm(entry.patch))
    print(f"wrote {len(bank)} templates to {out}")
    return 0


@dataclass(frozen=True)
class BenchResult:
    full_ms: float          # mean full-frame scan once the bank's caches are filled
    windowed_ms: float      # mean windowed scan after the first one
    speedup: float          # full_ms / windowed_ms
    windowed_fps: float
    full_cold_ms: float     # the bank's first full-frame scan, which builds its kernel and spectra
    windowed_cold_ms: float  # the first windowed scan, which reads the spectra kept, filling none
    workers: int            # scan worker threads: the CPUs this process may run on
    numpy: str              # numpy version, which sets the FFT's speed


def _timed_scans(frame: GrayImage, bank, rect: Rect, reps: int) -> tuple[float, float]:
    """ms of the first scan of ``rect``, then the mean ms of the ``reps`` scans after it."""
    t0 = time.perf_counter()
    matcher.scan(frame, bank, rect, matcher.DEFAULT_THRESHOLD)
    t1 = time.perf_counter()
    for _ in range(reps):
        matcher.scan(frame, bank, rect, matcher.DEFAULT_THRESHOLD)
    t2 = time.perf_counter()
    return 1000.0 * (t1 - t0), 1000.0 * (t2 - t1) / reps


def run_bench(
    width: int,
    height: int,
    template: GrayImage,
    window_px: int,
    reps: int,
    seed: int = 11,
) -> BenchResult:
    """Time full-frame vs windowed scans of a seeded frame with ``template`` planted.

    The first full-frame scan of the fresh bank is timed on its own
    (``full_cold_ms``); ``full_ms`` is the mean of the ``reps`` scans after it.
    The windowed scan is timed the same way (``windowed_cold_ms``,
    ``windowed_ms``), so the speedup compares warm scans with warm scans.
    """
    scenario = scenesim.Scenario(
        name="bench",
        frame_w=width,
        frame_h=height,
        patch_w=template.width,
        patch_h=template.height,
        trajectory=scenesim.LineTrajectory(0.0, 0.0, 0.0, 0.0),
        seed=seed,
        frames=1,
        patch=template,
    )
    frame = scenesim.render(scenario, GimbalState(), 0)
    gx, gy, _ = scenesim.ground_truth(scenario, GimbalState(), 0)
    bank = build_bank(template)
    full = matcher.valid_center_rect(template.width, template.height, width, height)
    win = Rect(
        matcher.template_origin(int(gx), window_px),
        matcher.template_origin(int(gy), window_px),
        window_px,
        window_px,
    )
    full_cold_ms, full_ms = _timed_scans(frame, bank, full, max(1, reps))
    windowed_cold_ms, windowed_ms = _timed_scans(frame, bank, win, max(1, reps))
    return BenchResult(
        full_ms=full_ms,
        windowed_ms=windowed_ms,
        speedup=full_ms / windowed_ms if windowed_ms > 0 else float("inf"),
        windowed_fps=1000.0 / windowed_ms if windowed_ms > 0 else float("inf"),
        full_cold_ms=full_cold_ms,
        windowed_cold_ms=windowed_cold_ms,
        workers=matcher._WORKERS,
        numpy=np.__version__,
    )


def cmd_bench(args) -> int:
    if args.template:
        template = _read_pgm_file(args.template)
    else:
        template = scenesim.default_target_patch(seed=11)
    r = run_bench(args.width, args.height, template, args.window, args.reps)
    print(
        f"full-frame {r.full_ms:.1f} ms/frame (first scan {r.full_cold_ms:.1f} ms), "
        f"windowed({args.window}px) {r.windowed_ms:.2f} ms/frame "
        f"(first scan {r.windowed_cold_ms:.2f} ms), speedup {r.speedup:.1f}x, "
        f"windowed throughput {r.windowed_fps:.1f} fps, "
        f"workers {r.workers}, numpy {r.numpy}"
    )
    return 0


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"expected host:port, got {text!r}")
    if int(port) > 65535:
        raise UsageError(f"port must be in 0-65535, got {text!r}")
    return host, int(port)


def cmd_serve(args) -> int:
    cfg_map, scenario, cfg = _scenario_setup(args)
    listen = _parse_addr(args.listen)
    peer = _parse_addr(args.peer) if args.peer else None
    sock = groundlink.open_socket(listen)
    link = LinkRuntime(
        sock, int(cfg_map["sample_every"]), peer=peer, await_roi=args.await_roi
    )
    print(f"serving scenario {scenario.name!r} on {args.listen}")
    try:
        result = run_sim(scenario, cfg, dt=args.dt, quiet=args.quiet, link=link)
    finally:
        sock.close()
    return _finish(args, result.outcomes, result.report)


def cmd_roi(args) -> int:
    parts = args.rect.split(",")
    if len(parts) != 4:
        raise UsageError(f"--rect expects x,y,w,h, got {args.rect!r}")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--rect expects integers, got {args.rect!r}") from None
    payload = groundlink.encode_roi_select(args.frame, Rect(x, y, w, h))
    addr = _parse_addr(args.send)
    sock = groundlink.open_socket()
    try:
        sock.sendto(payload, addr)
    finally:
        sock.close()
    print(f"sent roi {args.rect} for frame {args.frame} to {args.send}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="uastrack", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    run = _Parser(add_help=False)  # the flags of every command that tracks
    run.add_argument("--config", default=None)
    run.add_argument("--log", default=None)
    run.add_argument("--dt", type=float, default=1.0)
    run.add_argument("--quiet", action="store_true")
    scene = _Parser(add_help=False)  # the flags of every command that simulates
    scene.add_argument("--scenario", required=True, choices=scenesim.BUILTIN_NAMES)
    scene.add_argument("--frames", type=int, default=scenesim.Scenario.frames)
    scene.add_argument("--seed", type=int, default=scenesim.Scenario.seed)

    t = sub.add_parser("track", parents=[run], help="offline tracking over a PGM frame sequence")
    t.add_argument("--frames", required=True, help="directory of PGMs or a .list file")
    t.add_argument("--template", required=True)
    t.set_defaults(func=cmd_track)

    s = sub.add_parser("sim", parents=[scene, run], help="closed-loop simulation")
    s.add_argument("--dump-frames", default=None)
    s.set_defaults(func=cmd_sim)

    b = sub.add_parser("bank", help="emit the rotated template bank as PGMs")
    b.add_argument("--template", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--count", type=int, default=DEFAULT_BANK_COUNT)
    b.set_defaults(func=cmd_bank)

    be = sub.add_parser("bench", help="full-frame vs windowed scan timing")
    be.add_argument("--width", type=int, default=640)
    be.add_argument("--height", type=int, default=480)
    be.add_argument("--template", default=None)
    be.add_argument("--window", type=int, default=48)
    be.add_argument("--reps", type=int, default=3)
    be.set_defaults(func=cmd_bench)

    sv = sub.add_parser("serve", parents=[scene, run], help="run sim with the UDP ground link enabled")
    sv.add_argument("--listen", required=True, help="host:port to bind")
    sv.add_argument("--peer", default=None, help="host:port for frame samples")
    sv.add_argument("--await-roi", action="store_true", help="idle until an operator ROI/patch arrives")
    sv.set_defaults(func=cmd_serve)

    r = sub.add_parser("roi", help="send an operator ROI datagram")
    r.add_argument("--send", required=True, help="host:port of the payload")
    r.add_argument("--frame", type=int, required=True)
    r.add_argument("--rect", required=True, help="x,y,w,h in decimated pixels")
    r.set_defaults(func=cmd_roi)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as e:  # every other package error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
