"""The benchmark's workloads: render -> (link) -> track -> point, in process.

This is the same per-frame sequence as the ``uastrack sim``/``serve``
runner and the acceptance suite's closed loop, written against public
``uastrack`` names only. Every layer function is called through its module
(``scenesim.render``, ``gimbal.command``, ...) so the traced pass can time
it by swapping the module attribute.

The work of a run is a fixed episode plan derived from the workload seed
and ``--seconds`` (sized so one pass takes about that long on a 2-core
Xeon at the seed commit). A faster program runs the same frames in less
time, which keeps the tracking-quality figures and log digests comparable
across commits.
"""

from __future__ import annotations

import hashlib
import math
import select
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from uastrack import gimbal, groundlink, matcher, scenesim, tracker, warp
from uastrack.tracker import OpticsConfig, TrackerConfig, TrackerSession

WORKLOADS = ("steady", "reacquire", "retarget")
STEADY_SCENARIOS = ("cv", "turn", "spin", "relight", "blurless-stopstart")
RETARGET_SCENARIOS = ("cv", "turn", "blurless-stopstart")
FRAME_W, FRAME_H = 320, 240
SAMPLE_EVERY = 4        # the default ``sample_every`` of the uastrack config
MALFORMED_EVERY = 10    # the operator sends one malformed datagram per 10 frames
HIT_PX = 3.0            # a detection farther than this from truth is a failure
LOCKED = (tracker.STATUS_INITIALIZED, tracker.STATUS_TRACKING)
STATUSES = LOCKED + (tracker.STATUS_MISS, tracker.STATUS_REDETECTING, tracker.STATUS_LOST)


class BenchError(Exception):
    """The benchmark could not drive the loop as planned."""


@dataclass(frozen=True)
class Episode:
    scenario: str
    seed: int
    frames: int


def plan(workload: str, seed: int, seconds: int) -> list[Episode]:
    """The episodes of one run; the same arguments give the same plan."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "steady":
        names = STEADY_SCENARIOS * max(1, seconds // 6)
        frames = min(100, 10 * seconds)
    elif workload == "reacquire":
        names, frames = ("redetect",) * max(1, 2 * seconds // 3), 50
    else:
        count = max(2, 9 * seconds // 5)
        names, frames = tuple(rng.choice(RETARGET_SCENARIOS, size=count)), 30
    seeds = rng.integers(1, 2**31 - 1, size=len(names))
    return [Episode(str(n), int(s), frames) for n, s in zip(names, seeds)]


def make_scenario(ep: Episode) -> scenesim.Scenario:
    return scenesim.make_scenario(ep.scenario, FRAME_W, FRAME_H, ep.frames, ep.seed)


def warm_scene_caches(episodes: list[Episode]) -> None:
    """Touch each episode's memoised scene data (world, geometry, target) in plan order.

    ``scenesim`` keeps the last few of these. A pass over the plan touches
    them in the same order, so after this call a pass starts from the same
    cache state as a pass that follows another one.
    """
    for ep in episodes:
        scenesim.render(make_scenario(ep), gimbal.GimbalState(), 0)


def make_session(sc: scenesim.Scenario, with_bank: bool) -> TrackerSession:
    """Default tracker config with the scenario's optics; bankless for uploads."""
    optics = OpticsConfig(
        hfov=sc.hfov,
        frame_w=sc.frame_w,
        frame_h=sc.frame_h,
        counts_per_radian=sc.counts_per_radian,
    )
    cfg = TrackerConfig(optics=optics)
    bank = (
        warp.build_bank(scenesim.target_patch(sc), cfg.bank_count, cfg.bank_step_deg)
        if with_bank
        else None
    )
    return TrackerSession(bank, cfg)


def _malformed_datagrams() -> list[bytes]:
    """Uplink datagrams that ``groundlink.decode`` must reject."""
    header = groundlink.MAGIC + bytes([groundlink.VERSION])
    upload = groundlink.encode_patch_upload(scenesim.default_target_patch(1))
    return [
        upload[:-1],                                   # truncated patch
        upload + b"\x00",                              # trailing byte
        b"\x00\x00" + upload[2:],                      # bad magic
        upload[:2] + bytes([groundlink.VERSION + 1]) + upload[3:],
        header + b"\x7f",                              # unknown type
        header + bytes([groundlink.TYPE_ROI_SELECT]) + struct.pack(">IHHHH", 0, 0, 0, 0, 5),
        b"\x55",                                       # short header
    ]


class Link:
    """Payload and operator ends of the ground link on two loopback sockets."""

    def __init__(self) -> None:
        self.payload = groundlink.open_socket(("127.0.0.1", 0))
        self.operator = groundlink.open_socket(("127.0.0.1", 0))
        self.operator_addr = self.operator.getsockname()
        self.payload_addr = self.payload.getsockname()
        self.counts = dict.fromkeys(
            ("sent", "received", "send_errors", "bytes_down", "uploads", "malformed",
             "samples_decoded"),
            0,
        )
        self.violations: list[str] = []
        self._expected: dict[int, np.ndarray] = {}   # frame id -> sample sent down
        self._malformed = _malformed_datagrams()
        self._turns = 0

    def close(self) -> None:
        self.payload.close()
        self.operator.close()

    # operator side: runs between frames, outside the frame timing
    def operator_turn(self, patch) -> Optional[float]:
        """Check the samples that came down, then send this turn's uplink.

        Returns the time the upload of ``patch`` was handed to the socket.
        Waits until the payload socket is readable, so what the operator
        sends is in the payload's next poll and runs stay deterministic.
        """
        self.drain_samples()
        sent_at = None
        out = []
        if patch is not None:
            sent_at = time.perf_counter()
            out.append(groundlink.encode_patch_upload(patch))
            self.counts["uploads"] += 1
        if self._turns % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            out.append(self._malformed[(self._turns // MALFORMED_EVERY) % len(self._malformed)])
            self.counts["malformed"] += 1
        self._turns += 1
        for data in out:
            self.operator.sendto(data, self.payload_addr)
        if out and not select.select([self.payload], [], [], 1.0)[0]:
            raise BenchError("uplink datagram not delivered on loopback within 1 s")
        return sent_at

    def drain_samples(self, wait: float = 0.0) -> None:
        while self._expected and wait > 0 and select.select([self.operator], [], [], wait)[0]:
            self._drain_operator()
        self._drain_operator()

    def _drain_operator(self) -> None:
        while True:
            try:
                data, _ = self.operator.recvfrom(groundlink.MAX_DATAGRAM + 1)
            except BlockingIOError:
                return
            msg = groundlink.decode(data)
            want = self._expected.pop(getattr(msg, "frame_id", -1), None)
            if not isinstance(msg, groundlink.FrameSample) or want is None:
                self.violations.append(f"unexpected downlink message {msg!r}")
            elif not np.array_equal(msg.image.pixels, want):
                self.violations.append(f"frame sample {msg.frame_id} altered in transit")
            else:
                self.counts["samples_decoded"] += 1

    # payload side: runs inside the frame
    def poll(self, session: TrackerSession) -> None:
        for msg, _addr in groundlink.poll_messages(self.payload):
            if isinstance(msg, groundlink.PatchUpload):
                session.apply_template(msg.image)
                self.counts["received"] += 1
            else:
                self.violations.append(f"unexpected uplink message {msg!r}")

    def send_sample(self, frame_id: int, frame) -> None:
        small = groundlink.decimate(frame, SAMPLE_EVERY)
        data = groundlink.encode_frame_sample(frame_id, small)
        try:
            self.payload.sendto(data, self.operator_addr)
        except OSError:
            self.counts["send_errors"] += 1
            return
        self.counts["sent"] += 1
        self.counts["bytes_down"] += len(data)
        self._expected[frame_id] = small.pixels

    def finish(self) -> None:
        self.drain_samples(wait=1.0)
        if self._expected:
            self.violations.append(f"{len(self._expected)} frame samples never arrived")
        if self.counts["received"] != self.counts["uploads"]:
            self.violations.append(
                f"{self.counts['uploads']} uploads sent, {self.counts['received']} applied"
            )


@dataclass
class Frame:
    """What the benchmark keeps of one closed-loop frame."""

    episode: int
    gid: int           # frame id across the whole run
    t0: float
    t1: float
    err: Optional[float]   # pixel distance of the detection from truth
    windowed: bool         # the search window was Kalman-sized, not full-frame

    @property
    def ms(self) -> float:
        return 1000.0 * (self.t1 - self.t0)

    @property
    def failed(self) -> bool:
        return self.err is None or self.err > HIT_PX


@dataclass
class Pass:
    """One pass over the plan: per-frame records, checks and log digests."""

    frames: list[Frame] = field(default_factory=list)
    given: list[float] = field(default_factory=list)     # per episode: target given
    digests: list[str] = field(default_factory=list)     # per episode: sha256 of the CSV log
    link: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)


class ClosedLoop:
    def __init__(self, workload: str, episodes: list[Episode], log_dir: Path, tracer=None):
        self.workload = workload
        self.episodes = episodes
        self.log_dir = log_dir
        self.tracer = tracer
        self.result = Pass()
        self._gid = 0

    def run(self) -> Pass:
        if self.workload == "retarget":
            link = Link()
            try:
                session = make_session(make_scenario(self.episodes[0]), with_bank=False)
                for i, ep in enumerate(self.episodes):
                    self._episode(i, make_scenario(ep), session, link)
                link.finish()
            finally:
                link.close()
            self.result.link = link.counts
            self.result.violations += link.violations
        else:
            for i, ep in enumerate(self.episodes):
                sc = make_scenario(ep)
                self._episode(i, sc, make_session(sc, with_bank=True), None)
        return self.result

    def _episode(self, i: int, sc, session: TrackerSession, link: Optional[Link]) -> None:
        res = self.result
        tr = self.tracer
        g = gimbal.GimbalState()
        outcomes = []
        patch = scenesim.target_patch(sc) if link is not None else None
        for k in range(sc.frames):
            gid = self._gid
            self._gid += 1
            if link is not None:
                sent_at = link.operator_turn(patch if k == 0 else None)
                if k == 0:
                    res.given.append(sent_at)
            expect = session.frame_index + 1
            if tr is not None:
                tr.frame = gid
            t0 = time.perf_counter()
            if link is not None:
                link.poll(session)
            frame = scenesim.render(sc, g, k)
            truth = scenesim.ground_truth(sc, g, k)
            out = session.process(frame, 1.0)
            if out.gimbal_cmd is not None:
                g = gimbal.command(g, *out.gimbal_cmd)
            if link is not None and gid % SAMPLE_EVERY == 0:
                link.send_sample(gid, frame)
            t1 = time.perf_counter()
            if tr is not None:
                tr.frame = None
            if k == 0 and link is None:
                res.given.append(t0)

            full = self._check(out, session, frame, expect, f"episode {i} frame {k}")
            outcomes.append(out)
            d = out.detection
            err = None if d is None else math.hypot(d.x - truth[0], d.y - truth[1])
            res.frames.append(Frame(i, gid, t0, t1, err, out.window != full))

        path = self.log_dir / f"{self.workload}-ep{i:03d}.csv"
        tracker.write_log(outcomes, str(path))
        res.digests.append(hashlib.sha256(path.read_bytes()).hexdigest())

    def _check(self, out, session, frame, expect_index, where):
        """Per-frame invariants; returns the full-frame (valid-center) rect."""
        bad = self.result.violations
        full = matcher.valid_center_rect(
            session.bank.base_width, session.bank.base_height, frame.width, frame.height
        )
        if out.frame_index != expect_index or session.frame_index != expect_index:
            bad.append(f"{where}: outcome index {out.frame_index}, expected {expect_index}")
        if out.status not in STATUSES:
            bad.append(f"{where}: unknown status {out.status!r}")
        if (out.detection is not None) != (out.status in LOCKED):
            bad.append(f"{where}: status {out.status} with detection {out.detection}")
        if not full.contains(out.window):
            bad.append(f"{where}: window {out.window} outside valid centers {full}")
        if out.state is not None and not (
            np.all(np.isfinite(out.state.vector)) and np.all(np.isfinite(out.state.P))
        ):
            bad.append(f"{where}: non-finite filter state")
        return full
