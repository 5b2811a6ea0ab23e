"""The closed loop: render, track, point the gimbal, talk to the ground link.

``run_sim`` is the one runner behind ``uastrack sim``/``serve`` and the
scripts: each frame is rendered from the simulated gimbal's pose, handed to
a ``TrackerSession``, and the session's pan/tilt command moves the gimbal
before the next frame. With a ``LinkRuntime`` attached, decimated frame
samples go down to the operator and ROI / patch uploads come back up.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import gimbal, groundlink, scenesim
from .errors import ProtocolError
from .imagebuf import GrayImage, crop, save_pgm
from .tracker import (
    STATUS_MISS,
    STATUS_REDETECTING,
    STATUS_TRACKING,
    OpticsConfig,
    TrackerConfig,
    TrackerSession,
    TrackOutcome,
)

# Full frames of the last samples sent down, held so that an operator's ROI
# is cropped from the frame it was drawn on; an ROI naming any other frame
# is dropped.
HELD_SAMPLES = 8


@dataclass(frozen=True)
class RunReport:
    frames_processed: int
    tracked_count: int
    miss_count: int
    redetect_count: int
    mean_abs_pixel_error: Optional[float]
    ms_per_frame: Optional[float]  # None for a run of no frames

    @classmethod
    def of(cls, outcomes: list[TrackOutcome], errors: list[float], elapsed_s: float) -> "RunReport":
        """Status counts, mean of ``errors`` and per-frame time of a run."""
        counts = Counter(o.status for o in outcomes)
        mean_err = sum(errors) / len(errors) if errors else None
        return cls(
            len(outcomes),
            counts[STATUS_TRACKING],
            counts[STATUS_MISS],
            counts[STATUS_REDETECTING],
            mean_err,
            1000.0 * elapsed_s / len(outcomes) if outcomes else None,
        )

    def summary(self) -> str:
        err = "n/a" if self.mean_abs_pixel_error is None else f"{self.mean_abs_pixel_error:.2f}px"
        ms = "n/a" if self.ms_per_frame is None else f"{self.ms_per_frame:.2f}"
        return (
            f"frames={self.frames_processed} tracked={self.tracked_count} "
            f"miss={self.miss_count} redetect={self.redetect_count} "
            f"mean_abs_err={err} ms_per_frame={ms}"
        )


@dataclass(frozen=True)
class SimResult:
    outcomes: list[TrackOutcome]
    truths: list[tuple[float, float, float]]      # per scenario frame
    outcome_frames: list[int]                     # scenario frame per outcome
    elapsed_s: float

    @property
    def errors(self) -> list[float]:
        """Pixel distance from ground truth of every detection."""
        errors = []
        for o, k in zip(self.outcomes, self.outcome_frames):
            if o.detection is None:
                continue
            gx, gy, _ = self.truths[k]
            errors.append(math.hypot(o.detection.x - gx, o.detection.y - gy))
        return errors

    @property
    def report(self) -> RunReport:
        return RunReport.of(self.outcomes, self.errors, self.elapsed_s)


def scenario_optics(scenario: scenesim.Scenario) -> OpticsConfig:
    """The camera geometry of a scenario, as the tracker needs it to point the gimbal."""
    return OpticsConfig(
        hfov=scenario.hfov,
        frame_w=scenario.frame_w,
        frame_h=scenario.frame_h,
        counts_per_radian=scenario.counts_per_radian,
    )


def print_outcome(out: TrackOutcome) -> None:
    if out.detection is not None:
        print(
            f"frame {out.frame_index:4d} {out.status:12s} "
            f"({out.detection.x:7.2f},{out.detection.y:7.2f}) "
            f"score={out.detection.best_score:.3f} angle={out.detection.best_angle_deg:g}"
        )
    else:
        print(f"frame {out.frame_index:4d} {out.status:12s} window={out.window}")


class LinkRuntime:
    """Payload side of the ground link: frame samples out, ROI/patch uploads in."""

    def __init__(self, sock, sample_every: int, peer=None, await_roi: bool = False):
        self.sock = sock
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.peer = peer
        self.await_roi = await_roi
        self.held: dict[int, GrayImage] = {}  # frame id -> full frame, oldest first

    def on_frame(self, k: int, frame: GrayImage, session: TrackerSession) -> None:
        # Only the last valid template of a poll survives, so only it builds a bank.
        patch = None
        for msg, addr in groundlink.poll_messages(self.sock):
            self.peer = addr
            chosen = self._template(msg, frame)
            if chosen is not None:
                patch = chosen
        if patch is not None:
            session.apply_template(patch)
        if self.peer is not None and k % self.sample_every == 0:
            small = groundlink.decimate(frame, self.sample_every)
            try:
                self.sock.sendto(groundlink.encode_frame_sample(k, small), self.peer)
            except (ProtocolError, OSError):
                return  # oversize or transient send failure: drop this sample
            self.held[k] = frame
            if len(self.held) > HELD_SAMPLES:
                del self.held[next(iter(self.held))]

    def _template(self, msg: groundlink.Message, frame: GrayImage) -> Optional[GrayImage]:
        """The new target patch a message selects; None drops the message.

        An ROI is cropped from the held frame it names. An ROI naming a frame
        no longer held (or never sent), an out-of-frame ROI and a patch
        larger than the frame are dropped, so the session keeps its current
        target.
        """
        if isinstance(msg, groundlink.RoiSelect):
            seen = self.held.get(msg.frame_id)
            rect = groundlink.rescale_rect(msg.rect, self.sample_every)
            return crop(seen, rect) if seen is not None and seen.rect.contains(rect) else None
        if isinstance(msg, groundlink.PatchUpload) and frame.rect.contains(msg.image.rect):
            return msg.image
        return None


def run_sim(
    scenario: scenesim.Scenario,
    cfg: TrackerConfig,
    dt: float = 1.0,
    dump_dir: Optional[str] = None,
    quiet: bool = True,
    link: Optional[LinkRuntime] = None,
) -> SimResult:
    """Closed-loop run: render, track, and actuate the simulated gimbal."""
    session = TrackerSession(None, cfg)
    if link is None or not link.await_roi:  # else the template arrives over the link
        session.apply_template(scenesim.target_patch(scenario))
    pose = gimbal.GimbalState()
    outcomes: list[TrackOutcome] = []
    outcome_frames: list[int] = []
    truths: list[tuple[float, float, float]] = []
    dump = Path(dump_dir) if dump_dir else None
    if dump:
        dump.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for k in range(scenario.frames):
        frame = scenesim.render(scenario, pose, k)
        truths.append(scenesim.ground_truth(scenario, pose, k))
        if dump:
            (dump / f"frame_{k:05d}.pgm").write_bytes(save_pgm(frame))
        if link is not None:
            link.on_frame(k, frame, session)
        if session.bank is None:
            continue
        out = session.process(frame, dt)
        outcomes.append(out)
        outcome_frames.append(k)
        if not quiet:
            print_outcome(out)
        if out.gimbal_cmd is not None:
            pose = gimbal.command(pose, *out.gimbal_cmd)
    elapsed = time.perf_counter() - t0
    if dump:
        with open(dump / "ground_truth.csv", "w") as fh:
            fh.write("frame,x,y,angle_deg\n")
            for k, (gx, gy, ga) in enumerate(truths):
                fh.write(f"{k},{gx},{gy},{ga}\n")
    return SimResult(outcomes, truths, outcome_frames, elapsed)
