"""Tracking loop: acquire, detect, filter, actuate.

``TrackerSession.process`` handles one frame at a time. With no track it
scans the full frame, and a detection starts one. With a track it
predicts, sizes the search window from the predicted covariance, scans,
and either corrects the filter (emitting a gimbal command) or records a
miss. After ``miss_limit`` consecutive misses the next scan covers the full
frame until the target is reacquired; reacquisition updates the existing
filter. Sessions are strictly sequential.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Optional, get_args, get_type_hints

from . import ekf, gimbal, matcher
from .errors import BoundsError, ConfigError
from .imagebuf import GrayImage, Rect
from .matcher import Detection
from .util import round_half_away
from .warp import DEFAULT_BANK_COUNT, TemplateBank, build_bank

STATUS_INITIALIZED = "initialized"
STATUS_TRACKING = "tracking"
STATUS_MISS = "miss"
STATUS_REDETECTING = "redetecting"
STATUS_LOST = "lost"

# the config file states the field of view in degrees, and degrees(radians(x))
# is not always x, so the degree value is the source
DEFAULT_HFOV_DEG = 30.0


def _require_integer(name: str, value) -> None:
    """Counts and sizes are integers; a fraction would be rounded where it is used."""
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OpticsConfig:
    """Camera geometry used to turn pixel errors into encoder counts."""

    hfov: float = math.radians(DEFAULT_HFOV_DEG)  # horizontal field of view, radians
    frame_w: int = 320
    frame_h: int = 240
    counts_per_radian: float = gimbal.COUNTS_PER_RADIAN

    def __post_init__(self) -> None:
        if not 0.0 < self.hfov < math.pi:
            raise ConfigError(f"hfov must be in (0, pi), got {self.hfov}")
        _require_integer("frame_w", self.frame_w)
        _require_integer("frame_h", self.frame_h)
        if self.frame_w < 1 or self.frame_h < 1:
            raise ConfigError("frame dimensions must be positive")
        ekf.check_positive("counts_per_radian", self.counts_per_radian)

    @property
    def angle_per_pixel(self) -> float:
        """Radians per pixel, same scale on both axes (square pixels)."""
        return self.hfov / self.frame_w


@dataclass(frozen=True)
class TrackerConfig:
    threshold: float = matcher.DEFAULT_THRESHOLD
    noise: ekf.NoiseConfig = field(default_factory=ekf.NoiseConfig)
    miss_limit: int = 5
    bank_count: int = DEFAULT_BANK_COUNT
    optics: OpticsConfig = field(default_factory=OpticsConfig)
    p0_vel_var: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in (0, 1], got {self.threshold}")
        _require_integer("miss_limit", self.miss_limit)
        _require_integer("bank_count", self.bank_count)
        if self.miss_limit < 1:
            raise ConfigError(f"miss_limit must be >= 1, got {self.miss_limit}")
        if self.bank_count < 1:
            raise ConfigError(f"bank_count must be >= 1, got {self.bank_count}")
        ekf.check_positive("p0_vel_var", self.p0_vel_var)

    @property
    def bank_step_deg(self) -> float:
        """Angle between bank entries: the bank covers 360 degrees."""
        return 360.0 / self.bank_count


@dataclass(frozen=True)
class TrackOutcome:
    """Observable record of one processed frame."""

    frame_index: int
    time_s: float
    status: str
    detection: Optional[Detection]
    window: Rect
    state: Optional[ekf.TrackState]
    gimbal_cmd: Optional[tuple[int, int]]


def gimbal_offset(d: Detection, optics: OpticsConfig) -> tuple[int, int]:
    """Pan/tilt counts moving the view so the detection recenters.

    Positive pan moves the view toward +x, positive tilt toward +y. Counts
    round half away from zero, so the command is odd in the pixel error.
    """
    ex = d.x - (optics.frame_w - 1) / 2.0
    ey = d.y - (optics.frame_h - 1) / 2.0
    scale = optics.angle_per_pixel * optics.counts_per_radian
    return round_half_away(ex * scale), round_half_away(ey * scale)


class TrackerSession:
    """Single-target tracking over one bank; one frame at a time.

    ``bank`` may start as None; acquisition begins once ``apply_template``
    builds one from a stored or operator-picked patch. Each bank is prepared
    for frames of the configured size as it is installed (``matcher.prepare``).
    """

    def __init__(self, bank: Optional[TemplateBank], cfg: TrackerConfig):
        self.bank = bank
        self.cfg = cfg
        if bank is not None:
            matcher.prepare(bank, cfg.optics.frame_w, cfg.optics.frame_h)
        self.state: Optional[ekf.TrackState] = None
        self.frame_index = -1
        self.clock = 0.0

    def process(self, frame: GrayImage, dt: float = 1.0) -> TrackOutcome:
        """Acquire, or predict, search, and correct (or record a miss), for one frame.

        With no track the whole frame is scanned, and a detection starts
        one. With a track the filter predicts and the window comes from
        its covariance, or covers the whole frame after ``miss_limit``
        misses. The clock advances by ``dt``, which must be finite and
        positive, on every frame after the first. The frame must be of the
        configured size, as the gimbal is aimed from its centre.
        """
        ekf.check_positive("dt", dt)
        if self.bank is None:
            raise RuntimeError("no template installed; call apply_template first")
        optics = self.cfg.optics
        if (frame.width, frame.height) != (optics.frame_w, optics.frame_h):
            raise ConfigError(
                f"frame is {frame.width}x{frame.height}, but frame_w x frame_h is "
                f"{optics.frame_w}x{optics.frame_h}"
            )
        try:
            full = matcher.valid_center_rect(
                self.bank.base_width, self.bank.base_height, frame.width, frame.height
            )
        except BoundsError as e:
            raise ConfigError(str(e)) from None
        if self.frame_index >= 0:
            self.clock += dt
        self.frame_index += 1
        pred = None
        window = full
        if self.state is not None:
            pred = ekf.predict(self.state, dt, self.cfg.noise)
            if pred.misses < self.cfg.miss_limit:
                window = ekf.search_window(pred, full, self.cfg.noise)
        det = matcher.detect(
            matcher.scan(frame, self.bank, window, self.cfg.threshold),
            self.cfg.threshold,
            (self.bank.base_width, self.bank.base_height),
        )
        cmd = None
        if det is not None:
            cmd = gimbal_offset(det, optics)
            if pred is None:
                self.state = ekf.initial_state(det.x, det.y, self.cfg.noise, self.cfg.p0_vel_var)
                status = STATUS_INITIALIZED
            else:
                self.state = ekf.update(pred, (det.x, det.y), self.cfg.noise)
                status = STATUS_TRACKING
        elif pred is not None:
            self.state = ekf.mark_miss(pred)
            redetect = self.state.misses >= self.cfg.miss_limit
            status = STATUS_REDETECTING if redetect else STATUS_MISS
        else:
            status = STATUS_LOST
        return TrackOutcome(
            self.frame_index, self.clock, status, det, window, self.state, cmd
        )

    def apply_template(self, patch: GrayImage) -> None:
        """Swap in a new target patch (operator upload); restarts acquisition."""
        # prepared before the old bank goes: freed first, its pages could go back
        # to the system and the new fill fault fresh ones in (~1,200 an upload)
        bank = build_bank(patch, self.cfg.bank_count, self.cfg.bank_step_deg)
        matcher.prepare(bank, self.cfg.optics.frame_w, self.cfg.optics.frame_h)
        self.bank = bank
        self.state = None


@dataclass(frozen=True)
class LogRow:
    """One parsed track-log record; None marks an empty field."""

    frame: int
    time_s: float
    status: str
    x: Optional[float]
    y: Optional[float]
    score: Optional[float]
    angle_deg: Optional[float]
    support: Optional[int]
    win_x: int
    win_y: int
    win_w: int
    win_h: int
    pan_counts: Optional[int]
    tilt_counts: Optional[int]
    trace_P: Optional[float]


_LOG_FIELDS = tuple(get_type_hints(LogRow).items())
LOG_COLUMNS = tuple(name for name, _ in _LOG_FIELDS)


def outcome_to_row(o: TrackOutcome) -> LogRow:
    d = o.detection
    return LogRow(
        frame=o.frame_index,
        time_s=o.time_s,
        status=o.status,
        x=d.x if d else None,
        y=d.y if d else None,
        score=d.best_score if d else None,
        angle_deg=d.best_angle_deg if d else None,
        support=d.support if d else None,
        win_x=o.window.x,
        win_y=o.window.y,
        win_w=o.window.w,
        win_h=o.window.h,
        pan_counts=o.gimbal_cmd[0] if o.gimbal_cmd else None,
        tilt_counts=o.gimbal_cmd[1] if o.gimbal_cmd else None,
        trace_P=float(o.state.P.trace()) if o.state is not None else None,
    )


def _cell(value) -> str:
    return "" if value is None else str(value)


def write_log(outcomes: Iterable[TrackOutcome], path: str) -> None:
    """Append-style CSV log, one row per frame; header always present.

    Floats are written with full repr so re-parsing reproduces them exactly.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(LOG_COLUMNS)
        for o in outcomes:
            r = outcome_to_row(o)
            w.writerow([_cell(getattr(r, col)) for col in LOG_COLUMNS])


def _parse_cell(text: str, hint):
    """A log cell as its ``LogRow`` field type; empty is None only for Optional fields."""
    optional = get_args(hint)  # Optional[X] is Union[X, None]
    if optional:
        return optional[0](text) if text != "" else None
    return hint(text)


def read_log(path: str) -> list[LogRow]:
    """Parse a track log back into rows; exact for every written value."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != LOG_COLUMNS:
            raise ValueError(f"unexpected log columns: {reader.fieldnames}")
        return [
            LogRow(**{name: _parse_cell(rec[name], hint) for name, hint in _LOG_FIELDS})
            for rec in reader
        ]
