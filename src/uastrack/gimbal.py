"""Simulated pan/tilt motion controller with encoder-count state.

One encoder count is 100 microradians. Pan is azimuth-continuous and wraps
modulo a full revolution; tilt is clamped to the +/-30 degree equivalent.
Actuation is perfect within a per-tick slew limit; there are no motor
dynamics. A line-oriented ASCII protocol stands in for the serial link:

    MV <d_pan> <d_tilt>\\n  -> OK <pan> <tilt>\\n   (relative move)
    POS\\n                  -> POS <pan> <tilt>\\n
    RST\\n                  -> OK 0 0\\n            (zero both axes)
    anything else           -> ERR <reason>\\n      (state unchanged)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ProtocolError
from .util import clamp, round_half_away

RADIANS_PER_COUNT = 1e-4
COUNTS_PER_RADIAN = 1.0 / RADIANS_PER_COUNT
PAN_FULL_REV = 62_832          # counts per revolution (2*pi / 1e-4, rounded)
TILT_LIMIT = 5_236             # +/-30 degrees in counts
DEFAULT_SLEW = 2_000           # max counts applied per axis per tick


@dataclass(frozen=True)
class GimbalState:
    pan_counts: int = 0
    tilt_counts: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.pan_counts < PAN_FULL_REV:
            raise ValueError(f"pan {self.pan_counts} outside [0, {PAN_FULL_REV})")
        if abs(self.tilt_counts) > TILT_LIMIT:
            raise ValueError(f"tilt {self.tilt_counts} beyond +/-{TILT_LIMIT}")


def counts_to_radians(counts: int) -> float:
    return counts * RADIANS_PER_COUNT


def radians_to_counts(radians: float) -> int:
    return round_half_away(radians * COUNTS_PER_RADIAN)


def pan_signed(state: GimbalState) -> int:
    """Wrapped pan as a signed offset in (-rev/2, rev/2]."""
    if state.pan_counts > PAN_FULL_REV // 2:
        return state.pan_counts - PAN_FULL_REV
    return state.pan_counts


def command(state: GimbalState, d_pan: int, d_tilt: int) -> GimbalState:
    """Apply a relative move; slew-clips each axis, clamps tilt, wraps pan."""
    dp = clamp(int(d_pan), -DEFAULT_SLEW, DEFAULT_SLEW)
    dt = clamp(int(d_tilt), -DEFAULT_SLEW, DEFAULT_SLEW)
    pan = (state.pan_counts + dp) % PAN_FULL_REV
    tilt = clamp(state.tilt_counts + dt, -TILT_LIMIT, TILT_LIMIT)
    return replace(state, pan_counts=pan, tilt_counts=tilt)


def parse_line(text: str) -> tuple:
    """Parse one protocol line into ("MV", d_pan, d_tilt), ("POS",) or ("RST",)."""
    parts = text.strip().split()
    if not parts:
        raise ProtocolError("empty")
    verb = parts[0]
    if verb == "MV":
        if len(parts) != 3:
            raise ProtocolError("parse")
        try:
            return ("MV", int(parts[1]), int(parts[2]))
        except ValueError:
            raise ProtocolError("parse") from None
    if verb == "POS":
        if len(parts) != 1:
            raise ProtocolError("parse")
        return ("POS",)
    if verb == "RST":
        if len(parts) != 1:
            raise ProtocolError("parse")
        return ("RST",)
    raise ProtocolError("verb")


def format_reply(state: GimbalState, ok: bool = True) -> str:
    prefix = "OK" if ok else "POS"
    return f"{prefix} {state.pan_counts} {state.tilt_counts}\n"


def handle_line(state: GimbalState, text: str) -> tuple[GimbalState, str]:
    """Request/reply engine: apply one line, return (new state, reply text)."""
    try:
        cmd = parse_line(text)
    except ProtocolError as e:
        return state, f"ERR {e}\n"
    if cmd[0] == "MV":
        new = command(state, cmd[1], cmd[2])
        return new, format_reply(new, ok=True)
    if cmd[0] == "POS":
        return state, format_reply(state, ok=False)
    new = replace(state, pan_counts=0, tilt_counts=0)
    return new, format_reply(new, ok=True)
