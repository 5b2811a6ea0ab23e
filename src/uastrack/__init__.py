"""Desk-scale visual tracking testbed.

Rotation-invariant template matching over a rotated template bank, a
constant-velocity Kalman filter sizing an adaptive search window, loss
recovery by window expansion, and closed-loop pointing of a simulated
pan/tilt gimbal, exercised against a deterministic synthetic scene
generator and a UDP ground link.
"""

from .ekf import NoiseConfig, TrackState
from .imagebuf import GrayImage, Rect, crop, load_pgm, save_pgm
from .matcher import Detection, MatchPoint, detect, scan, zmncc
from .tracker import OpticsConfig, TrackerConfig, TrackerSession, gimbal_offset
from .warp import TemplateBank, build_bank, warp_patch

__version__ = "0.1.0"

__all__ = [
    "Detection",
    "GrayImage",
    "MatchPoint",
    "NoiseConfig",
    "OpticsConfig",
    "Rect",
    "TemplateBank",
    "TrackState",
    "TrackerConfig",
    "TrackerSession",
    "build_bank",
    "crop",
    "detect",
    "gimbal_offset",
    "load_pgm",
    "save_pgm",
    "scan",
    "warp_patch",
    "zmncc",
]
