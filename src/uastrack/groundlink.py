"""UDP ground-link datagrams: frame samples down, ROI / patch uploads up.

One message per datagram, no fragmentation; frames are decimated to fit.
All multi-byte integers are big-endian. Layout:

    header: 0x55 0x41 | version 0x01 | type
    0x01 frame_sample: frame_id u32, width u16, height u16, raw samples
    0x02 roi_select:   frame_id u32, x u16, y u16, w u16, h u16
    0x03 patch_upload: width u16, height u16, raw samples

Every datagram is self-contained: receivers validate lengths exactly, so
any dropped or truncated datagram is rejected without corrupting state.
ROI coordinates are in decimated-frame pixels; the payload side rescales
by the known decimation factor.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ProtocolError
from .imagebuf import GrayImage, Rect

MAGIC = b"\x55\x41"
VERSION = 1
TYPE_FRAME_SAMPLE = 0x01
TYPE_ROI_SELECT = 0x02
TYPE_PATCH_UPLOAD = 0x03

MAX_DATAGRAM = 65_507

# Most datagrams one ``poll_messages`` call reads. The rest stay queued in the
# socket for the next call, so a flood of uplink traffic cannot stall a frame.
MAX_POLL_DATAGRAMS = 64

_HEADER = struct.Struct(">2sBB")


@dataclass(frozen=True)
class FrameSample:
    frame_id: int
    image: GrayImage


@dataclass(frozen=True)
class RoiSelect:
    frame_id: int
    rect: Rect


@dataclass(frozen=True)
class PatchUpload:
    image: GrayImage


Message = Union[FrameSample, RoiSelect, PatchUpload]


def _check_u16(value: int, what: str) -> int:
    if not 0 <= value <= 0xFFFF:
        raise ProtocolError(f"{what} {value} out of u16 range")
    return value


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ProtocolError(f"{what} {value} out of u32 range")
    return value


def _header(msg_type: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, msg_type)


def encode_frame_sample(frame_id: int, img: GrayImage) -> bytes:
    """Encode a decimated frame; raises on anything that cannot fit one datagram."""
    _check_u32(frame_id, "frame_id")
    _check_u16(img.width, "width")
    _check_u16(img.height, "height")
    size = 12 + img.width * img.height
    if size > MAX_DATAGRAM:
        raise ProtocolError(
            f"frame sample {img.width}x{img.height} needs {size} bytes "
            f"(limit {MAX_DATAGRAM}); decimate further"
        )
    return _header(TYPE_FRAME_SAMPLE) + struct.pack(
        ">IHH", frame_id, img.width, img.height
    ) + img.tobytes()


def encode_roi_select(frame_id: int, rect: Rect) -> bytes:
    _check_u32(frame_id, "frame_id")
    if rect.x < 0 or rect.y < 0:
        raise ProtocolError("roi corner must be non-negative")
    for value, what in ((rect.x, "x"), (rect.y, "y"), (rect.w, "w"), (rect.h, "h")):
        _check_u16(value, what)
    return _header(TYPE_ROI_SELECT) + struct.pack(
        ">IHHHH", frame_id, rect.x, rect.y, rect.w, rect.h
    )


def encode_patch_upload(img: GrayImage) -> bytes:
    _check_u16(img.width, "width")
    _check_u16(img.height, "height")
    size = 8 + img.width * img.height
    if size > MAX_DATAGRAM:
        raise ProtocolError(
            f"patch {img.width}x{img.height} needs {size} bytes (limit {MAX_DATAGRAM})"
        )
    return _header(TYPE_PATCH_UPLOAD) + struct.pack(">HH", img.width, img.height) + img.tobytes()


def _image_body(body: bytes, off: int) -> GrayImage:
    w, h = struct.unpack_from(">HH", body, off)
    if w == 0 or h == 0:
        raise ProtocolError("zero image dimension")
    need = off + 4 + w * h
    if len(body) < need:
        raise ProtocolError(f"short payload: {len(body)} < {need}")
    if len(body) > need:
        raise ProtocolError(f"trailing bytes: {len(body)} > {need}")
    raster = np.frombuffer(body, dtype=np.uint8, count=w * h, offset=off + 4)
    return GrayImage(raster.reshape(h, w))


def decode(data: bytes) -> Message:
    """Decode one datagram; never reads past it, rejects all truncations."""
    if len(data) < _HEADER.size:
        raise ProtocolError(f"short header: {len(data)} bytes")
    magic, version, msg_type = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"bad version {version}")
    body = data[_HEADER.size :]
    if msg_type == TYPE_FRAME_SAMPLE:
        if len(body) < 8:
            raise ProtocolError(f"short payload: {len(body)} < 8")
        frame_id = struct.unpack_from(">I", body)[0]
        return FrameSample(frame_id, _image_body(body, 4))
    if msg_type == TYPE_ROI_SELECT:
        if len(body) != 12:
            raise ProtocolError(f"roi payload must be 12 bytes, got {len(body)}")
        frame_id, x, y, w, h = struct.unpack(">IHHHH", body)
        if w == 0 or h == 0:
            raise ProtocolError("empty rect")
        return RoiSelect(frame_id, Rect(x, y, w, h))
    if msg_type == TYPE_PATCH_UPLOAD:
        if len(body) < 4:
            raise ProtocolError(f"short payload: {len(body)} < 4")
        return PatchUpload(_image_body(body, 0))
    raise ProtocolError(f"unknown type 0x{msg_type:02x}")


def decimate(img: GrayImage, every: int) -> GrayImage:
    """Keep every Nth pixel on both axes (exactly invertible for ROI rescale)."""
    if every < 1:
        raise ValueError(f"decimation factor must be >= 1, got {every}")
    return GrayImage(img.pixels[::every, ::every].copy())


def rescale_rect(r: Rect, factor: int) -> Rect:
    """Map a decimated-frame rect back to full-resolution pixels."""
    if factor < 1:
        raise ValueError(f"decimation factor must be >= 1, got {factor}")
    return Rect(r.x * factor, r.y * factor, r.w * factor, r.h * factor)


def open_socket(listen: Optional[tuple[str, int]] = None) -> socket.socket:
    """Non-blocking UDP socket, optionally bound to (host, port); closed again
    if the bind fails."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        if listen is not None:
            sock.bind(listen)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def poll_messages(sock: socket.socket) -> list[tuple[Message, tuple]]:
    """Read up to ``MAX_POLL_DATAGRAMS`` pending datagrams; malformed ones are dropped silently."""
    out = []
    for _ in range(MAX_POLL_DATAGRAMS):
        try:
            data, addr = sock.recvfrom(MAX_DATAGRAM + 1)
        except BlockingIOError:
            break
        try:
            out.append((decode(data), addr))
        except ProtocolError:
            continue
    return out
