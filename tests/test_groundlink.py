import select

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uastrack.errors import ProtocolError
from uastrack.groundlink import (
    MAX_DATAGRAM,
    MAX_POLL_DATAGRAMS,
    FrameSample,
    PatchUpload,
    RoiSelect,
    decimate,
    decode,
    encode_frame_sample,
    encode_patch_upload,
    encode_roi_select,
    open_socket,
    poll_messages,
    rescale_rect,
)
from uastrack.imagebuf import GrayImage, Rect


def image(w, h, seed=0):
    return GrayImage(np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8))


class TestFrameSample:
    def test_frozen_length_2x2(self):
        data = encode_frame_sample(7, image(2, 2))
        assert len(data) == 16  # 4 header + 4 id + 2 w + 2 h + 4 samples

    def test_roundtrip(self):
        img = image(160, 120, seed=3)
        msg = decode(encode_frame_sample(41, img))
        assert msg == FrameSample(41, img)

    def test_truncated_last_byte(self):
        data = encode_frame_sample(7, image(4, 4))
        with pytest.raises(ProtocolError, match="short payload"):
            decode(data[:-1])

    def test_oversize_rejected_at_encode(self):
        with pytest.raises(ProtocolError, match="decimate"):
            encode_frame_sample(1, image(300, 300))
        # boundary: exactly at the datagram limit still encodes
        w, h = 65495, 1
        assert len(encode_frame_sample(0, GrayImage.full(w, h, 0))) == MAX_DATAGRAM


class TestRoiSelect:
    def test_frozen_length_16(self):
        data = encode_roi_select(7, Rect(10, 20, 22, 36))
        assert len(data) == 16
        assert decode(data) == RoiSelect(7, Rect(10, 20, 22, 36))

    def test_empty_rect_rejected_on_decode(self):
        data = bytearray(encode_roi_select(7, Rect(10, 20, 22, 36)))
        data[12:14] = (0).to_bytes(2, "big")  # zero out w
        with pytest.raises(ProtocolError, match="empty rect"):
            decode(bytes(data))

    def test_rescale_by_decimation_factor(self):
        assert rescale_rect(Rect(10, 20, 22, 36), 4) == Rect(40, 80, 88, 144)


class TestPatchUpload:
    def test_frozen_length_22x36(self):
        img = image(22, 36, seed=5)
        data = encode_patch_upload(img)
        assert len(data) == 800  # 8 + 792
        assert decode(data) == PatchUpload(img)

    def test_short_payload(self):
        img = image(22, 36, seed=5)
        with pytest.raises(ProtocolError, match="short payload"):
            decode(encode_patch_upload(img)[: 8 + 791])


class TestHeaderValidation:
    def test_bad_magic(self):
        data = bytearray(encode_roi_select(1, Rect(0, 0, 1, 1)))
        data[0] = 0x00
        with pytest.raises(ProtocolError, match="magic"):
            decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(encode_roi_select(1, Rect(0, 0, 1, 1)))
        data[2] = 9
        with pytest.raises(ProtocolError, match="version"):
            decode(bytes(data))

    def test_unknown_type(self):
        data = bytearray(encode_roi_select(1, Rect(0, 0, 1, 1)))
        data[3] = 0x7F
        with pytest.raises(ProtocolError, match="unknown type"):
            decode(bytes(data))

    def test_trailing_bytes_rejected(self):
        data = encode_patch_upload(image(3, 3))
        with pytest.raises(ProtocolError, match="trailing"):
            decode(data + b"\x00")


class TestDecimate:
    def test_every_second_pixel(self):
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        small = decimate(img, 2)
        assert small.pixels.tolist() == [[0, 2], [8, 10]]

    def test_factor_one_is_identity(self):
        img = image(5, 7)
        assert decimate(img, 1) == img


@given(
    frame_id=st.integers(0, 2**32 - 1),
    w=st.integers(1, 24),
    h=st.integers(1, 24),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60)
def test_frame_sample_roundtrip_property(frame_id, w, h, seed):
    img = image(w, h, seed)
    assert decode(encode_frame_sample(frame_id, img)) == FrameSample(frame_id, img)


@given(
    frame_id=st.integers(0, 2**32 - 1),
    x=st.integers(0, 1000),
    y=st.integers(0, 1000),
    w=st.integers(1, 2000),
    h=st.integers(1, 2000),
)
@settings(max_examples=60)
def test_roi_roundtrip_property(frame_id, x, y, w, h):
    r = Rect(x, y, w, h)
    assert decode(encode_roi_select(frame_id, r)) == RoiSelect(frame_id, r)


@given(w=st.integers(1, 24), h=st.integers(1, 24), seed=st.integers(0, 2**16))
@settings(max_examples=60)
def test_patch_roundtrip_property(w, h, seed):
    img = image(w, h, seed)
    assert decode(encode_patch_upload(img)) == PatchUpload(img)


@given(w=st.integers(1, 10), h=st.integers(1, 10), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_every_strict_prefix_rejected(w, h, seed):
    data = encode_frame_sample(1, image(w, h, seed))
    for cut in range(len(data)):
        with pytest.raises(ProtocolError):
            decode(data[:cut])


class TestPollMessages:
    def test_flood_is_read_at_most_the_cap_per_call(self):
        payload = open_socket(("127.0.0.1", 0))
        operator = open_socket(("127.0.0.1", 0))
        try:
            sent = MAX_POLL_DATAGRAMS + 5
            for k in range(sent):
                operator.sendto(encode_roi_select(k, Rect(1, 2, 3, 4)), payload.getsockname())
            assert select.select([payload], [], [], 5.0)[0]
            first = poll_messages(payload)
            assert [m.frame_id for m, _ in first] == list(range(MAX_POLL_DATAGRAMS))
            assert select.select([payload], [], [], 5.0)[0], "leftovers left the socket"
            rest = poll_messages(payload)
            assert [m.frame_id for m, _ in rest] == list(range(MAX_POLL_DATAGRAMS, sent))
            assert poll_messages(payload) == []
        finally:
            payload.close()
            operator.close()
