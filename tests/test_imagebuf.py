import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uastrack.errors import BoundsError, PgmError
from uastrack.imagebuf import GrayImage, Rect, crop, load_pgm, save_pgm


class TestGrayImage:
    def test_shape_and_indexing(self):
        img = GrayImage(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8))
        assert (img.width, img.height) == (3, 2)
        assert img.pixels[1, 2] == 6
        assert img.tobytes() == bytes([1, 2, 3, 4, 5, 6])

    def test_immutable(self):
        img = GrayImage.full(2, 2, 9)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[300, 0]], dtype=np.int32))
        with pytest.raises(ValueError):
            GrayImage(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            GrayImage(np.zeros(4, dtype=np.uint8))

    def test_rect_positive_size(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 4)


def pixels_of(r):
    return {(x, y) for y in range(r.y, r.y2) for x in range(r.x, r.x2)}


rects = st.builds(Rect, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 8), st.integers(1, 8))


class TestRect:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rects, rects)
    @example(Rect(0, 0, 3, 3), Rect(3, 0, 3, 3))  # edges touch: no shared pixel
    @example(Rect(0, 0, 3, 3), Rect(2, 2, 3, 3))  # one shared pixel
    def test_clip_is_the_shared_pixels(self, a, b):
        """``clip`` covers exactly the pixels of both rects, and is None
        exactly when they share none."""
        shared = pixels_of(a) & pixels_of(b)
        clipped = a.clip(b)
        assert (clipped is None) == (not shared)
        assert clipped is None or pixels_of(clipped) == shared


class TestPgm:
    def test_load_minimal(self):
        img = load_pgm(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        assert (img.width, img.height) == (2, 2)
        assert list(img.pixels.ravel()) == [0, 255, 128, 64]

    def test_save_minimal(self):
        assert save_pgm(GrayImage.full(1, 1, 7)) == b"P5\n1 1\n255\n" + bytes([7])

    def test_header_order_width_first(self):
        data = save_pgm(GrayImage.full(2, 3, 0))
        assert data.startswith(b"P5\n2 3\n255\n")

    def test_comments_anywhere_in_header(self):
        data = b"P5 # magic\n# a comment line\n 2 # width\n2\n#pre-maxval\n255\n" + bytes(4)
        img = load_pgm(data)
        assert (img.width, img.height) == (2, 2)

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            load_pgm(b"P2\n2 2\n255\n" + bytes(4))
        with pytest.raises(PgmError, match="magic"):
            load_pgm(b"JUNK")

    def test_bad_maxval(self):
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_truncated_payload(self):
        with pytest.raises(PgmError, match="truncated pixel payload"):
            load_pgm(b"P5\n3 2\n255\n" + bytes(5))

    def test_zero_dimension(self):
        with pytest.raises(PgmError, match="zero"):
            load_pgm(b"P5\n0 2\n255\n")

    def test_roundtrip_canonical_bytes(self, rng):
        pixels = rng.integers(0, 256, (5, 9), dtype=np.uint8)
        canonical = b"P5\n9 5\n255\n" + pixels.tobytes()
        assert save_pgm(load_pgm(canonical)) == canonical

    @given(
        w=st.integers(1, 24),
        h=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_identity_property(self, w, h, seed):
        pixels = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
        img = GrayImage(pixels)
        assert load_pgm(save_pgm(img)) == img


class TestCrop:
    def test_identity_crop(self, ramp4):
        assert crop(ramp4, Rect(0, 0, 4, 4)) == ramp4

    def test_interior_crop_frozen(self, ramp4):
        # index arithmetic: samples at rows 1-2, cols 1-2 of a 0..15 ramp
        out = crop(ramp4, Rect(1, 1, 2, 2))
        assert out.pixels.tolist() == [[5, 6], [9, 10]]

    def test_out_of_bounds(self, ramp4):
        with pytest.raises(BoundsError):
            crop(ramp4, Rect(3, 3, 2, 2))

    def test_crop_composes(self, rng):
        img = GrayImage(rng.integers(0, 256, (12, 10), dtype=np.uint8))
        a = Rect(2, 3, 7, 8)
        b = Rect(1, 2, 4, 5)
        composed = Rect(a.x + b.x, a.y + b.y, b.w, b.h)
        assert crop(crop(img, a), b) == crop(img, composed)
