import math

import numpy as np
import pytest

from oracles import rotate_patch_loops
from uastrack.errors import ConfigError
from uastrack.imagebuf import GrayImage
from uastrack.warp import build_bank, warp_patch


class TestWarpPatch:
    def test_zero_angle_is_identity(self, checker22x36):
        assert warp_patch(checker22x36, 0.0) == checker22x36

    def test_half_turn_is_double_flip(self, checker22x36):
        out = warp_patch(checker22x36, math.pi)
        assert np.array_equal(out.pixels, checker22x36.pixels[::-1, ::-1])

    def test_matches_scalar_oracle_at_10deg(self, checker22x36):
        out = warp_patch(checker22x36, math.radians(10.0))
        expected = np.array(rotate_patch_loops(checker22x36.pixels.tolist(), math.radians(10.0)))
        assert np.abs(out.pixels.astype(int) - expected).max() <= 1

    def test_matches_scalar_oracle_random(self, rng):
        patch = GrayImage(rng.integers(0, 256, (13, 9), dtype=np.uint8))
        for deg in (23.0, -61.5, 170.0):
            out = warp_patch(patch, math.radians(deg))
            expected = np.array(rotate_patch_loops(patch.pixels.tolist(), math.radians(deg)))
            assert np.abs(out.pixels.astype(int) - expected).max() <= 1

    def test_preserves_dimensions(self, checker22x36):
        out = warp_patch(checker22x36, 1.234)
        assert (out.width, out.height) == (22, 36)


class TestBuildBank:
    def test_default_bank_angles(self, checker22x36):
        bank = build_bank(checker22x36, 36, 10.0)
        assert len(bank) == 36
        assert bank.angles == tuple(float(a) for a in range(0, 360, 10))

    def test_entry_zero_is_input(self, checker22x36):
        bank = build_bank(checker22x36)
        assert bank.entries[0].patch is checker22x36

    def test_exact_quarter_bank(self, checker22x36):
        bank = build_bank(checker22x36, 4, 90.0)
        assert bank.angles == (0.0, 90.0, 180.0, 270.0)
        half_turn = bank.entries[2].patch
        assert np.array_equal(half_turn.pixels, checker22x36.pixels[::-1, ::-1])

    def test_rejects_non_360_cover(self, checker22x36):
        with pytest.raises(ConfigError):
            build_bank(checker22x36, 35, 10.0)

    def test_uniform_dimensions_and_increasing_angles(self, checker22x36):
        bank = build_bank(checker22x36)
        for e in bank.entries:
            assert (e.patch.width, e.patch.height) == (bank.base_width, bank.base_height)
        assert all(a < b for a, b in zip(bank.angles, bank.angles[1:]))

    @pytest.mark.parametrize("shape", [(36, 22), (13, 9), (8, 8), (2, 5), (1, 1)])
    def test_entries_equal_warp_patch_at_their_angles(self, rng, shape):
        patch = GrayImage(rng.integers(0, 256, shape, dtype=np.uint8))
        for count, step in ((36, 10.0), (4, 90.0), (24, 15.0)):
            bank = build_bank(patch, count, step)
            assert {90.0, 180.0, 270.0} <= set(bank.angles)
            for e in bank.entries:
                assert e.patch == warp_patch(patch, math.radians(e.angle_deg))
        half_turn = build_bank(patch).entries[18]
        assert np.array_equal(half_turn.patch.pixels, patch.pixels[::-1, ::-1])
