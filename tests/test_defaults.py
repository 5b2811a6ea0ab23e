"""Each default is written once; every module that shares one reads it from its owner."""

import pytest

from uastrack import scenesim
from uastrack.cli import build_parser
from uastrack.sim import scenario_optics
from uastrack.tracker import OpticsConfig, TrackerConfig
from uastrack.warp import build_bank


@pytest.mark.parametrize("name", scenesim.BUILTIN_NAMES)
def test_builtin_scenarios_have_the_default_optics(name):
    assert scenario_optics(scenesim.make_scenario(name)) == OpticsConfig()


@pytest.mark.parametrize("name", scenesim.BUILTIN_NAMES)
def test_make_scenario_defaults_are_the_scenario_defaults(name):
    made, bare = scenesim.make_scenario(name), scenesim.Scenario(name)
    for field in ("frame_w", "frame_h", "frames", "seed", "patch_w", "patch_h", "hfov",
                  "counts_per_radian"):
        assert getattr(made, field) == getattr(bare, field), field
    patch = scenesim.target_patch(made)
    assert patch == scenesim.default_target_patch(made.seed)
    assert (patch.width, patch.height) == (bare.patch_w, bare.patch_h)


def test_default_bank_has_the_tracker_configs_count_and_step():
    cfg = TrackerConfig()
    bank = build_bank(scenesim.default_target_patch(7))
    assert len(bank) == cfg.bank_count
    assert bank.angles == tuple(k * cfg.bank_step_deg for k in range(cfg.bank_count))


def test_commands_parse_the_same_defaults():
    parser = build_parser()
    sim = parser.parse_args(["sim", "--scenario", "cv"])
    serve = parser.parse_args(["serve", "--scenario", "cv", "--listen", "127.0.0.1:0"])
    track = parser.parse_args(["track", "--frames", "f", "--template", "t"])
    bank = parser.parse_args(["bank", "--template", "t", "--out", "o"])
    for name in ("frames", "seed", "dt"):
        assert getattr(sim, name) == getattr(serve, name), name
    assert (sim.frames, sim.seed) == (scenesim.Scenario.frames, scenesim.Scenario.seed)
    assert track.dt == sim.dt
    assert bank.count == TrackerConfig().bank_count
