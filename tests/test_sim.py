import math
import select

import pytest

from uastrack import groundlink, scenesim, tracker
from uastrack.gimbal import GimbalState
from uastrack.imagebuf import GrayImage, Rect, crop
from uastrack.sim import HELD_SAMPLES, LinkRuntime, RunReport, run_sim, scenario_optics
from uastrack.tracker import TrackerConfig, TrackerSession
from uastrack.warp import build_bank


@pytest.fixture
def sockets():
    payload = groundlink.open_socket(("127.0.0.1", 0))
    operator = groundlink.open_socket(("127.0.0.1", 0))
    yield payload, operator
    payload.close()
    operator.close()


def uplink(operator, payload, data: bytes) -> None:
    operator.sendto(data, payload.getsockname())
    assert select.select([payload], [], [], 5.0)[0], "datagram not delivered on loopback"


def test_report_of_no_frames_has_no_per_frame_time():
    """A run of no frames reports ``n/a`` per frame, as for the error with no
    truths, not its elapsed time over one frame."""
    report = RunReport.of([], [], 0.027)
    assert report.ms_per_frame is None
    assert report.summary() == "frames=0 tracked=0 miss=0 redetect=0 mean_abs_err=n/a ms_per_frame=n/a"


def test_errors_of_a_run_whose_first_frames_are_skipped_take_their_own_frames_truth(sockets):
    """With the link awaiting a patch, frames 0-4 are rendered but not
    processed, so a detection's frame of the scenario is five past its
    ``frame_index``; its error is taken against that frame's truth."""
    payload, operator = sockets
    sc = scenesim.make_scenario("cv", frames=20)
    skipped = 5

    class LateUpload(LinkRuntime):
        def on_frame(self, k, frame, session):
            if k == skipped:
                uplink(operator, payload, groundlink.encode_patch_upload(scenesim.target_patch(sc)))
            super().on_frame(k, frame, session)

    link = LateUpload(payload, sample_every=4, await_roi=True)
    result = run_sim(sc, TrackerConfig(optics=scenario_optics(sc)), link=link)
    assert [o.frame_index for o in result.outcomes] == list(range(sc.frames - skipped))
    assert len(result.truths) == sc.frames

    def mean_error(offset):
        errors = [math.hypot(o.detection.x - result.truths[offset + o.frame_index][0],
                             o.detection.y - result.truths[offset + o.frame_index][1])
                  for o in result.outcomes if o.detection is not None]
        return sum(errors) / len(errors)

    assert result.report.frames_processed == sc.frames - skipped
    assert result.report.mean_abs_pixel_error == mean_error(skipped) < 1.0
    assert mean_error(0) > 1.0  # the truths of the frames the outcomes' indices name


class TestLinkRuntime:
    def test_oversize_patch_dropped_then_valid_patch_applied(self, sockets):
        payload, operator = sockets
        sc = scenesim.make_scenario("cv", frames=3)
        cfg = TrackerConfig(optics=scenario_optics(sc))
        session = TrackerSession(build_bank(scenesim.target_patch(sc)), cfg)
        frame = scenesim.render(sc, GimbalState(), 0)
        session.process(frame)
        bank, state = session.bank, session.state
        assert state is not None
        link = LinkRuntime(payload, sample_every=4)

        # 250x250 fits one datagram but not the 320x240 frame
        uplink(operator, payload, groundlink.encode_patch_upload(GrayImage.full(250, 250, 90)))
        link.on_frame(1, frame, session)
        assert session.bank is bank and session.state is state

        patch = scenesim.default_target_patch(5)
        uplink(operator, payload, groundlink.encode_patch_upload(patch))
        link.on_frame(2, frame, session)
        assert session.bank.entries[0].patch == patch
        assert session.state is None

    def test_sample_every_below_one_rejected(self, sockets):
        with pytest.raises(ValueError, match="sample_every"):
            LinkRuntime(sockets[0], sample_every=0)

    def test_burst_of_uploads_builds_one_bank(self, sockets, monkeypatch):
        payload, operator = sockets
        sc = scenesim.make_scenario("cv", frames=2)
        session = TrackerSession(None, TrackerConfig(optics=scenario_optics(sc)))
        built = []

        def counting_build_bank(*args):
            built.append(args[0])
            return build_bank(*args)

        monkeypatch.setattr(tracker, "build_bank", counting_build_bank)
        patches = [scenesim.default_target_patch(seed) for seed in range(1, 6)]
        for patch in patches:
            operator.sendto(groundlink.encode_patch_upload(patch), payload.getsockname())
        assert select.select([payload], [], [], 5.0)[0]
        LinkRuntime(payload, sample_every=4).on_frame(0, scenesim.render(sc, GimbalState(), 0), session)
        assert built == [patches[-1]]
        assert session.bank.entries[0].patch == patches[-1]

    def test_late_roi_crops_the_frame_it_names(self, sockets):
        payload, operator = sockets
        sc = scenesim.make_scenario("cv", frames=40)
        session = TrackerSession(None, TrackerConfig(optics=scenario_optics(sc)))
        link = LinkRuntime(payload, sample_every=2, peer=operator.getsockname())
        frames = [scenesim.render(sc, GimbalState(), k) for k in range(sc.frames)]
        for k in range(8):  # samples of frames 0, 2, 4 and 6 go down
            link.on_frame(k, frames[k], session)
        gx, gy, _ = scenesim.ground_truth(sc, GimbalState(), 2)
        rect = Rect(int(gx) // 2 - 8, int(gy) // 2 - 12, 16, 24)  # decimated px around the target
        full = groundlink.rescale_rect(rect, 2)
        assert crop(frames[2], full) != crop(frames[8], full)  # the target has moved since
        uplink(operator, payload, groundlink.encode_roi_select(2, rect))
        link.on_frame(8, frames[8], session)  # six frames late
        assert session.bank.entries[0].patch == crop(frames[2], full)

        bank = session.bank
        for frame_id in (7, 1000):  # never sent down: an odd frame, a future one
            uplink(operator, payload, groundlink.encode_roi_select(frame_id, rect))
            link.on_frame(9, frames[9], session)
            assert session.bank is bank
        for k in range(10, 10 + 2 * HELD_SAMPLES):  # frame 2 leaves the held samples
            link.on_frame(k, frames[k], session)
        assert 2 not in link.held and len(link.held) == HELD_SAMPLES
        uplink(operator, payload, groundlink.encode_roi_select(2, rect))
        link.on_frame(26, frames[26], session)
        assert session.bank is bank
