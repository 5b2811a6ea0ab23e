import select

import pytest

from uastrack import groundlink, scenesim
from uastrack.gimbal import GimbalState
from uastrack.imagebuf import GrayImage
from uastrack.sim import LinkRuntime, scenario_optics
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
