import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from uastrack import matcher, scenesim
from uastrack.cli import load_config, main, run_bench, tracker_config
from uastrack.errors import ConfigError
from uastrack.groundlink import (
    FrameSample,
    decode,
    encode_patch_upload,
    encode_roi_select,
)
from uastrack.imagebuf import GrayImage, Rect, load_pgm, save_pgm
from uastrack.tracker import TrackerConfig

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def template_file(tmp_path):
    patch = scenesim.default_target_patch(7)
    path = tmp_path / "template.pgm"
    path.write_bytes(save_pgm(patch))
    return str(path)


class TestConfig:
    def test_defaults_when_no_file(self):
        cfg = load_config(None)
        assert cfg["threshold"] == 0.9
        assert cfg["sigma"] == 0.4
        assert cfg["miss_limit"] == 5

    def test_defaults_are_the_dataclass_defaults(self):
        assert tracker_config(load_config(None)) == TrackerConfig()

    def test_defaults_match_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Defaults:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        # compare as JSON text so 10 vs 10.0 or 29.999999999999996 vs 30.0 differ
        documented = json.dumps(json.loads(block), sort_keys=True)
        assert json.dumps(load_config(None), sort_keys=True) == documented

    def test_merge_overrides(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"threshold": 0.85, "kappa": 2.5}))
        cfg = load_config(str(p))
        assert cfg["threshold"] == 0.85
        assert cfg["kappa"] == 2.5
        assert cfg["sigma"] == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"thresold": 0.8}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(str(p))

    def test_non_numeric_value_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"threshold": "high"}))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_bank_step_key_rejected(self, tmp_path):
        """The step follows from ``bank_count``; it is not a setting."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bank_step_deg": 10.0}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(str(p))

    @pytest.mark.parametrize(
        "key, value, ok",
        [("miss_limit", 2.7, False), ("frame_w", 320.9, False), ("bank_count", 36.5, False),
         ("frame_h", 240.25, False), ("sample_every", 4.5, False), ("sample_every", 0, False),
         ("sample_every", -4, False), ("miss_limit", 3.0, True), ("sample_every", 1, True)],
    )
    def test_integer_keys_take_only_integers(self, tmp_path, key, value, ok):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({key: value}))
        if ok:
            assert tracker_config(load_config(str(p))) is not None
            assert load_config(str(p))[key] == value
        else:
            with pytest.raises(ConfigError, match=key):
                load_config(str(p))


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["sim", "--scenario", "cv", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_unknown_scenario(self):
        assert main(["sim", "--scenario", "warpdrive"]) == 1

    def test_missing_template_file(self, tmp_path):
        code = main(
            ["track", "--frames", str(tmp_path), "--template", str(tmp_path / "no.pgm")]
        )
        assert code == 2

    def test_sim_rejects_a_nan_dt(self, capsys):
        assert main(["sim", "--scenario", "cv", "--frames", "5", "--dt", "nan", "--quiet"]) == 1
        assert "dt must be positive and finite, got nan" in capsys.readouterr().err

    def test_non_finite_config_value_is_an_error_before_any_frame(self, tmp_path):
        """JSON's ``Infinity`` and ``NaN`` parse; an infinite kappa once
        overflowed in ``ekf.search_window`` after frames had run."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"kappa": Infinity}')
        proc = subprocess.run(
            [sys.executable, "-m", "uastrack.cli", "sim", "--scenario", "cv", "--frames", "8",
             "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "error: kappa must be positive and finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "frame" not in proc.stdout

    @pytest.mark.parametrize("written", ["200", "0", "180", "-5", "NaN"])
    def test_field_of_view_out_of_range_is_named_in_degrees(self, tmp_path, capsys, written):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"hfov_deg": {written}}}')
        args = ["sim", "--scenario", "cv", "--frames", "2", "--config", str(cfg), "--quiet"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"hfov_deg must be in (0, 180), got {written}\n" in err
        assert "Traceback" not in err

    def test_field_of_view_just_under_180_degrees_is_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"hfov_deg": 179.9}')
        args = ["sim", "--scenario", "cv", "--frames", "2", "--config", str(cfg), "--quiet"]
        assert main(args) == 0

    def test_config_error_is_one(self, tmp_path, template_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code = main(
            ["sim", "--scenario", "cv", "--frames", "5", "--config", str(cfg), "--quiet"]
        )
        assert code == 1


class TestSim:
    def test_deterministic_logs(self, tmp_path):
        logs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code = main(
                [
                    "sim",
                    "--scenario",
                    "cv",
                    "--frames",
                    "40",
                    "--seed",
                    "1",
                    "--log",
                    str(path),
                    "--quiet",
                ]
            )
            assert code == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_config_field_of_view_reaches_the_scenario(self, tmp_path):
        """``hfov_deg`` sets the simulated camera's field of view too, so the
        gimbal's pixels per count and the log follow it; 30 is the default."""
        logs = []
        for hfov_deg in (None, 30.0, 10.0):
            args = ["sim", "--scenario", "cv", "--frames", "40", "--seed", "1", "--quiet"]
            if hfov_deg is not None:
                cfg = tmp_path / f"hfov{hfov_deg}.json"
                cfg.write_text(json.dumps({"hfov_deg": hfov_deg}))
                args += ["--config", str(cfg)]
            log = tmp_path / f"log{hfov_deg}.csv"
            assert main([*args, "--log", str(log)]) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert logs[2] != logs[0]

    def test_dump_frames_and_ground_truth(self, tmp_path):
        dump = tmp_path / "frames"
        code = main(
            [
                "sim",
                "--scenario",
                "spin",
                "--frames",
                "6",
                "--log",
                str(tmp_path / "log.csv"),
                "--dump-frames",
                str(dump),
                "--quiet",
            ]
        )
        assert code == 0
        pgms = sorted(dump.glob("frame_*.pgm"))
        assert len(pgms) == 6
        img = load_pgm(pgms[0].read_bytes())
        assert (img.width, img.height) == (320, 240)
        gt_lines = (dump / "ground_truth.csv").read_text().splitlines()
        assert gt_lines[0] == "frame,x,y,angle_deg"
        assert len(gt_lines) == 7


class TestTrack:
    def test_track_over_dumped_frames(self, tmp_path, template_file):
        dump = tmp_path / "frames"
        assert (
            main(
                [
                    "sim", "--scenario", "cv", "--frames", "12",
                    "--dump-frames", str(dump), "--quiet",
                ]
            )
            == 0
        )
        log = tmp_path / "track.csv"
        code = main(
            [
                "track",
                "--frames",
                str(dump),
                "--template",
                template_file,
                "--log",
                str(log),
                "--quiet",
            ]
        )
        assert code == 0
        assert len(log.read_text().splitlines()) == 13

    def test_never_acquired_is_exit_3(self, tmp_path, template_file):
        frames = tmp_path / "frames"
        frames.mkdir()
        for k in range(3):
            (frames / f"f{k}.pgm").write_bytes(save_pgm(GrayImage.full(320, 240, 128)))
        code = main(
            ["track", "--frames", str(frames), "--template", template_file, "--quiet"]
        )
        assert code == 3


class TestBank:
    def test_emits_numbered_pgms(self, tmp_path, template_file):
        out = tmp_path / "bank"
        assert main(["bank", "--template", template_file, "--out", str(out)]) == 0
        files = sorted(out.glob("*.pgm"))
        assert len(files) == 36
        assert files[0].name == "bank_00_000deg.pgm"
        first = load_pgm(files[0].read_bytes())
        assert first == load_pgm(Path(template_file).read_bytes())

    def test_any_count_sets_its_own_step(self, tmp_path, template_file):
        """39 x (360/39) is not 360.0 in floats; the count alone sets the step."""
        out = tmp_path / "bank"
        assert main(["bank", "--template", template_file, "--out", str(out), "--count", "39"]) == 0
        assert len(list(out.glob("*.pgm"))) == 39

    def test_count_below_one_is_a_usage_error(self, tmp_path, template_file, capsys):
        out = tmp_path / "bank"
        assert main(["bank", "--template", template_file, "--out", str(out), "--count", "0"]) == 1
        err = capsys.readouterr().err
        assert "--count" in err and "Traceback" not in err
        assert not out.exists()


class TestBench:
    def test_windowed_faster_than_full(self):
        r = run_bench(320, 240, scenesim.default_target_patch(7), window_px=48, reps=1)
        assert r.full_ms > r.windowed_ms
        assert r.speedup > 1.0

    def test_plants_the_template_it_is_given(self, monkeypatch):
        """The bench frame holds the template the bank is built from, not the
        default seed-11 pattern, so the windowed scan finds it at the truth:
        a static target at the frame's centre, about which the window is
        placed as a template is (``template_origin``)."""
        patch = scenesim.default_target_patch(7)
        real_scan = matcher.scan
        scans = []

        def recording(img, bank, window, threshold):
            points = real_scan(img, bank, window, threshold)
            scans.append((img, window, points))
            return points

        monkeypatch.setattr(matcher, "scan", recording)
        run_bench(160, 120, patch, window_px=48, reps=1)
        img, window, points = scans[-1]
        best = max(points, key=lambda p: p.score)
        assert (best.u, best.v, best.angle_deg) == ((160 - 1) // 2, (120 - 1) // 2, 0.0)
        assert window == Rect(matcher.template_origin(best.u, 48), matcher.template_origin(best.v, 48), 48, 48)
        assert matcher.zmncc(img, patch, best.u, best.v) == 1.0

    def test_first_window_scan_is_timed_apart(self, monkeypatch):
        """A slow first window scan lands in ``windowed_cold_ms``, not in the warm mean."""
        patch = scenesim.default_target_patch(7)
        full = matcher.valid_center_rect(patch.width, patch.height, 160, 120)
        real_scan = matcher.scan
        windows = []

        def counting_scan(img, bank, window, threshold):
            if window != full:
                windows.append(window)
                if len(windows) == 1:
                    time.sleep(0.3)
            return real_scan(img, bank, window, threshold)

        monkeypatch.setattr(matcher, "scan", counting_scan)
        r = run_bench(160, 120, patch, window_px=48, reps=2)
        assert len(windows) == 3  # the first scan, then reps timed ones
        assert r.windowed_cold_ms >= 300.0
        assert r.windowed_ms < 150.0
        assert r.speedup == r.full_ms / r.windowed_ms

    def test_prints_timings_with_core_count_and_numpy_version(self, capsys):
        assert main(["bench", "--width", "160", "--height", "120", "--reps", "1"]) == 0
        line = capsys.readouterr().out.strip()
        fields = dict(part.strip().rsplit(" ", 1) for part in line.split(",")[-2:])
        assert fields == {"workers": str(matcher._WORKERS), "numpy": np.__version__}
        assert int(fields["workers"]) >= 1
        assert line.startswith("full-frame ") and "speedup " in line


class TestServe:
    def _run_serve(self, args):
        result = {}

        def runner():
            result["code"] = main(args)

        t = threading.Thread(target=runner, daemon=True)
        t.start()
        return t, result

    def test_serve_streams_frames_and_accepts_roi(self, tmp_path):
        ground = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ground.bind(("127.0.0.1", 0))
        ground.settimeout(5.0)
        gport = ground.getsockname()[1]

        serve_sock_port = _free_port()
        log = tmp_path / "serve.csv"
        t, result = self._run_serve(
            [
                "serve",
                "--listen",
                f"127.0.0.1:{serve_sock_port}",
                "--scenario",
                "spin",
                "--frames",
                "40",
                "--log",
                str(log),
                "--quiet",
            ]
        )
        # operator comes up and selects a static background region far from
        # the spinning target; any inbound datagram also tells the payload
        # where to send frame samples
        time.sleep(0.05)
        ground.sendto(
            encode_roi_select(0, Rect(5, 5, 8, 9)), ("127.0.0.1", serve_sock_port)
        )
        data, _ = ground.recvfrom(65536)
        msg = decode(data)
        assert isinstance(msg, FrameSample)
        assert (msg.image.width, msg.image.height) == (80, 60)  # 320x240 / 4
        t.join(timeout=60)
        assert result["code"] == 0
        assert log.exists()
        ground.close()

    def test_await_roi_tracks_operator_patch(self, tmp_path):
        ground = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        ground.bind(("127.0.0.1", 0))
        ground.settimeout(5.0)

        port = _free_port()
        log = tmp_path / "serve.csv"
        t, result = self._run_serve(
            [
                "serve",
                "--listen",
                f"127.0.0.1:{port}",
                "--scenario",
                "cv",
                "--frames",
                "220",
                "--await-roi",
                "--log",
                str(log),
                "--quiet",
            ]
        )
        time.sleep(0.05)
        patch = scenesim.target_patch(scenesim.make_scenario("cv"))
        for _ in range(3):  # uploads may be repeated; datagrams can drop
            ground.sendto(encode_patch_upload(patch), ("127.0.0.1", port))
            time.sleep(0.02)
        t.join(timeout=60)
        assert result["code"] == 0
        rows = log.read_text().splitlines()
        assert len(rows) > 2
        assert any(",tracking," in row for row in rows)
        ground.close()

    def test_serve_that_never_acquires_exits_3(self, capsys):
        """With ``--await-roi`` and no operator, no frame is processed: the
        run prints a summary with no per-frame time and exits 3, as it does
        for ``sim`` and ``track`` when nothing was acquired."""
        code = main(["serve", "--listen", "127.0.0.1:0", "--scenario", "cv", "--frames", "5",
                     "--await-roi", "--quiet"])
        assert code == 3
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == "frames=0 tracked=0 miss=0 redetect=0 mean_abs_err=n/a ms_per_frame=n/a"

    @pytest.mark.parametrize("args", [
        ["serve", "--listen", "127.0.0.1:99999", "--scenario", "cv", "--frames", "1", "--quiet"],
        ["serve", "--listen", "127.0.0.1:0", "--peer", "127.0.0.1:70000", "--scenario", "cv",
         "--frames", "1", "--quiet"],
        ["roi", "--send", "127.0.0.1:70000", "--frame", "0", "--rect", "1,2,3,4"],
    ], ids=["listen", "peer", "send"])
    def test_out_of_range_port_is_a_usage_error(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "uastrack.cli", *args],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert "error: port must be in 0-65535" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_serve_on_a_bound_port_closes_its_socket(self, capsys):
        taken = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        taken.bind(("127.0.0.1", 0))
        port = taken.getsockname()[1]
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["serve", "--listen", f"127.0.0.1:{port}", "--scenario", "cv",
                             "--frames", "1", "--quiet"])
                gc.collect()
        finally:
            taken.close()
        assert code == 2
        assert "i/o error" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_roi_command_sends_datagram(self):
        sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sink.bind(("127.0.0.1", 0))
        sink.settimeout(5.0)
        port = sink.getsockname()[1]
        code = main(
            ["roi", "--send", f"127.0.0.1:{port}", "--frame", "9", "--rect", "1,2,3,4"]
        )
        assert code == 0
        data, _ = sink.recvfrom(65536)
        msg = decode(data)
        assert msg.frame_id == 9
        assert msg.rect == Rect(1, 2, 3, 4)
        sink.close()


def _free_port() -> int:
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port
