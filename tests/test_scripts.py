"""Smoke tests: the scripts run end to end, also at horizons too short for some columns."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from uastrack import imagebuf, matcher, scenesim, warp

ROOT = Path(__file__).resolve().parents[1]


def output_lines(script: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def load_script(script: str):
    """The script imported as a module, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(script.removesuffix(".py"), ROOT / "scripts" / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(script: str, *args: str) -> list[list[str]]:
    return [line.split() for line in output_lines(script, *args)[1:]]


def test_run_scenarios_shorter_than_settling_time():
    rows = table_rows("run_scenarios.py", "--frames", "20", "--seed", "7")
    assert [r[:3] for r in rows] == [["0.40", "7", name] for name in scenesim.BUILTIN_NAMES]
    assert all(r[7] == "nanpx" for r in rows)   # centering counts from frame 30


def test_sigma_sweep_single_frame():
    """``--sigmas`` sweeps every builtin and seed, in sigma order; a one-frame
    run has no Kalman-sized window, so the area columns read ``nan``."""
    rows = table_rows("run_scenarios.py", "--frames", "1", "--sigmas", "0.1,1.6", "--seeds", "1,3")
    assert [(float(r[0]), r[1], r[2]) for r in rows] == [
        (sigma, seed, name) for sigma in (0.1, 1.6) for seed in ("1", "3")
        for name in scenesim.BUILTIN_NAMES]
    assert all(r[8:10] == ["nan", "nan"] for r in rows)  # frame 0 scans the whole frame
    assert all(float(r[11]) > 0.0 for r in rows)


def test_run_scenarios_window_areas_leave_out_whole_frames():
    """``redetect`` re-scans whole frames after its misses; they are not windows."""
    rows = table_rows("run_scenarios.py", "--frames", "50")
    row = next(r for r in rows if r[2] == "redetect")
    sc = scenesim.make_scenario("redetect")
    patch = scenesim.target_patch(sc)
    full = matcher.valid_center_rect(patch.width, patch.height, sc.frame_w, sc.frame_h)
    assert int(row[5]) > 0   # a re-detection, so a whole-frame scan after frame 0
    assert float(row[8]) <= float(row[9]) < full.area


def test_behaviour_digest_is_repeatable():
    lines = output_lines("behaviour_digest.py", "--frames", "3")
    runs = [line.split() for line in lines]
    assert [r[:2] for r in runs] == [[name, seed] for name in scenesim.BUILTIN_NAMES
                                     for seed in ("1", "7")]
    assert all(len(r[2]) == len(r[3]) == len(r[5]) == 64 and r[4] == "3" for r in runs)  # a scan a frame
    assert output_lines("behaviour_digest.py", "--frames", "3") == lines


# ``behaviour_digest.py --frames 50``, field by field: each builtin at seeds
# 1 and 7, the sha256 of its track log, of every scan's window, threshold
# and match points, its scan count, and the sha256 of every rendered frame.
# Any change that keeps the loop's behaviour prints these lines.
DIGEST_50_FRAMES = (
    ("cv", "1",
     "98001b85284a60debf542ff958cc52452a7a1aee5ca3caa67963f622a28a1b78",
     "23d235e236d4ccdd3e78ad9af825cbeb9bf9a00e148441ff80786c571c4380d3", "50",
     "afda2aee43eab67d04811f89b15b0a0cb64a675d9808df43fb08ae3bbda4a6aa"),
    ("cv", "7",
     "170ce133a4d220e2aa45e41744e40943eaf8fa235dab5d4d2e1c5c10d180c4ab",
     "c66636e78c6b8322414d898c3f8921e6b9787e23b5610742b044ab5cafbc4695", "50",
     "6d6dea7658cdc6b3ba673c95879751c99be9d36469bc422cefa439cb71f713fa"),
    ("turn", "1",
     "bff0b5de74fb8960afac1acd01b930f23f515bc891a8eb0258fec02bae2e737a",
     "7ab0ce05b11064f803ec99eeb17069983c7123f092bd54ac1983dc210451f77f", "50",
     "9ba0509753ff429ac109d0360c1f2a09d4dbb6a6ad90b29baf0444e9c59e6286"),
    ("turn", "7",
     "11dac0629ad894123d3488c9d1c8646bf6b99e94a51c16b7e2ede593e3cdffa5",
     "c4d5168010557c9a5d6b21bb9eb020cfd17df6c2ff3f2a3837cd1858c3f1833d", "50",
     "e6d4a3eecd044cfde129d7804f88c707b9efecfeee6fea1ad9bfc6fbdf1edd1d"),
    ("spin", "1",
     "4d84c613fef6d4100a14b418679cedf4f4b550c245077125865d76ed1ad85233",
     "dbb9fa8d5f86b16ad873ab3f3ed3471666e7eefaa5c7582c3923736935d83ebb", "50",
     "fbe3ae4befe11a2c5630abed84baee563a87f98f55d2454ef6fa16031bf9b3b4"),
    ("spin", "7",
     "70d291276a5abf57d15e7a2e0a12b00c6cd8e7956397cacb6277f34f998476ae",
     "3a3b9579a3f1b575f28c91915740b2d169d5b60395bcb46dad4fd6a108c5ec10", "50",
     "1dbb67eb09fe525725dbda4de51edae402199849c3ebeb7d2a54326f9faa2bb9"),
    ("occlude", "1",
     "bc1bb5ee83d409120e53865671beef1ffc1931c4ed0c8d9b2a034f280de2907c",
     "5fff9c29667d6434dc3024e39e83a72a666fa3fc95ebaa715ac79823d114721e", "50",
     "711ccb345888032af7b50a529afa6bba1d99f0c867c301a5dd13ebeb2760c61f"),
    ("occlude", "7",
     "2abe8babc79fbb0694953741dd611a59d810333322679e3282937e82f7a51dad",
     "92d2ee1eb939ecc9ec60660d286e0257adad68c2f67a80b1155a8a0b8a313581", "50",
     "2d4a177ba36078f56e5a3a03e94496fd5bebbf41340466fc4a59e5db3b395083"),
    ("relight", "1",
     "0139f33d40c7a5629233979e8cc028cf16afe9fc64b6dc647faeb347700dc6d2",
     "c19757f813cb5027883a1c740a48389e6c9278e2b8633dde6ad0f7669c070448", "50",
     "5b161247afd4e33f3612e2d25c6ec2796ba539c5c2fb70b5f6a1110bcbef471f"),
    ("relight", "7",
     "22ce9ea27ac02f9e419f7bc610855ec16d07bf11a0650b9c835b52e33045fed1",
     "09604b0c48d05b006804e328f0d4c62b59231864fdf20e7586de3f8c111f6c6e", "50",
     "ba98f90c76de7f8e3721ef6f95138a1bad71e0cc68659f9d3e4f2b108618496b"),
    ("blurless-stopstart", "1",
     "3538f170c3e9c44b1823499d2397ba6e2d05ea78c8742e6d2aac59cdd7f918ec",
     "4e14af1338b8d5663e7e425dcd26673ced22f1e2627af96099098d2c03f182f2", "50",
     "232d3f03721026f5e1ca4f171d7584462d68c47e16227e4b7fa71e7882ffb3c0"),
    ("blurless-stopstart", "7",
     "525a220401cc6d4880c8aadb523f56e257c9362a6c7e99511c09299206b11c21",
     "d69d3db0d8d2806297cab25c3fe15de632efc823da9d7d51278fd3765eb09759", "50",
     "08fc3f769cc53504f79183c2cca422bb01c90ec4f5c0cddb0b0e607287fbb033"),
    ("redetect", "1",
     "ed775be22c4c7cbc44d67e69f013b5dfeb20040849e71d939f23f51d5fba82e8",
     "ed8aa760874c48dc94f74fffea9ba2d0dcf57e0ee35c1822e683938cb7268ead", "50",
     "18a4576235b2f36ef9455669956a7cc299261779af1d7e32f1d82c172853d09d"),
    ("redetect", "7",
     "a344c9d475d9a38a4c021a50f8093c71cd2ace5a12564f7df198cb659b4b74f5",
     "79e41ae15f4df7c34ccc9dd246c047b34652bcd42309bcb37074994a11806fa5", "50",
     "38dca9ca4a472d95b42f6dff9bc88cb7d1faeb83ca9d309aa9e11c301d18e2a7"),
)


def test_behaviour_digest_at_50_frames_is_pinned():
    lines = output_lines("behaviour_digest.py", "--frames", "50")
    assert [tuple(line.split()) for line in lines] == list(DIGEST_50_FRAMES)


def test_replay_scans_smoke():
    """One builtin's scans recorded, then replayed on this tree and on the
    same tree imported under another package name, with equal match points."""
    lines = output_lines("replay_scans.py", "--smoke", "--other", str(ROOT))
    assert lines[0].startswith("# 3 scans of cv at seeds 1, 3 frames, 1 rounds")
    assert lines[1].split() == ["tree", "kind", "scans", "median_ms", "range_ms"]
    rows = [line.split() for line in lines[2:] if not line.startswith("#")]
    assert [r[:3] for r in rows] == [["this", "frame_cold", "1"], ["this", "window_cold", "1"],
                                     ["this", "window_warm", "1"], ["other", "frame_cold", "1"],
                                     ["other", "window_cold", "1"], ["other", "window_warm", "1"]]
    assert all(float(r[3]) > 0.0 for r in rows)


def test_replay_scans_at_a_given_threshold():
    """Every recorded scan replayed at 0.5 in both trees, with equal match points."""
    lines = output_lines("replay_scans.py", "--smoke", "--threshold", "0.5", "--other", str(ROOT))
    assert lines[0].endswith(", 3 frames, 1 rounds, threshold 0.5")
    rows = [line.split() for line in lines[2:] if not line.startswith("#")]
    assert [r[:3] for r in rows] == [[tree, kind, "1"] for tree in ("this", "other")
                                     for kind in ("frame_cold", "window_cold", "window_warm")]


def test_replay_scans_builds_each_trees_banks_with_its_own_warp(tmp_path):
    """The other tree scans only banks of its own ``TemplateBank``, so a tree
    that keeps other state on a bank can be replayed against this one."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "uastrack" / "matcher.py", "a") as f:
        f.write(
            "\n_scan = scan\n\n\n"
            "def scan(img, bank, window, threshold=DEFAULT_THRESHOLD):\n"
            "    if type(bank) is not TemplateBank:\n"
            "        raise TypeError(f'a bank of {type(bank).__module__}')\n"
            "    return _scan(img, bank, window, threshold)\n"
        )
    lines = output_lines("replay_scans.py", "--smoke", "--other", str(tmp_path))
    assert [line.split()[0] for line in lines[2:] if not line.startswith("#")] == ["this"] * 3 + ["other"] * 3


def test_replay_scans_other_tree_scans_whole_frames_as_whole_frames():
    """An A/A replay hands the other tree windows of its own ``Rect``, so its
    whole frame fills its bank's one spectra array, ``kernel.frame``, at the
    band shape, and its windows and warm whole frame, as this tree's, fill
    no spectra and keep that array."""
    probe = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'scripts')!r})\n"
        "import replay_scans as rs\n"
        "from uastrack import imagebuf, matcher, warp\n"
        "scans, made = rs.record(['cv'], [1], 3)\n"
        "scans.append(scans[0])  # the whole frame again, warm\n"
        f"other = rs.import_tree(rs.Path({str(ROOT)!r}))\n"
        "slots, scan = [], other[0].scan\n"
        "def recording(img, bank, window, threshold):\n"
        "    points = scan(img, bank, window, threshold)\n"
        "    slots.append([list(bank.kernel.frame[0]), id(bank.kernel.frame[1])])\n"
        "    return points\n"
        "other[0].scan = recording\n"
        "fills = [{kind: staged[kind]['_fill_spectra'] > 0.0 for kind in rs.KINDS}\n"
        "         for staged in (rs.replay(tree, scans, made, stages=True)[1]\n"
        "                        for tree in ((matcher, warp, imagebuf), other))]\n"
        "print(json.dumps([fills, slots]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    fills, slots = json.loads(proc.stdout)
    kinds = {"frame_cold": True, "frame_warm": False, "window_cold": False, "window_warm": False}
    assert fills == [kinds] * 2
    whole = [240, 320]  # one worker's band: the whole 320x240 frame's padded shape
    assert slots == [slots[0]] * 4 and slots[0][0] == whole  # one array, kept by every scan


def test_replay_scans_times_each_stage():
    """With ``--stages``, each tree's scans run on one worker and a second table
    splits each kind's ms per scan into the scan's stages and the rest, and
    counts what passes through the stages."""
    lines = output_lines("replay_scans.py", "--smoke", "--stages", "--other", str(ROOT))
    assert lines[0].endswith(", recorded thresholds, one worker, stages timed")
    assert lines[8].split() == ["tree", "kind", "window_sums", "fill_spectra", "correlation",
                                "kept_positions", "candidate_pairs", "exact_top", "other",
                                "positions", "kept", "pairs", "tops"]
    rows = [line.split() for line in lines[9:] if not line.startswith("#")]
    assert [r[:2] for r in rows] == [[tree, kind] for tree in ("this", "other")
                                     for kind in ("frame_cold", "window_cold", "window_warm")]
    assert all(float(x) >= 0.0 for r in rows for x in r[2:9])  # stages nest inside the scan
    assert all(float(r[4]) > 0.0 for r in rows)  # every scan correlates
    # a bare bank fills in its first scan, a whole frame here; no window fills
    assert [float(r[3]) > 0.0 for r in rows] == [True, False, False] * 2
    counts = [[int(x) for x in r[9:]] for r in rows]
    assert counts[:3] == counts[3:]  # the same tree twice counts alike
    assert counts[0][0] == (320 - 22 + 1) * (240 - 36 + 1)  # a whole frame's positions
    # each scan of a tracked target keeps some positions and scores some tops
    assert all(positions >= kept >= tops > 0 and pairs > 0 for positions, kept, pairs, tops in counts)


def test_replay_scans_fails_when_the_trees_count_differently(tmp_path):
    """A tree whose position test keeps every position returns the same match
    points, but counts differently, and that fails the replay."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "uastrack" / "matcher.py", "a") as f:
        f.write(
            "\n_kept = _kept_positions\n\n\n"
            "def _kept_positions(c, kernel, bar, norm_f):\n"
            "    return _kept(c, kernel, np.full_like(bar, -np.inf), norm_f)\n"
        )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_scans.py"), "--smoke", "--stages",
         "--other", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == "# the trees' stages counted different positions or pairs\n"


def test_replay_scans_planted_smoke():
    """``planted`` scans noise frames with the target planted, each case on its
    own bank: one row per kind, the planted entry alone above 0.9 in every
    scan, and the one spectra array the banks kept in the closing line."""
    lines = output_lines("replay_scans.py", "--smoke", "--scenarios", "planted")
    assert lines[0].startswith("# 16 scans of planted at seeds 1, ")
    rows = [line.split() for line in lines[2:-1]]
    assert [r[:3] for r in rows] == [["this", "frame_cold", "1"], ["this", "frame_warm", "7"],
                                     ["this", "window_cold", "1"], ["this", "window_warm", "7"]]
    assert all(float(x) > 0.0 for r in rows for x in [r[3], *r[4].split("-")])
    tail = lines[-1].split()
    assert tail[:2] == ["#", "peak_rss_mb"] and tail[3:5] == ["this", "frame_spectra_mib"]
    assert len(tail) == 6  # one slot
    # 12 spectra at the band shape of a whole 320x240 frame, which the
    # 11x11-position window reads too
    shape = matcher._band_shape((240, 320), 36)
    assert float(tail[5]) == round(12 * shape[0] * (shape[1] // 2 + 1) * 16 / 2**20, 1)
    replay_scans = load_script("replay_scans.py")
    scans, made = replay_scans.record(["planted"], [1], 3)
    results = replay_scans.replay((matcher, warp, imagebuf), scans, made)[3]
    assert [len(points) for points in results] == [1] * 16


def test_replay_scans_records_frames_of_the_given_size():
    """``--frame 640x480`` runs the builtins at 640x480: a whole frame's
    positions are those of a 22x36 template in 640x480."""
    lines = output_lines("replay_scans.py", "--smoke", "--stages", "--frame", "640x480")
    row = next(line.split() for line in lines[6:] if line.startswith("this frame_cold"))
    assert int(row[9]) == (640 - 22 + 1) * (480 - 36 + 1)


@pytest.mark.parametrize("frame", ["320x", "320X240", "0x240", "320x240x3", "x240", "-320x240"])
def test_replay_scans_rejects_a_frame_not_of_two_positive_integers(frame, capsys):
    """A ``--frame`` that is not ``WxH`` with two positive integers exits 2
    with a usage line, before any scan is recorded."""
    with pytest.raises(SystemExit) as exit_info:
        load_script("replay_scans.py").main([f"--frame={frame}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"expected WxH, two positive integers, got {frame!r}" in err


@pytest.mark.parametrize("rounds", ["0", "-1", "two", "1.5"])
def test_replay_scans_rejects_rounds_not_a_positive_integer(rounds, capsys):
    """A ``--rounds`` below 1 once recorded every scan and then failed with a
    ``KeyError`` in the closing line; now it exits 2 with a usage line, before
    any scan is recorded."""
    with pytest.raises(SystemExit) as exit_info:
        load_script("replay_scans.py").main([f"--rounds={rounds}"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"expected a positive integer, got {rounds!r}" in err


def test_replay_scans_fails_when_a_tree_differs_between_rounds(tmp_path):
    """A tree whose ``scan`` drops a point on every other call returns other
    points in the second round than in the first, and that fails the replay."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "uastrack" / "matcher.py", "a") as f:
        f.write(
            "\n_scan = scan\n_calls = [0]\n\n\n"
            "def scan(img, bank, window, threshold=DEFAULT_THRESHOLD):\n"
            "    _calls[0] += 1\n"
            "    points = _scan(img, bank, window, threshold)\n"
            "    return points[1:] if _calls[0] % 2 else points\n"
        )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "replay_scans.py"), "--scenarios", "cv",
         "--frames", "3", "--rounds", "2"],
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == "# a tree returned different match points in different rounds\n"
