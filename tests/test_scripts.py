"""Smoke tests: the scripts run end to end, also at horizons too short for some columns."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

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
    whole frames keep their spectra in ``kernel.frame`` (the window slot
    stays empty until a window), and its warm whole frame, as this tree's,
    fills no spectra."""
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
        "    slots.append([slot and list(slot[0]) for slot in (bank.kernel.frame, bank.kernel.window)])\n"
        "    return points\n"
        "other[0].scan = recording\n"
        "fills = [{kind: staged[kind]['_fill_spectra'] > 0.0 for kind in ('frame_cold', 'frame_warm')}\n"
        "         for staged in (rs.replay(tree, scans, made, stages=True)[1]\n"
        "                        for tree in ((matcher, warp, imagebuf), other))]\n"
        "print(json.dumps([fills, slots]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    fills, slots = json.loads(proc.stdout)
    assert fills == [{"frame_cold": True, "frame_warm": False}] * 2
    whole = [240, 320]  # one worker's band: the whole 320x240 frame's padded shape
    assert slots[0] == [whole, None]  # the cold whole frame, in the frame slot
    assert [frame for frame, _ in slots] == [whole] * 4 and slots[1][1] is not None
    assert slots[3] == slots[2]  # the warm whole frame left both slots as they were


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
    assert all(float(r[3]) > 0.0 for r in rows if r[1].endswith("_cold"))  # a bare bank fills
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
    scan, and the spectra the banks kept in the closing line."""
    lines = output_lines("replay_scans.py", "--smoke", "--scenarios", "planted")
    assert lines[0].startswith("# 16 scans of planted at seeds 1, ")
    rows = [line.split() for line in lines[2:-1]]
    assert [r[:3] for r in rows] == [["this", "frame_cold", "1"], ["this", "frame_warm", "7"],
                                     ["this", "window_cold", "1"], ["this", "window_warm", "7"]]
    assert all(float(x) > 0.0 for r in rows for x in [r[3], *r[4].split("-")])
    tail = lines[-1].split()
    assert tail[:2] == ["#", "peak_rss_mb"] and tail[3] == "this"
    assert tail[4::2] == ["frame_spectra_mib", "window_spectra_mib"]
    frame_mib, window_mib = (float(x) for x in tail[5::2])
    # 12 spectra at the padded shape of the bands of a whole 320x240 frame, and
    # at the 48x32 of the 11x11-position window
    shape = matcher._band_shape((240, 320), 36)
    assert frame_mib == round(12 * shape[0] * (shape[1] // 2 + 1) * 16 / 2**20, 1)
    assert window_mib == round(12 * 48 * (32 // 2 + 1) * 16 / 2**20, 1)
    spec = importlib.util.spec_from_file_location("replay_scans", ROOT / "scripts" / "replay_scans.py")
    replay_scans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay_scans)
    scans, made = replay_scans.record(["planted"], [1], 3)
    results = replay_scans.replay((matcher, warp, imagebuf), scans, made)[3]
    assert [len(points) for points in results] == [1] * 16


def test_replay_scans_records_frames_of_the_given_size():
    """``--frame 640x480`` runs the builtins at 640x480: a whole frame's
    positions are those of a 22x36 template in 640x480."""
    lines = output_lines("replay_scans.py", "--smoke", "--stages", "--frame", "640x480")
    row = next(line.split() for line in lines[6:] if line.startswith("this frame_cold"))
    assert int(row[9]) == (640 - 22 + 1) * (480 - 36 + 1)


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
