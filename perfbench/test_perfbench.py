"""Checks of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke test runs every workload at ``--seconds 1`` in both modes (about
half a minute in all) and compares the printed metric names with BENCHMARK.json.
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _hidden(name: str) -> bool:
    """A ``_``-prefixed name; dunders such as ``__file__`` are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private(dotted: str) -> bool:
    parts = dotted.split(".")
    return any(_hidden(p) for p in parts) or parts[:2] == ["uastrack", "cli"]


def test_imports_only_public_uastrack_names():
    bad = []
    for path in sorted(HERE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()   # local names bound to a uastrack module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "uastrack":
                        if _private(a.name):
                            bad.append(f"{path.name}:{node.lineno} import {a.name}")
                        modules.add(a.asname or "uastrack")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uastrack":
                for a in node.names:
                    if _private(f"{node.module}.{a.name}"):
                        bad.append(f"{path.name}:{node.lineno} from {node.module} import {a.name}")
                    if node.module == "uastrack":
                        modules.add(a.asname or a.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and _hidden(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                bad.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not bad, bad


def test_trace_targets_are_public():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import run

        for owner, attr, _name, _annotate in run._trace_targets():
            where = getattr(owner, "__module__", None) or owner.__name__
            assert not _hidden(attr), (owner, attr)
            assert not _private(f"{owner.__name__}.{attr}") and not _private(where), owner
    finally:
        del sys.path[:2]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload_reports_every_metric(workload):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
        report = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}.json").read_text())
        digests.append([ep["log_sha256"] for ep in report["episodes"]])
    # at --seconds 1 both modes run the same plan: the track logs must agree
    assert digests[0] == digests[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    t0 = time.monotonic()
    proc = _run("steady", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.monotonic() - t0 < 180


def test_self_time_and_coverage():
    sys.path.insert(0, str(HERE))
    try:
        from spans import END, PARENT, START, Tracer
    finally:
        sys.path.remove(str(HERE))
    tr = Tracer()
    inner = tr.wrap("inner", lambda: time.sleep(0.01))
    outer = tr.wrap("outer", lambda: (inner(), time.sleep(0.01)))
    tr.frame = 0
    t0 = time.perf_counter()
    outer()
    t1 = time.perf_counter()
    own = tr.self_times()
    (o, i) = tr.spans
    assert own[0] == pytest.approx((o[END] - o[START]) - (i[END] - i[START]))
    assert own[1] == pytest.approx(i[END] - i[START])
    assert i[PARENT] == 0 and o[PARENT] is None
    assert 0.9 < tr.covered({0: t1 - t0}) <= 1.0
