"""Self-tests of the benchmark, on tiny job lists.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thetatopo import maps  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_deterministic(name):
    for tiny in (True, False):
        wl = workloads.make(name, tiny)
        assert wl.inputs(7) == wl.inputs(7)


def test_interactive_inputs_follow_the_seed():
    wl = workloads.make("interactive")
    a, b = wl.inputs(1), wl.inputs(2)
    assert a != b
    for items in (a, b):
        ops = sum(wl.SPACE_OPS if it[0] == "space" else wl.MAP_OPS for it in items)
        assert ops == 8028
        assert {len(it[1]["points"]) if it[0] == "space" else len(it[1][0]["map"]) for it in items} == set(
            range(3, 9)
        )


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_outputs_match(name):
    wl = workloads.make(name, tiny=True)
    inputs = wl.inputs(3)
    plain = workloads.Recorder()
    wl.rep(inputs, plain)
    t = tracer.Tracer()
    traced = workloads.Recorder(t)
    original = maps.classify_map
    with t.installed():
        assert maps.classify_map is not original
        wl.rep(inputs, traced)
    assert maps.classify_map is original
    assert wl.check(inputs, plain, oracles=True) == set()
    assert wl.check(inputs, traced, oracles=True) == set()
    assert workloads.digest(workloads.texts(plain.results)) == workloads.digest(
        workloads.texts(traced.results)
    )
    assert len(t.s_name) >= len(traced.results)


def test_check_counts_a_wrong_output():
    wl = workloads.make("hedgehog", tiny=True)
    rec = workloads.Recorder()
    wl.rep(None, rec)
    rc, text = rec.results[0]
    rec.results[0] = (rc, text.replace('"pass"', '"fail"'))
    assert wl.check(None, rec, oracles=True) == {0}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace):
    result = run.measure(name, seed=1, seconds=0, trace=trace, tiny=True, probes=1)
    specs = run.metric_specs()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for m in specs:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0


def test_set_up_probe_runs_nothing():
    setup, rep, _ = run.spawn("hedgehog", 1, tiny=True, trace=False, order="probe")
    assert setup > 0
    assert rep is None


def test_each_rep_is_a_fresh_process():
    reps = [run.spawn("hedgehog", 1, tiny=True, trace=False, order="run")[1] for _ in range(2)]
    assert reps[0]["digest"] == reps[1]["digest"]
    assert reps[0]["pid"] != reps[1]["pid"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hedgehog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_shape():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["diagram", "census", "interactive", "hedgehog"]
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
