"""Self-tests of the benchmark: oracle checks, tracer coverage, result format.

Run from the checkout root (they are not part of the repository's suite):

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import grpdim  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ORACLE = json.loads(run.ORACLE.read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, env=None):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, env=env)


def test_corrupted_library_expectation_is_caught():
    g, k_set, l_set = workloads.grid_z2(4, 4)
    observed = workloads.observe_witness(grpdim.kl_dad_search(g, k_set, l_set, 2))
    expected = ORACLE["refute/P4xP4xZ2-d2"]
    assert run.mismatch(expected, observed) is None
    for key, bad in (("digest", "0" * 16), ("d", 3), ("verdict", "none")):
        assert key in run.mismatch(dict(expected, **{key: bad}), observed)


def test_corrupted_cli_expectation_is_caught(tmp_path):
    runner = workloads.CliRunner(tmp_path / "work", run.child_env(ROOT / "src"))
    ops, checks = workloads.setup("cli", 0, False, runner)
    assert all(run.mismatch(ORACLE[i], obs) is None for i, obs in checks)
    op = next(o for o in ops if o.id == "cli/dad-find")
    _, observed, error = workloads.timed(op)
    assert error is None
    expected = ORACLE[op.id]
    assert run.mismatch(expected, observed) is None
    (artifact,) = expected["artifacts"]
    corruptions = {
        "exit": 1,
        "stdout": [expected["stdout"][0].replace("d=1", "d=2")],
        "artifacts": {artifact: "0" * 16},
    }
    for key, bad in corruptions.items():
        assert key in run.mismatch(dict(expected, **{key: bad}), observed)


def test_run_with_corrupted_oracle_fails(tmp_path):
    oracle = dict(ORACLE)
    oracle["cli/dad-refute"] = dict(oracle["cli/dad-refute"], exit=0)
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps(oracle))
    res = run_bench("--workload", "cli", "--seed", "3", "--seconds", "0", "--oracle", str(path))
    assert res.returncode == 1
    result = json.loads(res.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "cli/dad-refute: exit: expected 0, got 1" in res.stderr


def test_run_reports_every_end_to_end_metric():
    res = run_bench("--workload", "cli", "--seed", "3", "--seconds", "0")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    metrics = run.per_layer([], {}, [], [], set())
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted


def test_refuses_to_run_with_workers_set():
    env = dict(os.environ, GRPDIM_WORKERS="2")
    res = run_bench("--workload", "refute", "--seed", "0", "--seconds", "1", env=env)
    assert res.returncode == 2
    assert "GRPDIM_WORKERS" in res.stderr and not res.stdout.strip()


def test_tracer_wraps_every_namespace_and_restores():
    original = grpdim.groupoid.generated
    holders = [grpdim, grpdim.groupoid, grpdim.dad, grpdim.coarse, grpdim.covers]
    assert all(m.generated is original for m in holders)
    with tracer.Tracer():
        assert all(m.generated is not original for m in holders)
        assert len({id(m.generated) for m in holders}) == 1
    assert all(m.generated is original for m in holders)


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (("x.y", "grpdim.dad", "no_such"),))
    original = grpdim.dad.kl_dad_search
    with pytest.raises(tracer.TracerError, match="grpdim.dad.no_such"):
        tracer.Tracer().install()
    assert grpdim.dad.kl_dad_search is original


def test_self_time_excludes_children_and_counts_repeat():
    g, k_set, l_set = workloads.grid(8, 8)
    counts = []
    for _ in range(2):
        tr = tracer.Tracer()
        with tr:
            assert grpdim.kl_dad_search(g, k_set, l_set, 1) is None
        rec = tr.take()
        counts.append(rec["counts"])
    assert counts[0] == counts[1]
    # _try_add calls; the ROADMAP's 429,709 counts DFS frames, which are internal
    assert counts[0]["search.nodes"] == 859_413
    assert counts[0]["search.d_tried"] == 2

    tr = tracer.Tracer()
    with tr:
        grpdim.kl_dad_search(g, k_set, l_set, 2)
    spans = tr.take()["spans"]
    (search,) = [s for s in spans if s[1] == "dad.kl_dad_search"]
    children = [s for s in spans if s[4] == search[0]]
    assert {s[1] for s in children} == {"dad.kl_dad_check"}
    child_time = sum(s[3] - s[2] for s in children)
    assert search[6] == pytest.approx(search[3] - search[2] - child_time)


def test_scaling_cancels_a_slow_stretch():
    # The same op in a fast stretch and in one twice as slow: the reference
    # beside it slows alike, so the scaled samples agree.
    fast = (0, 0.20, run.REF_S)
    slow = (1, 0.40, 2 * run.REF_S)
    assert run.per_op_scaled([fast, slow, slow]) == pytest.approx(0.20)
    assert run.per_op_time([fast, slow, slow]) == 0.20
