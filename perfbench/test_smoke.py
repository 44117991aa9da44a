"""Smoke test of the benchmark: every workload, check and tracer path at tiny sizes.

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
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".rows", ".samples", ".evaluations", ".bytes")


def _session(name: str, tmp_path: Path) -> child.Session:
    return child.Session(name, seed=3, size="smoke", work_dir=tmp_path / name)


def _traced(name: str, tmp_path: Path, untraced: bool = False):
    session = _session(name, tmp_path)
    return child.trace(session, import_s=0.0, count=2, untraced=untraced,
                       spans_path=tmp_path / f"{name}.jsonl")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks_every_op(name, tmp_path):
    session = _session(name, tmp_path)
    result, ops = child.measure(session, seconds=0.0)
    assert result["ops"] == len(ops) == child.BLOCKS
    assert result["op_p50_s"] > 0
    # Every op either passed or failed one of its output checks; an exit
    # code or traceback would mean the op never reached its check.
    assert all(reason.split(": ", 2)[1] == "check" for reason in session.failures)
    if name != "optimize":  # criterion 08's bounds need the full sample counts
        assert session.failures == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_reports_every_layer_metric(name, tmp_path):
    metrics, ops = _traced(name, tmp_path, untraced=True)
    names = [m for m, _ in child.LAYER_METRICS] + [child.OVERHEAD_METRIC[0]]
    assert sorted(metrics) == sorted(names)
    assert all(m["value"] >= 0 or m["unit"] == "ratio" for m in metrics.values())
    assert len(ops) == 4
    spans = [json.loads(line) for line in (tmp_path / f"{name}.jsonl").open()]
    assert spans and all(s["op"] in (1, 2) for s in spans)


def test_count_metrics_repeat_at_both_thread_counts(tmp_path, monkeypatch):
    first, _ = _traced("certify", tmp_path / "a")
    monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "1")
    second, _ = _traced("certify", tmp_path / "b")
    counts = [m for m in first if m.endswith(COUNT_SUFFIXES)]
    assert counts
    assert {m: first[m]["value"] for m in counts} == {m: second[m]["value"] for m in counts}
    assert second["montecarlo.threads"]["value"] == 1


def test_missing_entry_point_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "ENTRY_POINTS", tracer.ENTRY_POINTS + [
        ("partitions.calibrate", "partitions", "no_such_function"),
    ])
    monkeypatch.setattr(tracer, "COUNTED_MODULES", ["no_such_module"])
    monkeypatch.setitem(child.LAYER_SPANS, "no_such_module", ["special.calls"])
    metrics, _ = _traced("discrete", tmp_path)
    assert metrics["special.calls"].get("absent") is True
    assert metrics["partitions.calibrate.calls"].get("absent") is True
    assert "absent" not in metrics["discrete.noise_stability.s"]


def test_pool_thread_spans_attach_to_their_op(tmp_path, monkeypatch):
    monkeypatch.setenv("GAUSS_BUBBLES_THREADS", "2")
    session = _session("certify", tmp_path)  # 8 chunks per mc_mean call
    t = tracer.Tracer()
    t.install()
    try:
        child.run_ops(session, 1, t)
    finally:
        t.uninstall()
    main = t.spans[0].thread
    pooled = [s for s in t.spans if s.thread != main]
    assert pooled and all(s.op == 1 for s in t.spans)
    assert min(tracer.self_times(t.spans).values()) >= 0.0
    # Uninstalling restores every binding.
    from gauss_bubbles import montecarlo, perimeter
    assert perimeter.mc_mean is montecarlo.mc_mean
    assert not hasattr(montecarlo.mc_mean, "__wrapped__")


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "discrete", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_per_layer_names_match_the_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = dict(child.LAYER_METRICS + [child.OVERHEAD_METRIC])
    produced.update({f"{n}.threads1": u for n, u in child.LAYER_METRICS})
    assert declared == produced


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "estimate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
