"""Tiny-size smoke test of the benchmark.

Every workload and metric named in BENCHMARK.json must appear in a run's
result line with its declared unit.  Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "ROUND_SEEDS", 8)
    monkeypatch.setattr(run, "TRACE_SEEDS", 4)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_workloads_are_the_declared_ones():
    assert sorted(run.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(monkeypatch, workload, trace):
    result = tiny_run(monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), name


def test_a_traced_name_the_package_lost_makes_its_metric_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    verifier = run.fresh_import().verifier
    monkeypatch.delattr(verifier, "check_perpendicular_concurrency_instance")
    tracer = tracing.Tracer(run.PACKAGE)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"verifier.check_perpendicular_concurrency_instance"}
    assert tracer.absent_metrics() == []
    monkeypatch.delattr(verifier, "check_perpendicular_concurrency")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_metrics() == ["verifier.perpendicular_concurrency_ms"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_under_optimize():
    proc = subprocess.run([sys.executable, "-O", str(HERE / "run.py"), "--workload",
                           WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
