"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench

Smoke runs use tiny budgets, so every workload, metric name and output
check is exercised in well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_smoke_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    names = _declared("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert any("failed_frac" in line for line in lines)
    assert any("drift digest" in line and "stable" in line for line in lines)


def test_traced_layers_nonzero_where_they_run():
    proc = _bench("--workload", "lshape_pointwise", "--seed", "0",
                  "--seconds", "1", "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("eigen.calls", "mesh.bisections", "estimator.evals",
                 "fem.nnz_sum", "cli.svg_elements", "marking.marked",
                 "adapt.levels"):
        assert metrics[name]["value"] > 0, name
    assert metrics["estimator.energy_s"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "slit_multiple", "--seed", "0",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _fake_modules():
    fn = lambda *a, **k: None  # noqa: E731
    mods = {}
    for mod, attr in tracing.TRACED:
        setattr(mods.setdefault(mod, types.SimpleNamespace()), attr, fn)
    return mods


def test_guard_rejects_missing_name():
    mods = _fake_modules()
    del mods["eigenadapt.adapt"].assemble
    with pytest.raises(tracing.TraceGuardError, match="adapt.assemble"):
        tracing.Tracer(mods).install()


def test_guard_rejects_idle_layer():
    tracer = tracing.Tracer(_fake_modules())
    tracer.install()
    tracer.modules["eigenadapt.geometry"].initial_mesh()
    tracer.check_expected(["geometry.initial_mesh"])
    with pytest.raises(tracing.TraceGuardError, match="adapt.solve_smallest"):
        tracer.check_expected(worker.expected_calls({}))


def test_adaptive_check_flags_short_run():
    from eigenadapt.adapt import AdaptConfig, run

    history = run(AdaptConfig(max_dof=1500, max_levels=1))
    errors = worker.check_adaptive(history, [1e-12])
    assert any("stop_reason" in e for e in errors)
    assert any("budget" in e for e in errors)
    assert worker.check_adaptive(history, [1.0])[-1].startswith("eigen residual")


def test_overhead_compares_traced_with_untraced_neighbours():
    samples = [{"traced": False, "run_s": 10.0},
               {"traced": True, "run_s": 11.0},
               {"traced": False, "run_s": 12.0},
               {"traced": True, "run_s": 15.0},
               {"traced": False, "failed": "exit code 1"},
               {"traced": True, "failed": "exit code 1"}]
    assert run.overhead_fracs(samples) == pytest.approx([0.0, 0.25])
