"""Smoke test of the benchmark at tiny sizes (32^2 cells, a 2x2 mesh, 2 samples).

    python3 -m pytest -q perfbench

Runs every workload, untraced and traced, through the real entry point and
checks the result line against BENCHMARK.json; checks that the tracer counts
an asymmetry warning without hiding it; then checks that a directory holding
only the benchmark (no library sources) makes the runner fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, timeout=120):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_declared_workloads_match_the_runner():
    sys.path.insert(0, str(HERE))
    try:
        import run as runner
    finally:
        sys.path.remove(str(HERE))
    assert [w["name"] for w in BENCH["workloads"]] == list(runner.WORKERS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == runner.E2E_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert any(line.startswith("env {") for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert "trace targets not found" not in proc.stdout
        if workload == "macro100x200":
            assert metrics["plate.assemble_stiffness.s"] > 0
            assert metrics["plate.newton_iterations"] == 5
        else:
            assert metrics["solver.iterations"] > 0
            assert metrics["solver.converged_frac"] == 1.0
            # One Green application and one FFT pair per iteration.
            assert metrics["green.apply_green.calls"] == metrics["solver.iterations"]
            assert metrics["fft.calls"] > 2 * metrics["solver.iterations"]
        if workload == "dataset64":
            assert metrics["arrayio.write_array.bytes"] > 0
            assert 0 < metrics["dataset.worker_busy_frac"] <= 1.0
        if workload == "plate4x8":
            assert 0 < metrics["plate.micro_busy_frac"] <= 1.0
            assert 0 < metrics["plate.macro_frac"] < 1.0


def test_tracer_counts_asymmetry_warnings_and_still_shows_them():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import spans
        from microhom import homogenization
    finally:
        del sys.path[:2]
    # A constant isotropic C with a constant A whose average couples the
    # 11 stress to the 22 strain on one side only: an asymmetric C-bar.
    c = np.array([[10.0, 3.0, 0.0], [3.0, 10.0, 0.0], [0.0, 0.0, 3.5]])
    a = np.eye(3)
    a[0, 1] = 0.1
    c_field = np.broadcast_to(c, (4, 4, 3, 3))
    a_field = np.broadcast_to(a, (4, 4, 3, 3))
    tracer = spans.Tracer()
    with pytest.warns(UserWarning, match=spans.ASYMMETRY_WARNING) as shown:
        tracer.install()
        try:
            tracer.begin_op(0)
            homogenization.homogenized_stiffness(c_field, a_field)
            tracer.end_op()
        finally:
            tracer.uninstall()
    assert len(shown) == 1
    assert tracer.counters[0]["homogenization.asymmetry_warnings"] == 1
    assert tracer.counters[0]["homogenization.asymmetry"] > 0.1


def test_runner_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "cell256", 0, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
