"""Self-tests of the benchmark at tiny instance sizes.

Run with:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import mspsolve.psd  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cli(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          cwd=cwd or HERE.parent, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_end_to_end_metric_with_unit(workload):
    out = _cli("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
               "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in final["metrics"].values())
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if not line.startswith("#")}
    expected.update(run.UNGATED)
    for name, unit in expected.items():
        assert table.get(name) == unit, (name, out.stdout)


def test_perturbed_solution_counts_as_failed():
    problem = workloads.psd_outliers(seed=1, size="tiny")
    result = workloads.run(problem, seconds=0, trace=False,
                           perturb=lambda x: x * (1.0 + 1e-4))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    # The program said "converged"; the audit disagrees on every call.
    assert result["false_status"] == result["attempted"]
    assert result["end_to_end"]["failed_frac"] == 1.0


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, make in workloads.WORKLOADS.items():
        result = workloads.run(make(seed=2, size="tiny"), seconds=0, trace=True)
        out[name] = result
    return out


def test_level3_spans_only_on_normal_ridge(traced):
    for name, result in traced.items():
        names = {s.name for s in result["spans"]}
        level3 = {"general.level3_apply", "lanczos.level3"} & names
        if name == "normal-ridge":
            assert level3 == {"general.level3_apply", "lanczos.level3"}
            assert not any(n.startswith("psd.level2") for n in names)
        else:
            assert not level3, name
            assert "psd.level2_apply" in names, name


def test_traced_run_yields_every_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == dict(LAYER_METRICS)
    for result in traced.values():
        assert set(result["layers"]) == set(declared)
        assert result["layers"]["trace.solve_s"] > 0


def test_tracer_restores_the_program():
    original = mspsolve.psd.solve_m1_psd
    workloads.run(workloads.psd_outliers(seed=1, size="tiny"), seconds=0, trace=True)
    assert mspsolve.psd.solve_m1_psd is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _cli("--workload", "psd-outliers", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
