"""Self-test of the benchmark.

Run from the repository root with ``python3 -m pytest -q perfbench/selftest.py``.
Every workload runs in-process at a tiny size, untraced and traced; one
deliberately corrupted output must be counted as a failed task; and the
command must refuse to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LIB = run.load_library(ROOT)


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert list(declared("per_layer")) == ([m[0] for m in LAYER_METRICS]
                                           + ["trace_overhead_frac"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    readme = (HERE / "README.md").read_text()
    missing = [n for n in declared("per_layer") if f"`{n}`" not in readme]
    assert not missing, f"per-layer metrics without a README mapping: {missing}"


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace, tmp_path):
    result, report = run.run_benchmark(LIB, name, seed=7, seconds=0.05,
                                       trace=trace, tiny=True, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace:
        # the tracer restored every binding it replaced
        assert not hasattr(LIB.gen_pseudo_orbit, "__wrapped__")
        assert not hasattr(LIB.cli.validate_chain, "__wrapped__")
        assert not hasattr(LIB.Space.displacement, "__wrapped__")
        assert (tmp_path / f"trace-{name}.json").is_file()
    else:
        assert all(v > 0 for v in values)


def test_corrupted_shadow_is_a_failed_task(monkeypatch, tmp_path):
    real = LIB.shadow_linear_hyperbolic

    def shifted(A, chain):
        r = real(A, chain)
        r.shadow.points[:] = (r.shadow.points + 1e-3) % 1.0
        return r

    monkeypatch.setattr(LIB, "shadow_linear_hyperbolic", shifted)
    result, report = run.run_benchmark(LIB, "newton", seed=7, seconds=0.05,
                                       trace=False, tiny=True, out_dir=tmp_path)
    assert not result["correct"]
    # one uniqueness task in each cycle of three, each one failed
    assert result["failed"] == result["attempted"] // 3 >= 2
    assert report["failed_frac"]["value"] == result["failed"] / result["attempted"]
    assert all("uniqueness" in f for f in report["failures"])


def test_command_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shadow", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= run.MIN_TASKS
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == declared("end_to_end"))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shadow", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
