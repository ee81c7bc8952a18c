"""Smoke test of the benchmark at tiny sizes.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# window-rw is not in BENCHMARK.json but stays runnable, so it is tested too.
WORKLOADS = ["churn", "window-rw", "acp"]


@pytest.fixture(scope="module", autouse=True)
def package():
    assert run.import_package(ROOT) is not None


def tiny_run(workload, seed=5, trace=False):
    import workloads

    return run.run_benchmark(workload, seed, 0.3, trace, workloads.TINY)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit_and_nothing_fails(workload, trace):
    result, record, _ = tiny_run(workload, trace=bool(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert record["ledger"]["failed_frac"]["value"] == 0
    assert record["checks"] > 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_seed_fixes_the_inputs_and_the_exact_counts(workload):
    _, first, _ = tiny_run(workload, seed=7)
    _, again, _ = tiny_run(workload, seed=7)
    _, other, _ = tiny_run(workload, seed=8)
    assert first["input_digests"] == again["input_digests"] != other["input_digests"]
    assert first["repeat_counts"] == again["repeat_counts"]


def test_result_is_the_last_line_of_the_command(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "acp", "--seed", "1", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
