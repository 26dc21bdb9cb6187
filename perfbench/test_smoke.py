"""The benchmark's own smoke test: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload must print every metric named in ``BENCHMARK.json``
with its unit and pass its output checks, and the benchmark must
refuse to run, printing no result, where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = bench.ROOT,
              script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_prints_every_metric_and_passes_its_checks(workload,
                                                            trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
    printed = {tuple(line.split()[1:2] + line.split()[-1:])
               for line in proc.stdout.splitlines()[:-1]}
    for name, unit in expected.items():
        assert (name, unit) in printed, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sim_long", 0, cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
