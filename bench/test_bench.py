"""Self-tests of the benchmark.  Slow (about four minutes): each runs the
benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_PREFIXES = (
    "spd_core.eigensolves",
    "barycenter.iterations.",
    "lie_trotter.solves_per_trace",
    "barycenter.bounds_report_calls",
)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_run(workload: str, seed: int) -> tuple[dict, str | None]:
    """Metrics of a traced run, and the SHA-256 of its verify report.  The
    run fails an item when a traced verify report differs from the untraced
    one of the same seed."""
    result = result_of(run_bench(workload, seed, 1))
    assert result["correct"] and result["failed"] == 0, result
    metrics = result["metrics"]
    record = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace1.json").read_text())
    return metrics, record.get("verify_report_sha256")


@pytest.mark.parametrize("workload", ["verify_default", "solve_conditioned", "limit_trace"])
def test_traced_counts_repeat_exactly(workload):
    first, first_sha = traced_run(workload, 7)
    second, second_sha = traced_run(workload, 7)
    assert first_sha == second_sha
    exact = [k for k in first if k.startswith(EXACT_PREFIXES)]
    assert "spd_core.eigensolves" in exact
    differing = {k: (first[k]["value"], second[k]["value"]) for k in exact
                 if first[k]["value"] != second[k]["value"]}
    assert not differing
    names = [m["name"] for m in declared()["per_layer"]]
    assert list(first) == names
    assert all(first[k]["unit"] == unit_of(k) for k in names)


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_of(run_bench("limit_trace", 3, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = declared()["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec)
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("limit_trace", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
