"""Smoke-scale tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Every workload runs at its seconds-scale smoke setting.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import host  # noqa: E402
import paper  # noqa: E402
import served  # noqa: E402
from compare import compare  # noqa: E402
from settings import WORKLOADS, metric_units, workload_settings  # noqa: E402

SMOKE = workload_settings(smoke=True)


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: str) -> None:
    done = _run(
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = metric_units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert set(host.HOST_KEYS) <= set(record["host"])


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "paper-syn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_served_gate_trips_on_a_reference_from_another_seed(tmp_path: Path) -> None:
    setting = SMOKE["serve-window"]
    phase = served.run_served(setting, 5, 0.0, tmp_path, setups=1, windows=setting.min_windows)
    assert served.mismatches(phase, served.replay(setting, 5, phase.windows)) == []
    other = served.replay(setting, 6, phase.windows)
    assert served.mismatches(phase, other)


def test_paper_gate_trips_on_a_reference_from_another_seed() -> None:
    setting = SMOKE["paper-syn"]
    phase = paper.run_paper(setting, 5, 0.0, min_only=True)
    assert paper.mismatches(setting, 5, phase) == []
    assert paper.mismatches(setting, 6, phase)


def test_compare_refuses_records_from_another_host() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    here = host.fingerprint(ROOT)
    record = {
        "workload": "paper-syn",
        "trace": 0,
        "host": here,
        "metrics": {"batch_solve_s": {"value": 1.0, "unit": "s"}},
    }
    code, _ = compare([record], [dict(record)], spec)
    assert code == 0
    elsewhere = dict(record, host=dict(here, cpu_model="another CPU"))
    code, lines = compare([record], [elsewhere], spec)
    assert code == 2 and "refused" in lines[0]
