"""Smoke tests of the benchmark at toy input sizes (a few seconds each).

    python3 -m pytest perfbench/test_smoke.py -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# figures every run prints besides the ones BENCHMARK.json gates, with units
PRINTED = {
    "eval-banknote": {"eval_s.tabular": "s", "eval_s.stml": "s"},
    "eval-sonar": {"eval_s.retire": "s", "eval_s.stml": "s", "eval_s.igtd": "s"},
    "sweep-retire": {"encode_ms.n10": "ms", "encode_ms.n500": "ms", "bench.linearity_r2": "1"},
}


def run(workload: str, out: Path, trace: int = 0, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--toy", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def printed_metrics(lines) -> dict[str, tuple[float, str]]:
    """``metric <name> <value> <unit> ...`` lines as name -> (value, unit)."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    code, lines = run(workload, tmp_path)
    assert code == 0
    printed = printed_metrics(lines)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected.update(PRINTED[workload], error_rate="1")
    assert {name: printed[name][1] for name in expected} == expected
    assert printed["error_rate"][0] == 0.0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("# machine nproc=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_overhead(workload, tmp_path):
    code, lines = run(workload, tmp_path, trace=1)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(line.startswith("layer trace.overhead_s ") for line in lines)
    assert list(tmp_path.glob("spans-*.tsv"))


def test_tampered_digest_raises_error_rate(tmp_path):
    code, lines = run("eval-sonar", tmp_path)
    assert code == 0 and json.loads(lines[-1])["failed"] == 0
    (stored,) = (tmp_path / "digests").glob("*.json")
    digests = json.loads(stored.read_text())
    key = next(k for k in sorted(digests) if k.startswith("igtd."))
    digests[key] = "0" * 64
    stored.write_text(json.dumps(digests))
    code, lines = run("eval-sonar", tmp_path)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert printed_metrics(lines)["error_rate"][0] > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run("eval-banknote", tmp_path / "out", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
