"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload, trace, **kwargs):
    kwargs.setdefault("setup_samples", 1)
    return run.run(workload, 0, 0.0, trace, tiny=True, **kwargs)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    lines, result = _tiny(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[-1] for line in lines if line.split()}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name


def _corrupt_first(monkeypatch, cls, bump):
    original = cls.reference

    def corrupted(self, inputs):
        refs = original(self, inputs)
        return [bump(refs[0])] + refs[1:]

    monkeypatch.setattr(cls, "reference", corrupted)


def test_corrupted_reference_count_fails_ops(monkeypatch):
    import workloads

    _corrupt_first(monkeypatch, workloads.Suite30,
                   lambda ref: dataclasses.replace(ref, count=ref.count + 1))
    lines, result = _tiny("suite30", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // 3   # one op of three per pass
    assert not any(line.startswith("error_rate 0 ") for line in lines)


def test_corrupted_kappa_reference_fails_ops(monkeypatch):
    import workloads

    _corrupt_first(monkeypatch, workloads.McKappa, lambda ref: ref * (1 + 1e-6))
    _, result = _tiny("mc-kappa", 0)
    assert not result["correct"] and result["failed"] >= 1


def test_missing_wrapped_name_degrades_gracefully():
    from tracer import TARGETS, Tracer

    tracer = Tracer(TARGETS + (
        ("spherecount.counting", "no_such_function", "counting.gone", None),
        ("spherecount.no_such_module", "anything", "gone.too", None)))
    lines, result = _tiny("deep-grid", 1, tracer=tracer)
    assert result["correct"]
    assert result["metrics"]["trace.missing"]["value"] == 2
    assert any("spherecount.counting.no_such_function" in line for line in lines)
    assert result["metrics"]["condition.mu_many.rows"]["value"] > 0


def test_command_line_prints_one_json_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-kappa", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite30", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
