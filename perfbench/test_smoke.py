"""Smoke test of the benchmark harness, so that a change that breaks it shows
in the test suite: a few items of every workload through their checks under
tracing, one short run of run.py in each mode, and a checkout that holds no
program.  Run from the repository root with ``PYTHONPATH=src``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import planecubic  # noqa: E402
import planecubic.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Calls that may fail without the harness being at fault: vp-verify on the
# degree-10 composite stops with StuckState at step 8 (a known engine defect).
KNOWN_FAILURES = {("composite10", "vp-verify")}
# Enough items to reach each branch once: a flipped chain4 state, and the
# general, tangent and rigged threefold instances.
ITEMS = {"chain4": 2, "compose16": 1, "composite10": 1, "threefold": 4}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_items_pass_their_checks_and_fire_expected_spans(name):
    workload = workloads.WORKLOADS[name]
    items = workload.items(1)
    cli = workloads.CLI(planecubic.cli)
    with tracing.Tracer().install(planecubic) as tracer:
        records = []
        for index in range(ITEMS[name]):
            tracer.begin_item(index)
            records.append(run.run_item(workload, next(items), cli))
    for rec in records:
        verdicts = workload.check(rec.item, rec.calls)
        assert len(verdicts) == len(workload.calls)
        for label, (verdict, detail) in zip(workload.calls, verdicts):
            assert verdict != workloads.WRONG, f"{label}: {detail}"
            assert verdict == workloads.OK or (name, label) in KNOWN_FAILURES, f"{label}: {detail}"
    assert not tracing.EXPECTED[name] - tracer.fired()
    assert planecubic.cli.main.__name__ == "main"  # the wrappers are gone again


def test_items_are_distinct_and_seeded():
    for name, workload in workloads.WORKLOADS.items():
        first = [item.key for _, item in zip(range(30), workload.items(7))]
        again = [item.key for _, item in zip(range(30), workload.items(7))]
        assert first == again, name
        assert len(set(first)) == len(first), name


def _run_main(capsys, trace):
    assert run.main(["--workload", "threefold", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def test_run_prints_every_declared_metric(capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)
    monkeypatch.setattr(workloads.WORKLOADS["threefold"], "min_items", 2)
    plain, plain_digest = _run_main(capsys, 0)
    traced, traced_digest = _run_main(capsys, 1)
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert plain_digest == traced_digest  # tracing leaves stdout unchanged


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "chain4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
