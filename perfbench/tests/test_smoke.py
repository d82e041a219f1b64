"""Smoke test of every benchmark workload on a tiny population.

No timing gates: it checks that each workload runs, passes its own output
checks and reports exactly the metrics BENCHMARK.json declares.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from geoprofile.classify import classify  # noqa: E402
from perfbench import inputs, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "evaluate-mixed": {"offenders": 4},
    "profile-large": {"offenders": 12, "sample": 6},
    "baseline-geo": {"offenders": 40},
}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_runs_on_tiny_population(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    record = workloads.run(w, seed=3, seconds=0.0, trace=trace, workdir=tmp_path)
    assert record["problems"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in record["metrics"].items()
    }
    if trace and name == "baseline-geo":
        metrics = record["metrics"]
        assert metrics["priors.build_calls"]["value"] == 0
        assert metrics["engine.cell_node_evals"]["value"] == 0
        assert metrics["geodesy.points"]["value"] > 0


def test_inputs_repeat_by_seed():
    assert inputs.planar_csv(inputs.planar_population(5, 30)) == inputs.planar_csv(
        inputs.planar_population(5, 30)
    )
    assert inputs.latlon_csv(inputs.latlon_population(5, 30)) != inputs.latlon_csv(
        inputs.latlon_population(6, 30)
    )


def test_subtype_copy_agrees_with_library():
    rng = random.Random(0)
    for behaviour in ("M1", "M2", "NONRES", "M3"):
        for n in range(4, 15):
            points = inputs._offsets(rng, behaviour, n)
            assert inputs.subtype(points) == classify(np.array(points)).kind.value


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline-geo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
