"""The runtime needs numpy only: every command runs with scipy blocked.

scipy is a test-only dependency (the oracle for ``models.ndtr`` and for the
densities). A child process installs an import hook that refuses any
``scipy`` module, then runs the CLI on a small planar file.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import geoprofile
from geoprofile.dataset import CrimeSeries
from geoprofile.engine import Family
from geoprofile.geodesy import UtmPoint
from geoprofile.models import M1Params, M2Params
from geoprofile.synthetic import SyntheticScenario, sample_series, series_to_utm_csv

ALL_METHODS = ("1a", "1b", "2ai", "2aii", "2bi", "2bii", "rossmo")

CHILD = r"""
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
import geoprofile

assert "scipy" not in sys.modules, "import geoprofile loaded scipy"
from geoprofile.cli import main

dataset, out, methods = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
commands = [
    ["evaluate", "--dataset", dataset, "--out", out + "/evaluate"]
    + [arg for m in methods for arg in ("--method", m)],
    ["profile", "--dataset", dataset, "--offender", "o1", "--out", out + "/profile"],
    ["classify", "--dataset", dataset],
    ["emit-grid", "--grid", "3x2"],
]
for argv in commands:
    status = main(argv)
    assert status == 0, (argv, status)
assert "scipy" not in sys.modules, "a command loaded scipy"
print("ok")
"""


def _planar_file(path: Path) -> None:
    """Six planar offenders inside the default jurisdiction grid."""
    rng = np.random.default_rng(41)
    series = []
    for i in range(6):
        anchor = UtmPoint(
            18, float(rng.uniform(330.0, 370.0)), float(rng.uniform(4345.0, 4385.0))
        )
        family = Family.M1 if i % 2 == 0 else Family.M2
        params = M1Params(1.5) if i % 2 == 0 else M2Params(4.0, 1.0)
        s = sample_series(SyntheticScenario(family, anchor, params, n=8, replicates=1, seed=i))[0]
        series.append(CrimeSeries(f"o{i}", s.xy, s.zone, s.anchor))
    path.write_text(series_to_utm_csv(series))


def test_every_command_runs_without_scipy(tmp_path):
    dataset = tmp_path / "planar.csv"
    _planar_file(dataset)
    package_root = str(Path(geoprofile.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(dataset), str(tmp_path / "out"), ",".join(ALL_METHODS)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("ok\n")
    results = (tmp_path / "out" / "evaluate" / "results.csv").read_text().splitlines()
    assert {row.split(",")[1] for row in results[1:]} >= set(ALL_METHODS)
    assert len(list((tmp_path / "out" / "profile").iterdir())) == 3 * len(ALL_METHODS)
