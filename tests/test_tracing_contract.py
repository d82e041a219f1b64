"""What the benchmark's tracer (``perfbench/tracing.py``) reads of the library.

The tracer wraps functions by the module or class attribute their callers
look up, and its posterior spans read ``ModelSpec`` and ``Grid`` fields.
A library change that removes or renames one of them breaks every traced
benchmark run, so these checks fail first.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from geoprofile import cli, engine
from geoprofile.dataset import CrimeSeries
from geoprofile.engine import Family, ModelSpec
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid
from geoprofile.priors import flat_prior_set
from geoprofile.synthetic import series_to_utm_csv

# the benchmark package, from the repository root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize(
    "target, attr",
    [(target, attr) for target, attr, *_ in tracing.TARGETS],
    ids=[f"{target}.{attr}" for target, attr, *_ in tracing.TARGETS],
)
def test_target_resolves(target, attr):
    assert callable(getattr(tracing._owner(target), attr))


@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_posterior_span(family):
    grid = Grid(west=340.0, east=346.0, south=4350.0, north=4355.0, nrows=5, ncols=6)
    series = CrimeSeries("s", [(342.0, 4352.0), (343.5, 4351.0), (344.0, 4353.5)], 18)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        engine.posterior_surface(
            series, ModelSpec(family, quadrature={"alpha": 3}), flat_prior_set(grid), grid
        )
    (span,) = [s for s in tracer.spans if s.name == "engine.posterior"]
    assert span.info["family"] == family.value
    cell_nodes = span.info["cell_nodes"]
    assert cell_nodes >= 3 * grid.ncells and cell_nodes % grid.ncells == 0


def test_default_profile_spans(tmp_path):
    # profile's surfaces come from one prior build, one engine.methods call
    # for the six posterior methods and one hit score, each a traced span
    rng = np.random.default_rng(5)
    series = []
    for i, (east, north) in enumerate([(340.0, 4350.0), (352.0, 4361.0), (365.0, 4372.0)]):
        sites = (east, north) + rng.normal(0.0, 2.0, size=(6, 2))
        series.append(CrimeSeries(f"s{i}", sites, 18, UtmPoint(18, east, north)))
    dataset = tmp_path / "three.csv"
    dataset.write_text(series_to_utm_csv(series))
    tracer = tracing.Tracer()
    argv = ["profile", "--dataset", str(dataset), "--offender", "s1", "--grid", "20x14"]
    with tracing.installed(tracer):
        assert cli.main(argv + ["--out", str(tmp_path / "prof")]) == 0
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    assert [s.info for s in spans["priors.build"]] == [{"donors": 2}]
    assert [s.info for s in spans["engine.methods"]] == [{"results": 6}]
    assert [s.request for s in spans["rossmo.hit_score"]] == ["s1"]
