"""What the benchmark's tracer (``perfbench/tracing.py``) reads of the library.

The tracer wraps functions by the module or class attribute their callers
look up, and its posterior spans read ``ModelSpec`` and ``Grid`` fields.
A library change that removes or renames one of them breaks every traced
benchmark run, so these checks fail first.
"""

import sys
from pathlib import Path

import pytest

from geoprofile import engine
from geoprofile.dataset import CrimeSeries
from geoprofile.engine import Family, ModelSpec
from geoprofile.grid import Grid
from geoprofile.priors import flat_prior_set

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
