"""Anchor-point estimation for serial offenders.

Bayesian posterior surfaces over a jurisdiction grid from crime-site
coordinates, a distance-decay hit-score baseline, and search-fraction
evaluation utilities.
"""

from geoprofile.classify import SubtypeKind, SubtypeLabel, nn_distances
from geoprofile.dataset import CrimeSeries, Dataset
from geoprofile.engine import (
    Family,
    MethodId,
    ModelSpec,
    PosteriorSurface,
    m3_surface,
    method_surfaces,
    multimodel_combine,
    posterior_surface,
    run_method,
)
from geoprofile.evaluation import (
    AccumulationCurve,
    Scope,
    SearchResult,
    accumulation_curve,
    compare_methods,
    rank_cells,
    search_fraction,
)
from geoprofile.geodesy import GeoPoint, UtmPoint, latlon_to_utm
from geoprofile.grid import Grid, cell_center, locate_cell
from geoprofile.models import (
    M1Params,
    M2Params,
    NonResParams,
    m1_density,
    m2_density,
    nonres_density,
    ring_normal_normalizer,
)
from geoprofile.priors import (
    AnchorPrior,
    ParamPrior,
    PriorKind,
    PriorSet,
    bounded_density_1d,
    build_prior_set,
    flat_prior_set,
    kde2d,
)
from geoprofile.rossmo import (
    RossmoParams,
    buffer_radius,
    hit_score_surface,
    rossmo_decay,
)
from geoprofile.synthetic import SyntheticScenario, sample_series

__version__ = "0.1.0"
