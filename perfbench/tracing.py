"""Span tracing of the library's layers from outside the library.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper installed on the module attribute its caller looks up (for
example ``geoprofile.evaluation.build_prior_set``, which
``compare_methods`` calls, not ``geoprofile.priors.build_prior_set``).
Nothing under ``src/`` changes. A span records its name, start, end,
parent span, request id and a few facts taken from the call's arguments
or result; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls = 0

    def wrap(self, name, fn, request_of=None, info_of=None):
        """Wrap ``fn`` so each call records one span.

        ``request_of(args, kwargs)`` names the request (an offender id);
        without it a span inherits its parent's request, and a root span
        gets the call index. ``info_of(args, kwargs, result)`` adds facts.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if request_of is not None:
                request = str(request_of(args, kwargs))
            elif parent >= 0:
                request = spans[parent].request
            else:
                request = f"call{self._calls}"
                self._calls += 1
            index = len(spans)
            span = Span(name, 0.0, 0.0, parent, request)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info_of is not None:
                span.info = info_of(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        The process is single-threaded, so children never overlap and their
        durations add up to the part of the parent they cover.
        """
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        [s.name, s.start, s.end, s.parent, s.request, s.info],
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _series_id(position, name="series"):
    return lambda args, kwargs: _arg(args, kwargs, position, name).offender_id


def _prior_request(args, kwargs):
    return _arg(args, kwargs, 1, "excluded_offender")


def _prior_info(args, kwargs, priors):
    return {"donors": priors.source_offender_count}


def _posterior_info(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    grid = _arg(args, kwargs, 3, "grid")
    fixed = spec.fixed_overrides or {}

    def nodes(param):
        return 1 if param in fixed else spec.node_count(param)

    family = spec.family.value
    if family == "M1":
        tensor = nodes("alpha")
    elif family == "M2":
        tensor = nodes("alpha") * nodes("sigma")
    else:  # radial block plus angular block, summed separately
        tensor = nodes("alpha") * nodes("sigma1") + nodes("theta") * nodes("sigma2")
    return {"family": family, "cell_nodes": grid.ncells * tensor}


# (module, attribute, span name, request_of, info_of). One entry per
# place a caller looks the function up; see the module docstring.
TARGETS = (
    ("geoprofile.cli", "main", "cli.main", None, None),
    (
        "geoprofile.cli",
        "load_dataset",
        "dataset.load",
        None,
        lambda a, k, ds: {"crimes": ds.total_crimes},
    ),
    ("geoprofile.dataset", "latlon_to_utm", "geodesy.project", None, None),
    ("geoprofile.cli", "classify", "classify", None, None),
    ("geoprofile.evaluation", "classify", "classify", None, None),
    ("geoprofile.cli", "build_prior_set", "priors.build", _prior_request, _prior_info),
    ("geoprofile.evaluation", "build_prior_set", "priors.build", _prior_request, _prior_info),
    ("geoprofile.priors", "kde2d", "priors.kde2d", None, None),
    ("geoprofile.priors", "bounded_density_1d", "priors.density1d", None, None),
    (
        "geoprofile.cli",
        "run_method",
        "engine.methods",
        _series_id(0),
        lambda a, k, s: {"results": 1},
    ),
    (
        "geoprofile.evaluation",
        "method_surfaces",
        "engine.methods",
        _series_id(0),
        lambda a, k, out: {"results": len(out)},
    ),
    ("geoprofile.engine", "posterior_surface", "engine.posterior", None, _posterior_info),
    ("geoprofile.engine", "multimodel_combine", "engine.combine", None, None),
    ("geoprofile.engine", "m3_surface", "engine.m3", None, None),
    ("geoprofile.cli", "hit_score_surface", "rossmo.hit_score", _series_id(0), None),
    ("geoprofile.evaluation", "hit_score_surface", "rossmo.hit_score", _series_id(0), None),
    ("geoprofile.cli", "compare_methods", "evaluation.compare", None, None),
    (
        "geoprofile.evaluation",
        "search_fraction",
        "evaluation.rank",
        lambda a, k: _arg(a, k, 2, "offender_id"),
        None,
    ),
    ("geoprofile.cli", "rank_cells", "evaluation.rank", None, None),
    ("geoprofile.cli", "write_surface_csv", "cli.write", None, None),
    ("geoprofile.cli", "write_surface_pgm", "cli.write", None, None),
    ("geoprofile.cli", "write_surface_sidecar", "cli.write", None, None),
    ("geoprofile.evaluation:EvaluationReport", "results_csv", "cli.write", None, None),
    ("geoprofile.evaluation:EvaluationReport", "curves_csv", "cli.write", None, None),
)


def _owner(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    saved = []
    try:
        for target, attr, name, request_of, info_of in TARGETS:
            owner = _owner(target)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, request_of, info_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals of a traced pass, per CLI call.

    Times are seconds per call; counts are per call. The pass runs a fixed
    list of calls, so counts repeat exactly for one seed.
    """
    spans = tracer.spans
    own = tracer.self_seconds()
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    post_s: dict[str, float] = defaultdict(float)
    post_n: dict[str, int] = defaultdict(int)
    crimes = donors = results = cell_nodes = 0
    for s, own_s in zip(spans, own):
        total[s.name] += s.seconds
        count[s.name] += 1
        self_total[s.name] += own_s
        if s.name == "engine.posterior":
            post_s[s.info["family"]] += s.seconds
            post_n[s.info["family"]] += 1
            cell_nodes += s.info["cell_nodes"]
        crimes += s.info.get("crimes", 0)
        donors += s.info.get("donors", 0)
        results += s.info.get("results", 0)

    calls = max(count["cli.main"], 1)
    call_s = total["cli.main"]
    posterior_s = sum(post_s.values())
    posterior_n = sum(post_n.values())
    out = {
        "dataset.load_s": total["dataset.load"],
        "dataset.crimes": crimes,
        "geodesy.project_s": total["geodesy.project"],
        "geodesy.points": count["geodesy.project"],
        "classify.s": total["classify"],
        "classify.calls": count["classify"],
        "priors.build_s": total["priors.build"],
        "priors.kde2d_s": total["priors.kde2d"],
        "priors.density1d_s": total["priors.density1d"],
        "priors.self_s": self_total["priors.build"],
        "priors.build_calls": count["priors.build"],
        "priors.donor_series": donors,
    }
    for family in ("M1", "M2", "NONRES"):
        out[f"engine.posterior_s.{family}"] = post_s[family]
        out[f"engine.posterior_calls.{family}"] = post_n[family]
    out.update(
        {
            "engine.combine_s": total["engine.combine"],
            "engine.m3_calls": count["engine.m3"],
            "engine.cell_node_evals": cell_nodes,
            "rossmo.hit_score_s": total["rossmo.hit_score"],
            "rossmo.calls": count["rossmo.hit_score"],
            "evaluation.rank_s": total["evaluation.rank"],
            "evaluation.rank_calls": count["evaluation.rank"],
            "evaluation.self_s": self_total["evaluation.compare"],
            "cli.write_s": self_total["cli.write"],
            "cli.self_s": self_total["cli.main"],
            "cli.call_s": call_s,
        }
    )
    out = {k: v / calls for k, v in out.items()}
    # ratios of totals need no per-call scaling
    out["engine.posterior_per_result"] = posterior_n / results if results else 0.0
    out["engine.ns_per_cell_node"] = 1e9 * posterior_s / cell_nodes if cell_nodes else 0.0
    out["engine.posterior_share"] = posterior_s / call_s if call_s else 0.0
    out["priors.build_share"] = total["priors.build"] / call_s if call_s else 0.0
    return out
