"""The benchmark's three workloads, their set-up, timing loops and checks.

Every workload calls the real entry point, ``geoprofile.cli.main``, in
this process and on one thread: one closed-loop client that sends its
next command when the previous one has returned. Untraced rounds give
the end-to-end metrics; a traced run alternates untraced and traced
rounds of the same fixed work and gives the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import geoprofile.cli
from perfbench import hostspeed, inputs, tracing

ALL_METHODS = ("1a", "1b", "2ai", "2aii", "2bi", "2bii", "rossmo")

# The default jurisdiction grid, which every workload uses: 1 km cells,
# 100 columns by 70 rows, row 0 at the southern edge.
GRID_WEST, GRID_SOUTH, GRID_NCOLS, GRID_NROWS, CELL_KM = 300.0, 4330.0, 100, 70, 1.0
GRID_CELLS = GRID_NCOLS * GRID_NROWS
MASS_TOLERANCE = 1e-9

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "evaluate" or "profile"
    population: str  # "planar" or "latlon"
    offenders: int
    methods: tuple[str, ...]
    sample: int = 0  # profile: offenders profiled per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-mixed",
            "evaluate, all 7 methods, mixed planar population: the engine node "
            "sweep dominates; exercises engine kernels and sharing",
            "evaluate",
            "planar",
            12,
            ALL_METHODS,
        ),
        Workload(
            "profile-large",
            "closed-loop profile --method 1a over a 300-offender population: "
            "load, classify-all, LOO priors over 299 donors, one surface, writers",
            "profile",
            "planar",
            300,
            ("1a",),
            sample=18,
        ),
        Workload(
            "baseline-geo",
            "evaluate --method rossmo on a 2100-offender lat/lon file: projection, "
            "hit score and ranking; no priors or engine calls",
            "evaluate",
            "latlon",
            2100,
            ("rossmo",),
        ),
    )
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _population(w: Workload, seed: int) -> tuple[list[inputs.Offender], str]:
    if w.population == "planar":
        pop = inputs.planar_population(seed, w.offenders)
        return pop, inputs.planar_csv(pop)
    pop = inputs.latlon_population(seed, w.offenders)
    return pop, inputs.latlon_csv(pop)


def _cli(argv: list[str]) -> int:
    """Run one CLI command in-process, its printing captured; return its status."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return geoprofile.cli.main(argv)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


class Run:
    """One benchmark run of one workload: set-up, rounds, checks, metrics."""

    def __init__(self, w: Workload, seed: int, workdir: Path) -> None:
        self.w, self.seed, self.workdir = w, seed, workdir
        self.tally = Tally()
        self.latencies: list[float] = []  # seconds per CLI call
        self.output_sha: dict[str, str] = {}
        self.outputs_stable = True
        self.fractions: dict[tuple[str, str], float] = {}  # (offender, method)
        self.inputs_identical = True
        self.sample: list[inputs.Offender] = []  # profile: offenders per round

    # -- set-up ---------------------------------------------------------

    def setup(self) -> float:
        """Generate and write the inputs, then warm the CLI on a tiny file.

        Repeated SETUP_REPEATS times; every repeat must write the same
        bytes. Returns the median repeat time.
        """
        self.dataset = self.workdir / "input.csv"
        warm = self.workdir / "warm.csv"
        times, shas = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            pop, text = _population(self.w, self.seed)
            data = text.encode("utf-8")
            self.dataset.write_bytes(data)
            warm.write_text(inputs.planar_csv(inputs.planar_population(self.seed, 3)))
            _cli(["evaluate", "--dataset", str(warm), "--out", str(self.workdir / "warm"),
                  "--method", "1a", "--method", "rossmo"])
            times.append(time.perf_counter() - start)
            shas.add(_sha256(data))
        self.inputs_identical = len(shas) == 1
        self.input_sha = shas.pop()
        self.population = pop
        self.kept = inputs.kept(pop)
        if self.w.command == "profile":
            self.sample = self._profile_sample()
        return statistics.median(times)

    def _profile_sample(self) -> list[inputs.Offender]:
        """Seeded sample with the same count from each behaviour slot."""
        rng = random.Random(f"sample:{self.seed}")
        slots = len(inputs.CLASS_CYCLE)
        per_slot = max(1, self.w.sample // slots)
        picked = [
            rng.sample([o for i, o in enumerate(self.kept) if i % slots == s], per_slot)
            for s in range(slots)
        ]
        return [group[k] for k in range(per_slot) for group in picked]

    # -- rounds -----------------------------------------------------------

    def round(self) -> float:
        """One round of fixed work; returns the seconds spent in CLI calls."""
        if self.w.command == "evaluate":
            return self._evaluate()
        return sum(self._profile(o) for o in self.sample)

    @property
    def offenders_per_round(self) -> int:
        return len(self.kept) if self.w.command == "evaluate" else len(self.sample)

    def _evaluate(self) -> float:
        out = self.workdir / "evaluate"
        argv = ["evaluate", "--dataset", str(self.dataset), "--out", str(out), "--scope", "all"]
        for m in self.w.methods:
            argv += ["--method", m]
        start = time.perf_counter()
        status = _cli(argv)
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self._check_evaluate(status, out / "results.csv")
        return elapsed

    def _profile(self, offender: inputs.Offender) -> float:
        out = self.workdir / "profile"
        method = self.w.methods[0]
        argv = ["profile", "--dataset", str(self.dataset), "--out", str(out),
                "--offender", offender.offender_id, "--method", method]
        start = time.perf_counter()
        status = _cli(argv)
        elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        self._check_profile(status, offender, out / f"{offender.offender_id}_{method}")
        return elapsed

    # -- output checks ----------------------------------------------------

    def _same_output(self, key: str, data: bytes) -> bool:
        sha = _sha256(data)
        first = self.output_sha.setdefault(key, sha)
        if first != sha:
            self.outputs_stable = False
        return first == sha

    def _check_evaluate(self, status: int, results: Path) -> None:
        expected = {(o.offender_id, m) for o in self.kept for m in self.w.methods}
        self.tally.attempted += len(expected)
        if status != 0 or not results.exists():
            self.tally.fail(len(expected), f"evaluate exited {status}")
            return
        data = results.read_bytes()
        if not self._same_output("results.csv", data):
            self.tally.fail(len(expected), "results.csv differs from the first repeat")
            return
        lines = data.decode("utf-8").splitlines()
        seen, good = set(), set()
        for line in lines[1:]:
            oid, method, _subtype, _cells, fraction = line.split(",")
            key = (oid, method)
            if key in seen or key not in expected:
                self.tally.fail(1, f"unexpected or repeated row {key}")
                continue
            seen.add(key)
            if 0.0 < float(fraction) <= 1.0:
                good.add(key)
                self.fractions[key] = float(fraction)
        if len(good) < len(expected):
            self.tally.fail(len(expected) - len(good), "missing or out-of-range results")

    def _check_profile(self, status: int, offender: inputs.Offender, stem: Path) -> None:
        self.tally.attempted += 1
        oid = offender.offender_id
        surface_csv = Path(f"{stem}_surface.csv")
        sidecar, pgm = Path(f"{stem}.json"), Path(f"{stem}.pgm")
        if status != 0 or not (surface_csv.exists() and sidecar.exists() and pgm.exists()):
            self.tally.fail(1, f"profile {oid} exited {status} or wrote no outputs")
            return
        data = surface_csv.read_bytes()
        if not self._same_output(oid, data):
            self.tally.fail(1, f"profile {oid}: surface differs from the first repeat")
            return
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1)
        if table.shape != (GRID_CELLS, 5):
            self.tally.fail(1, f"profile {oid}: surface has shape {table.shape}")
            return
        mass = table[:, 4]
        if abs(float(mass.sum()) - 1.0) > MASS_TOLERANCE or np.any(mass < 0.0):
            self.tally.fail(1, f"profile {oid}: mass sums to {mass.sum()!r}")
            return
        top = json.loads(sidecar.read_text(encoding="utf-8"))["top_cells"][0]
        peak = int(np.argmax(mass))  # first maximum in row-major order
        if (top["row"], top["col"]) != divmod(peak, GRID_NCOLS):
            self.tally.fail(1, f"profile {oid}: sidecar top cell is not the argmax")
            return
        header = pgm.read_text(encoding="ascii").split("\n", 3)[:3]
        if header != ["P2", f"{GRID_NCOLS} {GRID_NROWS}", "255"]:
            self.tally.fail(1, f"profile {oid}: bad PGM header {header}")
            return
        self.fractions[(oid, self.w.methods[0])] = _search_fraction(mass, offender.anchor)

    # -- facts ------------------------------------------------------------

    def facts(self) -> dict:
        out = self.workdir / "classify.csv"
        status = _cli(["classify", "--dataset", str(self.dataset), "--out", str(out)])
        subtypes = (
            Counter(line.split(",")[1] for line in out.read_text().splitlines()[1:])
            if status == 0
            else {}
        )
        return {
            "offenders_generated": len(self.population),
            "offenders": len(self.kept),
            "crimes_generated": sum(len(o.crimes) for o in self.population),
            "crimes": sum(len(o.crimes) for o in self.kept),
            "behaviours": dict(sorted(Counter(o.behaviour for o in self.kept).items())),
            "subtypes": dict(sorted(subtypes.items())),
            "grid": f"{GRID_NCOLS}x{GRID_NROWS} cells of {CELL_KM:g} km",
            "input_sha256": self.input_sha,
            "inputs_identical_across_setups": self.inputs_identical,
            "output_sha256": _combined_sha(self.output_sha),
            "outputs_identical_across_repeats": self.outputs_stable,
            "profile_sample": [o.offender_id for o in self.sample],
        }

    def sf_mean(self, rossmo: bool) -> float:
        """Mean search fraction over the posterior methods, or the baseline."""
        values = [f for (_, m), f in self.fractions.items() if (m == "rossmo") == rossmo]
        return statistics.fmean(values) if values else 0.0

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and self.inputs_identical and self.outputs_stable


def _search_fraction(mass: np.ndarray, anchor: tuple[float, float]) -> float:
    """Share of cells examined, best first with row-major ties, to reach
    the anchor's cell (the library's rule, recomputed independently)."""
    col = min(int(math.floor((anchor[0] - GRID_WEST) / CELL_KM)), GRID_NCOLS - 1)
    row = min(int(math.floor((anchor[1] - GRID_SOUTH) / CELL_KM)), GRID_NROWS - 1)
    target = row * GRID_NCOLS + col
    m = mass[target]
    rank = int(np.count_nonzero(mass > m)) + int(np.count_nonzero(mass[:target] == m)) + 1
    return rank / GRID_CELLS


def _combined_sha(shas: dict[str, str]) -> str:
    if len(shas) == 1:
        return next(iter(shas.values()))
    return _sha256("".join(f"{k}:{v}\n" for k, v in sorted(shas.items())).encode())


def _rounds(seconds: float, one_round, min_rounds: int) -> None:
    """Closed loop: start another round while it is expected to end in time."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while done < min_rounds or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        one_round(done)
        last = time.perf_counter() - round_start
        done += 1


LAYER_UNITS = {
    "dataset.load_s": "s/call",
    "dataset.crimes": "count/call",
    "geodesy.project_s": "s/call",
    "geodesy.points": "count/call",
    "classify.s": "s/call",
    "classify.calls": "count/call",
    "priors.build_s": "s/call",
    "priors.kde2d_s": "s/call",
    "priors.density1d_s": "s/call",
    "priors.self_s": "s/call",
    "priors.build_calls": "count/call",
    "priors.donor_series": "count/call",
    "priors.build_share": "share",
    "engine.posterior_s.M1": "s/call",
    "engine.posterior_s.M2": "s/call",
    "engine.posterior_s.NONRES": "s/call",
    "engine.posterior_calls.M1": "count/call",
    "engine.posterior_calls.M2": "count/call",
    "engine.posterior_calls.NONRES": "count/call",
    "engine.combine_s": "s/call",
    "engine.m3_calls": "count/call",
    "engine.posterior_per_result": "ratio",
    "engine.cell_node_evals": "count/call",
    "engine.ns_per_cell_node": "ns",
    "engine.posterior_share": "share",
    "rossmo.hit_score_s": "s/call",
    "rossmo.calls": "count/call",
    "evaluation.rank_s": "s/call",
    "evaluation.rank_calls": "count/call",
    "evaluation.self_s": "s/call",
    "evaluation.sf_mean_posterior": "share",
    "evaluation.sf_mean_rossmo": "share",
    "cli.write_s": "s/call",
    "cli.self_s": "s/call",
    "cli.call_s": "s/call",
    "trace.overhead_share": "share",
    "host.probe_ms": "ms",
}


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path | None = None) -> dict:
    """Run one workload; return the result record (metrics, facts, tally)."""
    r = Run(w, seed, workdir)
    # set-up and each round are scaled by the probe times measured just
    # before and just after them; see hostspeed.py
    probe = hostspeed.SpeedProbe()
    probe.seconds()
    setup_raw = r.setup()
    probe.seconds()
    setup_s = setup_raw * hostspeed.REFERENCE_S / statistics.fmean(probe.samples)
    raw = {"setup_s": setup_raw}

    if not trace:
        rounds: list[tuple[float, int, int]] = []  # (call seconds, first, end call)

        def one_round(k: int) -> None:
            first = len(r.latencies)
            rounds.append((r.round(), first, len(r.latencies)))
            probe.seconds()

        # two rounds at least, so outputs are compared across repeats
        _rounds(seconds, one_round, min_rounds=2)
        around = probe.samples[1:]  # the probe after set-up starts round 0
        scales = [hostspeed.REFERENCE_S / statistics.fmean(around[k:k + 2])
                  for k in range(len(rounds))]
        calls = [t * scale for (_, a, b), scale in zip(rounds, scales)
                 for t in r.latencies[a:b]]
        offenders = r.offenders_per_round * len(rounds)
        raw.update(
            offenders_per_s=offenders / sum(t for t, _, _ in rounds),
            call_p50_ms=1e3 * float(np.percentile(r.latencies, 50)),
            call_p90_ms=1e3 * float(np.percentile(r.latencies, 90)),
        )
        metrics = {
            "setup_s": (setup_s, "s"),
            "offenders_per_s": (offenders / sum(calls), "1/s"),
            "call_p50_ms": (1e3 * float(np.percentile(calls, 50)), "ms"),
            "call_p90_ms": (1e3 * float(np.percentile(calls, 90)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer = tracing.Tracer()
        plain, traced = [], []

        def pair(k: int) -> None:
            # alternate the order so neither side always runs warmer
            for side in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
                if side == "plain":
                    plain.append(r.round())
                else:
                    with tracing.installed(tracer):
                        traced.append(r.round())

        _rounds(seconds, pair, min_rounds=1)
        probe.seconds()
        if spans_path is not None:
            tracer.write(spans_path)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
        layers["evaluation.sf_mean_posterior"] = r.sf_mean(rossmo=False)
        layers["evaluation.sf_mean_rossmo"] = r.sf_mean(rossmo=True)
        layers["host.probe_ms"] = 1e3 * statistics.median(probe.samples)
        metrics = {name: (value, LAYER_UNITS[name]) for name, value in layers.items()}

    return {
        "correct": r.correct,
        "attempted": r.tally.attempted,
        "failed": r.tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "facts": r.facts(),
        "calls": len(r.latencies),
        "latencies_ms": [round(1e3 * t, 3) for t in r.latencies],
        "unscaled": raw,
        "probe_ms": [round(1e3 * t, 3) for t in probe.samples],
        "problems": r.tally.problems,
    }
