"""Command-line front end: convert, classify, profile, evaluate, emit-grid.

Configuration is a flat ``key = value`` text file; command-line flags
override file values. All outputs are plain CSV/PGM/JSON and are
byte-identical across reruns with the same configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from geoprofile.classify import check_options, classify, label_dataset
from geoprofile.dataset import (
    UTM_CSV_HEADER,
    Dataset,
    UnknownOffenderError,
    anchor_rows,
    csv_text,
    read_dataset,
    read_geographic,
)
from geoprofile.engine import (
    DegenerateSurfaceError,
    MethodId,
    NONRES_WEIGHT_FROM_FREQUENCIES,
    PosteriorSurface,
    QUADRATURE_PARAMS,
    check_nonres_weight,
    check_quadrature,
)
from geoprofile.evaluation import Scope, compare_methods, offender_surfaces, rank_cells
from geoprofile.geodesy import latlon_to_utm
from geoprofile.grid import DEFAULT_ZONE, Grid

# profile calls these through evaluation.offender_surfaces; perfbench's
# tracer still looks them up here by name (ROADMAP item 17)
from geoprofile.engine import run_method  # noqa: F401
from geoprofile.priors import build_prior_set  # noqa: F401
from geoprofile.rossmo import hit_score_surface  # noqa: F401

__all__ = ["RunConfig", "load_config", "load_dataset", "main"]

DEFAULT_METHODS = tuple(MethodId)


@dataclass
class RunConfig:
    dataset: str | None = None
    out_dir: str = "out"
    grid: Grid = field(default_factory=Grid)
    methods: tuple[MethodId, ...] = DEFAULT_METHODS
    scope: Scope = Scope.ALL
    nonres_weight: float = NONRES_WEIGHT_FROM_FREQUENCIES
    quadrature: dict = field(default_factory=dict)
    classifier_options: dict = field(default_factory=dict)


def _parse_methods(raw: str) -> tuple[MethodId, ...]:
    tokens = [token.strip().lower() for token in raw.split(",")]
    if tokens == [""]:
        raise ValueError("empty method list")
    if "" in tokens:
        raise ValueError("empty method name")
    out = []
    for token in tokens:
        try:
            out.append(MethodId(token))
        except ValueError:
            valid = ", ".join(m.value for m in MethodId)
            raise ValueError(f"unknown method {token!r}; choose from {valid}") from None
    return tuple(out)


def _parse_scope(raw: str) -> Scope:
    try:
        return Scope(raw.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown scope {raw!r}; choose 'residents' or 'all'"
        ) from None


def _parse_grid_shape(raw: str) -> tuple[int, int]:
    """'WxH' -> (ncols, nrows)."""
    try:
        w, h = raw.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ValueError(f"grid shape must look like 100x70, got {raw!r}") from None


def _parse_bounds(raw: str) -> tuple[float, float, float, float]:
    try:
        west, east, south, north = map(float, raw.split(","))
    except ValueError:
        raise ValueError(f"bounds must be W,E,S,N, got {raw!r}") from None
    return west, east, south, north


def _parse_number(key: str, value: str, kind: type):
    """``kind(value)``, ``kind`` int or float; a value it refuses names ``key``."""
    try:
        return kind(value)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {value!r}") from None


_CLASSIFIER_KEYS = {
    "classify_nn_km": "nn_threshold_km",
    "classify_cutoff_km": "cluster_cutoff_km",
    "classify_single_coverage": "single_cluster_coverage",
    "classify_multi_coverage": "multi_cluster_coverage",
}
_NODE_KEYS = {f"nodes_{p}": p for p in QUADRATURE_PARAMS}


def _set_key(config: RunConfig, key: str, value: str) -> None:
    """Apply one ``key = value`` setting, from a config file or a flag."""
    if key in ("dataset", "out") and not value:
        raise ValueError("empty path")
    if key == "dataset":
        config.dataset = value
    elif key == "out":
        config.out_dir = value
    elif key == "methods":
        config.methods = _parse_methods(value)
    elif key == "scope":
        config.scope = _parse_scope(value)
    elif key == "nonres_weight":
        weight = _parse_number(key, value, float)
        check_nonres_weight(weight)
        config.nonres_weight = weight
    elif key == "grid":
        ncols, nrows = _parse_grid_shape(value)
        config.grid = replace(config.grid, ncols=ncols, nrows=nrows)
    elif key == "bounds":
        west, east, south, north = _parse_bounds(value)
        config.grid = replace(config.grid, west=west, east=east, south=south, north=north)
    elif key == "zone":
        config.grid = replace(config.grid, zone=_parse_number(key, value, int))
    elif key in _NODE_KEYS:
        config.quadrature[_NODE_KEYS[key]] = _parse_number(key, value, int)
        check_quadrature(config.quadrature)
    elif key in _CLASSIFIER_KEYS:
        config.classifier_options[_CLASSIFIER_KEYS[key]] = _parse_number(key, value, float)
        check_options(**config.classifier_options)
    else:
        raise ValueError(f"unknown key {key!r}")


def load_config(path) -> RunConfig:
    """Read a flat key = value config file."""
    config = RunConfig()
    for line_num, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_num}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            _set_key(config, key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{line_num}: {exc}") from None
    return config


def _apply_flags(config: RunConfig, args) -> RunConfig:
    """Command-line flags override the config file, key by key; a value
    refused names its flag."""
    for flag in ("dataset", "out", "method", "scope", "grid", "bounds"):
        key, value = flag, getattr(args, flag, None)
        if flag == "method" and value is not None:  # repeatable; the config key is "methods"
            key, value = "methods", ",".join(value)
        if value is not None:  # "" too, which _set_key refuses
            try:
                _set_key(config, key, value)
            except ValueError as exc:
                raise ValueError(f"--{flag}: {exc}") from None
    return config


def load_dataset(path, zone: int = DEFAULT_ZONE) -> Dataset:
    """Read either CSV layout into series on ``zone``'s planar frame."""
    return read_dataset(Path(path).read_text(encoding="utf-8"), zone=zone)


def _write_text(path, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_convert(config: RunConfig, args) -> int:
    ids, crime_ids, ucr_codes, site, anchor = read_geographic(
        Path(args.input).read_text(encoding="utf-8")
    )
    # one projection call: each row's crime site, then its anchor
    zone = config.grid.zone
    projected = latlon_to_utm(np.hstack([site, anchor]).reshape(-1, 2), zone).reshape(-1, 4)
    # every row carries its offender's first-row anchor, as the reader does
    projected[:, 2:] = projected[anchor_rows(ids, anchor), 2:]
    rows = [
        (offender_id, crime_id, ucr_code, zone, *km)
        for offender_id, crime_id, ucr_code, km in zip(
            ids, crime_ids, ucr_codes, projected.tolist()
        )
    ]
    _write_text(args.out, csv_text(UTM_CSV_HEADER, rows))
    return 0


def cmd_classify(config: RunConfig, args) -> int:
    ds = load_dataset(config.dataset, zone=config.grid.zone)
    labels = label_dataset(ds, **config.classifier_options)
    rows = [(oid, label.kind.value, len(label.clusters)) for oid, label in labels.items()]
    _write_text(args.out, csv_text(("offender_id", "label", "n_clusters"), rows))
    return 0


def _cell_centers(grid: Grid) -> tuple[list[float], list[float]]:
    """Column eastings and row northings as Python floats, so ``repr``
    prints plain numbers."""
    return grid.east_centers.tolist(), grid.north_centers.tolist()


def write_surface_csv(surface: PosteriorSurface, path) -> None:
    eastings, northings = _cell_centers(surface.grid)
    # each center is formatted once, not once per cell
    heads = [f",{col},{easting!r}," for col, easting in enumerate(eastings)]
    lines = ["row,col,easting,northing,mass"]
    for row, (northing, masses) in enumerate(zip(northings, surface.mass.tolist())):
        tail = f"{northing!r},"
        lines += [f"{row}{head}{tail}{mass!r}" for head, mass in zip(heads, masses)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_surface_pgm(surface: PosteriorSurface, path) -> None:
    """8-bit ASCII PGM, north row first, mass rescaled so the peak is 255."""
    grid = surface.grid
    scaled = np.rint(surface.mass / surface.mass.max() * 255.0).astype(int)
    lines = ["P2", f"{grid.ncols} {grid.nrows}", "255"]
    # Python ints format faster than numpy ones, to the same text
    lines += [" ".join(map(str, row)) for row in scaled[::-1].tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_surface_sidecar(
    surface: PosteriorSurface, offender_id: str, method: MethodId, subtype: str, path
) -> None:
    eastings, northings = _cell_centers(surface.grid)
    top = []
    for rank, (row, col) in enumerate(rank_cells(surface)[:20], start=1):
        top.append(
            {
                "rank": rank,
                "row": row,
                "col": col,
                "easting": eastings[col],
                "northing": northings[row],
                "mass": float(surface.mass[row, col]),
            }
        )
    payload = {
        "offender_id": offender_id,
        "method": method.value,
        "subtype": subtype,
        "top_cells": top,
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def cmd_profile(config: RunConfig, args) -> int:
    ds = load_dataset(config.dataset, zone=config.grid.zone)
    series = ds.get(args.offender)
    oid = series.offender_id
    if oid in (".", "..") or "\0" in oid or os.path.basename(oid) != oid:
        raise ValueError(
            f"offender id {oid!r} is not a plain file name, "
            "and profile names its outputs after it"
        )
    methods = tuple(dict.fromkeys(config.methods))
    if methods == (MethodId.ROSSMO,):
        # the hit score needs no labels; the sidecar needs only this one
        labels = {oid: classify(series.xy, **config.classifier_options)}
    else:
        labels = label_dataset(ds, **config.classifier_options)
    # every surface before any file, so an error writes nothing
    surfaces = offender_surfaces(
        ds, series, methods, labels, config.grid, config.nonres_weight, config.quadrature or None
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for method, surface in surfaces.items():
        stem = f"{oid}_{method.value}"
        write_surface_csv(surface, out_dir / f"{stem}_surface.csv")
        write_surface_pgm(surface, out_dir / f"{stem}.pgm")
        write_surface_sidecar(
            surface, oid, method, labels[oid].kind.value, out_dir / f"{stem}.json"
        )
        print(f"wrote {stem}_surface.csv, {stem}.pgm, {stem}.json in {out_dir}")
    return 0


def cmd_evaluate(config: RunConfig, args) -> int:
    ds = load_dataset(config.dataset, zone=config.grid.zone)
    report = compare_methods(
        ds,
        config.methods,
        config.scope,
        grid=config.grid,
        nonres_weight=config.nonres_weight,
        classifier_options=config.classifier_options,
        quadrature=config.quadrature or None,
    )
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "results.csv").write_text(report.results_csv(), encoding="utf-8")
    (out_dir / "curves.csv").write_text(report.curves_csv(), encoding="utf-8")
    print(report.format_table())
    missing = [
        m.value for m in report.methods if all(c.method is not m for c in report.curves)
    ]
    for failure in report.failures:
        method = f" method {failure.method}" if failure.method else ""
        print(f"error: offender {failure.offender_id}{method}: {failure.message}", file=sys.stderr)
    if missing:
        print(f"error: no results for method(s): {', '.join(missing)}", file=sys.stderr)
        return 1
    return 1 if report.failures else 0


def cmd_emit_grid(config: RunConfig, args) -> int:
    eastings, northings = _cell_centers(config.grid)
    lines = ["row,col,easting,northing"]
    for row, northing in enumerate(northings):
        lines += [
            f"{row},{col},{easting!r},{northing!r}" for col, easting in enumerate(eastings)
        ]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


_FLAGS = {
    "input": {"help": "canonical geographic CSV"},
    "--dataset": {"help": "input series CSV"},
    "--out": {"help": "output file (stdout if absent), or for profile and evaluate a directory"},
    "--offender": {"required": True},
    "--method": {"action": "append", "help": "method id (repeatable)"},
    "--scope": {"help": "residents | all"},
    "--grid": {"help": "grid shape WxH, e.g. 100x70"},
    "--bounds": {"help": "grid bounds W,E,S,N in km"},
}

# each command's handler, help and the flags it reads besides --config
COMMANDS = {
    "convert": (cmd_convert, "project a geographic CSV to the planar layout", ("input", "--out")),
    "classify": (cmd_classify, "emit per-offender subtype labels", ("--dataset", "--out")),
    "profile": (
        cmd_profile,
        "one offender's surface under each method",
        ("--dataset", "--out", "--offender", "--method", "--grid", "--bounds"),
    ),
    "evaluate": (
        cmd_evaluate,
        "search-fraction comparison of methods",
        ("--dataset", "--out", "--method", "--scope", "--grid", "--bounds"),
    ),
    "emit-grid": (cmd_emit_grid, "write the grid cell centers", ("--out", "--grid", "--bounds")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoprofile",
        description="Anchor-point estimation from serial crime-site coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one command; a bad input, file or surface is one error line and
    exit 1, while any other exception is a defect and propagates."""
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig()
        config = _apply_flags(config, args)
        handler, _, flags = COMMANDS[args.command]
        if "--dataset" in flags and not config.dataset:
            raise ValueError("a dataset is required (--dataset or config)")
        return handler(config, args)
    except (ValueError, UnknownOffenderError, OSError, DegenerateSurfaceError) as exc:
        # str() of a KeyError is the repr of its argument, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
