"""Crime-series ingestion: either CSV layout to grouped per-offender series.

A file's header row tells its layout: geographic (``CSV_HEADER``, WGS84
decimal degrees) or planar (``UTM_CSV_HEADER``, UTM kilometres; both
anchor cells may be blank). The rows are read in one ``csv`` pass, a
block at a time, into columns of numbers, and rows of either layout get
the same checks over the block's arrays. A block that fails one has its
rows checked again one at a time, so the error names its first bad row
and that row's cells.
One grouping step then puts every point on one shared UTM zone, so the
whole jurisdiction lives on a single planar frame (geographic points are
projected into it, planar points must already be in it), drops offenders
with fewer than three crimes and rejects conflicting anchors. Each
series keeps its sites as a view of one coordinate array; no point
object is built per crime.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from itertools import islice, repeat
from operator import add, itemgetter

import numpy as np

from geoprofile.geodesy import (
    GeoPoint,
    OutOfRangeError,
    UtmPoint,
    check_zone,
    in_utm,
    latlon_to_utm,
    on_globe,
)
from geoprofile.grid import DEFAULT_ZONE

__all__ = [
    "CSV_HEADER",
    "UTM_CSV_HEADER",
    "CrimeSeries",
    "Dataset",
    "SchemaError",
    "RowError",
    "DataError",
    "UnknownOffenderError",
    "anchor_rows",
    "csv_text",
    "read_dataset",
    "read_geographic",
]

logger = logging.getLogger(__name__)

CSV_HEADER = [
    "offender_id",
    "crime_id",
    "ucr_code",
    "crime_lat",
    "crime_lon",
    "anchor_lat",
    "anchor_lon",
]
UTM_CSV_HEADER = CSV_HEADER[:3] + [
    "zone", "crime_easting_km", "crime_northing_km", "anchor_easting_km", "anchor_northing_km"
]

MIN_SERIES_LENGTH = 3
ANCHOR_CONSISTENCY_DEG = 1e-9

# data rows per block of the columnar parse: a block's strings are turned
# into numbers and dropped before the next block is read, so a file's rows
# are never all held as strings at once
_BLOCK_ROWS = 1024
# characters per chunk of ``_lines``: only one chunk's line strings are held
# at once, so they do not spread over allocator arenas that outlive the read
_CHUNK_CHARS = 1 << 16


class SchemaError(ValueError):
    """The file header matches neither CSV layout."""


class RowError(ValueError):
    """A data row could not be parsed or violates a coordinate range."""


class DataError(ValueError):
    """Records are individually fine but mutually inconsistent."""


class UnknownOffenderError(KeyError):
    """An offender id that the dataset does not hold."""


@dataclass(frozen=True, eq=False)
class CrimeSeries:
    """One offender's crime sites on the planar frame.

    ``xy`` holds the sites as a read-only (n, 2) easting/northing array in
    km, every one in UTM ``zone``. A read-only float array is kept as
    given, so series can be views of one shared array; any other array is
    copied. The coordinates are not range-checked here: the loader and
    the sampler check them. The anchor is ground truth carried along for
    evaluation only; no estimation code may read it.
    """

    offender_id: str
    xy: np.ndarray
    zone: int
    anchor: UtmPoint | None = None

    def __post_init__(self) -> None:
        xy = self.xy
        if not (isinstance(xy, np.ndarray) and xy.dtype == float and not xy.flags.writeable):
            xy = np.array(xy, dtype=float)
            xy.flags.writeable = False
            object.__setattr__(self, "xy", xy)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (n, 2) site coordinates, got shape {xy.shape}")
        if not len(xy):
            raise ValueError("a crime series needs at least one site")
        if self.anchor is not None and self.anchor.zone != self.zone:
            raise ValueError(
                f"anchor zone {self.anchor.zone} is not the series zone {self.zone}"
            )

    @property
    def n(self) -> int:
        return len(self.xy)

    def restrict(self, indices) -> "CrimeSeries":
        """Sub-series with only the given site indices (order preserved)."""
        return CrimeSeries(self.offender_id, self.xy[sorted(indices)], self.zone, self.anchor)


@dataclass(frozen=True)
class Dataset:
    series: tuple[CrimeSeries, ...]

    def __post_init__(self) -> None:
        ids = [s.offender_id for s in self.series]
        if len(ids) != len(set(ids)):
            raise DataError("offender ids must be unique")

    @property
    def total_crimes(self) -> int:
        return sum(s.n for s in self.series)

    def offender_ids(self) -> list[str]:
        return [s.offender_id for s in self.series]

    def get(self, offender_id: str) -> CrimeSeries:
        for s in self.series:
            if s.offender_id == offender_id:
                return s
        raise UnknownOffenderError(f"unknown offender id {offender_id!r}")


def _geo(lat: str, lon: str) -> GeoPoint:
    return GeoPoint(float(lat), float(lon))


def _utm(zone: str, easting: str, northing: str) -> UtmPoint:
    return UtmPoint(int(zone), float(easting), float(northing))


def _point(row_num: int, names, make, cells):
    """``make(*cells)``; a bad number or range names the row and the columns."""
    try:
        return make(*cells)
    except ValueError as exc:
        raise RowError(
            f"row {row_num}: {','.join(names)}={','.join(cells)!r}: {exc}"
        ) from None


def _utm_anchor(zone: str, easting: str, northing: str) -> UtmPoint | None:
    """A planar anchor, or None when both of its cells are blank."""
    if not (easting.strip() or northing.strip()):
        return None
    return _utm(zone, easting, northing)


def _check_row(row_num: int, row: list[str], header: tuple[str, ...]) -> None:
    """Check one data row on its own, in order: field count, offender id,
    crime site, anchor. Raise RowError, naming the row, at its first
    failure."""
    if len(row) != len(header):
        raise RowError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
    if not row[0].strip():
        raise RowError(f"row {row_num}: empty offender_id")
    for make, cells_of in _LAYOUTS[header]:
        _point(row_num, cells_of(header), make, cells_of(row))


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _floats(cells) -> np.ndarray:
    """``float`` of every cell, NaN where it raises; NaN fails every range
    check, as the cell would fail its row's."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.array([_float_or_nan(c) for c in cells], dtype=float)


def _repeated_floats(cells) -> np.ndarray:
    """``_floats`` of a column whose cells repeat, as an offender's anchor
    does on each of its rows: every distinct cell is parsed once."""
    distinct = list(dict.fromkeys(cells))
    value = dict(zip(distinct, _floats(distinct).tolist()))
    return np.fromiter(map(value.__getitem__, cells), float, len(cells))


def _zones(cells) -> np.ndarray:
    """``int`` of every zone cell, 0 where it raises or is not a UTM zone."""
    value = {}
    for cell in set(cells):
        try:
            value[cell] = int(cell)
            check_zone(value[cell])
        except ValueError:
            value[cell] = 0
    return np.fromiter(map(value.__getitem__, cells), np.int64, len(cells))


def _geographic(columns):
    """``(site, anchor, zone, ok)`` of a block of geographic rows: (k, 2)
    lat/lon arrays, no zone column, and the rows that pass every check."""
    site = np.column_stack([_floats(columns[3]), _floats(columns[4])])
    anchor = np.column_stack([_repeated_floats(columns[5]), _repeated_floats(columns[6])])
    return site, anchor, None, on_globe(site) & on_globe(anchor)


def _planar(columns):
    """``(site, anchor, zone, ok)`` of a block of planar rows: (k, 2)
    easting/northing arrays, an anchor NaN where both of its cells are
    blank, the zone of each row, and the rows that pass every check."""
    zone = _zones(columns[3])
    site = np.column_stack([_floats(columns[4]), _floats(columns[5])])
    anchor = np.column_stack([_repeated_floats(columns[6]), _repeated_floats(columns[7])])
    blank = np.zeros(len(zone), dtype=bool)
    for i in np.flatnonzero(np.isnan(anchor).any(axis=1)).tolist():
        blank[i] = not (columns[6][i].strip() or columns[7][i].strip())
    return site, anchor, zone, (zone > 0) & in_utm(*site.T) & (blank | in_utm(*anchor.T))


# header -> (make, columns) of the crime site and of the anchor: the checks
# of one row
_LAYOUTS = {
    tuple(CSV_HEADER): ((_geo, itemgetter(3, 4)), (_geo, itemgetter(5, 6))),
    tuple(UTM_CSV_HEADER): (
        (_utm, itemgetter(3, 4, 5)),
        (_utm_anchor, itemgetter(3, 6, 7)),
    ),
}
# header -> the checks of a block of rows, over arrays
_BLOCK_CHECKS = {tuple(CSV_HEADER): _geographic, tuple(UTM_CSV_HEADER): _planar}


def _lines(text: str):
    r"""The lines of ``text`` as a text stream with ``newline="\n"`` reads
    them, each split after its ``"\n"`` (a ``"\r\n"`` stays whole), but
    split a chunk at a time rather than copied whole into such a stream."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        *lines, last = text[start:end].split("\n")
        yield from map(add, lines, repeat("\n"))
        if last:
            yield last
        start = end


def _reader(text: str, headers):
    """A CSV reader over the lines of ``text``, past its header row, and
    that header, which must be one of ``headers``."""
    reader = csv.reader(_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: expected a header row") from None
    header = tuple(h.strip().lstrip("\ufeff") for h in header)
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise SchemaError(f"header mismatch: expected {expected}, got {','.join(header)}")
    return reader, header


def _first_error(nums, rows, header: tuple[str, ...]):
    """Raise ``_check_row``'s RowError at the first row, in file order,
    that fails it; blank rows are skipped. ``rows`` holds one that fails a
    check of ``_blocks``."""
    for num, row in zip(nums, rows):
        if "".join(row).strip():
            _check_row(num, row, header)
    raise AssertionError(f"rows {nums[0]}-{nums[-1]} fail a block check only")


def _blocks(reader, header: tuple[str, ...]):
    """The data rows of a CSV reader past ``header``, a block at a time, as
    ``(ids, columns, site, anchor, zone)``: stripped offender ids, the
    block's cells column by column, and the arrays of its layout's block
    check. Blank rows are skipped. The first row, in file order, that
    fails any check raises RowError from ``_check_row``."""
    check = _BLOCK_CHECKS[header]
    width = len(header)
    row_num = 2
    while block := list(islice(reader, _BLOCK_ROWS)):
        nums = range(row_num, row_num + len(block))
        row_num += len(block)
        ids = None
        if set(map(len, block)) == {width}:
            columns = list(zip(*block))
            ids = list(map(str.strip, columns[0]))
        if ids is None or "" in ids:
            # blank rows, or a row with the wrong field count or an empty id
            rows = [row for row in block if "".join(row).strip()]
            if any(len(row) != width or not row[0].strip() for row in rows):
                _first_error(nums, block, header)
            if not rows:
                continue
            columns = list(zip(*rows))
            ids = list(map(str.strip, columns[0]))
        site, anchor, zone, ok = check(columns)
        if not ok.all():
            _first_error(nums, block, header)
        yield ids, columns, site, anchor, zone


def read_geographic(text: str):
    """``(ids, crime_ids, ucr_codes, site, anchor)`` of the data rows of
    geographic CSV ``text``: the stripped text cells, and (n, 2) lat/lon
    arrays of the crime sites and of the anchors. Rows are read and
    checked as ``read_dataset`` reads them; a bad row raises RowError."""
    reader, header = _reader(text, (tuple(CSV_HEADER),))
    ids, crime_ids, ucr_codes = [], [], []
    sites, anchors = [np.empty((0, 2))], [np.empty((0, 2))]
    for block_ids, columns, site, anchor, _ in _blocks(reader, header):
        ids += block_ids
        crime_ids += map(str.strip, columns[1])
        ucr_codes += map(str.strip, columns[2])
        sites.append(site)
        anchors.append(anchor)
    return ids, crime_ids, ucr_codes, np.concatenate(sites), np.concatenate(anchors)


def anchor_rows(ids: list[str], anchor: np.ndarray) -> np.ndarray:
    """Per row of ``read_geographic``'s columns, the index of its offender's
    first row, whose anchor ``read_dataset`` keeps. Raises DataError, as
    ``read_dataset`` does, when an offender's anchors lie more than
    ANCHOR_CONSISTENCY_DEG apart."""
    first_rows: dict[str, int] = {}
    codes = np.fromiter(map(first_rows.setdefault, ids, range(len(ids))), np.intp, len(ids))
    far = ~_near_first_anchor(anchor, codes)
    if far.any():
        raise DataError(f"offender {ids[codes[far].min()]}: inconsistent anchor coordinates")
    return codes


def read_dataset(text: str, zone: int = DEFAULT_ZONE) -> Dataset:
    """Either CSV layout, told apart by its header, as series in ``zone``.
    A ``zone`` that is not a UTM zone raises OutOfRangeError before any
    row is read."""
    check_zone(zone, "configured zone")
    ids, *columns = _columns(text)
    return _group(ids, *columns, zone) if ids else Dataset(())


def _columns(text: str):
    """``(ids, codes, site, anchor, row_zone)`` of the data rows of CSV
    ``text`` in either layout: the offenders in the order of their first
    rows; per row, the index of its offender's first row; the arrays of
    ``_blocks``, joined; and a planar file's zones, None for a geographic
    file. The reader and its lines are freed when this returns."""
    reader, header = _reader(text, _LAYOUTS)
    first_rows: dict[str, int] = {}
    codes, sites, anchors, zones = [], [], [], []
    rows = 0
    for ids, _, site, anchor, row_zone in _blocks(reader, header):
        codes.append(
            np.fromiter(
                map(first_rows.setdefault, ids, range(rows, rows + len(ids))),
                np.intp,
                len(ids),
            )
        )
        rows += len(ids)
        sites.append(site)
        anchors.append(anchor)
        zones.append(row_zone)
    if not rows:
        return [], None, None, None, None
    return (
        list(first_rows),
        np.concatenate(codes),
        np.concatenate(sites),
        np.concatenate(anchors),
        None if zones[0] is None else np.concatenate(zones),
    )


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, LF line endings, for every writer whose
    rows can carry text. A field holding a comma, a quote or a line break is
    quoted by CSV rules; floats print as ``repr`` and ints as ``str``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _near_first_anchor(anchor: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per geographic row: whether its anchor lies within
    ANCHOR_CONSISTENCY_DEG of the anchor of row ``codes``, its offender's
    first."""
    delta = np.abs(anchor - anchor[codes])
    return np.maximum(delta[:, 0], delta[:, 1]) <= ANCHOR_CONSISTENCY_DEG


def _group(ids, codes, site, anchor, row_zone, zone: int) -> Dataset:
    """Series on ``zone`` from the columns of every row: ``codes`` gives the
    index of the first row of each row's offender, ``ids`` the offenders in
    the order of their first rows. ``row_zone`` is the zone column of a
    planar file and None for a geographic one, whose points are projected."""
    first, offender, counts = np.unique(codes, return_inverse=True, return_counts=True)
    # each row's anchor against its offender's first one
    if row_zone is None:
        same = _near_first_anchor(anchor, codes)
    else:
        known = ~np.isnan(anchor[:, 0])
        same = (known == known[codes]) & (
            ~known
            | ((row_zone == row_zone[codes]) & (anchor == anchor[codes]).all(axis=1))
        )
    inconsistent = np.zeros(len(first), dtype=bool)
    inconsistent[offender[~same]] = True
    short = counts < MIN_SERIES_LENGTH
    for j in np.flatnonzero(inconsistent | short).tolist():
        if inconsistent[j]:
            raise DataError(f"offender {ids[j]}: inconsistent anchor coordinates")
        logger.warning(
            "excluding offender %s: only %d crime(s), need %d",
            ids[j], int(counts[j]), MIN_SERIES_LENGTH,
        )

    # every kept offender's sites, in file order, then its anchor, in one
    # array; ends holds the index of each kept offender's anchor
    kept = ~short
    rows = np.argsort(codes, kind="stable")
    rows = rows[kept[offender[rows]]]
    lengths = counts[kept]
    ends = np.cumsum(lengths + 1) - 1
    heads = first[kept]
    points = np.empty((len(rows) + len(ends), 2))
    is_site = np.ones(len(points), dtype=bool)
    is_site[ends] = False
    points[is_site] = site[rows]
    points[ends] = anchor[heads]
    kept_ids = [oid for oid, keep in zip(ids, kept.tolist()) if keep]
    starts = (ends - lengths).tolist()

    if row_zone is None:
        xy = _projected(points, kept_ids, starts, ends.tolist(), zone)
    else:
        point_zone = np.full(len(points), zone)
        point_zone[is_site] = row_zone[rows]
        known = ~np.isnan(anchor[heads, 0])
        point_zone[ends[known]] = row_zone[heads[known]]
        off = np.flatnonzero(point_zone != zone)
        if len(off):
            j = int(np.searchsorted(ends, off[0]))
            raise DataError(
                f"offender {kept_ids[j]}: zone {int(point_zone[off[0]])} "
                f"is not the configured zone {zone}"
            )
        xy = points

    xy.flags.writeable = False
    series = []
    for offender_id, start, end, (easting, northing) in zip(
        kept_ids, starts, ends.tolist(), xy[ends].tolist()
    ):
        anchor_point = None if math.isnan(easting) else UtmPoint(zone, easting, northing)
        series.append(CrimeSeries(offender_id, xy[start:end], zone, anchor_point))
    return Dataset(tuple(series))


def _projected(points: np.ndarray, ids, starts, ends, zone: int) -> np.ndarray:
    """Lat/lon ``points`` projected onto ``zone`` by one ``latlon_to_utm``
    call; a point outside the zone's range names the first offender, in
    ``ids`` order, whose span ``starts[j]:ends[j] + 1`` holds one."""
    if not len(points):
        return points
    try:
        return latlon_to_utm(points, forced_zone=zone)
    except OutOfRangeError:
        for offender_id, start, end in zip(ids, starts, ends):
            try:
                latlon_to_utm(points[start : end + 1], forced_zone=zone)
            except OutOfRangeError as exc:
                raise DataError(f"offender {offender_id}: {exc}") from exc
        raise
