"""Crime-series ingestion: either CSV layout to grouped per-offender series.

A file's header row tells its layout: geographic (``CSV_HEADER``, WGS84
decimal degrees) or planar (``UTM_CSV_HEADER``, UTM kilometres; both
anchor cells may be blank). Rows of either get the same checks, and one
grouping step puts every point on one shared UTM zone, so the whole
jurisdiction lives on a single planar frame (geographic points are
projected into it, planar points must already be in it), drops offenders
with fewer than three crimes and rejects conflicting anchors.
"""

from __future__ import annotations

import csv
import io
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from geoprofile.geodesy import GeoPoint, OutOfRangeError, UtmPoint, latlon_to_utm
from geoprofile.grid import DEFAULT_ZONE

__all__ = [
    "CSV_HEADER",
    "UTM_CSV_HEADER",
    "CrimeRecord",
    "CrimeSeries",
    "Dataset",
    "SchemaError",
    "RowError",
    "DataError",
    "csv_text",
    "parse_records",
    "read_dataset",
    "group_into_series",
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


class SchemaError(ValueError):
    """The file header matches neither CSV layout."""


class RowError(ValueError):
    """A data row could not be parsed or violates a coordinate range."""


class DataError(ValueError):
    """Records are individually fine but mutually inconsistent."""


@dataclass(frozen=True)
class CrimeRecord:
    offender_id: str
    crime_id: str
    ucr_code: str
    crime_site: GeoPoint | UtmPoint
    anchor: GeoPoint | UtmPoint | None

    def __post_init__(self) -> None:
        if not self.offender_id:
            raise ValueError("offender_id must be nonempty")


@dataclass(frozen=True)
class CrimeSeries:
    """One offender's crime sites on the planar frame.

    The anchor is ground truth carried along for evaluation only; no
    estimation code may read it.
    """

    offender_id: str
    sites: tuple[UtmPoint, ...]
    anchor: UtmPoint | None = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("a crime series needs at least one site")
        zones = {s.zone for s in self.sites}
        if self.anchor is not None:
            zones.add(self.anchor.zone)
        if len(zones) != 1:
            raise ValueError(f"sites span multiple UTM zones: {sorted(zones)}")

    @property
    def n(self) -> int:
        return len(self.sites)

    @cached_property
    def xy(self) -> np.ndarray:
        """(n, 2) easting/northing array in km."""
        return np.array([(s.easting, s.northing) for s in self.sites])

    def restrict(self, indices) -> "CrimeSeries":
        """Sub-series with only the given site indices (order preserved)."""
        picked = tuple(self.sites[i] for i in sorted(indices))
        return CrimeSeries(self.offender_id, picked, self.anchor)


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
        raise KeyError(f"unknown offender id {offender_id!r}")


def _text_stream(stream):
    if isinstance(stream, (bytes, bytearray)):
        return io.StringIO(stream.decode("utf-8"))
    if isinstance(stream, str):
        return io.StringIO(stream)
    if hasattr(stream, "read"):
        probe = stream.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(stream, encoding="utf-8")
        return stream
    raise TypeError(f"cannot read records from {type(stream).__name__}")


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


# header -> (make, columns) of the crime site and of the anchor
_LAYOUTS = {
    tuple(CSV_HEADER): ((_geo, itemgetter(3, 4)), (_geo, itemgetter(5, 6))),
    tuple(UTM_CSV_HEADER): (
        (_utm, itemgetter(3, 4, 5)),
        (_utm_anchor, itemgetter(3, 6, 7)),
    ),
}


def _read_rows(stream, headers) -> Iterator[tuple]:
    """``(offender_id, crime_id, ucr_code, crime_site, anchor)`` for each data
    row of a CSV whose header is one of ``headers``; a bad row raises RowError.

    Plain tuples, not CrimeRecords: building a frozen dataclass per row
    costs about a third of what parsing the row does.
    """
    reader = csv.reader(_text_stream(stream))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty file: expected a header row") from None
    header = tuple(h.strip().lstrip("\ufeff") for h in header)
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise SchemaError(f"header mismatch: expected {expected}, got {','.join(header)}")
    (make_site, site_of), (make_anchor, anchor_of) = _LAYOUTS[header]
    site_names, anchor_names = site_of(header), anchor_of(header)
    # one point per distinct anchor cells, so an offender's rows share it
    anchors = {}
    for row_num, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise RowError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
        offender_id = row[0].strip()
        if not offender_id:
            raise RowError(f"row {row_num}: empty offender_id")
        site = _point(row_num, site_names, make_site, site_of(row))
        cells = anchor_of(row)
        if cells not in anchors:
            anchors[cells] = _point(row_num, anchor_names, make_anchor, cells)
        yield offender_id, row[1].strip(), row[2].strip(), site, anchors[cells]


def parse_records(stream) -> list[CrimeRecord]:
    """Read canonical geographic CSV into records; a malformed row raises RowError."""
    return [CrimeRecord(*row) for row in _read_rows(stream, (tuple(CSV_HEADER),))]


def read_dataset(stream, zone: int = DEFAULT_ZONE) -> Dataset:
    """Either CSV layout, told apart by its header, as series in ``zone``."""
    return _group(_read_rows(stream, _LAYOUTS), zone)


def csv_text(header, rows) -> str:
    """CSV text of a header and rows, LF line endings, for every writer whose
    rows can carry text. A field holding a comma, a quote or a line break is
    quoted by CSV rules; floats print as ``repr`` and ints as ``str``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _same_place(a, b) -> bool:
    """Geographic anchors agree within ANCHOR_CONSISTENCY_DEG; planar ones,
    written by ``repr``, must be equal."""
    if isinstance(a, GeoPoint):
        return max(abs(a.lat - b.lat), abs(a.lon - b.lon)) <= ANCHOR_CONSISTENCY_DEG
    return a == b


def _in_zone(point, zone: int) -> UtmPoint | None:
    """Project a geographic point into ``zone``; a planar one must be in it."""
    if isinstance(point, GeoPoint):
        return latlon_to_utm(point, forced_zone=zone)
    if point is not None and point.zone != zone:
        raise OutOfRangeError(f"zone {point.zone} is not the configured zone {zone}")
    return point


def group_into_series(records, zone: int = DEFAULT_ZONE) -> Dataset:
    """Group records by offender and put everything on one UTM zone.

    Offenders with fewer than ``MIN_SERIES_LENGTH`` crimes are dropped with
    a warning. An offender whose rows disagree about the anchor location,
    or whose planar points lie in another zone, is a data error.
    """
    rows = ((r.offender_id, r.crime_id, r.ucr_code, r.crime_site, r.anchor) for r in records)
    return _group(rows, zone)


def _group(rows, zone: int) -> Dataset:
    """``group_into_series`` on the row tuples of ``_read_rows``."""
    by_offender: dict[str, list[tuple]] = {}
    for offender_id, _, _, site, anchor in rows:
        by_offender.setdefault(offender_id, []).append((site, anchor))

    series = []
    for offender_id, points in by_offender.items():
        anchor = points[0][1]
        if any(a is not anchor and not _same_place(a, anchor) for _, a in points):
            raise DataError(f"offender {offender_id}: inconsistent anchor coordinates")
        if len(points) < MIN_SERIES_LENGTH:
            logger.warning(
                "excluding offender %s: only %d crime(s), need %d",
                offender_id, len(points), MIN_SERIES_LENGTH,
            )
            continue
        try:
            sites = tuple(_in_zone(site, zone) for site, _ in points)
            anchor = _in_zone(anchor, zone)
        except OutOfRangeError as exc:
            raise DataError(f"offender {offender_id}: {exc}") from exc
        series.append(CrimeSeries(offender_id, sites, anchor))
    return Dataset(tuple(series))
