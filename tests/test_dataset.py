import numpy as np
import pytest

from geoprofile.dataset import (
    _BLOCK_ROWS,
    CSV_HEADER,
    UTM_CSV_HEADER,
    CrimeSeries,
    Dataset,
    DataError,
    RowError,
    SchemaError,
    csv_text,
    parse_records,
    read_dataset,
)
from geoprofile.geodesy import UtmPoint
from oracles import read_dataset_direct

HEADER = ",".join(CSV_HEADER)


def _row(offender, crime, lat, lon, alat=39.28, alon=-76.60):
    return f"{offender},{crime},0624,{lat},{lon},{alat},{alon}"


def _csv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def records_to_csv(records) -> str:
    """Serialize records back to the canonical CSV."""
    return csv_text(
        CSV_HEADER,
        (
            (r.offender_id, r.crime_id, r.ucr_code, r.crime_site.lat, r.crime_site.lon,
             r.anchor.lat, r.anchor.lon)
            for r in records
        ),
    )


class TestParseRecords:
    def test_single_row(self):
        text = _csv("77,1001,0624,39.30,-76.61,39.28,-76.60")
        records = parse_records(text)
        assert len(records) == 1
        assert records[0].offender_id == "77"
        assert records[0].crime_site.lat == 39.30
        assert records[0].anchor.lon == -76.60

    def test_header_only(self):
        assert parse_records(HEADER + "\n") == []

    def test_out_of_range_latitude_names_field(self):
        text = _csv(_row("1", "a", 91.0, -76.6))
        with pytest.raises(RowError, match="crime_lat"):
            parse_records(text)

    def test_unparseable_coordinate_reports_row(self):
        text = _csv(_row("1", "a", 39.3, -76.6), _row("2", "b", "oops", -76.6))
        with pytest.raises(RowError, match="row 3"):
            parse_records(text)

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_records("offender_id,crime_id,ucr_code,crime_lat\n")

    def test_leading_byte_order_mark(self):
        records = parse_records("\ufeff" + _csv(_row("5", "x", 39.3, -76.6)))
        assert records[0].offender_id == "5"

    def test_crlf(self):
        text = HEADER + "\r\n" + _row("5", "x", 39.3, -76.6) + "\r\n"
        assert len(parse_records(text)) == 1

    def test_empty_offender_rejected(self):
        with pytest.raises(RowError, match="offender_id"):
            parse_records(_csv(_row("", "x", 39.3, -76.6)))

    def test_planar_header_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_records(",".join(UTM_CSV_HEADER) + "\n")


# layout -> (header, row of crime k with the anchor moved east by `shift`);
# crime_lon / crime_easting_km is field 4 in both
LAYOUTS = {
    "geographic": (
        CSV_HEADER,
        lambda oid, k, shift=0.0: (
            f"{oid},c{k},0624,{39.30 + 0.001 * k!r},-76.61,39.28,{-76.60 + shift!r}"
        ),
    ),
    "planar": (
        UTM_CSV_HEADER,
        lambda oid, k, shift=0.0: (
            f"{oid},c{k},0624,18,{350.0 + 0.1 * k!r},4360.0,{350.0 + shift!r},4361.0"
        ),
    ),
}


@pytest.fixture(params=sorted(LAYOUTS))
def layout(request):
    return request.param


def _file(layout, rows):
    return ",".join(LAYOUTS[layout][0]) + "\n" + "".join(r + "\n" for r in rows)


def _series_rows(layout, oid, n, shift=0.0):
    return [LAYOUTS[layout][1](oid, k, shift) for k in range(n)]


def _with_field(row, index, value):
    fields = row.split(",")
    fields[index] = value
    return ",".join(fields)


class TestReadDataset:
    """The ingestion rules, the same for both layouts."""

    def test_reads_series_on_one_zone(self, layout):
        rows = _series_rows(layout, "a", 3) + _series_rows(layout, "b", 4, 0.5)
        ds = read_dataset(_file(layout, rows))
        assert ds.offender_ids() == ["a", "b"]
        assert [s.n for s in ds.series] == [3, 4]
        assert {p.zone for s in ds.series for p in (*s.sites, s.anchor)} == {18}

    def test_short_offender_dropped_with_warning(self, layout, caplog):
        rows = _series_rows(layout, "9", 2) + _series_rows(layout, "10", 3)
        with caplog.at_level("WARNING"):
            ds = read_dataset(_file(layout, rows))
        assert ds.offender_ids() == ["10"]
        assert "excluding offender 9" in caplog.text

    def test_short_row_names_the_row(self, layout):
        rows = _series_rows(layout, "a", 3)
        rows[1] = rows[1].rsplit(",", 1)[0]
        with pytest.raises(RowError, match="row 3: expected"):
            read_dataset(_file(layout, rows))

    def test_bad_number_names_the_row(self, layout):
        rows = _series_rows(layout, "a", 3)
        rows[0] = _with_field(rows[0], 4, "oops")
        with pytest.raises(RowError, match="row 2: .*oops"):
            read_dataset(_file(layout, rows))

    def test_out_of_range_coordinate_names_the_row(self, layout):
        rows = _series_rows(layout, "a", 3)
        rows[2] = _with_field(rows[2], 4, "1e6")
        with pytest.raises(RowError, match="row 4"):
            read_dataset(_file(layout, rows))

    def test_conflicting_anchors_rejected(self, layout):
        rows = _series_rows(layout, "a", 3)
        rows[2] = LAYOUTS[layout][1]("a", 2, 0.01)
        with pytest.raises(DataError, match="offender a: inconsistent anchor"):
            read_dataset(_file(layout, rows))

    def test_configured_zone(self, layout):
        text = _file(layout, _series_rows(layout, "a", 3))
        if layout == "planar":
            # a planar file is already on its own zone's frame
            with pytest.raises(DataError, match="zone 18"):
                read_dataset(text, zone=17)
        else:
            ds = read_dataset(text, zone=17)
            assert {p.zone for p in (*ds.series[0].sites, ds.series[0].anchor)} == {17}

    def test_blank_anchor_cells(self, layout):
        rows = [",".join(r.split(",")[:-2] + ["", ""]) for r in _series_rows(layout, "a", 3)]
        if layout == "planar":
            assert read_dataset(_file(layout, rows)).series[0].anchor is None
        else:
            with pytest.raises(RowError, match="row 2"):
                read_dataset(_file(layout, rows))


class TestGroupIntoSeries:
    """read_dataset's grouping step on geographic rows."""

    def test_minimum_series(self):
        rows = [_row("9", f"c{i}", 39.30 + 0.001 * i, -76.61) for i in range(3)]
        ds = read_dataset(_csv(*rows))
        assert len(ds.series) == 1
        assert ds.series[0].n == 3
        assert ds.total_crimes == 3
        assert all(s.zone == 18 for s in ds.series[0].sites)

    def test_short_series_excluded_with_warning(self, caplog):
        rows = [
            _row("9", "c0", 39.30, -76.61),
            _row("9", "c1", 39.31, -76.61),
            *[_row("10", f"d{i}", 39.30 + 0.001 * i, -76.62) for i in range(4)],
        ]
        with caplog.at_level("WARNING"):
            ds = read_dataset(_csv(*rows))
        assert ds.offender_ids() == ["10"]
        assert "excluding offender 9" in caplog.text

    def test_inconsistent_anchor_rejected(self):
        rows = [
            _row("9", "c0", 39.30, -76.61, alat=39.28),
            _row("9", "c1", 39.31, -76.61, alat=39.29),
            _row("9", "c2", 39.32, -76.61, alat=39.28),
        ]
        with pytest.raises(DataError, match="anchor"):
            read_dataset(_csv(*rows))

    def test_polar_crime_names_its_offender(self):
        rows = [_row("a", f"c{i}", 39.30 + 0.001 * i, -76.61) for i in range(3)]
        rows += [_row("b", f"d{i}", 39.20, -76.51) for i in range(2)]
        rows += [_row("b", "d2", 85.0, -76.51), _row("c", "e0", 39.2, -76.5)]
        with pytest.raises(DataError, match="offender b: latitude 85.0 outside"):
            read_dataset(_csv(*rows))

    def test_easting_outside_forced_zone_names_its_offender(self):
        # 24 degrees west of zone 18's central meridian is west of easting 0
        rows = [_row("a", f"c{i}", 39.30 + 0.001 * i, -76.61) for i in range(3)]
        rows += [_row("b", f"d{i}", 39.20, -76.51) for i in range(3)]
        rows[4] = _row("b", "d1", 39.20, -99.0)
        with pytest.raises(DataError, match="offender b: easting -.* km outside"):
            read_dataset(_csv(*rows))

    def test_roundtrip_preserves_series(self):
        rng = np.random.default_rng(31)
        rows = []
        for o in range(5):
            n = int(rng.integers(3, 8))
            alat, alon = rng.uniform(39.0, 39.6), rng.uniform(-76.9, -76.2)
            for i in range(n):
                rows.append(
                    _row(
                        f"off{o}",
                        f"c{o}_{i}",
                        rng.uniform(39.0, 39.6),
                        rng.uniform(-76.9, -76.2),
                        alat,
                        alon,
                    )
                )
        text = _csv(*rows)
        ds1 = read_dataset(text)
        ds2 = read_dataset(records_to_csv(parse_records(text)))
        assert ds1.offender_ids() == ds2.offender_ids()
        for s1, s2 in zip(ds1.series, ds2.series):
            assert s1.n == s2.n
            np.testing.assert_allclose(s1.xy, s2.xy, atol=1e-9)

    def test_total_crimes_equals_sum(self):
        rows = [_row("a", f"c{i}", 39.30 + 0.001 * i, -76.61) for i in range(4)]
        rows += [_row("b", f"d{i}", 39.20 + 0.001 * i, -76.51) for i in range(5)]
        ds = read_dataset(_csv(*rows))
        assert ds.total_crimes == sum(s.n for s in ds.series) == 9


class TestTypes:
    def test_series_restrict(self):
        sites = tuple(UtmPoint(18, 350.0 + i, 4360.0) for i in range(5))
        s = CrimeSeries("x", sites, UtmPoint(18, 350.0, 4361.0))
        sub = s.restrict([3, 1])
        assert sub.n == 2
        assert sub.sites == (sites[1], sites[3])
        assert sub.anchor == s.anchor

    def test_duplicate_offenders_rejected(self):
        sites = tuple(UtmPoint(18, 350.0 + i, 4360.0) for i in range(3))
        s = CrimeSeries("dup", sites)
        with pytest.raises(DataError):
            Dataset((s, s))

    def test_mixed_zone_rejected(self):
        with pytest.raises(ValueError):
            CrimeSeries(
                "x", (UtmPoint(18, 350.0, 4360.0), UtmPoint(17, 350.0, 4360.0))
            )


# bad cells, each a (field index, value) per layout; None where the layout
# has no such cell
BAD_CELLS = {
    "short row": None,
    "long row": None,
    "empty id": {"geographic": (0, "  "), "planar": (0, "")},
    "site text": {"geographic": (3, "oops"), "planar": (5, "4360.5.1")},
    "site NaN": {"geographic": (4, "nan"), "planar": (4, "nan")},
    "site range": {"geographic": (3, "91.0"), "planar": (4, "1000.0")},
    "site infinite": {"geographic": (4, "-inf"), "planar": (5, "inf")},
    "zone text": {"planar": (3, "18.0")},
    "zone range": {"planar": (3, "61")},
    "other zone": {"planar": (3, "17")},
    "anchor text": {"geographic": (6, "x"), "planar": (7, "x")},
    "anchor range": {"geographic": (6, "180.0"), "planar": (6, "0.0")},
    "anchor half blank": None,
    "anchor moved": {"geographic": (6, "-76.5"), "planar": (6, "351.25")},
    "polar site": {"geographic": (3, "84.5")},
    "far site": {"geographic": (4, "-99.0")},
    "blank row": None,
}


def _population_rows(layout, rows=3000, seed=5):
    """``rows`` data rows of offenders with 1-14 crimes each, the short
    ones dropped on load; one planar offender in seven has blank anchors."""
    rng = np.random.default_rng(seed)
    out = []
    k = 0
    while len(out) < rows:
        n = int(rng.integers(1, 15))
        oid = f"o{k:04d}"
        if layout == "geographic":
            alat, alon = rng.uniform(39.2, 39.6), rng.uniform(-77.0, -76.4)
            for i in range(n):
                lat, lon = alat + rng.normal(0.0, 0.03), alon + rng.normal(0.0, 0.04)
                out.append(f"{oid},c{i},0624,{lat!r},{lon!r},{alat!r},{alon!r}")
        else:
            ae, an = rng.uniform(320.0, 380.0), rng.uniform(4345.0, 4385.0)
            anchor = ",," if k % 7 == 3 else f",{ae!r},{an!r}"
            for i in range(n):
                e, no = ae + rng.normal(0.0, 3.0), an + rng.normal(0.0, 3.0)
                out.append(f"{oid},c{i},0624,18,{e!r},{no!r}{anchor}")
        k += 1
    return out[:rows]


def _with_bad_cell(layout, rows, kind, row_num):
    rows = list(rows)
    index = row_num - 2
    if kind == "short row":
        rows[index] = rows[index].rsplit(",", 1)[0]
    elif kind == "long row":
        rows[index] += ",extra"
    elif kind == "blank row":
        # blank rows are skipped but still counted; a bad cell after them
        # must name its row in the file
        rows[index:index] = ["", " , ,,, ", ",,,,,,,,"]
        rows[index + 3] = _with_field(rows[index + 3], 4, "oops")
    elif kind == "anchor half blank":
        # one anchor cell blank and one not; planar anchors may be all blank
        fields = rows[index].split(",")
        if layout == "geographic":
            fields[5] = ""
        elif fields[7].strip():
            fields[7] = ""
        else:
            fields[6] = "350.0"
        rows[index] = ",".join(fields)
    else:
        rows[index] = _with_field(rows[index], *BAD_CELLS[kind][layout])
    return rows


def _outcome(read, text, caplog, **kwargs):
    """What reading ``text`` gives: the error's type and text, or the
    series as comparable values; and the warnings logged meanwhile."""
    caplog.clear()
    with caplog.at_level("WARNING"):
        try:
            ds = read(text, **kwargs)
        except (SchemaError, RowError, DataError) as exc:
            result = (type(exc), str(exc))
        else:
            result = (
                ds.total_crimes,
                [
                    (s.offender_id, s.n, s.xy.shape, s.xy.tobytes(), s.anchor)
                    for s in ds.series
                ],
            )
    return result, [r.getMessage() for r in caplog.records]


class TestDirectOracle:
    """``read_dataset`` gives what the row-by-row ``read_dataset_direct``
    gives: the same series, warnings and error text."""

    def _check(self, text, caplog, **kwargs):
        got = _outcome(read_dataset, text, caplog, **kwargs)
        assert got == _outcome(read_dataset_direct, text, caplog, **kwargs)
        return got

    def test_population(self, layout, caplog):
        (result, warnings) = self._check(_file(layout, _population_rows(layout)), caplog)
        total, series = result
        assert total == 3000 - sum(int(w.split()[4]) for w in warnings)
        assert len(series) > 200 and warnings

    def test_configured_zone(self, layout, caplog):
        self._check(_file(layout, _population_rows(layout, 400)), caplog, zone=17)

    # the third row number opens the loader's second block of rows
    @pytest.mark.parametrize("row_num", [2, 1500, _BLOCK_ROWS + 2, 2500])
    @pytest.mark.parametrize(
        "layout, kind",
        [
            (layout, kind)
            for kind, cells in sorted(BAD_CELLS.items())
            for layout in sorted(LAYOUTS)
            if cells is None or layout in cells
        ],
    )
    def test_bad_cell(self, layout, kind, row_num, caplog):
        rows = _with_bad_cell(layout, _population_rows(layout), kind, row_num)
        result, _ = self._check(_file(layout, rows), caplog)
        assert result[0] in (RowError, DataError)
        if result[0] is RowError:
            assert result[1].startswith(f"row {row_num + 3 * (kind == 'blank row')}:")

    def test_two_bad_rows_name_the_first(self, layout, caplog):
        rows = _population_rows(layout)
        rows[2200] = rows[2200].rsplit(",", 1)[0]
        rows[2300] = _with_field(rows[2300], 4, "oops")
        rows[2100] = _with_field(rows[2100], 0, "")
        result, _ = self._check(_file(layout, rows), caplog)
        assert result == (RowError, "row 2102: empty offender_id")

    def test_byte_order_mark_and_crlf(self, layout, caplog):
        rows = _population_rows(layout, 50)
        text = "﻿" + _file(layout, rows).replace("\n", "\r\n")
        self._check(text, caplog)

    def test_padded_cells(self, layout, caplog):
        rows = [",".join(f" {f} " for f in r.split(",")) for r in _population_rows(layout, 60)]
        self._check(_file(layout, rows), caplog)

    @pytest.mark.parametrize(
        "text", ["", "\n", "offender_id,crime_id\n1,2\n", "a,b,c,d,e,f,g\n"]
    )
    def test_schema(self, text, caplog):
        result, _ = self._check(text, caplog)
        assert result[0] is SchemaError
