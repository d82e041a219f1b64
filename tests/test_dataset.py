import csv
import io

import numpy as np
import pytest

from geoprofile import dataset
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
    read_dataset,
    read_geographic,
)
from geoprofile.geodesy import OutOfRangeError, UtmPoint
from oracles import read_dataset_direct

HEADER = ",".join(CSV_HEADER)


def _row(offender, crime, lat, lon, alat=39.28, alon=-76.60):
    return f"{offender},{crime},0624,{lat},{lon},{alat},{alon}"


def _csv(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def geographic_to_csv(ids, crime_ids, ucr_codes, site, anchor) -> str:
    """Serialize the columns of ``read_geographic`` back to the canonical CSV."""
    return csv_text(
        CSV_HEADER, zip(ids, crime_ids, ucr_codes, *site.T.tolist(), *anchor.T.tolist())
    )


class TestParseRecords:
    """``read_geographic``: the geographic layout's rows as columns."""

    def test_single_row(self):
        text = _csv(" 77 , 1001 ,0624 ,39.30,-76.61,39.28,-76.60")
        ids, crime_ids, ucr_codes, site, anchor = read_geographic(text)
        assert (ids, crime_ids, ucr_codes) == (["77"], ["1001"], ["0624"])
        assert site.tolist() == [[39.30, -76.61]]
        assert anchor.tolist() == [[39.28, -76.60]]

    def test_header_only(self):
        ids, crime_ids, ucr_codes, site, anchor = read_geographic(HEADER + "\n")
        assert ids == crime_ids == ucr_codes == []
        assert site.shape == anchor.shape == (0, 2)

    def test_out_of_range_latitude_names_field(self):
        text = _csv(_row("1", "a", 91.0, -76.6))
        with pytest.raises(RowError, match="crime_lat"):
            read_geographic(text)

    def test_unparseable_coordinate_reports_row(self):
        text = _csv(_row("1", "a", 39.3, -76.6), _row("2", "b", "oops", -76.6))
        with pytest.raises(RowError, match="row 3"):
            read_geographic(text)

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            read_geographic("offender_id,crime_id,ucr_code,crime_lat\n")

    def test_leading_byte_order_mark(self):
        ids, *_ = read_geographic("\ufeff" + _csv(_row("5", "x", 39.3, -76.6)))
        assert ids == ["5"]

    def test_crlf(self):
        text = HEADER + "\r\n" + _row("5", "x", 39.3, -76.6) + "\r\n"
        ids, *_ = read_geographic(text)
        assert ids == ["5"]

    def test_empty_offender_rejected(self):
        with pytest.raises(RowError, match="offender_id"):
            read_geographic(_csv(_row("", "x", 39.3, -76.6)))

    def test_planar_header_is_schema_error(self):
        with pytest.raises(SchemaError):
            read_geographic(",".join(UTM_CSV_HEADER) + "\n")

    def test_rows_past_a_block(self):
        rows = [_row(f"o{i}", f"c{i}", 39.0 + i * 1e-5, -76.6) for i in range(2 * _BLOCK_ROWS + 5)]
        ids, crime_ids, _, site, anchor = read_geographic(_csv(*rows))
        assert ids == [f"o{i}" for i in range(len(rows))]
        assert crime_ids[-1] == f"c{len(rows) - 1}"
        assert site[:, 0].tolist() == [39.0 + i * 1e-5 for i in range(len(rows))]
        assert anchor.shape == (len(rows), 2)
        rows[-2] = _row("x", "y", 39.3, -76.6, alat=95.0)
        with pytest.raises(RowError, match=f"row {len(rows)}: anchor_lat"):
            read_geographic(_csv(*rows))


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
        assert {p.zone for s in ds.series for p in (s, s.anchor)} == {18}

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
            assert {p.zone for p in (ds.series[0], ds.series[0].anchor)} == {17}

    @pytest.mark.parametrize("zone", [0, 61])
    def test_zone_outside_range_rejected(self, layout, zone):
        text = _file(layout, _series_rows(layout, "a", 3))
        with pytest.raises(OutOfRangeError, match=rf"^configured zone {zone} outside \[1, 60\]$"):
            read_dataset(text, zone=zone)

    def test_zone_rejected_before_any_row_is_read(self, layout):
        rows = _series_rows(layout, "a", 3)
        rows[0] = _with_field(rows[0], 4, "oops")
        for text in (_file(layout, []), _file(layout, rows), ""):
            with pytest.raises(OutOfRangeError, match="configured zone 61"):
                read_dataset(text, zone=61)

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
        assert ds.series[0].zone == 18

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
        ds2 = read_dataset(geographic_to_csv(*read_geographic(text)))
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
        xy = [(350.0 + i, 4360.0) for i in range(5)]
        s = CrimeSeries("x", xy, 18, UtmPoint(18, 350.0, 4361.0))
        sub = s.restrict([3, 1])
        assert sub.n == 2
        assert sub.xy.tolist() == [list(xy[1]), list(xy[3])]
        assert sub.anchor == s.anchor

    def test_restrict_is_read_only(self):
        s = CrimeSeries("x", np.arange(10.0).reshape(5, 2), 18)
        sub = s.restrict([4, 0, 2])
        assert sub.xy.tolist() == [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]]
        assert not sub.xy.flags.writeable
        with pytest.raises(ValueError, match="at least one site"):
            s.restrict([])

    def test_duplicate_offenders_rejected(self):
        sites = [(350.0 + i, 4360.0) for i in range(3)]
        s = CrimeSeries("dup", sites, 18)
        with pytest.raises(DataError):
            Dataset((s, s))

    def test_mixed_zone_rejected(self):
        with pytest.raises(ValueError, match="anchor zone 17 is not the series zone 18"):
            CrimeSeries("x", [(350.0, 4360.0)], 18, UtmPoint(17, 350.0, 4360.0))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 3), (2,), (1, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError):
            CrimeSeries("x", np.full(shape, 350.0), 18)

    def test_read_only_array_kept(self):
        xy = np.array([[350.0, 4360.0], [351.0, 4361.0]])
        xy.flags.writeable = False
        assert CrimeSeries("x", xy, 18).xy is xy

    def test_writable_array_copied(self):
        xy = np.array([[350.0, 4360.0], [351.0, 4361.0]])
        s = CrimeSeries("x", xy, 18)
        xy[0, 0] = 999.0
        assert s.xy.tolist() == [[350.0, 4360.0], [351.0, 4361.0]]
        assert not s.xy.flags.writeable
        with pytest.raises(ValueError):
            s.xy[0, 0] = 999.0

    def test_other_dtypes_copied_as_float(self):
        xy = np.array([[350, 4360], [351, 4361]])
        xy.flags.writeable = False
        s = CrimeSeries("x", xy, 18)
        assert s.xy.dtype == np.float64 and not s.xy.flags.writeable

    def test_loaded_series_share_one_read_only_array(self, layout):
        rows = [row for oid in "abcd" for row in _series_rows(layout, oid, 3 + "abcd".index(oid))]
        ds = read_dataset(_file(layout, rows))
        assert len(ds.series) == 4
        bases = {id(s.xy.base) for s in ds.series}
        assert len(bases) == 1 and ds.series[0].xy.base is not None
        assert not any(s.xy.flags.writeable for s in ds.series)
        assert not ds.series[0].xy.base.flags.writeable


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

        # a short row fails the field count, a text cell the block's arrays;
        # each case maps row indices to the rows that replace them, and
        # gives the row number the error names
        def short(row):
            return [row.rsplit(",", 1)[0]]

        def text(row):
            return [_with_field(row, 4, "oops")]

        last = _BLOCK_ROWS - 1  # the first block's last row; the next is row _BLOCK_ROWS + 2
        cases = [
            ({1500: text, 1510: short}, 1502),
            ({1500: short, 1510: text}, 1502),
            ({1500: lambda row: text(row) + ["", " , ,,, "], 1501: short}, 1502),
            (
                {1500: lambda row: short(row) + [""], 1501: lambda row: [",,,,,,,,"] + text(row)},
                1502,
            ),
            ({1499: lambda row: [row, "", ""], 1500: text, 1510: short}, 1504),
            ({last: text, last + 1: short}, _BLOCK_ROWS + 1),
            ({last: short, last + 1: text}, _BLOCK_ROWS + 1),
            ({last: lambda row: [row, ""], last + 1: text, last + 5: short}, _BLOCK_ROWS + 3),
            ({last + 1: short, last + 2: text}, _BLOCK_ROWS + 2),
        ]
        rows = _population_rows(layout)
        for edits, row_num in cases:
            edited = []
            for i, row in enumerate(rows):
                edited += edits[i](row) if i in edits else [row]
            result, _ = self._check(_file(layout, edited), caplog)
            assert result[0] is RowError and result[1].startswith(f"row {row_num}:"), edits

    def test_byte_order_mark_and_crlf(self, layout, caplog):
        rows = _population_rows(layout, 50)
        text = "﻿" + _file(layout, rows).replace("\n", "\r\n")
        self._check(text, caplog)

    # (name, edit of a file's text, offender id the edit gives): each file
    # reads as a text stream with newline="\n" splits it into lines
    LINE_CASES = [
        ("crlf", lambda text: text.replace("\n", "\r\n"), "o0001"),
        ("byte order mark", lambda text: "\ufeff" + text, "o0001"),
        ("no final newline", lambda text: text[:-1], "o0001"),
        ("quoted newline", lambda text: text.replace("o0001,", '"o0\n001",'), "o0\n001"),
        ("lone cr in quoted id", lambda text: text.replace("o0001,", '"o0\r001",'), "o0\r001"),
        # str.splitlines would end a line at the form feed
        ("form feed in a cell", lambda text: text.replace(",0624,", ",06\f24,"), "o0001"),
    ]

    @pytest.mark.parametrize(
        "edit, offender_id",
        [case[1:] for case in LINE_CASES],
        ids=[case[0] for case in LINE_CASES],
    )
    def test_lines(self, layout, edit, offender_id, caplog):
        text = edit(_file(layout, _population_rows(layout, 60)))
        result, _ = self._check(text, caplog)
        assert offender_id in [oid for oid, *_ in result[1]]
        if layout == "geographic":
            rows = list(csv.reader(io.StringIO(text)))[1:]
            assert read_geographic(text)[0] == [row[0].strip() for row in rows]

    @pytest.mark.parametrize("chunk", [1, 2, 7, 40])
    def test_lines_across_chunks(self, monkeypatch, chunk):
        # the line splitter works a chunk of whole lines at a time; small
        # chunks put their ends on every kind of line end
        monkeypatch.setattr(dataset, "_CHUNK_CHARS", chunk)
        texts = ["", "\n", "\n\n", "a", "a\n", "a\r\nb", "\r\n\r\n", '"x\ny",\r\r\n\n']
        population = _file("planar", _population_rows("planar", 30)).replace("\n", "\r\n", 40)
        for text in [*texts, population, population[:-1]]:
            assert list(dataset._lines(text)) == list(io.StringIO(text))

    def test_padded_cells(self, layout, caplog):
        rows = [",".join(f" {f} " for f in r.split(",")) for r in _population_rows(layout, 60)]
        self._check(_file(layout, rows), caplog)

    @pytest.mark.parametrize(
        "text", ["", "\n", "offender_id,crime_id\n1,2\n", "a,b,c,d,e,f,g\n"]
    )
    def test_schema(self, text, caplog):
        result, _ = self._check(text, caplog)
        assert result[0] is SchemaError
