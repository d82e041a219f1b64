import csv
import io
import json

import numpy as np
import pytest

from geoprofile.classify import classify
from geoprofile.cli import (
    load_config,
    load_dataset,
    main,
    rank_cells,
    write_surface_csv,
    write_surface_pgm,
)
from geoprofile.dataset import CSV_HEADER, CrimeSeries, csv_text, read_dataset
from geoprofile.engine import Family, MethodId, PosteriorSurface
from geoprofile.evaluation import ALL_THRESHOLDS, Scope, _ranking
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid
from geoprofile.models import M1Params, M2Params
from geoprofile.synthetic import SyntheticScenario, sample_series, series_to_utm_csv
from oracles import latlon_to_utm_direct, surface_csv_direct, surface_pgm_direct

CANONICAL_HEADER = (
    "offender_id,crime_id,ucr_code,crime_lat,crime_lon,anchor_lat,anchor_lon"
)


def _geo_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text(CANONICAL_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return path


@pytest.fixture
def synthetic_csv(tmp_path):
    """Six planar offenders inside the default jurisdiction grid."""
    series = []
    rng = np.random.default_rng(900)
    for i in range(6):
        anchor = UtmPoint(
            18, float(rng.uniform(330.0, 370.0)), float(rng.uniform(4345.0, 4385.0))
        )
        family = Family.M1 if i % 2 == 0 else Family.M2
        params = M1Params(1.5) if i % 2 == 0 else M2Params(4.0, 1.0)
        sc = SyntheticScenario(family, anchor, params, n=8, replicates=1, seed=i)
        s = sample_series(sc)[0]
        series.append(
            type(s)(f"o{i}", s.sites, s.anchor)
        )
    path = tmp_path / "synthetic.csv"
    path.write_text(series_to_utm_csv(series))
    return path


def _renamed_first(synthetic_csv, tmp_path, offender_id):
    """The synthetic dataset with its first offender renamed ``offender_id``."""
    first, *rest = read_dataset(synthetic_csv.read_text()).series
    renamed = CrimeSeries(offender_id, first.sites, first.anchor)
    path = tmp_path / "renamed.csv"
    path.write_text(series_to_utm_csv([renamed, *rest]))
    return path


def _csv_rows(text):
    """The rows of ``text``, which must quote them as csv.writer does: a field
    holding a comma or a quote is enclosed in quotes (RFC 4180)."""
    rows = list(csv.reader(io.StringIO(text)))
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(rows)
    assert rewritten.getvalue() == text
    return rows


class TestConvert:
    def test_appends_planar_columns(self, tmp_path, capsys):
        src = _geo_csv(
            tmp_path,
            ["77,1001,0624,39.30,-76.61,39.28,-76.60"],
        )
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith(
            "zone,crime_easting_km,crime_northing_km,anchor_easting_km,anchor_northing_km"
        )
        fields = out[1].split(",")
        assert fields[7] == "18"
        assert 300.0 < float(fields[8]) < 400.0

    def test_coordinates_within_tolerance(self, tmp_path, capsys):
        # the Krueger series to 1e-9 km, in the configured zone 18 even
        # for points whose nominal zone is 17 or 19
        rng = np.random.default_rng(12)
        points = rng.uniform((38.0, -79.0), (40.0, -71.0), size=(12, 2)).tolist()
        rows = [
            f"o{i // 4},{i},0624,{lat!r},{lon!r},{points[i // 4 * 4][0]!r},"
            f"{points[i // 4 * 4][1]!r}"
            for i, (lat, lon) in enumerate(points)
        ]
        assert main(["convert", str(_geo_csv(tmp_path, rows))]) == 0
        out = _csv_rows(capsys.readouterr().out)[1:]
        assert len(out) == 12
        for fields in out:
            assert fields[7] == "18"
            for lat, lon, easting, northing in (
                (fields[3], fields[4], fields[8], fields[9]),
                (fields[5], fields[6], fields[10], fields[11]),
            ):
                want = latlon_to_utm_direct(float(lat), float(lon), 18)
                assert abs(float(easting) - want[0]) <= 1e-9
                assert abs(float(northing) - want[1]) <= 1e-9

    def test_empty_file(self, tmp_path, capsys):
        src = _geo_csv(tmp_path, [])
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1

    def test_malformed_row_nonzero_exit(self, tmp_path, capsys):
        src = _geo_csv(tmp_path, ["77,1001,0624,oops,-76.61,39.28,-76.60"])
        assert main(["convert", str(src)]) == 1
        assert "row 2" in capsys.readouterr().err


class TestClassify:
    def test_emits_labels(self, synthetic_csv, capsys):
        assert main(["classify", "--dataset", str(synthetic_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "offender_id,label,n_clusters"
        assert len(lines) == 7
        for line in lines[1:]:
            _, label, n_clusters = line.split(",")
            assert label in {"M1", "M2", "M3"}
            int(n_clusters)


class TestProfile:
    def test_writes_artifacts(self, synthetic_csv, tmp_path, capsys):
        out_dir = tmp_path / "prof"
        code = main(
            [
                "profile",
                "--dataset",
                str(synthetic_csv),
                "--offender",
                "o1",
                "--method",
                "2ai",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        surface_csv = out_dir / "o1_2ai_surface.csv"
        pgm = out_dir / "o1_2ai.pgm"
        sidecar = out_dir / "o1_2ai.json"
        assert surface_csv.exists() and pgm.exists() and sidecar.exists()

        rows = surface_csv.read_text().strip().splitlines()[1:]
        masses = np.array([float(r.split(",")[4]) for r in rows])
        assert masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert len(rows) == 7000

        pgm_lines = pgm.read_text().splitlines()
        assert pgm_lines[0] == "P2"
        assert pgm_lines[1] == "100 70"
        assert pgm_lines[2] == "255"
        assert len(pgm_lines) == 3 + 70
        values = [int(v) for line in pgm_lines[3:] for v in line.split()]
        assert max(values) == 255
        assert min(values) >= 0

        payload = json.loads(sidecar.read_text())
        assert payload["offender_id"] == "o1"
        assert payload["method"] == "2ai"
        assert len(payload["top_cells"]) == 20
        top = payload["top_cells"][0]
        flat = masses.reshape(70, 100)
        row, col = np.unravel_index(np.argmax(flat), flat.shape)
        assert (top["row"], top["col"]) == (row, col)

    def test_rossmo_profile(self, synthetic_csv, tmp_path):
        out_dir = tmp_path / "prof"
        code = main(
            [
                "profile",
                "--dataset",
                str(synthetic_csv),
                "--offender",
                "o0",
                "--method",
                "rossmo",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "o0_rossmo.pgm").exists()

    def test_rossmo_profile_classifies_only_its_offender(
        self, synthetic_csv, tmp_path, monkeypatch
    ):
        import geoprofile.cli as cli

        calls = []

        def counting(xy, **kwargs):
            calls.append(len(xy))
            return classify(xy, **kwargs)

        monkeypatch.setattr(cli, "classify", counting)
        out_dir = tmp_path / "prof"
        args = ["profile", "--dataset", str(synthetic_csv), "--offender", "o1"]
        assert main(args + ["--method", "rossmo", "--out", str(out_dir)]) == 0
        o1 = load_dataset(synthetic_csv).get("o1")
        assert calls == [o1.n]
        payload = json.loads((out_dir / "o1_rossmo.json").read_text())
        assert payload["subtype"] == classify(o1.xy).kind.value

    def test_every_requested_method_written(self, synthetic_csv, tmp_path, capsys):
        args = ["profile", "--dataset", str(synthetic_csv), "--offender", "o1"]
        methods = ["2aii", "rossmo", "1b", "2aii"]
        both = tmp_path / "both"
        flags = [flag for m in methods for flag in ("--method", m)]
        assert main(args + flags + ["--out", str(both)]) == 0
        wrote = capsys.readouterr().out.splitlines()
        assert [line.split("_")[1] for line in wrote] == ["2aii", "rossmo", "1b"]
        names = sorted(p.name for p in both.iterdir())
        assert len(names) == 9
        for method in ("2aii", "rossmo", "1b"):
            alone = tmp_path / method
            assert main(args + ["--method", method, "--out", str(alone)]) == 0
            files = sorted(alone.iterdir())
            assert len(files) == 3
            for path in files:
                assert path.name in names
                assert (both / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("offender_id", ["../esc", "a\0b"])
    def test_id_that_is_not_a_file_name_rejected(
        self, synthetic_csv, tmp_path, capsys, offender_id
    ):
        dataset = _renamed_first(synthetic_csv, tmp_path, offender_id)
        before = sorted(tmp_path.rglob("*"))
        code = main(
            [
                "profile",
                "--dataset",
                str(dataset),
                "--offender",
                offender_id,
                "--method",
                "rossmo",
                "--out",
                str(tmp_path / "runs" / "prof"),
            ]
        )
        assert code == 1
        assert repr(offender_id) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_unknown_offender(self, synthetic_csv, tmp_path, capsys):
        code = main(
            [
                "profile",
                "--dataset",
                str(synthetic_csv),
                "--offender",
                "nope",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1
        # the message itself, not the repr a KeyError's str() gives
        assert capsys.readouterr().err == "error: unknown offender id 'nope'\n"


class TestEvaluate:
    def test_writes_reports_and_prints_table(self, synthetic_csv, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--dataset",
                str(synthetic_csv),
                "--method",
                "1a",
                "--method",
                "rossmo",
                "--scope",
                "residents",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "1a" in table and "rossmo" in table and "17%" in table
        results = (out_dir / "results.csv").read_text().strip().splitlines()
        assert results[0] == "offender_id,method,subtype,cells_examined,fraction"
        curves = (out_dir / "curves.csv").read_text().strip().splitlines()
        assert len(curves) == 1 + 2 * 12  # two methods, twelve thresholds

    def test_rerun_byte_identical(self, synthetic_csv, tmp_path):
        args = [
            "evaluate",
            "--dataset",
            str(synthetic_csv),
            "--method",
            "2aii",
            "--method",
            "rossmo",
            "--scope",
            "all",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()


    def test_repeated_method_scored_once(self, synthetic_csv, tmp_path):
        out_dir = tmp_path / "eval"
        args = ["evaluate", "--dataset", str(synthetic_csv), "--scope", "all"]
        code = main(args + ["--method", "rossmo", "--method", "rossmo", "--out", str(out_dir)])
        assert code == 0
        results = (out_dir / "results.csv").read_text().strip().splitlines()[1:]
        assert sorted(r.split(",")[0] for r in results) == [f"o{i}" for i in range(6)]
        curves = (out_dir / "curves.csv").read_text().strip().splitlines()[1:]
        assert len(curves) == len(ALL_THRESHOLDS)

    @pytest.mark.parametrize("weight", ["1.5", "nan"])
    def test_bad_nonres_weight_is_one_error(self, synthetic_csv, tmp_path, capsys, weight):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nonres_weight = {weight}\n")
        out_dir = tmp_path / "eval"
        code = main(
            ["evaluate", "--config", str(cfg), "--dataset", str(synthetic_csv),
             "--method", "2aii", "--out", str(out_dir)]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "nonres_weight" in err[0]
        assert not (out_dir / "results.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "profile"])
    def test_bad_node_count_is_one_error(self, synthetic_csv, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes_alpha = 0\n")
        out_dir = tmp_path / "out"
        args = [command, "--config", str(cfg), "--dataset", str(synthetic_csv)]
        if command == "profile":
            args += ["--offender", "o1"]
        assert main(args + ["--method", "1a", "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "node count for alpha must be >= 1" in err[0]
        assert not out_dir.exists()


@pytest.mark.parametrize("offender_id", ["a,b", 'say "hi"'])
class TestQuotedTextFields:
    """An id holding a comma or a quote is quoted by CSV rules in every output."""

    def test_evaluate_results(self, synthetic_csv, tmp_path, offender_id):
        dataset = _renamed_first(synthetic_csv, tmp_path, offender_id)
        out_dir = tmp_path / "eval"
        args = ["evaluate", "--dataset", str(dataset), "--method", "rossmo"]
        assert main(args + ["--scope", "all", "--out", str(out_dir)]) == 0
        rows = _csv_rows((out_dir / "results.csv").read_text())
        assert {len(row) for row in rows} == {5}
        assert [row[0] for row in rows[1:]] == [offender_id] + [f"o{i}" for i in range(1, 6)]

    def test_classify(self, synthetic_csv, tmp_path, capsys, offender_id):
        dataset = _renamed_first(synthetic_csv, tmp_path, offender_id)
        assert main(["classify", "--dataset", str(dataset)]) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert {len(row) for row in rows} == {3}
        assert rows[1][0] == offender_id

    def test_convert(self, tmp_path, capsys, offender_id):
        src = tmp_path / "geo.csv"
        src.write_text(
            csv_text(CSV_HEADER, [(offender_id, "1001", "0624", 39.30, -76.61, 39.28, -76.60)])
        )
        assert main(["convert", str(src)]) == 0
        rows = _csv_rows(capsys.readouterr().out)
        assert {len(row) for row in rows} == {12}
        assert rows[1][0] == offender_id

    def test_utm_csv_round_trip(self, synthetic_csv, tmp_path, offender_id):
        text = _renamed_first(synthetic_csv, tmp_path, offender_id).read_text()
        assert _csv_rows(text)[1][0] == offender_id
        assert read_dataset(text).series[0].offender_id == offender_id


class TestEmitGrid:
    def test_default_grid(self, capsys):
        assert main(["emit-grid"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "row,col,easting,northing"
        assert len(lines) == 1 + 7000
        assert lines[1] == "0,0,300.5,4330.5"

    def test_bounds_outside_utm_ranges_rejected(self, capsys):
        assert main(["emit-grid", "--bounds", "300,400,-20,50"]) == 1
        assert "northing" in capsys.readouterr().err


class TestConfig:
    @pytest.mark.parametrize(
        "node_key", ["nodes_alpha", "nodes_sigma", "nodes_sigma1", "nodes_theta", "nodes_sigma2"]
    )
    def test_config_file_round_trip(self, tmp_path, node_key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "# evaluation setup",
                    "dataset = data.csv",
                    "out = results",
                    "methods = 1a, 2bii, rossmo",
                    "scope = residents",
                    "grid = 50x35",
                    "bounds = 300,400,4330,4400",
                    "zone = 18",
                    f"{node_key} = 16",
                    "classify_nn_km = 2.5",
                    "nonres_weight = 0.125",
                ]
            )
            + "\n"
        )
        config = load_config(cfg)
        assert config.dataset == "data.csv"
        assert config.out_dir == "results"
        assert config.methods == (MethodId.ONE_A, MethodId.TWO_BII, MethodId.ROSSMO)
        assert config.scope is Scope.RESIDENTS_ONLY
        assert config.grid.ncols == 50 and config.grid.nrows == 35
        assert config.grid.west == 300.0 and config.grid.north == 4400.0
        assert config.quadrature == {node_key.removeprefix("nodes_"): 16}
        assert config.classifier_options == {"nn_threshold_km": 2.5}
        assert config.nonres_weight == 0.125

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            load_config(cfg)

    def test_flags_override_config(self, tmp_path, synthetic_csv, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = 1a\nscope = all\n")
        out_dir = tmp_path / "o"
        code = main(
            [
                "evaluate",
                "--config",
                str(cfg),
                "--dataset",
                str(synthetic_csv),
                "--method",
                "rossmo",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        curves = (out_dir / "curves.csv").read_text()
        assert "rossmo" in curves and "1a" not in curves

    def test_grid_flag_keeps_config_bounds(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bounds = 310,410,4320,4390\n")  # not the default bounds
        assert main(["emit-grid", "--config", str(cfg), "--grid", "50x35"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 50 * 35
        assert lines[1] == "0,0,311.0,4321.0"
        assert lines[-1] == "34,49,409.0,4389.0"

    def test_profile_method_from_config(self, tmp_path, synthetic_csv):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = rossmo, 1a\n")
        out_dir = tmp_path / "prof"
        code = main(
            ["profile", "--config", str(cfg), "--dataset", str(synthetic_csv),
             "--offender", "o0", "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "o0_rossmo.pgm").exists()

    def test_dataset_required(self, capsys):
        assert main(["classify"]) == 1
        assert "dataset" in capsys.readouterr().err


def test_programming_error_propagates(synthetic_csv, tmp_path, monkeypatch):
    import geoprofile.cli as cli

    def defect(*args, **kwargs):
        raise TypeError("simulated defect")

    monkeypatch.setattr(cli, "compare_methods", defect)
    with pytest.raises(TypeError, match="simulated defect"):
        main(["evaluate", "--dataset", str(synthetic_csv), "--out", str(tmp_path / "ev")])


def test_load_dataset_sniffs_both_formats(tmp_path, synthetic_csv):
    ds = load_dataset(synthetic_csv)
    assert len(ds.series) == 6
    geo = _geo_csv(
        tmp_path,
        [f"9,c{i},0624,{39.30 + 0.01 * i},-76.61,39.28,-76.60" for i in range(3)],
        name="geo.csv",
    )
    ds2 = load_dataset(geo)
    assert ds2.series[0].n == 3
    assert ds2.series[0].sites[0].zone == 18


class TestEvaluateFailures:
    def test_out_of_grid_offender_gives_nonzero_exit(self, synthetic_csv, tmp_path, capsys):
        # tack on an offender whose anchor lies outside the jurisdiction
        import numpy as np

        ds = read_dataset(synthetic_csv.read_text())
        rng = np.random.default_rng(13)
        anchor = UtmPoint(18, 500.0, 4500.0)
        sites = tuple(
            UtmPoint(18, 500.0 + float(dx), 4500.0 + float(dy))
            for dx, dy in rng.normal(0.0, 1.0, size=(4, 2))
        )
        stray = CrimeSeries("stray", sites, anchor)
        path = tmp_path / "with_stray.csv"
        path.write_text(series_to_utm_csv(list(ds.series) + [stray]))

        code = main(
            [
                "evaluate",
                "--dataset",
                str(path),
                "--method",
                "rossmo",
                "--scope",
                "all",
                "--out",
                str(tmp_path / "ev"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stray" in err and "outside" in err


class TestWriterFormulations:
    """The writers reproduce the plain per-cell formulations exactly."""

    GRIDS = {
        "default": Grid(),
        # non-square cells from an origin on no round number
        "odd": Grid(west=301.37, east=377.915, south=4331.21, north=4389.404, nrows=53, ncols=81),
    }

    @pytest.mark.parametrize("name", GRIDS)
    def test_surface_csv_bytes(self, tmp_path, name):
        grid = self.GRIDS[name]
        mass = np.random.default_rng(3000).gamma(0.5, size=(grid.nrows, grid.ncols))
        surface = PosteriorSurface(grid, mass / mass.sum())
        path = tmp_path / "surface.csv"
        write_surface_csv(surface, path)
        assert path.read_bytes() == surface_csv_direct(surface).encode("utf-8")

    @pytest.mark.parametrize("name", GRIDS)
    def test_surface_pgm_bytes(self, tmp_path, name):
        grid = self.GRIDS[name]
        # a peaked surface, so values span 0 to 255 and many round to 0
        mass = np.random.default_rng(3002).gamma(0.3, size=(grid.nrows, grid.ncols)) ** 3
        surface = PosteriorSurface(grid, mass / mass.sum())
        path = tmp_path / "surface.pgm"
        write_surface_pgm(surface, path)
        text = surface_pgm_direct(surface)
        assert path.read_bytes() == text.encode("utf-8")
        values = {int(v) for line in text.splitlines()[3:] for v in line.split()}
        assert 0 in values and 255 in values

    def test_rank_cells_plateau(self):
        grid = self.GRIDS["odd"]
        # four mass levels, so most cells tie with many others
        levels = np.random.default_rng(3001).integers(1, 5, size=(grid.nrows, grid.ncols))
        surface = PosteriorSurface(grid, levels / levels.sum())
        got = rank_cells(surface)
        assert got == [divmod(int(k), grid.ncols) for k in _ranking(surface)]
        assert all(type(row) is int and type(col) is int for row, col in got)
