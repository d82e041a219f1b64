import csv
import io
import json
import re

import numpy as np
import pytest

from geoprofile.classify import SubtypeKind, classify, label_dataset
from geoprofile.cli import (
    _build_parser,
    load_config,
    load_dataset,
    main,
    rank_cells,
    write_surface_csv,
    write_surface_pgm,
    write_surface_sidecar,
)
from geoprofile.dataset import CSV_HEADER, UTM_CSV_HEADER, CrimeSeries, csv_text, read_dataset
from geoprofile.engine import Family, MethodId, PosteriorSurface, run_method
from geoprofile.evaluation import ALL_THRESHOLDS, Scope, _ranking
from geoprofile.geodesy import UtmPoint
from geoprofile.grid import Grid
from geoprofile.models import M1Params, M2Params
from geoprofile.priors import build_prior_set
from geoprofile.synthetic import SyntheticScenario, sample_series, series_to_utm_csv
from oracles import latlon_to_utm_direct, surface_csv_direct, surface_pgm_direct

CANONICAL_HEADER = (
    "offender_id,crime_id,ucr_code,crime_lat,crime_lon,anchor_lat,anchor_lon"
)


def _geo_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text(CANONICAL_HEADER + "\n" + "".join(r + "\n" for r in rows))
    return path


def _synthetic(tmp_path, south=4345.0, north=4385.0):
    """A file of six planar offenders, anchors drawn between the northings."""
    series = []
    rng = np.random.default_rng(900)
    for i in range(6):
        anchor = UtmPoint(18, float(rng.uniform(330.0, 370.0)), float(rng.uniform(south, north)))
        family = Family.M1 if i % 2 == 0 else Family.M2
        params = M1Params(1.5) if i % 2 == 0 else M2Params(4.0, 1.0)
        sc = SyntheticScenario(family, anchor, params, n=8, replicates=1, seed=i)
        s = sample_series(sc)[0]
        series.append(CrimeSeries(f"o{i}", s.xy, s.zone, s.anchor))
    path = tmp_path / "synthetic.csv"
    path.write_text(series_to_utm_csv(series))
    return path


@pytest.fixture
def synthetic_csv(tmp_path):
    """Six planar offenders inside the default jurisdiction grid."""
    return _synthetic(tmp_path)


def _renamed_first(synthetic_csv, tmp_path, offender_id):
    """The synthetic dataset with its first offender renamed ``offender_id``."""
    first, *rest = read_dataset(synthetic_csv.read_text()).series
    renamed = CrimeSeries(offender_id, first.xy, first.zone, first.anchor)
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


def _latlon_rows(seed, n_offenders=40):
    """Rows of a seeded lat/lon population around Baltimore: each offender
    keeps one anchor on all of its rows, and some have too few crimes to
    be kept."""
    rng = np.random.default_rng(seed)
    rows = []
    for o in range(n_offenders):
        alat, alon = rng.uniform((39.27, -77.05), (39.58, -76.42)).tolist()
        for k in range(int(rng.integers(2, 9))):
            lat, lon = rng.normal((alat, alon), 0.03).tolist()
            rows.append((f"g{o:03d}", f"c{o}_{k}", "0624", lat, lon, alat, alon))
    return rows


# the flags each command reads besides --config; any other is a usage error
COMMAND_FLAGS = {
    "convert": ("input", "--out"),
    "classify": ("--dataset", "--out"),
    "profile": ("--dataset", "--out", "--offender", "--method", "--grid", "--bounds"),
    "evaluate": ("--dataset", "--out", "--method", "--scope", "--grid", "--bounds"),
    "emit-grid": ("--out", "--grid", "--bounds"),
}
SHARED_FLAGS = {
    "--dataset": "d.csv",
    "--out": "o",
    "--method": "1a",
    "--scope": "all",
    "--grid": "3x2",
    "--bounds": "300,400,4330,4400",
}
REQUIRED_ARGS = {"convert": ["in.csv"], "profile": ["--offender", "a"]}
# the error of the bounds 300,400,-20,50 on the default 100x70 mesh
FIRST_CENTER_SOUTH_OF_FRAME = (
    "cell center (row 0, col 0) out of range: northing -19.5 km outside [0, 10000)"
)


class TestCommandFlags:
    @pytest.mark.parametrize("flag", SHARED_FLAGS)
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_command_takes_only_its_flags(self, capsys, command, flag):
        value = SHARED_FLAGS[flag]
        argv = [command, *REQUIRED_ARGS.get(command, []), flag, value]
        if flag in COMMAND_FLAGS[command]:
            parsed = getattr(_build_parser().parse_args(argv), flag[2:])
            assert parsed == ([value] if flag == "--method" else value)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_help_lists_the_commands_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--[a-z]+", text))
        flags = COMMAND_FLAGS[command]
        assert listed == {"--help", "--config", *(f for f in flags if f.startswith("--"))}
        assert ("input" in text.splitlines()[0]) == ("input" in flags)

    @pytest.mark.parametrize("command", ["profile", "evaluate", "emit-grid"])
    def test_bounds_outside_utm_ranges_write_nothing(self, tmp_path, capsys, command):
        # every anchor lies inside the bounds, but the grid's first cell
        # center, at northing -19.5 km, is no UTM point
        dataset = _synthetic(tmp_path, south=5.0, north=35.0)
        out = tmp_path / "out"
        argv = [command, "--bounds", "300,400,-20,50", "--out", str(out)]
        if command != "emit-grid":
            argv += ["--dataset", str(dataset), "--method", "1a", "--method", "rossmo"]
        if command == "profile":
            argv += ["--offender", "o1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --bounds: {FIRST_CENTER_SOUTH_OF_FRAME}\n"
        assert not out.exists()


class TestConvert:
    def test_writes_planar_layout(self, tmp_path, capsys):
        src = _geo_csv(
            tmp_path,
            ["77,1001,0624,39.30,-76.61,39.28,-76.60"],
        )
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(UTM_CSV_HEADER)
        fields = out[1].split(",")
        assert fields[:4] == ["77", "1001", "0624", "18"]
        assert 300.0 < float(fields[4]) < 400.0

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
        for i, fields in enumerate(out):
            assert fields[3] == "18"
            for (lat, lon), easting, northing in (
                (points[i], fields[4], fields[5]),
                (points[i // 4 * 4], fields[6], fields[7]),
            ):
                want = latlon_to_utm_direct(lat, lon, 18)
                assert abs(float(easting) - want[0]) <= 1e-9
                assert abs(float(northing) - want[1]) <= 1e-9

    def test_anchor_within_tolerance_written_as_first_rows(self, tmp_path, capsys):
        # the reader keeps anchors that agree to 1e-9 degrees as the first
        # row's; so does convert, and the planar reader then accepts them
        rows = [
            "a,1,0624,39.31,-76.61,39.30,-76.60",
            "a,2,0624,39.29,-76.62,39.3000000001,-76.60",
            "a,3,0624,39.32,-76.59,39.30,-76.6000000001",
        ]
        src = _geo_csv(tmp_path, rows)
        planar = tmp_path / "planar.csv"
        assert main(["convert", str(src), "--out", str(planar)]) == 0
        anchors = {tuple(fields[6:]) for fields in _csv_rows(planar.read_text())[1:]}
        assert len(anchors) == 1
        capsys.readouterr()
        labels = []
        for dataset in (src, planar):
            assert main(["classify", "--dataset", str(dataset)]) == 0
            labels.append(capsys.readouterr())
        assert labels[0] == labels[1]
        assert load_dataset(planar).series[0].anchor == load_dataset(src).series[0].anchor

    def test_inconsistent_anchor_refused(self, tmp_path, capsys):
        rows = [
            "b,1,0624,39.31,-76.61,39.30,-76.60",
            "a,1,0624,39.31,-76.61,39.30,-76.60",
            "b,2,0624,39.29,-76.62,39.30,-76.61",
            "a,2,0624,39.29,-76.62,39.31,-76.60",
        ]
        out = tmp_path / "planar.csv"
        assert main(["convert", str(_geo_csv(tmp_path, rows)), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: offender b: inconsistent anchor coordinates\n")
        assert not out.exists()

    def test_empty_file(self, tmp_path, capsys):
        src = _geo_csv(tmp_path, [])
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1

    def test_malformed_row_nonzero_exit(self, tmp_path, capsys):
        src = _geo_csv(tmp_path, ["77,1001,0624,oops,-76.61,39.28,-76.60"])
        assert main(["convert", str(src)]) == 1
        assert "row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1, 2])
    def test_output_reads_back_as_its_input(self, tmp_path, capsys, seed):
        # the output, read as a planar file, gives the series of the
        # geographic input bit for bit, so evaluate and classify give both
        # files the same bytes
        geo = tmp_path / "geo.csv"
        geo.write_text(csv_text(CSV_HEADER, _latlon_rows(seed)))
        planar = tmp_path / "planar.csv"
        assert main(["convert", str(geo), "--out", str(planar)]) == 0
        want, got = load_dataset(geo), load_dataset(planar)
        assert len(got.series) > 20
        assert got.offender_ids() == want.offender_ids()
        for a, b in zip(want.series, got.series):
            assert a.xy.tobytes() == b.xy.tobytes()
            assert a.anchor == b.anchor
        outputs = []
        for dataset in (geo, planar):
            out_dir = tmp_path / f"eval-{dataset.stem}"
            args = ["evaluate", "--dataset", str(dataset), "--method", "1a", "--method", "rossmo"]
            assert main(args + ["--out", str(out_dir)]) == 0
            capsys.readouterr()
            assert main(["classify", "--dataset", str(dataset)]) == 0
            outputs.append(
                (
                    (out_dir / "results.csv").read_bytes(),
                    (out_dir / "curves.csv").read_bytes(),
                    capsys.readouterr().out,
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "row, message",
        [
            (
                "a,2,0624,39.3,oops,39.28,-76.6",
                "row 3: crime_lat,crime_lon='39.3,oops': "
                "could not convert string to float: 'oops'",
            ),
            ("a,2,0624,39.3,-76.6,85.5,-76.6", "latitude 85.5 outside UTM domain [-84, 84]"),
            ("a,2,0624,39.3,-160.0,39.28,-76.6", "easting -6021.045926550386 km outside (0, 1000)"),
        ],
    )
    def test_error_text(self, tmp_path, capsys, row, message):
        src = _geo_csv(tmp_path, ["a,1,0624,39.3,-76.6,39.28,-76.6", row])
        assert main(["convert", str(src)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

    @pytest.mark.parametrize("layout", ["geographic", "planar"])
    def test_zone_outside_range_names_the_zone(self, synthetic_csv, tmp_path, capsys, layout):
        # rejected with the configuration, before any offender is read
        if layout == "geographic":
            rows = [f"g0,{k},0624,39.3{k},-76.61,39.28,-76.60" for k in range(3)]
            dataset = _geo_csv(tmp_path, rows)
        else:
            dataset = synthetic_csv
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zone = 61\n")
        assert main(["classify", "--config", str(cfg), "--dataset", str(dataset)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {cfg}:1: grid zone 61 outside [1, 60]\n"


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

    def test_m1_offender_builds_only_its_prior(self, synthetic_csv, tmp_path, caplog):
        # o0 is M1, so 1a reads only the no-buffer distance prior; the two
        # other M1 offenders are too few donors for it
        out_dir = tmp_path / "prof"
        args = ["profile", "--dataset", str(synthetic_csv), "--offender", "o0"]
        with caplog.at_level("WARNING"):
            assert main(args + ["--method", "1a", "--out", str(out_dir)]) == 0
        assert caplog.messages == [
            "too few donor samples for 1 prior(s) (distance_m1: 2); falling back to flat"
        ]

        # the same surface from every prior, written by the same writers
        ds = load_dataset(synthetic_csv)
        labels = label_dataset(ds)
        assert labels["o0"].kind is SubtypeKind.M1
        priors = build_prior_set(ds, "o0", labels, Grid())
        surface = run_method(ds.get("o0"), MethodId.ONE_A, labels["o0"], priors, Grid())
        full = tmp_path / "full"
        full.mkdir()
        write_surface_csv(surface, full / "o0_1a_surface.csv")
        write_surface_pgm(surface, full / "o0_1a.pgm")
        write_surface_sidecar(surface, "o0", MethodId.ONE_A, "M1", full / "o0_1a.json")
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(p.name for p in full.iterdir())
        for path in full.iterdir():
            assert (out_dir / path.name).read_bytes() == path.read_bytes()

    def test_every_requested_method_written(self, synthetic_csv, tmp_path, capsys):
        # the surfaces computed together equal, byte for byte, each one alone:
        # 2aii (repeated), rossmo and 1b for the M2 offender o1, then the
        # default list (all seven) for o1 and for the M3 offender o3
        for offender, methods in [
            ("o1", ["2aii", "rossmo", "1b", "2aii"]),
            ("o1", []),
            ("o3", []),
        ]:
            args = ["profile", "--dataset", str(synthetic_csv), "--offender", offender]
            run = tmp_path / f"{offender}-{len(methods)}"
            both = run / "both"
            flags = [flag for m in methods for flag in ("--method", m)]
            capsys.readouterr()  # drop the previous case's lines
            assert main(args + flags + ["--out", str(both)]) == 0
            distinct = list(dict.fromkeys(methods)) or [m.value for m in MethodId]
            wrote = capsys.readouterr().out.splitlines()
            assert [line.split("_")[1] for line in wrote] == distinct
            names = sorted(p.name for p in both.iterdir())
            assert len(names) == 3 * len(distinct)
            for method in distinct:
                alone = run / method
                assert main(args + ["--method", method, "--out", str(alone)]) == 0
                files = sorted(alone.iterdir())
                assert len(files) == 3
                for path in files:
                    assert path.name in names
                    assert (both / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "offender, families",
        [
            ("o0", {"M1": 1, "NONRES": 1}),
            ("o1", {"M2": 1, "NONRES": 2}),
            ("o3", {"M2": 1, "NONRES": 2, "M1": 2}),
        ],
        ids=["M1", "M2", "M3"],
    )
    def test_default_profile_computes_each_component_once(
        self, synthetic_csv, tmp_path, monkeypatch, offender, families
    ):
        # M1: the M1 and the non-resident model. M2: the ring, the
        # directional and the non-resident model. M3 (o3 has two clusters):
        # those three and the M1 model of each cluster.
        import geoprofile.engine as engine

        posterior_surface, calls = engine.posterior_surface, []

        def counting(*args, **kwargs):
            calls.append(args[1].family.value)
            return posterior_surface(*args, **kwargs)

        monkeypatch.setattr(engine, "posterior_surface", counting)
        args = ["profile", "--dataset", str(synthetic_csv), "--offender", offender]
        assert main(args + ["--out", str(tmp_path / "prof")]) == 0
        assert {f: calls.count(f) for f in calls} == families

    @pytest.mark.parametrize("methods", [["1a"], ["1a", "rossmo"], ["rossmo", "1a"]])
    def test_too_few_donors_writes_nothing(self, synthetic_csv, tmp_path, capsys, methods):
        # one donor cannot make an anchor prior, and the hit score, which
        # would succeed, is not written either
        dataset = tmp_path / "two.csv"
        dataset.write_text(series_to_utm_csv(read_dataset(synthetic_csv.read_text()).series[:2]))
        out_dir = tmp_path / "prof"
        flags = [flag for m in methods for flag in ("--method", m)]
        argv = ["profile", "--dataset", str(dataset), "--offender", "o0", "--out", str(out_dir)]
        assert main(argv + flags) == 1
        assert capsys.readouterr() == (
            "", "error: leave-one-out donor set too small to build an anchor prior\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods", [["1a", "rossmo"], ["rossmo", "1a"]])
    def test_posterior_error_printed_before_hit_score_error(self, tmp_path, capsys, methods):
        # crimes 1e-300 km apart, one on the only cell center, overflow the
        # hit score; their one donor is too few for the posterior. The
        # posterior part runs first, whatever the method order.
        eq = CrimeSeries("eq", [(500.0, y) for y in (0.0, 1e-300, 2e-300)], 18,
                         UtmPoint(18, 500.0, 0.1))
        donor = CrimeSeries("d", [(500.2, 0.2), (500.3, 0.1)], 18, UtmPoint(18, 500.25, 0.15))
        dataset = tmp_path / "eq.csv"
        dataset.write_text(series_to_utm_csv([eq, donor]))
        argv = ["profile", "--dataset", str(dataset), "--offender", "eq",
                "--grid", "1x1", "--bounds", "499.5,500.5,-0.5,0.5", "--out", str(tmp_path / "p")]
        assert main(argv + ["--method", "rossmo"]) == 1
        assert "hit scores sum to inf" in capsys.readouterr().err
        flags = [flag for m in methods for flag in ("--method", m)]
        assert main(argv + flags) == 1
        assert capsys.readouterr() == (
            "", "error: leave-one-out donor set too small to build an anchor prior\n"
        )
        assert not (tmp_path / "p").exists()

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

    @pytest.mark.parametrize("method", ["1a", "2aii"])
    @pytest.mark.parametrize("weight", ["1.5", "nan", "-0.2"])
    def test_bad_nonres_weight_is_one_error(
        self, synthetic_csv, tmp_path, capsys, method, weight
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nonres_weight = {weight}\n")
        out_dir = tmp_path / "out"
        code = main(
            ["profile", "--config", str(cfg), "--dataset", str(synthetic_csv),
             "--offender", "o1", "--method", method, "--out", str(out_dir)]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg}:1: nonres_weight must lie in [0, 1], got {float(weight)!r}"]
        assert not out_dir.exists()


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
        assert {len(row) for row in rows} == {8}
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
        assert capsys.readouterr() == ("", f"error: --bounds: {FIRST_CENTER_SOUTH_OF_FRAME}\n")

    def test_non_finite_bound_refused_as_such(self, capsys):
        assert main(["emit-grid", "--grid", "2x2", "--bounds", "nan,400,4330,4400"]) == 1
        assert capsys.readouterr() == ("", "error: --bounds: grid bounds must be finite\n")

    def test_refused_grid_shape_names_its_flag(self, capsys):
        assert main(["emit-grid", "--grid", "0x5"]) == 1
        assert capsys.readouterr() == (
            "", "error: --grid: grid needs at least one row and column\n"
        )


# each classifier key's rule, and a value outside its range
BAD_CLASSIFIER_VALUES = {
    "classify_nn_km": ("nearest-neighbour threshold must be > 0 and finite", "0"),
    "classify_cutoff_km": ("cluster cutoff must be > 0 and finite", "-1"),
    "classify_single_coverage": ("single-cluster coverage must lie in [0, 1]", "7"),
    "classify_multi_coverage": ("multi-cluster coverage must lie in [0, 1]", "-0.1"),
}


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

    def test_bounds_before_grid(self, tmp_path):
        # each key builds, and checks, a grid of its own
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bounds = 310,410,4320,4390\ngrid = 50x35\n")
        assert load_config(cfg).grid == Grid(
            west=310.0, east=410.0, south=4320.0, north=4390.0, nrows=35, ncols=50
        )

    @pytest.mark.parametrize("bad", ["nan", "inf", "range"])
    @pytest.mark.parametrize("key", BAD_CLASSIFIER_VALUES)
    def test_bad_classifier_option_is_one_error(self, tmp_path, capsys, key, bad):
        # rejected with the configuration: the dataset, which does not
        # exist, is never read
        rule, out_of_range = BAD_CLASSIFIER_VALUES[key]
        value = out_of_range if bad == "range" else bad
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"classify_nn_km = 2.0\n{key} = {value}\n")
        argv = ["classify", "--config", str(cfg), "--dataset", str(tmp_path / "missing.csv")]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}:2: {rule}, got {float(value)!r}\n")

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["profile", "--offender", "o0", "--method", "rossmo"]],
        ids=["classify", "profile-rossmo"],
    )
    def test_bad_node_count_rejected_with_the_config(self, tmp_path, capsys, synthetic_csv, argv):
        # refused while the configuration is read, even by a command that
        # runs no posterior method
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# quadrature\nnodes_alpha = 0\n")
        out = tmp_path / "out"
        argv += ["--config", str(cfg), "--dataset", str(synthetic_csv), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: {cfg}:2: node count for alpha must be >= 1, got 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--method", "empty method list"),
            ("--scope", "unknown scope ''; choose 'residents' or 'all'"),
            ("--grid", "grid shape must look like 100x70, got ''"),
            ("--bounds", "bounds must be W,E,S,N, got ''"),
            ("--out", "empty path"),
            ("--dataset", "empty path"),
        ],
    )
    def test_empty_flag_value_is_one_error(
        self, synthetic_csv, tmp_path, monkeypatch, capsys, flag, message
    ):
        # an empty value is refused, not taken for an absent flag
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        argv = ["evaluate", "--dataset", str(synthetic_csv), flag, ""]
        if flag != "--method":
            argv += ["--method", "rossmo"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {flag}: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "key, message",
        [("methods", "empty method list"), ("out", "empty path"), ("dataset", "empty path")],
    )
    def test_empty_config_value_is_one_error(
        self, synthetic_csv, tmp_path, monkeypatch, capsys, key, message
    ):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scope = all\n{key} =\n")
        before = sorted(tmp_path.rglob("*"))
        argv = ["evaluate", "--config", str(cfg), "--method", "rossmo"]
        if key != "dataset":
            argv += ["--dataset", str(synthetic_csv)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}:2: {message}\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--method", "rossmo", "--method", ""], None),
            (["--method", "rossmo", "--method", " "], None),
            ([], "methods = rossmo,"),
            ([], "methods = , rossmo"),
            ([], "methods = rossmo,,1a"),
        ],
        ids=["flag-empty", "flag-blank", "config-last", "config-first", "config-middle"],
    )
    def test_empty_method_among_others_is_one_error(
        self, synthetic_csv, tmp_path, monkeypatch, capsys, argv, config
    ):
        # an empty method is refused, not dropped beside the others
        monkeypatch.chdir(tmp_path)
        argv = ["evaluate", "--dataset", str(synthetic_csv), *argv]
        where = "--method"
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{config}\n")
            argv += ["--config", str(cfg)]
            where = f"{cfg}:1"
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {where}: empty method name\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "bounds",
        ["300,400,x,4400", "300,400,,4400", "300,400,4330", "300,400,4330,4400,1", ","],
    )
    def test_bad_bounds_name_their_form(self, tmp_path, capsys, bounds):
        assert main(["emit-grid", "--bounds", bounds]) == 1
        message = f"bounds must be W,E,S,N, got {bounds!r}"
        assert capsys.readouterr() == ("", f"error: --bounds: {message}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bounds = {bounds}\n")
        assert main(["emit-grid", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}:1: {message}\n")

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("zone", "x", "an integer"),
            ("zone", "18.0", "an integer"),
            ("zone", "", "an integer"),
            ("nodes_alpha", "2.5", "an integer"),
            ("nodes_theta", "many", "an integer"),
            ("nonres_weight", "x", "a number"),
            ("nonres_weight", "", "a number"),
            ("classify_nn_km", "x", "a number"),
            ("classify_multi_coverage", "60%", "a number"),
        ],
    )
    def test_unparsed_number_names_its_key(self, tmp_path, capsys, key, value, kind):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# numbers\n{key} = {value}\n")
        assert main(["emit-grid", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {cfg}:2: {key} must be {kind}, got {value!r}\n"
        )

    def test_dataset_required(self, capsys):
        assert main(["classify"]) == 1
        assert "dataset" in capsys.readouterr().err


def test_programming_error_propagates(synthetic_csv, tmp_path, monkeypatch):
    import geoprofile.cli as cli
    import geoprofile.evaluation as evaluation

    def defect(*args, **kwargs):
        raise TypeError("simulated defect")

    monkeypatch.setattr(cli, "compare_methods", defect)
    with pytest.raises(TypeError, match="simulated defect"):
        main(["evaluate", "--dataset", str(synthetic_csv), "--out", str(tmp_path / "ev")])
    # profile reaches the engine through the same per-offender step
    monkeypatch.setattr(evaluation, "method_surfaces", defect)
    with pytest.raises(TypeError, match="simulated defect"):
        main(["profile", "--dataset", str(synthetic_csv), "--offender", "o1",
              "--out", str(tmp_path / "prof")])
    assert not (tmp_path / "prof").exists()


def test_key_error_defect_propagates(synthetic_csv, tmp_path, monkeypatch):
    # a plan that leaves out a prior its method reads is a defect, not a
    # user error: only an unknown offender id (TestProfile.test_unknown_offender)
    # is a KeyError that main reports
    import geoprofile.evaluation as evaluation

    monkeypatch.setattr(evaluation, "prior_kinds", lambda *args: frozenset())
    with pytest.raises(KeyError, match="prior set has no distance_m1 prior") as excinfo:
        main(["evaluate", "--dataset", str(synthetic_csv), "--method", "1a",
              "--out", str(tmp_path / "ev")])
    assert excinfo.type is KeyError


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
    assert ds2.series[0].zone == 18


class TestEvaluateFailures:
    def test_out_of_grid_offender_gives_nonzero_exit(self, synthetic_csv, tmp_path, capsys):
        # tack on an offender whose anchor lies outside the jurisdiction
        import numpy as np

        ds = read_dataset(synthetic_csv.read_text())
        rng = np.random.default_rng(13)
        anchor = UtmPoint(18, 500.0, 4500.0)
        sites = (500.0, 4500.0) + rng.normal(0.0, 1.0, size=(4, 2))
        stray = CrimeSeries("stray", sites, 18, anchor)
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

    def test_failure_lines(self, tmp_path, capsys):
        # b's anchor is blank and c's lies outside the grid: records with no
        # method. a and d, each the other's only donor, are too few for 1a.
        sites = {"a": (350.0, 4360.0), "b": (340.0, 4350.0), "c": (360.0, 4370.0),
                 "d": (355.0, 4365.0)}
        anchors = {"a": "350.0,4360.0", "b": ",", "c": "500.0,4500.0", "d": "355.0,4365.0"}
        lines = [",".join(UTM_CSV_HEADER)]
        for oid, (e, n) in sites.items():
            for k, (de, dn) in enumerate([(0.1, 0.2), (1.0, -0.5), (-0.8, 1.1)]):
                lines.append(f"{oid},{k},0,18,{e + de},{n + dn},{anchors[oid]}")
        path = tmp_path / "four.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["evaluate", "--dataset", str(path), "--method", "1a", "--method", "rossmo",
                     "--scope", "all", "--out", str(tmp_path / "ev")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: offender a method 1a: every donor series needs a known anchor",
            "error: offender b: no anchor in dataset",
            "error: offender c: anchor outside the jurisdiction grid",
            "error: offender d method 1a: every donor series needs a known anchor",
            "error: no results for method(s): 1a",
        ]


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
