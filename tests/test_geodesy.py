import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tm
from oracles import latlon_to_utm_direct
from geoprofile.geodesy import GeoPoint, OutOfRangeError, UtmPoint, latlon_to_utm


def _nominal_zone(lon):
    """The UTM zone whose 6-degree band holds longitude ``lon``."""
    return int((lon + 180.0) // 6.0) + 1


def _project(lat, lon, zone):
    """``(easting, northing)`` of one point, projected on ``zone``."""
    return tuple(latlon_to_utm(np.array([[lat, lon]]), zone)[0].tolist())


class TestTypes:
    def test_geopoint_range_checks(self):
        with pytest.raises(OutOfRangeError):
            GeoPoint(91.0, 0.0)
        with pytest.raises(OutOfRangeError):
            GeoPoint(0.0, 180.0)
        with pytest.raises(OutOfRangeError):
            GeoPoint(float("nan"), 0.0)

    def test_utmpoint_range_checks(self):
        with pytest.raises(OutOfRangeError):
            UtmPoint(0, 500.0, 0.0)
        with pytest.raises(OutOfRangeError):
            UtmPoint(18, 0.0, 0.0)
        with pytest.raises(OutOfRangeError):
            UtmPoint(18, 500.0, 10000.0)


class TestForwardProjection:
    def test_central_meridian_equator(self):
        easting, northing = _project(0.0, -75.0, 18)
        assert easting == pytest.approx(500.0, abs=1e-9)
        assert northing == pytest.approx(0.0, abs=1e-9)

    def test_against_reference_single_point(self):
        easting, northing = _project(39.30, -76.60, 18)
        e_ref, n_ref = reference_tm.forward(39.30, -76.60, 18)
        assert abs(easting * 1000.0 - e_ref) < 1.0
        assert abs(northing * 1000.0 - n_ref) < 1.0

    def test_roundtrip_through_reference_inverse(self):
        easting, northing = _project(39.30, -76.60, 18)
        lat, lon = reference_tm.inverse(easting * 1000.0, northing * 1000.0, 18)
        assert abs(lat - 39.30) < 1e-6
        assert abs(lon - (-76.60)) < 1e-6

    def test_reference_agreement_zone18_sample(self):
        rng = np.random.default_rng(20240911)
        lats = rng.uniform(38.0, 40.0, size=100)
        lons = rng.uniform(-78.0, -72.0, size=100)
        projected = latlon_to_utm(np.column_stack([lats, lons]), 18)
        worst = 0.0
        for lat, lon, (easting, northing) in zip(lats, lons, projected.tolist()):
            e_ref, n_ref = reference_tm.forward(lat, lon, 18)
            worst = max(worst, math.hypot(easting * 1000.0 - e_ref, northing * 1000.0 - n_ref))
        assert worst < 1.0

    def test_forced_zone_overrides_nominal(self):
        # -76.6 nominally zone 18; forcing 17 shifts the frame east
        assert _project(39.0, -76.6, 17)[0] > _project(39.0, -76.6, 18)[0]

    def test_polar_latitude_rejected(self):
        with pytest.raises(OutOfRangeError, match="latitude 84.5 outside"):
            _project(84.5, 10.0, 32)

    def test_bad_forced_zone_rejected(self):
        with pytest.raises(OutOfRangeError, match="forced zone 61"):
            _project(39.0, -76.6, 61)

    def test_southern_hemisphere_false_northing(self):
        assert _project(-33.9, 18.4, 34)[1] > 6000.0  # false northing applied


def _sample(rng, lo, hi, size, forced):
    return [(lat, lon, forced) for lat, lon in rng.uniform(lo, hi, (size, 2)).tolist()]


# (lat, lon, forced zone): the forced zone 18 around Baltimore, the nominal
# zone anywhere in the UTM domain, and the southern hemisphere
_RNG = np.random.default_rng(20261018)
KRUEGER_SAMPLE = (
    _sample(_RNG, (38.0, -79.0), (40.0, -71.0), 200, 18)
    + _sample(_RNG, (-84.0, -180.0), (84.0, 180.0), 200, None)
    + _sample(_RNG, (-84.0, -180.0), (0.0, 180.0), 100, None)
)


class TestKruegerSeries:
    """The projection agrees with the series evaluated one ``math`` call at
    a time within 1e-9 km, the tolerance that ``convert`` output keeps."""

    def test_against_plain_formulation(self):
        for lat, lon, forced in KRUEGER_SAMPLE:
            zone = forced or _nominal_zone(lon)
            easting, northing = _project(lat, lon, zone)
            want_easting, want_northing = latlon_to_utm_direct(lat, lon, zone)
            assert abs(easting - want_easting) <= 1e-9
            assert abs(northing - want_northing) <= 1e-9

    @pytest.mark.parametrize("forced", [18, None])
    def test_sequence_against_plain_formulation(self, forced):
        # many points in one call: all on the forced zone, or, with none
        # forced, the points of each nominal zone, both hemispheres mixed
        sample = np.array([(lat, lon) for lat, lon, f in KRUEGER_SAMPLE if f == forced])
        zones = np.array([forced or _nominal_zone(lon) for lon in sample[:, 1].tolist()])
        for zone in np.unique(zones).tolist():
            points = sample[zones == zone]
            projected = latlon_to_utm(points, zone)
            assert projected.shape == points.shape
            for (lat, lon), (easting, northing) in zip(points.tolist(), projected.tolist()):
                want_easting, want_northing = latlon_to_utm_direct(lat, lon, zone)
                assert abs(easting - want_easting) <= 1e-9
                assert abs(northing - want_northing) <= 1e-9

    def test_sequence_raises_for_its_first_bad_point(self):
        good, polar, west = (39.0, -76.6), (85.0, -76.6), (39.0, -99.0)
        with pytest.raises(OutOfRangeError, match="easting"):
            latlon_to_utm(np.array([good, west, polar]), 18)
        with pytest.raises(OutOfRangeError, match="latitude 85.0"):
            latlon_to_utm(np.array([good, polar, west]), 18)

    def test_sequence_longer_than_a_block(self):
        # the series runs over blocks of points; a long file crosses them
        rng = np.random.default_rng(7)
        latlon = rng.uniform((38.0, -79.0), (40.0, -71.0), size=(5000, 2))
        projected = latlon_to_utm(latlon, 18)
        for (lat, lon), (easting, northing) in zip(latlon.tolist(), projected.tolist()):
            want_easting, want_northing = latlon_to_utm_direct(lat, lon, 18)
            assert abs(easting - want_easting) <= 1e-9
            assert abs(northing - want_northing) <= 1e-9
        latlon[4321] = (-84.5, -76.6)
        with pytest.raises(OutOfRangeError, match="latitude -84.5"):
            latlon_to_utm(latlon, 18)


class TestArrayProjection:
    """Edge cases of the (n, 2) array a call takes."""

    @pytest.mark.parametrize(
        "bad, message",
        [((85.0, -76.6), "latitude 85.0 outside"), ((39.0, -99.0), "easting -.* km outside")],
    )
    def test_first_bad_point_past_a_block(self, bad, message):
        latlon = np.tile([39.3, -76.6], (3000, 1))
        latlon[2500] = bad
        latlon[2900] = (-85.0, -76.6)
        with pytest.raises(OutOfRangeError, match=message):
            latlon_to_utm(latlon, forced_zone=18)

    def test_needs_a_forced_zone(self):
        with pytest.raises(TypeError, match="forced_zone"):
            latlon_to_utm(np.array([[39.3, -76.6]]))
        with pytest.raises(OutOfRangeError, match="forced zone 61"):
            latlon_to_utm(np.array([[39.3, -76.6]]), forced_zone=61)

    def test_empty(self):
        assert latlon_to_utm(np.empty((0, 2)), forced_zone=18).shape == (0, 2)


@settings(max_examples=50, deadline=None)
@given(
    lat=st.floats(min_value=38.0, max_value=40.0),
    lon1=st.floats(min_value=-78.0, max_value=-72.01),
    delta=st.floats(min_value=1e-4, max_value=1.0),
)
def test_easting_monotone_in_longitude(lat, lon1, delta):
    lon2 = min(lon1 + delta, -72.0)
    assert _project(lat, lon2, 18)[0] > _project(lat, lon1, 18)[0]


@settings(max_examples=50, deadline=None)
@given(
    lat=st.floats(min_value=0.0, max_value=84.0),
    lon=st.floats(min_value=-180.0, max_value=179.99),
)
def test_northern_hemisphere_nonnegative_northing(lat, lon):
    assert _project(lat, lon, _nominal_zone(lon))[1] >= 0.0
