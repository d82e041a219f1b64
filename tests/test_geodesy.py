import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tm
from oracles import latlon_to_utm_direct
from geoprofile.geodesy import (
    GeoPoint,
    OutOfRangeError,
    UtmPoint,
    latlon_to_utm,
    utm_zone,
)


class TestUtmZone:
    def test_baltimore_longitude(self):
        assert utm_zone(-76.6) == 18

    def test_lower_boundary(self):
        assert utm_zone(-180.0) == 1

    def test_just_east_of_greenwich(self):
        assert utm_zone(0.1) == 31

    def test_nonfinite_rejected(self):
        with pytest.raises(OutOfRangeError):
            utm_zone(float("nan"))
        with pytest.raises(OutOfRangeError):
            utm_zone(float("inf"))

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            utm_zone(180.0)


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
        p = latlon_to_utm(GeoPoint(0.0, -75.0), forced_zone=18)
        assert p.zone == 18
        assert p.easting == pytest.approx(500.0, abs=1e-9)
        assert p.northing == pytest.approx(0.0, abs=1e-9)

    def test_against_reference_single_point(self):
        p = latlon_to_utm(GeoPoint(39.30, -76.60))
        assert p.zone == 18
        e_ref, n_ref = reference_tm.forward(39.30, -76.60, 18)
        assert abs(p.easting * 1000.0 - e_ref) < 1.0
        assert abs(p.northing * 1000.0 - n_ref) < 1.0

    def test_roundtrip_through_reference_inverse(self):
        p = latlon_to_utm(GeoPoint(39.30, -76.60))
        lat, lon = reference_tm.inverse(p.easting * 1000.0, p.northing * 1000.0, p.zone)
        assert abs(lat - 39.30) < 1e-6
        assert abs(lon - (-76.60)) < 1e-6

    def test_reference_agreement_zone18_sample(self):
        rng = np.random.default_rng(20240911)
        lats = rng.uniform(38.0, 40.0, size=100)
        lons = rng.uniform(-78.0, -72.0, size=100)
        worst = 0.0
        for lat, lon in zip(lats, lons):
            p = latlon_to_utm(GeoPoint(lat, lon), forced_zone=18)
            e_ref, n_ref = reference_tm.forward(lat, lon, 18)
            worst = max(
                worst,
                math.hypot(p.easting * 1000.0 - e_ref, p.northing * 1000.0 - n_ref),
            )
        assert worst < 1.0

    def test_forced_zone_overrides_nominal(self):
        # -76.6 nominally zone 18; forcing 17 shifts the frame east
        p17 = latlon_to_utm(GeoPoint(39.0, -76.6), forced_zone=17)
        p18 = latlon_to_utm(GeoPoint(39.0, -76.6), forced_zone=18)
        assert p17.zone == 17
        assert p17.easting > p18.easting

    def test_polar_latitude_rejected(self):
        with pytest.raises(OutOfRangeError):
            latlon_to_utm(GeoPoint(84.5, 10.0))

    def test_bad_forced_zone_rejected(self):
        with pytest.raises(OutOfRangeError):
            latlon_to_utm(GeoPoint(39.0, -76.6), forced_zone=61)

    def test_southern_hemisphere_false_northing(self):
        p = latlon_to_utm(GeoPoint(-33.9, 18.4))
        assert p.northing > 6000.0  # false northing applied


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
            p = latlon_to_utm(GeoPoint(lat, lon), forced_zone=forced)
            assert p.zone == (forced or utm_zone(lon))
            easting, northing = latlon_to_utm_direct(lat, lon, p.zone)
            assert abs(p.easting - easting) <= 1e-9
            assert abs(p.northing - northing) <= 1e-9

    @pytest.mark.parametrize("forced", [18, None])
    def test_sequence_against_plain_formulation(self, forced):
        sample = [(lat, lon) for lat, lon, f in KRUEGER_SAMPLE if f == forced]
        projected = latlon_to_utm([GeoPoint(lat, lon) for lat, lon in sample], forced)
        assert len(projected) == len(sample)
        for p, (lat, lon) in zip(projected, sample):
            assert p.zone == (forced or utm_zone(lon))
            easting, northing = latlon_to_utm_direct(lat, lon, p.zone)
            assert abs(p.easting - easting) <= 1e-9
            assert abs(p.northing - northing) <= 1e-9

    def test_sequence_raises_for_its_first_bad_point(self):
        good, polar, west = GeoPoint(39.0, -76.6), GeoPoint(85.0, -76.6), GeoPoint(39.0, -99.0)
        with pytest.raises(OutOfRangeError, match="easting"):
            latlon_to_utm([good, west, polar], forced_zone=18)
        with pytest.raises(OutOfRangeError, match="latitude 85.0"):
            latlon_to_utm([good, polar, west], forced_zone=18)

    def test_sequence_longer_than_a_block(self):
        # the series runs over blocks of points; a long file crosses them
        rng = np.random.default_rng(7)
        sample = rng.uniform((38.0, -79.0), (40.0, -71.0), size=(5000, 2)).tolist()
        points = [GeoPoint(lat, lon) for lat, lon in sample]
        for p, (lat, lon) in zip(latlon_to_utm(points, forced_zone=18), sample):
            easting, northing = latlon_to_utm_direct(lat, lon, 18)
            assert abs(p.easting - easting) <= 1e-9
            assert abs(p.northing - northing) <= 1e-9
        points[4321] = GeoPoint(-84.5, -76.6)
        with pytest.raises(OutOfRangeError, match="latitude -84.5"):
            latlon_to_utm(points, forced_zone=18)

    def test_empty_sequence(self):
        assert latlon_to_utm([], forced_zone=18) == []


@settings(max_examples=50, deadline=None)
@given(
    lat=st.floats(min_value=38.0, max_value=40.0),
    lon1=st.floats(min_value=-78.0, max_value=-72.01),
    delta=st.floats(min_value=1e-4, max_value=1.0),
)
def test_easting_monotone_in_longitude(lat, lon1, delta):
    lon2 = min(lon1 + delta, -72.0)
    a = latlon_to_utm(GeoPoint(lat, lon1), forced_zone=18)
    b = latlon_to_utm(GeoPoint(lat, lon2), forced_zone=18)
    assert b.easting > a.easting


@settings(max_examples=50, deadline=None)
@given(
    lat=st.floats(min_value=0.0, max_value=84.0),
    lon=st.floats(min_value=-180.0, max_value=179.99),
)
def test_northern_hemisphere_nonnegative_northing(lat, lon):
    p = latlon_to_utm(GeoPoint(lat, lon))
    assert p.northing >= 0.0
