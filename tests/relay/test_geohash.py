"""Tests for repro.relay.geohash."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netmodel.geo import GeoPoint
from repro.relay.geohash import geohash_decode_center, geohash_encode


class TestGeohash:
    def test_known_value(self):
        # Munich encodes to u281 at precision 4 (standard geohash).
        assert geohash_encode(GeoPoint(48.137, 11.575), precision=4) == "u281"

    def test_equator_prime_meridian(self):
        assert geohash_encode(GeoPoint(0.0, 0.0), precision=1) == "s"

    def test_precision_length(self):
        for precision in (1, 4, 8):
            assert len(geohash_encode(GeoPoint(10.0, 10.0), precision)) == precision

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            geohash_encode(GeoPoint(0.0, 0.0), precision=0)

    def test_decode_center_close(self):
        point = GeoPoint(48.137, 11.575)
        center = geohash_decode_center(geohash_encode(point, precision=6))
        assert point.distance_km(center) < 1.0

    def test_decode_rejects_bad_chars(self):
        with pytest.raises(ValueError):
            geohash_decode_center("abc!")

    def test_decode_rejects_empty(self):
        with pytest.raises(ValueError):
            geohash_decode_center("")

    def test_prefix_property(self):
        # A longer geohash refines (starts with) the shorter one.
        point = GeoPoint(-33.86, 151.21)
        assert geohash_encode(point, 6).startswith(geohash_encode(point, 3))


@given(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)
def test_encode_decode_within_cell(lat, lon):
    point = GeoPoint(lat, lon)
    geohash = geohash_encode(point, precision=5)
    center = geohash_decode_center(geohash)
    # Precision-5 cells are ~4.9 km x 4.9 km: the centre must be nearby.
    assert point.distance_km(center) < 6.0


@given(
    st.floats(min_value=-89.9, max_value=89.9),
    st.floats(min_value=-179.9, max_value=179.9),
)
def test_roundtrip_stable(lat, lon):
    point = GeoPoint(lat, lon)
    geohash = geohash_encode(point, precision=4)
    # Encoding the decoded centre yields the same cell.
    assert geohash_encode(geohash_decode_center(geohash), precision=4) == geohash


@given(
    st.floats(min_value=-90.0, max_value=90.0),
    st.floats(min_value=-180.0, max_value=180.0),
    st.integers(min_value=1, max_value=12),
)
def test_memoised_encode_equals_fresh(lat, lon, precision):
    point = GeoPoint(lat, lon)
    first = geohash_encode(point, precision)
    hits = geohash_encode.cache_info().hits
    # A repeat call is served from the memo and equals a fresh encode.
    assert geohash_encode(point, precision) == first
    assert geohash_encode.cache_info().hits == hits + 1
    assert geohash_encode.__wrapped__(point, precision) == first
    # Equal points share a memo entry (0.0 == -0.0): it must hold for both.
    twin = GeoPoint(lat + 0.0, lon + 0.0)
    assert geohash_encode(twin, precision) == geohash_encode.__wrapped__(twin, precision)
