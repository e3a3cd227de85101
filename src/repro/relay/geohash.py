"""Geohash encoding.

iCloud Private Relay's "maintain general location" option hands the
egress relay a geohash derived from the client's IP geolocation, so the
egress can pick a nearby-seeming address and services receive a coarse
location.  The paper's Section 6 notes an ingress-observing entity can
derive the client's approximate geohash from its IP address — we
implement real geohashes so that inference is computable.
"""

from __future__ import annotations

from functools import lru_cache

from repro.netmodel.geo import GeoPoint

_BASE32 = "0123456789bcdefghjkmnpqrstuvwxyz"
_DECODE = {c: i for i, c in enumerate(_BASE32)}


@lru_cache(maxsize=1024)
def geohash_encode(point: GeoPoint, precision: int = 4) -> str:
    """Encode a point as a geohash of ``precision`` characters.

    Precision 4 (cell size roughly 39 km x 19 km) matches the coarse
    region granularity the relay's location-preserving mode exposes.

    Memoised: the relay service encodes the client location on every
    connection, and a world has a handful of client locations.  The
    uncached encoder is ``geohash_encode.__wrapped__``.
    """
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    chars: list[str] = []
    bit = 0
    value = 0
    even = True  # longitude first
    while len(chars) < precision:
        if even:
            mid = (lon_lo + lon_hi) / 2
            if point.lon >= mid:
                value = (value << 1) | 1
                lon_lo = mid
            else:
                value <<= 1
                lon_hi = mid
        else:
            mid = (lat_lo + lat_hi) / 2
            if point.lat >= mid:
                value = (value << 1) | 1
                lat_lo = mid
            else:
                value <<= 1
                lat_hi = mid
        even = not even
        bit += 1
        if bit == 5:
            chars.append(_BASE32[value])
            bit = 0
            value = 0
    return "".join(chars)


def geohash_decode_center(geohash: str) -> GeoPoint:
    """Decode a geohash to the centre point of its cell."""
    if not geohash:
        raise ValueError("empty geohash")
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -180.0, 180.0
    even = True
    for char in geohash:
        try:
            value = _DECODE[char]
        except KeyError:
            raise ValueError(f"invalid geohash character {char!r}") from None
        for shift in range(4, -1, -1):
            bit = (value >> shift) & 1
            if even:
                mid = (lon_lo + lon_hi) / 2
                if bit:
                    lon_lo = mid
                else:
                    lon_hi = mid
            else:
                mid = (lat_lo + lat_hi) / 2
                if bit:
                    lat_lo = mid
                else:
                    lat_hi = mid
            even = not even
    return GeoPoint((lat_lo + lat_hi) / 2, (lon_lo + lon_hi) / 2)
