"""Geometry kernels, from scratch (no geopy/shapely in the sandbox —
SURVEY.md §2.7): vectorized haversine distance, point-in-polygon ray
casting, and a small packed grid index over polygons (the broadcast
"STRtree" held by the PIP-validator stage).

Point-in-polygon has one crossing kernel, ``_crosses``, behind both
entry points.  ``point_in_polygon`` (one ring, many points) runs it once
per edge.  ``PolygonIndex`` builds two flat tables once: a CSR table
from each bbox-grid cell to its candidate polygons in build order, and
an edge table ``(yi, xi, yj, xj)`` with per-polygon offsets.
``locate`` then answers a whole batch in array passes, with no loop
over cells or polygons: grid cell per point, (point, candidate) pairs
through the CSR table, the bbox filter, one crossing pass over every
(pair, edge), parity per pair by ``bincount``, and per point the first
containing candidate, i.e. the lowest polygon index.

The reference computes reject→match geodesic distance with geopy
(utils.py:1066,1091, rounded to 3); we use the published haversine
formula (mean earth radius 6371.0088 km) — adequate at address scale.
"""

from __future__ import annotations

import numpy as np

from .gazetteer import concat_ranges

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized great-circle distance in km (standard haversine)."""
    lat1 = np.radians(np.asarray(lat1, dtype=np.float64))
    lon1 = np.radians(np.asarray(lon1, dtype=np.float64))
    lat2 = np.radians(np.asarray(lat2, dtype=np.float64))
    lon2 = np.radians(np.asarray(lon2, dtype=np.float64))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def _ring_edges(ring_lat: np.ndarray, ring_lon: np.ndarray):
    """Edge table ``(yi, xi, yj, xj)`` of one ring: vertex i joined to
    vertex i - 1 (vertex 0 to the last one).  A closing vertex equal to
    the first is dropped, so open and closed rings give the same edges."""
    rlat = np.asarray(ring_lat, dtype=np.float64)
    rlon = np.asarray(ring_lon, dtype=np.float64)
    if rlat[0] == rlat[-1] and rlon[0] == rlon[-1]:
        rlat, rlon = rlat[:-1], rlon[:-1]
    return rlat, rlon, np.roll(rlat, 1), np.roll(rlon, 1)


def _crosses(lat, lon, yi, xi, yj, xj) -> np.ndarray:
    """Even-odd crossing bit of point (lat, lon) against edge
    (yi, xi)-(yj, xj), elementwise with broadcasting.  This is the one
    crossing expression the PIP oracles replicate in SQL bit for bit.
    Callers hold ``np.errstate(divide="ignore", invalid="ignore")``: a
    horizontal edge divides by zero, but its ``cond`` is False."""
    cond = (yi > lat) != (yj > lat)
    xint = (xj - xi) * (lat - yi) / (yj - yi) + xi
    return cond & (lon < xint)


def point_in_polygon(lat: np.ndarray, lon: np.ndarray,
                     ring_lat: np.ndarray, ring_lon: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray casting: for N points against ONE simple
    polygon ring (closed or open), returns a bool mask of containment.
    Points exactly on an edge may fall either side (standard caveat).
    One vector pass per edge, so memory stays O(N) for any ring size."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    yi, xi, yj, xj = _ring_edges(ring_lat, ring_lon)
    inside = np.zeros(len(lat), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for e in range(len(yi)):
            inside ^= _crosses(lat, lon, yi[e], xi[e], yj[e], xj[e])
    return inside


# (pair, edge) rows per crossing pass in ``PolygonIndex.locate``: bounds
# the pass's temporaries (~10 arrays of 8 bytes per row) for large rings
_PASS_EDGES = 1 << 20


class PolygonIndex:
    """Packed bbox grid over a set of polygons — the broadcast side of the
    point-in-polygon validation stage (SURVEY.md §2.3 PipValidatorActor).

    Built once on the driver, shipped via ``ray.put``; queried per batch
    by ``locate`` in flat array passes (see the module docstring).
    """

    def __init__(self, rings: list[tuple[np.ndarray, np.ndarray]],
                 grid: int = 64):
        rings = [(np.asarray(a, dtype=np.float64),
                  np.asarray(b, dtype=np.float64)) for a, b in rings]
        self.bbox = np.array([[a.min(), a.max(), b.min(), b.max()]
                              for a, b in rings])  # lat0,lat1,lon0,lon1
        self.lat0 = float(self.bbox[:, 0].min())
        self.lat1 = float(self.bbox[:, 1].max())
        self.lon0 = float(self.bbox[:, 2].min())
        self.lon1 = float(self.bbox[:, 3].max())
        self.grid = grid
        # CSR grid cell -> candidate polygons whose bbox overlaps the
        # cell, ascending polygon index within each cell
        gy0, gx0 = self._cell(self.bbox[:, 0], self.bbox[:, 2])
        gy1, gx1 = self._cell(self.bbox[:, 1], self.bbox[:, 3])
        nx = gx1 - gx0 + 1
        n = (gy1 - gy0 + 1) * nx
        poly = np.repeat(np.arange(len(rings)), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        code = ((np.repeat(gy0, n) + k // np.repeat(nx, n)) * grid
                + np.repeat(gx0, n) + k % np.repeat(nx, n))
        self._cand = poly[np.argsort(code, kind="stable")]
        self._cstart = np.r_[0, np.cumsum(
            np.bincount(code, minlength=grid * grid))]
        # flat edge table, polygon p's edges at [_eoff[p], _eoff[p + 1])
        edges = [_ring_edges(a, b) for a, b in rings]
        self._yi, self._xi, self._yj, self._xj = (
            np.concatenate([e[c] for e in edges]) for c in range(4))
        self._eoff = np.r_[0, np.cumsum([len(e[0]) for e in edges])]

    def _cell(self, lat: np.ndarray, lon: np.ndarray):
        """Grid (row, col) of each point, clipped into the grid."""
        g = self.grid
        gy = np.clip((lat - self.lat0) / max(self.lat1 - self.lat0, 1e-12) * g,
                     0, g - 1).astype(np.int64)
        gx = np.clip((lon - self.lon0) / max(self.lon1 - self.lon0, 1e-12) * g,
                     0, g - 1).astype(np.int64)
        return gy, gx

    def locate(self, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
        """Row (index into ``rings``) of the containing polygon per point,
        -1 if outside all or not finite.  Overlaps resolve to the lowest
        polygon index among the containing candidates.  Callers map rows
        to ids or postcodes with one take from an array of length
        ``len(rings) + 1`` whose last entry stands for -1."""
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        out = np.full(len(lat), -1, dtype=np.int64)
        pts = np.flatnonzero(np.isfinite(lat) & np.isfinite(lon))
        gy, gx = self._cell(lat[pts], lon[pts])
        code = gy * self.grid + gx
        start = self._cstart[code]
        cnt = self._cstart[code + 1] - start
        # (point, candidate) pairs, grouped by point, ascending polygon
        pt = np.repeat(pts, cnt)
        poly = self._cand[concat_ranges(start, cnt)]
        la, lo, bb = lat[pt], lon[pt], self.bbox[poly]
        keep = ((la >= bb[:, 0]) & (la <= bb[:, 1])
                & (lo >= bb[:, 2]) & (lo <= bb[:, 3]))
        pt, poly = pt[keep], poly[keep]
        ends = np.cumsum(self._eoff[poly + 1] - self._eoff[poly])
        cuts = np.searchsorted(
            ends, np.arange(_PASS_EDGES, ends[-1] if len(ends) else 0,
                            _PASS_EDGES), side="right")
        inside = np.concatenate(
            [self._inside(lat, lon, pt[s:e], poly[s:e])
             for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(pt)])])
        pt, poly = pt[inside], poly[inside]
        first = np.ones(len(pt), dtype=bool)
        first[1:] = pt[1:] != pt[:-1]
        out[pt[first]] = poly[first]
        return out

    def _inside(self, lat, lon, pt, poly) -> np.ndarray:
        """Even-odd containment per (point, polygon) pair: one crossing
        pass over every (pair, edge), parity per pair by ``bincount``."""
        e0 = self._eoff[poly]
        ecnt = self._eoff[poly + 1] - e0
        pair = np.repeat(np.arange(len(pt)), ecnt)
        edge = concat_ranges(e0, ecnt)
        p = pt[pair]
        with np.errstate(divide="ignore", invalid="ignore"):
            hit = _crosses(lat[p], lon[p], self._yi[edge], self._xi[edge],
                           self._yj[edge], self._xj[edge])
        return (np.bincount(pair[hit], minlength=len(pt)) & 1).astype(bool)


def dp_simplify(lat: np.ndarray, lon: np.ndarray, eps: float) -> np.ndarray:
    """Douglas-Peucker polyline simplification (published algorithm),
    iterative stack form, planar degree space (x=lon, y=lat — adequate
    at sub-degree extents; the haversine ops own metric distances).

    Determinism contract the SQL oracle replicates op-for-op: deviation
    = |(bx-ax)(py-ay) - (by-ay)(px-ax)| / sqrt((bx-ax)^2 + (by-ay)^2)
    (degenerate a==b segments fall back to euclidean distance to a),
    split on STRICT dev > eps at the FIRST index attaining the max
    (numpy argmax), endpoints always kept.  Returns a keep mask."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    n = len(lat)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = keep[-1] = True
    if n <= 2:
        return keep
    stack = [(0, n - 1)]
    while stack:
        a, b = stack.pop()
        if b - a < 2:
            continue
        ax, ay = lon[a], lat[a]
        bx, by = lon[b], lat[b]
        px = lon[a + 1:b]
        py = lat[a + 1:b]
        dx = bx - ax
        dy = by - ay
        den = np.sqrt(dx * dx + dy * dy)
        if den == 0.0:
            dev = np.sqrt((px - ax) ** 2 + (py - ay) ** 2)
        else:
            dev = np.abs(dx * (py - ay) - dy * (px - ax)) / den
        i = int(np.argmax(dev))
        if dev[i] > eps:
            m = a + 1 + i
            keep[m] = True
            stack.append((a, m))
            stack.append((m, b))
    return keep
