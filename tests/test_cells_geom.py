"""Spatial kernel tests: hex/quad/square cell ids, haversine, PIP
(FIXTURES.md §5 property checks)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.cells import (hex_cell, hex_cell_center, quad_cell, quad_parent,
                          square_cell)
from georay.geom import PolygonIndex, haversine_km, point_in_polygon

LAT = st.floats(min_value=-85, max_value=85, allow_nan=False)
LON = st.floats(min_value=-179, max_value=179, allow_nan=False)


def test_hex_cell_deterministic_and_center_roundtrip():
    lat = np.array([50.8333, 51.05, 50.6326])
    lon = np.array([4.35, 3.71, 5.5797])
    c1 = hex_cell(lat, lon, 9)
    c2 = hex_cell(lat, lon, 9)
    assert (c1 == c2).all()
    # center of a cell maps back to the same cell
    clat, clon = hex_cell_center(c1)
    assert (hex_cell(clat, clon, 9) == c1).all()


@given(st.lists(st.tuples(LAT, LON), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_hex_center_within_one_edge(pts):
    lat = np.array([p[0] for p in pts])
    lon = np.array([p[1] for p in pts])
    c = hex_cell(lat, lon, 9)
    clat, clon = hex_cell_center(c)
    # center must be within one hex diameter of the point
    size = 2.0 / 2 ** 9
    assert (np.abs(clat - lat) < 2 * size).all()
    assert (np.abs(clon - lon) < 2 * size).all()


@given(st.lists(st.tuples(LAT, LON), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_quad_parent_containment(pts):
    lat = np.array([p[0] for p in pts])
    lon = np.array([p[1] for p in pts])
    child = quad_cell(lat, lon, 18)
    parent = quad_cell(lat, lon, 17)
    assert (quad_parent(child) == parent).all()


def test_square_cell_formula():
    # matches the SQL: floor((lat+90)/p)*W + floor((lon+180)/p)
    lat = np.array([50.8333])
    lon = np.array([4.35])
    p = 0.05
    w = int(round(360 / p))
    expect = int(np.floor((50.8333 + 90) / p)) * w + int(np.floor((4.35 + 180) / p))
    assert square_cell(lat, lon)[0] == expect


def test_haversine_known_distance():
    # Brussels -> Antwerp ≈ 41.5 km
    d = haversine_km([50.8503], [4.3517], [51.2194], [4.4025])
    assert 40 < d[0] < 43
    assert haversine_km([50.0], [4.0], [50.0], [4.0])[0] == 0.0


def test_point_in_polygon_square():
    ring_lat = np.array([0.0, 0.0, 1.0, 1.0])
    ring_lon = np.array([0.0, 1.0, 1.0, 0.0])
    lat = np.array([0.5, 1.5, 0.5])
    lon = np.array([0.5, 0.5, 1.5])
    got = point_in_polygon(lat, lon, ring_lat, ring_lon)
    assert got.tolist() == [True, False, False]


def _pip_scalar(y, x, ring_lat, ring_lon):
    """Even-odd ray cast for one point in plain Python floats (the same
    IEEE doubles as numpy, so the bits must agree)."""
    pts = [(float(a), float(b)) for a, b in zip(ring_lat, ring_lon)]
    if pts[0] == pts[-1]:
        pts = pts[:-1]
    inside = False
    for i in range(len(pts)):
        (yi, xi), (yj, xj) = pts[i], pts[i - 1]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
    return inside


def _locate_ref(rings, lat, lon):
    """Scalar rule of PolygonIndex.locate: per point, the first polygon in
    build order whose bbox holds the point and whose ring contains it."""
    out = []
    for y, x in zip(lat.tolist(), lon.tolist()):
        hit = -1
        for pi, (rla, rlo) in enumerate(rings):
            if (np.isfinite(y) and np.isfinite(x)
                    and min(rla) <= y <= max(rla) and min(rlo) <= x <= max(rlo)
                    and _pip_scalar(y, x, rla, rlo)):
                hit = pi
                break
        out.append(hit)
    return np.array(out, dtype=np.int64)


def _square(la0, lo0, la1, lo1, closed=False):
    lat = [la0, la0, la1, la1] + ([la0] if closed else [])
    lon = [lo0, lo1, lo1, lo0] + ([lo0] if closed else [])
    return np.array(lat), np.array(lon)


@given(st.lists(st.tuples(st.floats(-2, 3, allow_nan=False),
                          st.floats(-2, 3, allow_nan=False)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_polygon_index_matches_bruteforce(pts):
    lat = np.array([p[0] for p in pts])
    lon = np.array([p[1] for p in pts])
    for rings in (
            # two disjoint squares
            [_square(0.0, 0.0, 1.0, 1.0), _square(2.0, 2.0, 2.5, 2.5)],
            # overlapping rectangles: the first in build order wins
            [_square(0.0, 0.0, 2.0, 1.0), _square(0.5, 0.5, 1.5, 2.5),
             _square(-1.0, -1.0, 1.0, 3.0)]):
        ids = ["a", "b", "c"][:len(rings)]
        got = np.array(ids + [None], dtype=object)[
            PolygonIndex(rings).locate(lat, lon)]
        for i in range(len(pts)):
            hits = [pid for pid, (rla, rlo) in zip(ids, rings)
                    if point_in_polygon(lat[i:i+1], lon[i:i+1], rla, rlo)[0]]
            assert got[i] == (hits[0] if hits else None)


def test_polygon_index_matches_scalar_rule(monkeypatch):
    """Vectorized locate equals the per-polygon scalar loop on the hard
    cases: vertices, edges, a border shared by two rings, overlapping
    bboxes and rings, open and closed rings, points off the grid, and
    crossing passes split into many small ones."""
    from georay import geom
    tri_a = (np.array([0.0, 0.0, 2.0]), np.array([0.0, 2.0, 0.0]))
    tri_b = (np.array([2.0, 2.0, 0.0, 2.0]), np.array([0.0, 2.0, 2.0, 0.0]))
    hexa = (0.5 + 0.4 * np.sin(np.linspace(0, 2 * np.pi, 7)),
            1.5 + 0.4 * np.cos(np.linspace(0, 2 * np.pi, 7)))
    # inner rings first, so every ring is the lowest containing one
    # somewhere and the overlaps exercise the tie-break
    rings = [
        _square(0.6, 0.6, 0.9, 0.9, closed=True),  # overlaps 2, 3 and 5
        hexa,                                      # closed, in 4, overlaps 2
        _square(0.25, 0.25, 0.75, 1.75),           # overlaps rings 3 and 4
        _square(0.0, 0.0, 1.0, 1.0),              # open
        _square(0.0, 1.0, 1.0, 2.0, closed=True),  # shares lon=1 with 3
        tri_a, tri_b,              # same bbox, share the diagonal border
    ]
    verts = np.concatenate([r[0] for r in rings]), np.concatenate(
        [r[1] for r in rings])
    edge_mid = np.array([[0.0, 0.5], [0.5, 1.0], [1.0, 1.5], [0.25, 1.0],
                         [1.0, 1.0], [0.5, 0.0], [1.0, 0.5], [0.75, 0.5]])
    off_grid = np.array([[-5.0, 0.5], [0.5, -5.0], [5.0, 5.0], [-5.0, -5.0],
                         [0.5, 10.0], [1e6, 0.5]])
    rng = np.random.default_rng(14)
    lat = np.r_[verts[0], edge_mid[:, 0], off_grid[:, 0],
                rng.uniform(-0.5, 2.5, 3000)]
    lon = np.r_[verts[1], edge_mid[:, 1], off_grid[:, 1],
                rng.uniform(-0.5, 2.5, 3000)]
    for grid, pass_edges in ((1, 7), (4, geom._PASS_EDGES), (64, 1)):
        monkeypatch.setattr(geom, "_PASS_EDGES", pass_edges)
        idx = PolygonIndex(rings, grid=grid)
        got = idx.locate(lat, lon)
        assert got.dtype == np.int64
        assert np.array_equal(got, _locate_ref(rings, lat, lon))
        assert set(got.tolist()) == set(range(-1, len(rings)))
        assert idx.locate(np.array([]), np.array([])).tolist() == []
        # the per-ring kernel agrees with the scalar cast point for point
        for rla, rlo in rings:
            assert point_in_polygon(lat, lon, rla, rlo).tolist() == [
                _pip_scalar(y, x, rla, rlo)
                for y, x in zip(lat.tolist(), lon.tolist())]


def test_polygon_index_non_finite_points():
    """NaN and ±inf in either coordinate locate to -1 (None), with no
    cast warning, and leave the finite points' answers alone."""
    import warnings
    idx = PolygonIndex([_square(0.0, 0.0, 1.0, 1.0)])
    bad = [np.nan, np.inf, -np.inf]
    lat = np.array([0.5] + bad + [0.5] * 3 + [np.nan, 2.0])
    lon = np.array([0.5] + [0.5] * 3 + bad + [np.inf, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = idx.locate(lat, lon)
    assert got.tolist() == [0] + [-1] * 8


def test_geohash_canonical_vectors():
    """Pin against published geohash values (Niemeyer encoding)."""
    from georay.cells import geohash
    assert geohash([57.64911], [10.40744], 7)[0] == "u4pruyd"
    assert geohash([0.0], [0.0], 7)[0] == "s000000"
    assert geohash([-90.0], [-180.0], 7)[0] == "0000000"
    assert geohash([89.99999], [179.99999], 7)[0] == "zzzzzzz"
    # prefix property: nearby points share long prefixes
    a = geohash([50.85030], [4.35170], 7)[0]
    b = geohash([50.85031], [4.35171], 7)[0]
    assert a[:6] == b[:6]


def test_compact_cells_kernel():
    import numpy as np
    from georay.cells import compact_cells, quad_from_xy, quad_parent

    # a complete 2x2 sibling block at level 12 promotes to its parent;
    # an incomplete block (3 of 4) stays put
    full = quad_from_xy(np.array([10, 11, 10, 11]),
                        np.array([20, 20, 21, 21]), 12)
    partial = quad_from_xy(np.array([100, 101, 100]),
                           np.array([200, 200, 201]), 12)
    out = compact_cells(np.concatenate([full, partial]))
    parent = quad_parent(full[:1])[0]
    assert parent in out and not set(full) & set(out)
    assert set(partial) <= set(out)
    assert len(out) == 1 + 3

    # cascading: all 16 grandchildren of one level-10 cell collapse to it
    xs, ys = np.meshgrid(np.arange(4, 8), np.arange(12, 16))
    deep = quad_from_xy(xs.ravel(), ys.ravel(), 12)
    out2 = compact_cells(deep)
    assert len(out2) == 1 and int(out2[0]) >> 56 == 10

    # stop_level halts promotion: same 16 cells stop at level 11
    out3 = compact_cells(deep, stop_level=11)
    assert len(out3) == 4 and all((c >> 56) == 11 for c in out3)

    # duplicates dedup; empty input passes through
    assert len(compact_cells(np.concatenate([full, full]))) == 1
    assert len(compact_cells(np.array([], dtype=np.int64))) == 0


def test_quad_compact_distributed_matches_local(ray_session):
    import numpy as np
    import ray

    from georay.cells import compact_cells, quad_from_xy
    from georay.tiles import quad_compact

    rng = np.random.RandomState(5)
    # clustered coverage mask spanning several level-6 subtrees
    cx = rng.randint(0, 1 << 12, size=12)
    cy = rng.randint(0, 1 << 12, size=12)
    xs, ys = [], []
    for x0, y0 in zip(cx, cy):
        gx, gy = np.meshgrid(np.arange(x0, min(x0 + 6, 1 << 12)),
                             np.arange(y0, min(y0 + 6, 1 << 12)))
        xs.append(gx.ravel())
        ys.append(gy.ravel())
    cells = quad_from_xy(np.concatenate(xs), np.concatenate(ys), 12)
    # duplicates on purpose: the op dedups inside the subtree partition
    cells = np.concatenate([cells, cells[::3]])

    import pyarrow as pa
    ds = ray.data.from_arrow(pa.table({"cell": pa.array(cells)})
                             ).repartition(5)
    got = np.sort(quad_compact(ds).to_pandas()["cell"].to_numpy())
    want = compact_cells(cells)
    assert np.array_equal(got, want)


def test_path_bearing_pinned(ray_session):
    # due east on the equator = 90°, due north = 0°, due south = 180°
    import numpy as np

    def bearing(lat1, lon1, lat2, lon2):
        p1, p2 = np.radians(lat1), np.radians(lat2)
        dl = np.radians(lon2 - lon1)
        deg = np.degrees(np.arctan2(
            np.sin(dl) * np.cos(p2),
            np.cos(p1) * np.sin(p2)
            - np.sin(p1) * np.cos(p2) * np.cos(dl)))
        return deg + 360.0 if deg < 0 else deg

    assert bearing(0.0, 0.0, 0.0, 1.0) == 90.0
    assert bearing(0.0, 0.0, 1.0, 0.0) == 0.0
    assert bearing(1.0, 0.0, 0.0, 0.0) == 180.0
    assert bearing(0.0, 1.0, 0.0, 0.0) == 270.0


def test_quad_polyfill_roundtrip(ray_session):
    # the compacted cover, expanded back to level 12, must equal the
    # raw inside-cell set exactly (disjoint, lossless)
    import numpy as np

    from georay.cells import compact_cells, quad_from_xy

    def uncompact(cells, level):
        out = []
        for c in np.asarray(cells, dtype=np.int64):
            lv = int(c) >> 56
            code = int(c) & ((1 << 56) - 1)
            d = level - lv
            base = code << (2 * d)
            out.extend((level << 56) | (base + k) for k in range(4 ** d))
        return np.sort(np.array(out, dtype=np.int64))

    # an 8x8 block plus a ragged edge: mixed promotion depths
    xs, ys = np.meshgrid(np.arange(16, 24), np.arange(32, 40))
    gx = np.concatenate([xs.ravel(), np.array([24, 24, 25])])
    gy = np.concatenate([ys.ravel(), np.array([32, 33, 32])])
    raw = quad_from_xy(gx, gy, 12)
    comp = compact_cells(raw)
    assert len(comp) < len(raw)
    assert np.array_equal(uncompact(comp, 12), np.sort(raw))


def test_quad_uncompact_op(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray

    from georay.cells import quad_from_xy, quad_parent
    from georay.tiles import quad_uncompact

    child = quad_from_xy(np.array([8]), np.array([12]), 12)
    parent = quad_parent(child)          # level 11: expands to 4 kids
    gp = quad_parent(parent)             # level 10: expands to 16
    ds = ray.data.from_arrow(pa.table({"cell": pa.array(
        np.concatenate([child, parent, gp]))}))
    out = quad_uncompact(ds, 12).to_pandas()["cell"].to_numpy()
    assert len(out) == 1 + 4 + 16
    assert all((c >> 56) == 12 for c in out)
    assert child[0] in out

    deeper = ray.data.from_arrow(pa.table({"cell": pa.array(child)}))
    with pytest.raises(Exception):
        quad_uncompact(deeper, 11).to_pandas()


def test_hilbert_kernel_bijection_roundtrip_adjacency():
    from georay.cells import hilbert_from_xy, hilbert_to_xy
    order = 6
    n = 1 << order
    xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    xs = xs.ravel()
    ys = ys.ravel()
    d = hilbert_from_xy(xs, ys, order)
    # bijection onto [0, n^2)
    assert len(np.unique(d)) == n * n and d.min() == 0 and d.max() == n * n - 1
    # exact inverse
    x2, y2 = hilbert_to_xy(d, order)
    assert (x2 == xs).all() and (y2 == ys).all()
    # the locality property the partitioner relies on: consecutive d
    # are ALWAYS grid-adjacent (manhattan distance exactly 1)
    o = np.argsort(d)
    step = np.abs(np.diff(xs[o])) + np.abs(np.diff(ys[o]))
    assert (step == 1).all()


def test_hilbert_pinned_vectors():
    # order-1 curve is the U shape: (0,0)->(0,1)->(1,1)->(1,0)
    from georay.cells import hilbert_from_xy
    xs = np.array([0, 0, 1, 1])
    ys = np.array([0, 1, 1, 0])
    assert hilbert_from_xy(xs, ys, 1).tolist() == [0, 1, 2, 3]
