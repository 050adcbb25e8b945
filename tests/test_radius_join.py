"""Spatial range join tests (tiles.radius_join) — verified against a
brute-force all-pairs haversine on the same points."""

import numpy as np
import pytest

import ray.data

from georay.geom import haversine_km
from georay.tiles import radius_join


def _points(n, seed, lat0=49.5, lat1=51.5, lon0=2.5, lon1=6.4):
    rng = np.random.default_rng(seed)
    return {"place_id": np.arange(n, dtype=np.int64),
            "lat": rng.uniform(lat0, lat1, n),
            "lon": rng.uniform(lon0, lon1, n)}


def _brute_pairs(L, R, radius_km, distinct=False):
    dm = haversine_km(L["lat"][:, None], L["lon"][:, None],
                      R["lat"][None, :], R["lon"][None, :])
    hit = dm <= radius_km
    if distinct:
        hit &= L["place_id"][:, None] < R["place_id"][None, :]
    li, ri = np.nonzero(hit)
    return set(zip(L["place_id"][li].tolist(), R["place_id"][ri].tolist()))


def test_radius_join_self_matches_brute(ray_session):
    pts = _points(400, seed=7)
    ds = ray.data.from_arrow(__import__("pyarrow").table(pts))
    got = radius_join(ds, ds, 5.0, distinct_pairs=True,
                      num_partitions=8).to_pandas()
    want = _brute_pairs(pts, pts, 5.0, distinct=True)
    assert set(zip(got["left_id"], got["right_id"])) == want
    # pairs are unique (each unordered pair reported exactly once)
    assert len(got) == len(want)
    # dist_m is a genuine floor-meter distance
    assert (got["dist_m"] >= 0).all() and (got["dist_m"] <= 5000).all()


def test_radius_join_two_sided(ray_session):
    import pyarrow as pa
    L = _points(150, seed=1)
    R = _points(90, seed=2)
    R["place_id"] = R["place_id"] + 10_000  # disjoint id space
    got = radius_join(ray.data.from_arrow(pa.table(L)),
                      ray.data.from_arrow(pa.table(R)),
                      8.0, num_partitions=8).to_pandas()
    want = _brute_pairs(L, R, 8.0)
    assert set(zip(got["left_id"], got["right_id"])) == want


def test_radius_join_empty_result(ray_session):
    import pyarrow as pa
    L = _points(5, seed=3, lat0=49.5, lat1=49.6, lon0=2.5, lon1=2.6)
    R = _points(5, seed=4, lat0=51.0, lat1=51.1, lon0=6.0, lon1=6.1)
    out = radius_join(ray.data.from_arrow(pa.table(L)),
                      ray.data.from_arrow(pa.table(R)),
                      1.0, num_partitions=4)
    # every emitted block stays schema-stable even with zero rows
    # (Ray's Dataset.to_pandas/schema() degrade on an all-empty
    # dataset, so assert on the actual Arrow blocks, which is what
    # downstream operators consume)
    tabs = list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert sum(t.num_rows for t in tabs) == 0
    for t in tabs:
        assert t.schema.names == ["left_id", "right_id", "dist_m"]


def test_radius_join_boundary_cells(ray_session):
    """Points straddling a grid-cell boundary still pair up (the probe
    replication covers the neighbor cells)."""
    import pyarrow as pa
    # pitch at 1 km is ~0.00904 deg; put two points ~0.9 km apart across
    # a cell boundary in both axes
    pts = {"place_id": np.array([1, 2], dtype=np.int64),
           "lat": np.array([50.000000, 50.008]),
           "lon": np.array([4.000000, 4.002])}
    d = float(haversine_km(pts["lat"][0], pts["lon"][0],
                           pts["lat"][1], pts["lon"][1]))
    assert d < 1.0
    ds = ray.data.from_arrow(pa.table(pts))
    got = radius_join(ds, ds, 1.0, distinct_pairs=True,
                      num_partitions=4).to_pandas()
    assert set(zip(got["left_id"], got["right_id"])) == {(1, 2)}


def test_nearest_join_matches_brute(ray_session):
    import pyarrow as pa
    from georay.tiles import nearest_join
    pts = _points(300, seed=11)
    ds = ray.data.from_arrow(pa.table(pts))
    got = nearest_join(ds, ds, 3.0, exclude_self=True,
                       num_partitions=8).to_pandas()
    dm = haversine_km(pts["lat"][:, None], pts["lon"][:, None],
                      pts["lat"][None, :], pts["lon"][None, :])
    np.fill_diagonal(dm, np.inf)
    want = {}
    for i in range(len(pts["place_id"])):
        j = np.lexsort((pts["place_id"], dm[i]))[0]
        if dm[i, j] <= 3.0:
            want[int(pts["place_id"][i])] = int(pts["place_id"][j])
    assert dict(zip(got["left_id"], got["right_id"])) == want
    # exactly one row per left id
    assert got["left_id"].is_unique


def test_idw_join_matches_bruteforce(ray_session):
    """Integer IDW moments equal a brute-force O(n*m) computation."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from georay.geom import haversine_km
    from georay.tiles import idw_join

    rng = np.random.RandomState(5)
    blat = 50.8 + rng.rand(40) * 0.02
    blon = 4.3 + rng.rand(40) * 0.02
    bval = rng.randint(0, 50, 40).astype(np.int64)
    plat = 50.8 + rng.rand(9) * 0.02
    plon = 4.3 + rng.rand(9) * 0.02
    right = ray.data.from_arrow(pa.table({
        "place_id": pa.array(range(40), pa.int64()),
        "lat": pa.array(blat), "lon": pa.array(blon),
        "v": pa.array(bval)}))
    left = ray.data.from_arrow(pa.table({
        "cell_id": pa.array(range(100, 109), pa.int64()),
        "lat": pa.array(plat), "lon": pa.array(plon)}))
    got = idw_join(left, right, 1.0, val_col="v",
                   num_partitions=4).to_pandas().set_index("left_id")

    for i in range(9):
        d = haversine_km(plat[i], plon[i], blat, blon)
        hit = d <= 1.0
        dm = np.floor(d * 1000.0).astype(np.int64)
        w = np.where(hit, 1_000_000_000 // np.maximum(dm, 1), 0)
        num, den = int((w * bval).sum()), int(w.sum())
        if den == 0:
            assert 100 + i not in got.index
        else:
            assert got.loc[100 + i, "num"] == num
            assert got.loc[100 + i, "den"] == den


def _brute_nearest(L, R, radius_km, exclude_self=False):
    dm = haversine_km(L["lat"][:, None], L["lon"][:, None],
                      R["lat"][None, :], R["lon"][None, :])
    if exclude_self:
        dm[L["place_id"][:, None] == R["place_id"][None, :]] = np.inf
    want = {}
    for i in range(len(L["place_id"])):
        j = np.lexsort((R["place_id"], dm[i]))[0]
        if dm[i, j] <= radius_km:
            want[int(L["place_id"][i])] = int(R["place_id"][j])
    return want


def _brute_idw(L, R, v, radius_km):
    want = {}
    for i in range(len(L["place_id"])):
        d = haversine_km(L["lat"][i], L["lon"][i], R["lat"], R["lon"])
        dm = np.floor(d * 1000.0).astype(np.int64)
        w = np.where(d <= radius_km, 1_000_000_000 // np.maximum(dm, 1), 0)
        if w.sum():
            want[int(L["place_id"][i])] = (int((w * v).sum()), int(w.sum()))
    return want


def _ds(pts):
    import pyarrow as pa
    return ray.data.from_arrow(pa.table(pts))


def _idw_got(out):
    df = out.to_pandas()
    return {int(k): (int(n), int(d))
            for k, n, d in zip(df["left_id"], df["num"], df["den"])}


# two points 0.89 km apart across the ±180° seam
_SEAM = {"place_id": np.array([1, 2], dtype=np.int64),
         "lat": np.array([0.0, 0.0]), "lon": np.array([179.996, -179.996])}


def test_radius_join_across_seam(ray_session):
    got = radius_join(_ds(_SEAM), _ds(_SEAM), 1.0, distinct_pairs=True,
                      num_partitions=4).to_pandas()
    assert set(zip(got["left_id"], got["right_id"])) == {(1, 2)}
    assert got["dist_m"].tolist() == [889]


def test_nearest_join_across_seam(ray_session):
    from georay.tiles import nearest_join
    got = nearest_join(_ds(_SEAM), _ds(_SEAM), 1.0, exclude_self=True,
                       num_partitions=4).to_pandas()
    assert dict(zip(got["left_id"], got["right_id"])) == {1: 2, 2: 1}


def test_idw_join_across_seam(ray_session):
    from georay.tiles import idw_join
    L = {k: a[:1] for k, a in _SEAM.items()}
    R = {k: a[1:] for k, a in _SEAM.items()}
    R["v"] = np.array([7], dtype=np.int64)
    got = _idw_got(idw_join(_ds(L), _ds(R), 1.0, val_col="v",
                            left_id_col="place_id", num_partitions=4))
    assert got == _brute_idw(L, R, R["v"], 1.0) == {1: (7 * 1_124_859,
                                                       1_124_859)}


def test_grid_joins_hot_cell_chunked(ray_session, monkeypatch):
    """More probes share one cell than a chunk holds: every join still
    equals brute force when the probes are split across chunks."""
    from georay import tiles
    monkeypatch.setattr(tiles, "_CHUNK_ROWS", 64)
    pts = _points(300, seed=13, lat0=50.0, lat1=50.01, lon0=4.0, lon1=4.01)
    pts["v"] = np.random.default_rng(14).integers(0, 50, 300)
    ds = _ds(pts)
    got = tiles.radius_join(ds, ds, 2.0, distinct_pairs=True,
                            num_partitions=4).to_pandas()
    want = _brute_pairs(pts, pts, 2.0, distinct=True)
    assert len(got) == len(want) == 300 * 299 // 2
    assert set(zip(got["left_id"], got["right_id"])) == want
    got = tiles.nearest_join(ds, ds, 2.0, exclude_self=True,
                             num_partitions=4).to_pandas()
    assert (dict(zip(got["left_id"], got["right_id"]))
            == _brute_nearest(pts, pts, 2.0, exclude_self=True))
    got = _idw_got(tiles.idw_join(ds, ds, 2.0, val_col="v",
                                  left_id_col="place_id", num_partitions=4))
    assert got == _brute_idw(pts, pts, pts["v"], 2.0)


def test_nearest_join_tie_smaller_right_id(ray_session):
    from georay.tiles import nearest_join
    R = {"place_id": np.array([9, 3], dtype=np.int64),
         "lat": np.array([50.0, 50.0]), "lon": np.array([4.0, 4.0])}
    L = {"place_id": np.array([100], dtype=np.int64),
         "lat": np.array([50.001]), "lon": np.array([4.001])}
    got = nearest_join(_ds(L), _ds(R), 1.0, num_partitions=4).to_pandas()
    assert dict(zip(got["left_id"], got["right_id"])) == {100: 3}


@pytest.mark.parametrize("join", ["nearest_join", "idw_join"])
def test_grid_join_empty_result_typed(ray_session, join):
    from georay import tiles
    L = _points(5, seed=3, lat0=49.5, lat1=49.6, lon0=2.5, lon1=2.6)
    R = _points(5, seed=4, lat0=51.0, lat1=51.1, lon0=6.0, lon1=6.1)
    R["v"] = np.ones(5, dtype=np.int64)
    kw, names = {}, ["left_id", "right_id", "dist_m"]
    if join == "idw_join":
        kw = {"val_col": "v", "left_id_col": "place_id"}
        names = ["left_id", "num", "den"]
    out = getattr(tiles, join)(_ds(L), _ds(R), 1.0, num_partitions=4, **kw)
    tabs = list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
    assert sum(t.num_rows for t in tabs) == 0
    for t in tabs:
        assert t.schema.names == names


def test_radius_join_empty_blocks_keep_schema(ray_session):
    """An all-empty radius join is typed zero-row blocks, not zero-column
    ones, so ``Dataset.schema()`` still names its columns."""
    L = _points(5, seed=3, lat0=49.5, lat1=49.6, lon0=2.5, lon1=2.6)
    R = _points(5, seed=4, lat0=51.0, lat1=51.1, lon0=6.0, lon1=6.1)
    out = radius_join(_ds(L), _ds(R), 1.0, num_partitions=4)
    names = ["left_id", "right_id", "dist_m"]
    tabs = ray.get(out.to_arrow_refs())
    assert tabs and all(t.num_rows == 0 and t.schema.names == names
                        for t in tabs)
    assert out.schema().names == names
