"""Spatial layer stages: tile assignment, point-in-polygon validation,
and tile rollups (the north rule's net-new operators, SURVEY.md §2.5).

- ``TileAnnotator`` — ``map_batches`` batch callable: assigns the
  H3-style hex cell, the S2-style quadkey cross-check and the
  SQL-checkable square cell to every resolved coordinate, and validates
  the hit against the admin-boundary polygon of its postcode via the
  broadcast polygon index (the engine's ``check_result`` reverse-geocode
  analogue).  Polygon index is built once per instance (one per worker
  process via ``pipeline.annotator_fn``) from the deterministic spec.
- ``rollup_counts`` — tile rollup as partial-aggregate-then-groupby:
  counts are combined inside ``map_batches`` first, so the shuffle moves
  at most (distinct cells × blocks) rows, not the full dataset — the
  skew/salting story for hot postal codes (SURVEY.md §4).
- ``radius_join``, ``nearest_join``, ``idw_join`` — radius-bounded
  joins with one plan, ``_grid_join``: partition both sides on a
  seam-wrapping lat/lon grid, verify each cell's haversine matrix in
  its partition, and emit each pair from exactly one partition.  Only
  the per-chunk verification differs between the three.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from .cells import hex_cell, quad_cell, square_cell
from .config import O_LAT, O_LON, POSTCODE, T_HEX_CELL, T_PIP_OK, T_QUAD_CELL
from .gazetteer import GazetteerSpec, get_gazetteer
from .geom import EARTH_RADIUS_KM, PolygonIndex, haversine_km

T_SQUARE_CELL = "square_cell"


class TileAnnotator:
    """map_batches callable class: cells + PIP validation per batch."""

    def __init__(self, spec: GazetteerSpec | None = None, hex_res: int = 9,
                 quad_level: int = 18, lat_col: str = O_LAT,
                 lon_col: str = O_LON, pc_col: str | None = POSTCODE):
        self.hex_res = hex_res
        self.quad_level = quad_level
        self.lat_col = lat_col
        self.lon_col = lon_col
        self.pc_col = pc_col
        self.pip: PolygonIndex | None = None
        if spec is not None:
            b = get_gazetteer(spec).boundaries
            self.pip = PolygonIndex(
                [(np.asarray(la), np.asarray(lo))
                 for la, lo in zip(b["ring_lat"], b["ring_lon"])])
            # postcode per polygon row; row -1 (outside all) reads NaN,
            # which equals no postcode
            self.pc_of_row = np.array(b["post_code"].tolist() + [np.nan],
                                      dtype=object)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lat = batch[self.lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lon = batch[self.lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = np.isfinite(lat) & np.isfinite(lon)
        hexc = np.full(len(lat), -1, dtype=np.int64)
        quadc = np.full(len(lat), -1, dtype=np.int64)
        sqc = np.full(len(lat), -1, dtype=np.int64)
        if ok.any():
            hexc[ok] = hex_cell(lat[ok], lon[ok], self.hex_res)
            quadc[ok] = quad_cell(lat[ok], lon[ok], self.quad_level)
            sqc[ok] = square_cell(lat[ok], lon[ok])
        out = batch.append_column(T_HEX_CELL, pa.array(hexc))
        out = out.append_column(T_QUAD_CELL, pa.array(quadc))
        out = out.append_column(T_SQUARE_CELL, pa.array(sqc))
        if self.pip is not None and self.pc_col is not None:
            pip_ok = np.zeros(len(lat), dtype=bool)
            if ok.any():
                # vectorized reverse-geocode check: the containing
                # polygon's postcode must match the candidate's postcode
                loc_pc = self.pc_of_row[self.pip.locate(lat[ok], lon[ok])]
                pcs = batch[self.pc_col].to_numpy(zero_copy_only=False)[ok]
                pip_ok[ok] = (loc_pc == pcs) | (pcs == "")
            out = out.append_column(T_PIP_OK, pa.array(pip_ok))
        return out


def _partial_counts(key_col: str):
    def fn(batch: pa.Table) -> pa.Table:
        t = batch.group_by(key_col).aggregate([([], "count_all")])
        return t.rename_columns([key_col, "n"])
    return fn


def rollup_counts(ds: "ray.data.Dataset", key_col: str) -> "ray.data.Dataset":
    """Count rows per tile: per-batch combine (pyarrow hash-agg) then one
    small ``groupby(key).sum`` shuffle over the partials."""
    partial = ds.map_batches(_partial_counts(key_col),
                             batch_format="pyarrow")
    return partial.groupby(key_col).aggregate(Sum("n", alias_name="n"))


def rollup_counts_local(ds: "ray.data.Dataset", key_col: str) -> pd.DataFrame:
    """Tile rollup with a driver-side final merge: per-batch partial
    counts stream to the driver (bounded: at most #distinct-cells rows
    per block) and one pandas groupby merges them — no all-to-all
    barrier, no single-reducer tail.  Correct at any input scale because
    the partial stream is bounded by cells × blocks, not rows."""
    partial = ds.map_batches(_partial_counts(key_col),
                             batch_format="pyarrow")
    parts = [b.to_pandas() for b in
             partial.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not parts:
        return pd.DataFrame({key_col: [], "n": []})
    allp = pd.concat(parts, ignore_index=True)
    return (allp.groupby(key_col, sort=False)["n"].sum()
            .reset_index())


def rollup_counts_salted(ds: "ray.data.Dataset", key_col: str,
                         salt: int = 16) -> "ray.data.Dataset":
    """Two-stage salted rollup for skewed keys: first reduce on
    (key, hash%salt), then merge the per-salt partials.  Use when a
    single tile dominates enough that one reducer becomes the straggler
    even after per-batch combining."""
    counts = _partial_counts(key_col)

    def add_salt(batch: pa.Table) -> pa.Table:
        t = counts(batch)
        s = np.arange(len(t)) % salt
        return t.append_column("_salt", pa.array(s.astype(np.int64)))

    partial = ds.map_batches(add_salt, batch_format="pyarrow")
    stage1 = partial.groupby([key_col, "_salt"]).aggregate(
        Sum("n", alias_name="n"))
    return stage1.groupby(key_col).aggregate(Sum("n", alias_name="n"))


# ---------------------------------------------------------------------------
# Grid joins: radius_join, nearest_join, idw_join
# ---------------------------------------------------------------------------

_KM_PER_DEG_LAT = 110.574
# probes per haversine matrix; read on the driver when a plan is built
_CHUNK_ROWS = 4096

_PAIR_SCHEMA = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64()),
                          ("dist_m", pa.int64())])
_CAND_SCHEMA = pa.schema([("left_id", pa.int64()), ("right_id", pa.int64()),
                          ("dist_km", pa.float64())])
_IDW_SCHEMA = pa.schema([("left_id", pa.int64()), ("num", pa.int64()),
                         ("den", pa.int64())])


def _rj_tag(side: int, id_col: str, lat_col: str, lon_col: str,
            pitch_deg: float, n_lon: int, radius_km: float,
            val_col: str | None = None):
    """Batch fn: tag one side of a grid join with grid cells.

    Rows are ``pitch_deg`` tall and ``360 / n_lon`` wide; the longitude
    column wraps (``mod n_lon``), so +180° and -180° share a seam.  Side
    0 (build) rows go to their home cell only; side 1 (probe) rows are
    replicated to every cell their radius circle can touch — ±1 row
    (pitch ≥ radius by construction) and ±kx columns, where kx comes
    from the batch's worst-case latitude (capped at 89°: the poles are
    out of scope).  When the 2kx+1 columns would wrap onto themselves
    every column is taken once.  Each (probe, build) pair therefore
    meets in exactly ONE partition — the build row's home cell — so no
    pair dedup pass is needed downstream."""
    width = 360.0 / n_lon

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lat = batch[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lon = batch[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        val = (batch[val_col].to_numpy(zero_copy_only=False)
               .astype(np.int64) if val_col is not None
               else np.zeros(len(ids), np.int64))
        iy = np.floor((lat + 90.0) / pitch_deg).astype(np.int64)
        ix = np.floor((lon + 180.0) / width).astype(np.int64) % n_lon
        if side == 0:
            cell = iy * n_lon + ix
            idx = np.arange(len(ids))
        else:
            worst = np.radians(min(np.abs(lat).max(initial=0.0), 89.0))
            s = np.sin(radius_km / EARTH_RADIUS_KM) / np.cos(worst)
            # a circle over a pole (s >= 1) reaches every column
            reach = np.degrees(np.arcsin(s)) if s < 1 else 180.0
            kx = int(np.ceil(reach / width))
            if 2 * kx + 1 >= n_lon:
                cols = np.broadcast_to(np.arange(n_lon), (len(ids), n_lon))
            else:
                cols = (ix[:, None] + np.arange(-kx, kx + 1)) % n_lon
            rows = iy[:, None] + np.array([-1, 0, 1], dtype=np.int64)
            cell = (rows[:, :, None] * n_lon + cols[:, None, :]).reshape(-1)
            idx = np.repeat(np.arange(len(ids)), 3 * cols.shape[1])
        return pa.table({
            "cell": pa.array(cell),
            "side": pa.array(np.full(len(cell), side, np.int8)),
            "rj_id": pa.array(ids[idx]), "rj_lat": pa.array(lat[idx]),
            "rj_lon": pa.array(lon[idx]), "rj_val": pa.array(val[idx])})
    return fn


def _grid_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               radius_km: float, chunk_fn, schema: pa.Schema,
               left_id_col: str, right_id_col: str, lat_col: str,
               lon_col: str, val_col: str | None,
               num_partitions: int | None) -> "ray.data.Dataset":
    """The one plan behind the grid joins: bucket both sides on the
    ``_rj_tag`` grid, co-locate each cell with ONE ``grouped_map``, and
    inside a partition hand every (probes × builds) haversine matrix of
    a cell to ``chunk_fn(probe_id, build_id, build_val, dist_km)``.

    ``chunk_fn`` returns a dict of ``schema`` columns or ``None``; the
    result Dataset is in ``schema``.  Probes are chunked by
    ``_CHUNK_ROWS`` so a hot cell costs one dense scan bounded by point
    density × cell area, never materialized whole.  The replication
    factor (≤ 3×(2kx+1), kx = 1 at low latitude) is the only scale
    cost."""
    from .shuffle import grouped_map

    pitch_deg = radius_km / _KM_PER_DEG_LAT
    n_lon = int(np.ceil(360.0 / pitch_deg))
    chunk_rows = _CHUNK_ROWS
    build = right.map_batches(
        _rj_tag(0, right_id_col, lat_col, lon_col, pitch_deg, n_lon,
                radius_km, val_col), batch_format="pyarrow")
    probe = left.map_batches(
        _rj_tag(1, left_id_col, lat_col, lon_col, pitch_deg, n_lon,
                radius_km), batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return schema.empty_table()
        order = np.argsort(df["cell"].to_numpy(), kind="mergesort")
        cell, side, ids, lat, lon, val = (
            df[c].to_numpy()[order] for c in
            ("cell", "side", "rj_id", "rj_lat", "rj_lon", "rj_val"))
        bounds = np.flatnonzero(np.diff(cell)) + 1
        outs = []
        for s, e in zip(np.r_[0, bounds], np.r_[bounds, len(cell)]):
            pm = side[s:e] == 1
            if pm.all() or not pm.any():
                continue
            bm = ~pm
            p_id, p_la, p_lo = ids[s:e][pm], lat[s:e][pm], lon[s:e][pm]
            b_id, b_la, b_lo = ids[s:e][bm], lat[s:e][bm], lon[s:e][bm]
            b_val = val[s:e][bm]
            for c0 in range(0, len(p_id), chunk_rows):
                c1 = c0 + chunk_rows
                dm = haversine_km(p_la[c0:c1, None], p_lo[c0:c1, None],
                                  b_la[None, :], b_lo[None, :])
                got = chunk_fn(p_id[c0:c1], b_id, b_val, dm)
                if got is not None:
                    outs.append(got)
        if not outs:
            return schema.empty_table()
        return pa.table({n: np.concatenate([o[n] for o in outs])
                         for n in schema.names}, schema=schema)

    # no map_batches after the shuffle: Ray hands a zero-row block to no
    # UDF and emits it with zero columns, which would drop ``schema``
    return grouped_map(build.union(probe), "cell", per_partition,
                       num_partitions=num_partitions, group_fn=False)


def radius_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                radius_km: float, *,
                left_id_col: str = "place_id", right_id_col: str = "place_id",
                lat_col: str = "lat", lon_col: str = "lon",
                distinct_pairs: bool = False,
                num_partitions: int | None = None) -> "ray.data.Dataset":
    """All (left, right) pairs within ``radius_km`` great-circle distance —
    the spatial range join the reference's reverse-geocode validation
    implies but never distributes.  One shuffle, no all-pairs: the
    ``_grid_join`` plan with a hit mask as its verification.

    ``distinct_pairs=True`` keeps only left_id < right_id — the self-join
    "all pairs within R" form with each unordered pair reported once.

    Returns columns: left_id, right_id (int64), dist_m (floor meters).
    """
    def hits(p_id, b_id, b_val, dm):
        hit = dm <= radius_km
        if distinct_pairs:
            hit &= p_id[:, None] < b_id[None, :]
        pi, bi = np.nonzero(hit)
        if not len(pi):
            return None
        return {"left_id": p_id[pi], "right_id": b_id[bi],
                "dist_m": np.floor(dm[pi, bi] * 1000.0).astype(np.int64)}

    return _grid_join(left, right, radius_km, hits, _PAIR_SCHEMA,
                      left_id_col, right_id_col, lat_col, lon_col, None,
                      num_partitions)


def nearest_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                 radius_km: float, *,
                 left_id_col: str = "place_id",
                 right_id_col: str = "place_id",
                 lat_col: str = "lat", lon_col: str = "lon",
                 exclude_self: bool = False,
                 num_partitions: int | None = None) -> "ray.data.Dataset":
    """Nearest right-side point within ``radius_km`` for every left point
    (the distributed reverse-geocode primitive; ties broken by smaller
    right id).  Left rows with no neighbor in range are absent from the
    output — the radius bounds both the answer and the search cost.

    Plan: ``_grid_join`` emits at most ONE candidate per probe row and
    chunk (argmin carrying the exact float distance), then a second,
    candidate-sized shuffle picks the global min per probe — the reduce
    input is bounded by probes × replication factor, never by build-side
    size."""
    from .shuffle import adaptive_partitions, grouped_map
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def nearest(p_id, b_id, b_val, dm):
        bad = dm > radius_km
        if exclude_self:
            bad |= p_id[:, None] == b_id[None, :]
        # argmin by (dist, right_id): mask invalid with +inf and scan
        # the build side in ascending id order (argmin keeps the first)
        id_order = np.argsort(b_id, kind="mergesort")
        dm_s = np.where(bad, np.inf, dm)[:, id_order]
        j = np.argmin(dm_s, axis=1)
        d = dm_s[np.arange(len(j)), j]
        keep = np.isfinite(d)
        if not keep.any():
            return None
        return {"left_id": p_id[keep], "right_id": b_id[id_order][j[keep]],
                "dist_km": d[keep]}

    cands = _grid_join(left, right, radius_km, nearest, _CAND_SCHEMA,
                       left_id_col, right_id_col, lat_col, lon_col, None,
                       num_partitions)

    def global_best(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return _PAIR_SCHEMA.empty_table()
        df = df.sort_values(["left_id", "dist_km", "right_id"],
                            kind="mergesort")
        best = df.drop_duplicates("left_id", keep="first")
        return pa.table({
            "left_id": pa.array(best["left_id"].to_numpy(np.int64)),
            "right_id": pa.array(best["right_id"].to_numpy(np.int64)),
            "dist_m": pa.array(np.floor(best["dist_km"].to_numpy()
                                        * 1000.0).astype(np.int64))})

    return grouped_map(cands, "left_id", global_best,
                       num_partitions=max(8, num_partitions // 4),
                       group_fn=False)


def idw_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
             radius_km: float, *, val_col: str,
             left_id_col: str = "cell_id", right_id_col: str = "place_id",
             lat_col: str = "lat", lon_col: str = "lon",
             num_partitions: int | None = None) -> "ray.data.Dataset":
    """Inverse-distance-weighted interpolation join: for every left
    (probe) point, the integer-exact IDW moments over right points
    within ``radius_km`` — num = Σ w·v, den = Σ w with
    w = 10⁹ // max(dist_mm→m floor, 1) and v the right side's integer
    ``val_col``.  The estimate is num/den (one exact integer division
    away), and because every term is int64 after the millimeter floor,
    a SQL oracle reproduces the moments bit-for-bit (no float
    summation-order risk).

    Plan: ``_grid_join`` computes partial moments per probe and chunk
    (each (probe, build) pair meets in exactly ONE partition), then ONE
    probe-keyed groupby merges partials.  Probes with no build point in
    range are absent from the output (SQL inner-join semantics)."""
    def moments(p_id, b_id, b_val, dm):
        dmm = np.floor(dm * 1000.0).astype(np.int64)
        w = np.where(dm <= radius_km,
                     np.int64(1_000_000_000) // np.maximum(dmm, 1), 0)
        den = w.sum(axis=1)
        keep = den > 0
        if not keep.any():
            return None
        return {"left_id": p_id[keep], "num": (w[keep] * b_val).sum(axis=1),
                "den": den[keep]}

    parts = _grid_join(left, right, radius_km, moments, _IDW_SCHEMA,
                       left_id_col, right_id_col, lat_col, lon_col, val_col,
                       num_partitions)
    return parts.groupby("left_id").aggregate(
        Sum("num", alias_name="num"), Sum("den", alias_name="den"))


_COMPACT_SCHEMA = pa.schema([("cell", pa.int64())])


def quad_compact(ds: "ray.data.Dataset", cell_col: str = "cell",
                 group_level: int = 6,
                 num_partitions: int | None = None) -> "ray.data.Dataset":
    """Compact a (possibly duplicated) set of quadtree cell ids to the
    minimal mixed-level cover of the same area — H3 ``compact`` / S2
    ``S2CellUnion::Normalize`` as a Ray Data op (the standard way to
    turn a billion-cell coverage mask into a shippable tile set).

    Plan (scale story): a merge of 4 siblings below level
    ``group_level`` can never cross a level-``group_level`` subtree
    boundary, so ONE hash shuffle co-partitions cells by their
    level-``group_level`` ancestor and each partition compacts its
    subtrees locally (vectorized, ``cells.compact_cells``).  What's
    left at levels <= ``group_level`` is globally bounded by
    4^``group_level`` ids (<= 4096 at the default), so the residue is
    finished in one final task — no driver-side loop, no global
    fixpoint iteration.  Input cells must be non-overlapping (one
    level, or an existing disjoint cover); duplicates co-locate with
    their subtree and are deduped there.
    """
    from .cells import compact_cells
    from .shuffle import grouped_map

    g = np.int64(group_level)
    code_mask = np.int64((1 << 56) - 1)

    def add_anc(batch: pa.Table) -> pa.Table:
        c = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lvl = c >> np.int64(56)
        drop = np.maximum(lvl - g, 0)
        anc = np.where(
            lvl <= g, c,
            (g << np.int64(56)) | ((c & code_mask) >> (2 * drop)))
        return pa.table({"cell": pa.array(c), "anc": pa.array(anc)})

    def compact_part(df: pd.DataFrame) -> pa.Table:
        if not len(df):
            return _COMPACT_SCHEMA.empty_table()
        out = compact_cells(df["cell"].to_numpy(), stop_level=group_level)
        return pa.table({"cell": pa.array(out, pa.int64())})

    local = grouped_map(ds.map_batches(add_anc, batch_format="pyarrow"),
                        "anc", compact_part,
                        num_partitions=num_partitions, group_fn=False)

    def split(keep_coarse: bool):
        def fn(batch: pa.Table) -> pa.Table:
            c = batch["cell"].to_numpy(zero_copy_only=False)
            m = (c >> np.int64(56)) <= g
            return batch.filter(pa.array(m if keep_coarse else ~m))
        return fn

    fine = local.map_batches(split(False), batch_format="pyarrow")

    def finish(batch: pa.Table) -> pa.Table:
        if not batch.num_rows:
            return _COMPACT_SCHEMA.empty_table()
        out = compact_cells(batch["cell"].to_numpy(zero_copy_only=False),
                            stop_level=0)
        return pa.table({"cell": pa.array(out, pa.int64())})

    # the coarse residue is <= 4^group_level ids TOTAL — one task
    coarse = (local.map_batches(split(True), batch_format="pyarrow")
              .repartition(1).map_batches(finish, batch_format="pyarrow"))
    return fine.union(coarse)


def quad_uncompact(ds: "ray.data.Dataset", level: int,
                   cell_col: str = "cell") -> "ray.data.Dataset":
    """Expand a mixed-level quadtree cover to uniform ``level`` cells
    (H3 ``uncompact``): each cell fans out to its 4^(level-lvl)
    descendants.  Pure map-side (no shuffle); vectorized by expansion
    depth so a batch costs O(output cells), not a Python loop per id.
    Cells already at ``level`` pass through; cells DEEPER than
    ``level`` raise (a cover being uncompacted must be at or above the
    target resolution)."""
    code_mask = np.int64((1 << 56) - 1)

    def expand(batch: pa.Table) -> pa.Table:
        c = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(c):
            return pa.table({"cell": pa.array([], pa.int64())})
        lvl = (c >> np.int64(56)).astype(np.int64)
        if (lvl > level).any():
            raise ValueError(f"cover contains cells deeper than {level}")
        out = []
        tag = np.int64(level) << np.int64(56)
        for d in np.unique(level - lvl):
            base = (c[level - lvl == d] & code_mask) << np.int64(2 * d)
            kids = (base[:, None]
                    + np.arange(4 ** d, dtype=np.int64)[None, :])
            out.append(tag | kids.ravel())
        return pa.table({"cell": pa.array(np.concatenate(out))})

    return ds.map_batches(expand, batch_format="pyarrow")
