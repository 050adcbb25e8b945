"""Driver-contract implementations: the ``queries()`` callables and their
DuckDB ``oracle_sql()`` strings (see ``__ray_entry__.py``).

Two input families:

- the driver's TPC-H-ish testdata tables (documents, embeddings,
  lineitem, orders, customer, events) — read straight from ``sf_dir``;
- the synthetic geocoding world (interleaved documents + flat addresses +
  gazetteer parquet), generated deterministically per scale factor into
  ``/tmp/georay_synth/<sf>/`` (the BASELINE.json input_hint table shape;
  no external data).  ``oracle_sql`` strings reference the sf0.01 synth
  parquet by absolute path — ``queries()`` generation is idempotent and
  runs before the driver executes either side.

Float-hash discipline: oracle-checked queries never return floats that
were *computed* differently on the two sides — aggregates use integer
cents (``floor(x*100+0.5)``), kNN/top-k return ids + ranks, coordinates
are copied verbatim from the same parquet.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from .cells import SQUARE_CELL_DEG
from .config import ADDR_KEY, CITY, COUNTRY, HOUSENBR, POSTCODE, STREET, \
    PipelineConfig
from .corpus import make_documents
from .gazetteer import GazetteerSpec, build_gazetteer_tables
from .textkernels import normalize_street

# v2: adds media.parquet to the synthetic world (media_features oracle)
SYNTH_ROOT = "/tmp/georay_synth_v3"  # v3: boundaries carry bnd_idx

# sf name -> (n_docs, gazetteer scale factor)
SF_SCALE = {"sf0.001": (100, 0.5), "sf0.01": (400, 1.0), "sf0.1": (2500, 1.5)}


def sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def synth_dir(sf_dir: str) -> str:
    return os.path.join(SYNTH_ROOT, sf_name(sf_dir))


def spec_for(sf_dir: str) -> GazetteerSpec:
    _, factor = SF_SCALE.get(sf_name(sf_dir), SF_SCALE["sf0.01"])
    return GazetteerSpec().scaled(factor)


def ensure_synth(sf_dir: str) -> str:
    """Idempotently generate the synthetic world for this scale factor:
    documents.parquet (interleaved spans), addresses.parquet (flat +
    truth labels), gazetteer.parquet (places)."""
    out = synth_dir(sf_dir)
    marker = os.path.join(out, "_SUCCESS")
    if os.path.exists(marker):
        return out
    n_docs, factor = SF_SCALE.get(sf_name(sf_dir), SF_SCALE["sf0.01"])
    spec = GazetteerSpec().scaled(factor)
    tmp = out + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    docs, addrs = make_documents(n_docs, spec=spec, seed=7)
    pq.write_table(docs, os.path.join(tmp, "documents.parquet"))
    pq.write_table(pa.Table.from_pandas(addrs, preserve_index=False),
                   os.path.join(tmp, "addresses.parquet"))
    places, boundaries = build_gazetteer_tables(spec)
    pq.write_table(pa.Table.from_pandas(places, preserve_index=False),
                   os.path.join(tmp, "gazetteer.parquet"))
    # bnd_idx: explicit row index — the engine's PolygonIndex.locate
    # returns the lowest polygon index among containing candidates, so
    # the PIP oracle SQL needs a stable ordinal to replicate the
    # tie-break for overlapping rings
    boundaries = boundaries.reset_index(drop=True)
    boundaries["bnd_idx"] = boundaries.index.astype("int64")
    bnd = pa.Table.from_pandas(boundaries, preserve_index=False)
    pq.write_table(bnd, os.path.join(tmp, "boundaries.parquet"))
    from .ops.multimodal import synth_media_batch
    pq.write_table(synth_media_batch(200, seed=3),
                   os.path.join(tmp, "media.parquet"))
    open(os.path.join(tmp, "_SUCCESS"), "w").close()
    if not os.path.exists(marker):
        try:
            os.rename(tmp, out)
        except OSError:
            pass  # concurrent generation won the race; outputs identical
    return out


# SQL fragment replicating textkernels.normalize_street
_SQL_NORM = ("trim(regexp_replace(regexp_replace(upper(strip_accents({col}))"
             ", '[^A-Z ]+', ' ', 'g'), ' +', ' ', 'g'))")


# ---------------------------------------------------------------------------
# broadcast-side caches (one load per worker process)

@lru_cache(maxsize=8)
def _exact_index(gaz_path: str) -> dict:
    g = pq.read_table(gaz_path,
                      columns=["place_id", "name", "post_code",
                               "place_rank"]).to_pandas()
    g = g[g.place_rank == 26]
    g["k"] = g["name"].map(normalize_street)
    g = g[g.k != ""]
    idx = (g.groupby(["k", "post_code"])["place_id"].min())
    return idx.to_dict()


@lru_cache(maxsize=8)
def _knn_refs(gaz_path: str):
    g = pq.read_table(gaz_path,
                      columns=["place_id", "lat", "lon",
                               "place_rank"]).to_pandas()
    s = g[g.place_rank == 26]
    return (s["lat"].to_numpy(), s["lon"].to_numpy(),
            s["place_id"].to_numpy())


# ---------------------------------------------------------------------------
# geocoding / spatial queries (synthetic world)

def q_geo_span_extract(sf_dir: str):
    from .spans import explode_spans
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "documents.parquet"))
    out = ds.map_batches(explode_spans, batch_format="pyarrow")
    return out.select_columns(["doc_id", "span_idx", "kind", "text",
                               "media_ref", "offset"])


def q_geo_exact_match(sf_dir: str):
    d = ensure_synth(sf_dir)
    gaz_path = os.path.join(d, "gazetteer.parquet")

    def lookup(batch: pa.Table) -> pa.Table:
        idx = _exact_index(gaz_path)
        keys, pids = [], []
        streets = batch[STREET].to_pylist()
        pcs = batch[POSTCODE].to_pylist()
        aks = batch[ADDR_KEY].to_pylist()
        for ak, st, pcx in zip(aks, streets, pcs):
            pid = idx.get((normalize_street(st), pcx))
            if pid is not None:
                keys.append(ak)
                pids.append(int(pid))
        return pa.table({"addr_key": pa.array(keys, pa.string()),
                         "place_id": pa.array(pids, pa.int64())})

    ds = ray.data.read_parquet(os.path.join(d, "addresses.parquet"),
                               columns=[ADDR_KEY, STREET, POSTCODE])
    return ds.map_batches(lookup, batch_format="pyarrow")


def q_geo_tile_assign(sf_dir: str):
    from .cells import square_cell
    d = ensure_synth(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        return pa.table({"place_id": batch["place_id"],
                         "square_cell": pa.array(square_cell(lat, lon))})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    return ds.map_batches(assign, batch_format="pyarrow")


def q_geo_tile_rollup(sf_dir: str):
    from .tiles import rollup_counts
    return rollup_counts(q_geo_tile_assign(sf_dir), "square_cell")


def _street_points(sf_dir: str, columns=("place_id", "lat", "lon")):
    """The synthetic gazetteer's rank-26 street rows: ``columns``, then
    place_rank."""
    ds = ray.data.read_parquet(
        os.path.join(ensure_synth(sf_dir), "gazetteer.parquet"),
        columns=[*columns, "place_rank"])
    return ds.map_batches(
        lambda b: b.filter(pa.compute.equal(b["place_rank"], 26)),
        batch_format="pyarrow")


def _street_edges(sf_dir: str):
    """The 1 km street-proximity graph: every unordered pair of rank-26
    streets within 1 km, once, as (left_id, right_id)."""
    from .tiles import radius_join
    return (radius_join(_street_points(sf_dir), _street_points(sf_dir), 1.0,
                        distinct_pairs=True)
            .select_columns(["left_id", "right_id"]))


def _to_nodes(batch: pa.Table) -> pa.Table:
    """Per-batch partial node degrees of an edge list."""
    u = batch["left_id"].to_numpy(zero_copy_only=False)
    v = batch["right_id"].to_numpy(zero_copy_only=False)
    node, cnt = np.unique(np.concatenate([u, v]), return_counts=True)
    return pa.table({"node": pa.array(node.astype(np.int64)),
                     "deg": pa.array(cnt.astype(np.int64))})


def q_geo_radius_join(sf_dir: str):
    """All unordered pairs of rank-26 streets within 1 km — the
    grid-bucketed spatial range join (tiles.radius_join).  dist is
    dropped from the compared output (float discipline: the oracle
    compares id pairs; the haversine threshold itself is shared)."""
    return _street_edges(sf_dir)


def _pair_key(a, b) -> np.ndarray:
    """One int64 key per id pair: the bits of a * 2**32 + b (as uint64),
    unpacked by ``_pair_ids``.  Ids outside [0, 2**32) would collide
    with other pairs, so they raise ValueError."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    for x in (a, b):
        if x.size and (x.min() < 0 or x.max() >= 1 << 32):
            raise ValueError("pair key ids must lie in [0, 2**32)")
    return ((a.astype(np.uint64) << np.uint64(32))
            | b.astype(np.uint64)).view(np.int64)


def _pair_ids(key) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of keys made by ``_pair_key``."""
    u = np.asarray(key, dtype=np.int64).view(np.uint64)
    return ((u >> np.uint64(32)).astype(np.int64),
            (u & np.uint64(0xFFFFFFFF)).astype(np.int64))


def q_geo_triangles(sf_dir: str):
    """Per-node triangle counts on the 1 km street-proximity graph —
    the degree-oriented wedge plan (each triangle counted exactly once
    at its unique low-degree pivot, so out-degrees are bounded ~√m and
    the wedge set never explodes on hubs):
    (1) undirected edges from the grid-bucketed radius join;
    (2) degrees via one groupby;
    (3) orient low→high by (degree, id) — degree table broadcast
        (node-count-sized, the keep_canonical byte-budget caveat; the
        co-partitioned orient join is the documented big-graph upgrade);
    (4) wedges per pivot after ONE shuffle on the pivot;
    (5) closing-edge check via a co-partitioned hash join on the
        (min,max) pair key;
    (6) per-node count groupby."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum

    # three consumers (degrees, orient, closing keys) — materialize the
    # edge list ONCE into the object store (spill-backed) instead of
    # re-running the radius join per consumer; at 100-TB graph scale the
    # same diamond is broken by checkpointing edges to parquet
    edges = _street_edges(sf_dir).materialize()

    deg_pdf = (edges.map_batches(_to_nodes, batch_format="pyarrow")
               .groupby("node").aggregate(Sum("deg", alias_name="deg"))
               .to_pandas())
    deg_map = dict(zip(deg_pdf["node"].to_numpy(np.int64),
                       deg_pdf["deg"].to_numpy(np.int64)))
    deg_ref = ray.put(deg_map)

    def orient(batch: pa.Table) -> pa.Table:
        dm = ray.get(deg_ref)
        u = batch["left_id"].to_numpy(zero_copy_only=False)
        v = batch["right_id"].to_numpy(zero_copy_only=False)
        du = np.array([dm[x] for x in u], np.int64)
        dv = np.array([dm[x] for x in v], np.int64)
        fwd = (du < dv) | ((du == dv) & (u < v))
        return pa.table({"src": pa.array(np.where(fwd, u, v)),
                         "dst": pa.array(np.where(fwd, v, u))})

    oriented = edges.map_batches(orient, batch_format="pyarrow")

    wedge_schema = pa.schema([("pk", pa.int64()), ("pivot", pa.int64()),
                              ("is_edge", pa.int64())])

    def wedges(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return wedge_schema.empty_table()
        pks: list = []
        pivots: list = []
        for src, g in df.groupby("src", sort=False):
            nb = np.sort(g["dst"].to_numpy(np.int64))
            if len(nb) < 2:
                continue
            ia, ib = np.triu_indices(len(nb), k=1)
            pks.append(_pair_key(nb[ia], nb[ib]))
            pivots.append(np.full(len(ia), src, np.int64))
        if not pks:
            return wedge_schema.empty_table()
        return pa.table({"pk": pa.array(np.concatenate(pks)),
                         "pivot": pa.array(np.concatenate(pivots)),
                         "is_edge": pa.array(
                             np.zeros(sum(len(p) for p in pks), np.int64))})

    wedge_ds = grouped_map(oriented, "src", wedges, group_fn=False)

    def edge_keys(batch: pa.Table) -> pa.Table:
        u = batch["left_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["right_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"pk": pa.array(_pair_key(u, v)),
                         "pivot": pa.array(np.full(len(u), -1, np.int64)),
                         "is_edge": pa.array(np.ones(len(u), np.int64))})

    tagged = wedge_ds.union(edges.map_batches(edge_keys,
                                              batch_format="pyarrow"))

    node_schema = pa.schema([("node", pa.int64()), ("n", pa.int64())])

    def close(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return node_schema.empty_table()
        closed = set(df.loc[df["is_edge"] == 1, "pk"].to_numpy(np.int64)
                     .tolist())
        w = df[(df["is_edge"] == 0) & df["pk"].isin(closed)]
        if len(w) == 0:
            return node_schema.empty_table()
        a, b = _pair_ids(w["pk"].to_numpy(np.int64))
        nodes = np.concatenate([w["pivot"].to_numpy(np.int64), a, b])
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(uniq),
                         "n": pa.array(cnt.astype(np.int64))})

    partial = grouped_map(tagged, "pk", close, group_fn=False)
    return (partial.groupby("node")
            .aggregate(Sum("n", alias_name="n_triangles")))


def q_geo_pagerank(sf_dir: str):
    """Integer PageRank (3 iterations, d = 17/20) on the 1 km street
    graph: ranks live at scale S = 10¹² and every step is integer
    floor arithmetic — R'(v) = (3·S)//(20·n) + (17·Σ R(u)//deg(u))//20
    — so the distributed sum is EXACT regardless of summation order
    (the float-PageRank nondeterminism trap).  Per iteration: one
    co-partitioned shuffle on the source (a node's rank row meets all
    its out-edges, degree counted in-group) + one groupby-SUM on the
    destination.  The SQL oracle unrolls the same 3 iterations."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum
    S = 10 ** 12

    pairs = _street_edges(sf_dir)

    def both_ways(batch: pa.Table) -> pa.Table:
        u = batch["left_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["right_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"u": pa.array(np.concatenate([u, v])),
                         "v": pa.array(np.concatenate([v, u])),
                         "r": pa.array(np.zeros(2 * len(u), np.int64)),
                         "is_edge": pa.array(np.ones(2 * len(u),
                                                     np.int64))})

    directed = pairs.map_batches(both_ways,
                                 batch_format="pyarrow").materialize()
    deg_pdf = directed.groupby("u").count().to_pandas()
    n_nodes = len(deg_pdf)
    base = (3 * S) // (20 * n_nodes)

    ranks = ray.data.from_arrow(pa.table({
        "u": pa.array(deg_pdf["u"].to_numpy(np.int64)),
        "v": pa.array(np.full(n_nodes, -1, np.int64)),
        "r": pa.array(np.full(n_nodes, S // n_nodes, np.int64)),
        "is_edge": pa.array(np.zeros(n_nodes, np.int64))}))

    contrib_schema = pa.schema([("node", pa.int64()),
                                ("c", pa.int64())])

    def contribute(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return contrib_schema.empty_table()
        nodes: list = []
        cs: list = []
        for u, g in df.groupby("u", sort=False):
            is_e = g["is_edge"].to_numpy(np.int64)
            deg = int(is_e.sum())
            if deg == 0:
                continue
            r = int(g.loc[is_e == 0, "r"].iloc[0])
            share = r // deg
            dst = g.loc[is_e == 1, "v"].to_numpy(np.int64)
            nodes.append(dst)
            cs.append(np.full(len(dst), share, np.int64))
        if not nodes:
            return contrib_schema.empty_table()
        return pa.table({"node": pa.array(np.concatenate(nodes)),
                         "c": pa.array(np.concatenate(cs))})

    # the round-4 ann lesson: bound reduce partitions by key cardinality
    # (n_nodes is known exactly from the degree pass)
    from .shuffle import adaptive_partitions
    nparts = max(1, min(adaptive_partitions(), n_nodes))
    for _ in range(3):
        tagged = directed.union(ranks)
        summed = (grouped_map(tagged, "u", contribute, group_fn=False,
                              num_partitions=nparts)
                  .groupby("node").aggregate(Sum("c", alias_name="c")))

        def new_rank(batch: pa.Table, base=base) -> pa.Table:
            node = batch["node"].to_numpy(zero_copy_only=False)
            c = batch["c"].to_numpy(zero_copy_only=False)
            r = np.int64(base) + (np.int64(17) * c) // np.int64(20)
            return pa.table({
                "u": pa.array(node.astype(np.int64)),
                "v": pa.array(np.full(len(node), -1, np.int64)),
                "r": pa.array(r),
                "is_edge": pa.array(np.zeros(len(node), np.int64))})

        ranks = summed.map_batches(new_rank, batch_format="pyarrow")

    return ranks.map_batches(
        lambda b: pa.table({"node": b["u"], "rank3": b["r"]}),
        batch_format="pyarrow")


def q_geo_kcore(sf_dir: str, k: int = 2, max_rounds: int = 8):
    """k-core decomposition (k=2) of the 1 km street graph by iterative
    peeling: drop nodes with degree < k, restrict edges, repeat until
    stable (peeling is idempotent, so the engine's early convergence
    break equals the oracle's fixed 8 unrolled rounds).  Per round: one
    degree groupby + a broadcast drop-set filter — the dropped set is
    periphery-sized per round (the keep_canonical byte-budget argument;
    the co-partitioned double semi-join is the documented huge-graph
    upgrade).  Output = (node, core_deg) inside the 2-core."""
    from ray.data.aggregate import Sum

    edges = _street_edges(sf_dir).materialize()

    def degrees(eds):
        return (eds.map_batches(_to_nodes, batch_format="pyarrow")
                .groupby("node").aggregate(Sum("deg", alias_name="deg")))

    for _ in range(max_rounds):
        deg_pdf = degrees(edges).to_pandas()
        dropped = deg_pdf.loc[deg_pdf["deg"] < k, "node"].to_numpy(np.int64)
        if not len(dropped):
            break
        drop_ref = ray.put(dropped)

        def keep(batch: pa.Table) -> pa.Table:
            drop = ray.get(drop_ref)
            u = batch["left_id"].to_numpy(zero_copy_only=False)
            v = batch["right_id"].to_numpy(zero_copy_only=False)
            gone = (np.isin(u.astype(np.int64), drop)
                    | np.isin(v.astype(np.int64), drop))
            return batch.filter(pa.array(~gone))

        edges = edges.map_batches(keep,
                                  batch_format="pyarrow").materialize()

    return (degrees(edges)
            .map_batches(lambda b: pa.table({"node": b["node"],
                                             "core_deg": b["deg"]}),
                         batch_format="pyarrow"))


def q_geo_bfs_hops(sf_dir: str, rounds: int = 8):
    """BFS hop distance from each node's COMPONENT SEED (the minimum
    node id in its connected component — deterministic, no source
    parameter) on the 1 km street graph, capped at 8 rounds: per round
    the frontier joins the edge list through ONE co-partitioned shuffle
    and unreached neighbors adopt hops+1 (min-merge keeps the first
    discovery).  Unreached-within-cap nodes are absent, exactly like
    the oracle's 8 unrolled relaxation CTEs.  Seeds come from the
    existing pointer-doubling connected components."""
    from .shuffle import grouped_map, adaptive_partitions

    pairs = _street_edges(sf_dir)

    def both_ways(batch: pa.Table) -> pa.Table:
        u = batch["left_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = batch["right_id"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({"u": pa.array(np.concatenate([u, v])),
                         "v": pa.array(np.concatenate([v, u])),
                         "hops": pa.array(np.full(2 * len(u), -1,
                                                  np.int64))})

    directed = pairs.map_batches(both_ways,
                                 batch_format="pyarrow").materialize()

    # seeds: min node id per component == a node that is its own
    # component label under the min-label CC contract
    from .ops.dedup import connected_components
    cc = connected_components(pairs, "left_id", "right_id")
    seeds = cc.map_batches(
        lambda b: pa.table({
            "u": b.filter(pa.compute.equal(b["node"], b["comp"]))["node"],
        }), batch_format="pyarrow").map_batches(
        lambda b: pa.table({
            "u": b["u"],
            "v": pa.array(np.full(len(b), -1, np.int64)),
            "hops": pa.array(np.zeros(len(b), np.int64))}),
        batch_format="pyarrow")

    dist = seeds.materialize()  # (u, v=-1, hops) settled distances

    out_schema = pa.schema([("u", pa.int64()), ("v", pa.int64()),
                            ("hops", pa.int64())])

    def relax(df: pd.DataFrame) -> pa.Table:
        """Partition holds edge rows (hops=-1) and settled rows for the
        same co-partitioned u keys; emit hops+1 candidates for every
        neighbor of a settled node (vectorized: one pandas groupby.min
        + one map, no per-group Python loop)."""
        if len(df) == 0:
            return out_schema.empty_table()
        settled = (df.loc[df["hops"] >= 0]
                   .groupby("u", sort=False)["hops"].min())
        edges = df.loc[df["hops"] < 0]
        h = edges["u"].map(settled)
        mask = h.notna().to_numpy()
        dst = edges["v"].to_numpy(np.int64)[mask]
        return pa.table({
            "u": pa.array(dst),
            "v": pa.array(np.full(len(dst), -1, np.int64)),
            "hops": pa.array((h.to_numpy(np.float64)[mask] + 1)
                             .astype(np.int64))})

    def min_merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        s = df.groupby("u", sort=False)["hops"].min()
        return pa.table({
            "u": pa.array(s.index.to_numpy(np.int64)),
            "v": pa.array(np.full(len(s), -1, np.int64)),
            "hops": pa.array(s.to_numpy(np.int64))})

    # Fixed block width per round: Ray's sort-shuffle groupby emits one
    # output block per INPUT block, so any naive union→shuffle loop
    # doubles the block count every round (80→192→416→864 measured) and
    # round 8 drowns in per-block overhead.  The repartition(P) cap on
    # the materialized frontier keeps every round's input at ~P+|edge
    # blocks| — constant per-round cost, the invariant any iterative
    # graph kernel needs at 256-node scale.
    P = max(4, min(adaptive_partitions(), 32))
    for _ in range(rounds):
        cand = grouped_map(directed.union(dist), "u", relax,
                           num_partitions=P, group_fn=False)
        dist = (grouped_map(dist.union(cand), "u", min_merge,
                            num_partitions=P, group_fn=False)
                .repartition(P).materialize())

    return dist.map_batches(
        lambda b: pa.table({"node": b["u"], "hops": b["hops"]}),
        batch_format="pyarrow")


def q_geo_cell_diameter(sf_dir: str):
    """Farthest street pair per square-grid cell (the per-cell diameter
    — dispersion analytics for the tile layer): co-partition rank-26
    streets on their cell, per cell one vectorized pairwise squared
    distance in integer MICRODEGREES (floor(deg*1e6), the bbox_agg
    fixed-point discipline — bit-exact in numpy and SQL, no float
    argmax flips), winner = max d2 with (id_a, id_b) lexicographic
    tie-break.  Cells are grid-pitch-bounded so the per-cell O(n²)
    never sees the whole table; convex-hull rotating calipers is the
    documented dense-cell upgrade."""
    from .shuffle import grouped_map
    from .cells import square_cell
    d = ensure_synth(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        b = batch.filter(pa.compute.equal(batch["place_rank"], 26))
        lat = b["lat"].to_numpy(zero_copy_only=False)
        lon = b["lon"].to_numpy(zero_copy_only=False)
        return pa.table({
            "square_cell": pa.array(square_cell(lat, lon)),
            "place_id": b["place_id"].cast(pa.int64()),
            "latu": pa.array(np.floor(lat * 1e6).astype(np.int64)),
            "lonu": pa.array(np.floor(lon * 1e6).astype(np.int64))})

    ds = ray.data.read_parquet(
        os.path.join(d, "gazetteer.parquet"),
        columns=["place_id", "lat", "lon", "place_rank"]).map_batches(
        assign, batch_format="pyarrow")

    out_schema = pa.schema([("square_cell", pa.int64()),
                            ("id_a", pa.int64()), ("id_b", pa.int64()),
                            ("d2", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        cells, ia_o, ib_o, d2_o = [], [], [], []
        for cell, g in df.groupby("square_cell", sort=False):
            n = len(g)
            if n < 2:
                continue
            ids = g["place_id"].to_numpy(np.int64)
            la = g["latu"].to_numpy(np.int64)
            lo = g["lonu"].to_numpy(np.int64)
            iu = np.triu_indices(n, 1)
            dl = la[iu[0]] - la[iu[1]]
            dn = lo[iu[0]] - lo[iu[1]]
            d2 = dl * dl + dn * dn
            best = d2.max()
            cand = np.flatnonzero(d2 == best)
            pa_ = np.minimum(ids[iu[0][cand]], ids[iu[1][cand]])
            pb_ = np.maximum(ids[iu[0][cand]], ids[iu[1][cand]])
            k = np.lexsort((pb_, pa_))[0]
            cells.append(int(cell))
            ia_o.append(int(pa_[k]))
            ib_o.append(int(pb_[k]))
            d2_o.append(int(best))
        return pa.table({"square_cell": pa.array(cells, pa.int64()),
                         "id_a": pa.array(ia_o, pa.int64()),
                         "id_b": pa.array(ib_o, pa.int64()),
                         "d2": pa.array(d2_o, pa.int64())})

    return grouped_map(ds, "square_cell", per_partition, group_fn=False)


def q_geo_nearest_join(sf_dir: str):
    """Nearest other street within 1 km per street (reverse-geocode
    primitive, tiles.nearest_join): grid-bucketed argmin, ties by
    smaller right id."""
    from .tiles import nearest_join
    best = nearest_join(_street_points(sf_dir), _street_points(sf_dir), 1.0,
                        exclude_self=True)
    return best.select_columns(["left_id", "right_id"])


def q_geo_quad_assign(sf_dir: str):
    """S2-style quadtree cell + its parent per gazetteer point — the
    north rule's S2 cross-check leg, oracled down to the bit-interleave
    arithmetic (cells.quad_cell / quad_parent replicated in SQL)."""
    from .cells import quad_cell, quad_parent
    d = ensure_synth(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        c = quad_cell(lat, lon, 18)
        return pa.table({"place_id": batch["place_id"],
                         "qcell": pa.array(c),
                         "qparent": pa.array(quad_parent(c))})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    return ds.map_batches(assign, batch_format="pyarrow")


def q_geo_quad_compact(sf_dir: str):
    """Minimal mixed-level quadtree cover (H3 ``compact`` / S2
    ``S2CellUnion::Normalize``) of the gazetteer's ±1-cell level-12
    coverage mask — the operator that turns a billion-cell coverage
    mask into a shippable tile set.  Scale plan: cells co-partition by
    level-6 subtree ancestor (a 4-sibling merge below level 6 never
    crosses that boundary), compact locally, and the ≤4096-id residue
    finishes in one task (tiles.quad_compact).  Oracle = the same
    coverage mask promoted level-by-level in SQL: 12 unrolled
    complete-sibling steps over the identical int64 bit math."""
    from .cells import quad_from_xy, quad_xy
    from .tiles import quad_compact
    d = ensure_synth(sf_dir)
    level = 12
    n = (1 << level) - 1

    def cover(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        x, y = quad_xy(lat, lon, level)
        xs, ys = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                xs.append(np.clip(x + dx, 0, n))
                ys.append(np.clip(y + dy, 0, n))
        cell = quad_from_xy(np.concatenate(xs), np.concatenate(ys), level)
        return pa.table({"cell": pa.array(cell)})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["lat", "lon"])
    out = quad_compact(ds.map_batches(cover, batch_format="pyarrow"))

    def with_level(b: pa.Table) -> pa.Table:
        c = b["cell"].to_numpy(zero_copy_only=False)
        return pa.table({"cell": b["cell"],
                         "level": pa.array(c >> np.int64(56))})

    return out.map_batches(with_level, batch_format="pyarrow")


def q_geo_quad_roundtrip(sf_dir: str):
    """Compact→uncompact roundtrip at query level: the gazetteer's
    ±1-cell level-12 coverage mask goes through the FULL distributed
    compaction (tiles.quad_compact) and back out through the map-side
    expansion (tiles.quad_uncompact) — the result must equal the raw
    mask exactly, and the ORACLE is just the mask itself in SQL (no
    promotion chain), so any loss or overlap introduced by either
    direction hash-mismatches."""
    from .cells import quad_from_xy, quad_xy
    from .tiles import quad_compact, quad_uncompact
    d = ensure_synth(sf_dir)
    level = 12
    n = (1 << level) - 1

    def cover(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        x, y = quad_xy(lat, lon, level)
        xs, ys = [], []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                xs.append(np.clip(x + dx, 0, n))
                ys.append(np.clip(y + dy, 0, n))
        cell = quad_from_xy(np.concatenate(xs), np.concatenate(ys), level)
        return pa.table({"cell": pa.array(cell)})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["lat", "lon"])
    comp = quad_compact(ds.map_batches(cover, batch_format="pyarrow"))
    return quad_uncompact(comp, level)


def q_geo_idw(sf_dir: str):
    """Inverse-distance-weighted interpolation of street house-number
    density onto the occupied square-grid cell centers (radius 1 km):
    the spatial-estimation primitive (kriging's cheap cousin) as a
    grid-bucketed join.  Integer-exact: w = 10⁹ // max(dist_m, 1), so
    the (num, den) moments match the SQL cross-join oracle bit-for-bit
    and the estimate is one exact division away (tiles.idw_join)."""
    from .cells import SQUARE_CELL_DEG, square_cell
    from .shuffle import distinct_on
    from .tiles import idw_join
    d = ensure_synth(sf_dir)
    gaz_path = os.path.join(d, "gazetteer.parquet")
    w_grid = int(round(360.0 / SQUARE_CELL_DEG))

    def street_v(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pa.compute.equal(batch["place_rank"], 26))
        hn = batch["house_numbers"].to_pylist()
        v = np.array([0 if not s else s.count(";") + 1 for s in hn],
                     np.int64)
        return pa.table({"place_id": batch["place_id"],
                         "lat": batch["lat"], "lon": batch["lon"],
                         "v": pa.array(v)})

    def streets():
        ds = ray.data.read_parquet(
            gaz_path, columns=["place_id", "lat", "lon", "place_rank",
                               "house_numbers"])
        return ds.map_batches(street_v, batch_format="pyarrow")

    def cells_of(batch: pa.Table) -> pa.Table:
        c = square_cell(batch["lat"].to_numpy(zero_copy_only=False),
                        batch["lon"].to_numpy(zero_copy_only=False))
        return pa.table({"cell_id": pa.array(c)})

    cells = distinct_on(
        streets().map_batches(cells_of, batch_format="pyarrow"),
        ["cell_id"])

    def centers(batch: pa.Table) -> pa.Table:
        cid = batch["cell_id"].to_numpy(zero_copy_only=False)
        clat = -90.0 + (cid // w_grid + 0.5) * SQUARE_CELL_DEG
        clon = -180.0 + (cid % w_grid + 0.5) * SQUARE_CELL_DEG
        return pa.table({"cell_id": pa.array(cid.astype(np.int64)),
                         "lat": pa.array(clat), "lon": pa.array(clon)})

    ctr = cells.map_batches(centers, batch_format="pyarrow")
    out = idw_join(ctr, streets(), 1.0, val_col="v")
    return out.map_batches(
        lambda b: b.rename_columns(["cell_id", "num", "den"]),
        batch_format="pyarrow")


_ZONE_CACHE: dict = {}


def q_geo_zone_join(sf_dir: str):
    """Point-in-polygon spatial JOIN (zone assignment): every rank-26
    street gets the bnd_idx of its containing admin ring (overlaps
    resolved to the MINIMUM bnd_idx, -1 if outside all).  The polygon
    set is bounded, so each worker builds the bbox-grid PolygonIndex
    once (process-cached, built sorted by bnd_idx so locate's tie-break,
    the lowest polygon index among containing candidates, IS min
    bnd_idx) and the point side streams through ONE stateless
    map_batches — no shuffle; the zone is one take by polygon row.  Oracle:
    the bit-verified even-odd crossing SQL (geo_pip_validate) per
    (point, ring) with min(bnd_idx) over containing rings."""
    d = ensure_synth(sf_dir)
    bpath = os.path.join(d, "boundaries.parquet")

    def assign(batch: pa.Table) -> pa.Table:
        from .geom import PolygonIndex
        cached = _ZONE_CACHE.get(bpath)
        if cached is None:
            t = pq.read_table(bpath,
                              columns=["bnd_idx", "ring_lat", "ring_lon"])
            bi = t["bnd_idx"].to_numpy(zero_copy_only=False)
            order = np.argsort(bi, kind="stable")
            lats = t["ring_lat"].to_pylist()
            lons = t["ring_lon"].to_pylist()
            idx = PolygonIndex(
                [(np.asarray(lats[i], np.float64),
                  np.asarray(lons[i], np.float64)) for i in order])
            # zone per polygon row, with -1 last for row -1 (outside all)
            zone_of_row = np.r_[bi[order], -1].astype(np.int64)
            cached = _ZONE_CACHE[bpath] = (idx, zone_of_row)
        idx, zone_of_row = cached
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        z = zone_of_row[idx.locate(lat, lon)]
        return pa.table({"place_id": batch["place_id"],
                         "zone": pa.array(z)})

    streets = _street_points(sf_dir, ["place_id", "lat", "lon"])
    return streets.map_batches(assign, batch_format="pyarrow")


def q_geo_geohash(sf_dir: str):
    """Geohash-7 per gazetteer point plus its 5-char parent prefix —
    the third cell scheme (hex, quad, geohash), oracled down to the
    base-32 bit interleave in SQL (cells.geohash)."""
    from .cells import geohash
    d = ensure_synth(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        g = geohash(lat, lon, 7)
        return pa.table({"place_id": batch["place_id"],
                         "gh7": pa.array(g, pa.string()),
                         "gh5": pa.array([s[:5] for s in g], pa.string())})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    return ds.map_batches(assign, batch_format="pyarrow")


def q_geo_bbox_agg(sf_dir: str):
    """Per-postcode bounding box + count over streets: per-batch pyarrow
    hash-agg partials (micro-degree ints), one small groupby merge."""
    from ray.data.aggregate import Max, Min, Sum
    d = ensure_synth(sf_dir)

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pa.compute.equal(batch["place_rank"], 26))
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        t = pa.table({
            "post_code": batch["post_code"],
            "lat_u": pa.array(np.floor(lat * 1e6).astype(np.int64)),
            "lon_u": pa.array(np.floor(lon * 1e6).astype(np.int64))})
        g = t.group_by("post_code").aggregate(
            [("lat_u", "min"), ("lat_u", "max"),
             ("lon_u", "min"), ("lon_u", "max"), ([], "count_all")])
        return g.rename_columns(["post_code", "lat_min", "lat_max",
                                 "lon_min", "lon_max", "n"])

    ds = ray.data.read_parquet(
        os.path.join(d, "gazetteer.parquet"),
        columns=["post_code", "lat", "lon", "place_rank"])
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("post_code").aggregate(
        Min("lat_min", alias_name="lat_min"),
        Max("lat_max", alias_name="lat_max"),
        Min("lon_min", alias_name="lon_min"),
        Max("lon_max", alias_name="lon_max"),
        Sum("n", alias_name="n"))


def q_geo_polygon_area(sf_dir: str):
    """Exact polygon area (2×, micro-degree² ints) per admin boundary
    via the shoelace formula in pure int64 — bit-exact vs the SQL
    list-comprehension recomputation (no float summation order risk)."""
    d = ensure_synth(sf_dir)

    def area(batch: pa.Table) -> pa.Table:
        idx = batch["bnd_idx"].to_numpy(zero_copy_only=False)
        out = np.zeros(len(idx), dtype=np.int64)
        lats = batch["ring_lat"].to_pylist()
        lons = batch["ring_lon"].to_pylist()
        for i, (la, lo) in enumerate(zip(lats, lons)):
            ys = np.floor(np.asarray(la) * 1e6).astype(np.int64)
            xs = np.floor(np.asarray(lo) * 1e6).astype(np.int64)
            xn = np.roll(xs, -1)
            yn = np.roll(ys, -1)
            out[i] = abs(int(np.sum(xs * yn - xn * ys)))
        return pa.table({"bnd_idx": pa.array(idx.astype(np.int64)),
                         "area2_u": pa.array(out)})

    ds = ray.data.read_parquet(os.path.join(d, "boundaries.parquet"),
                               columns=["bnd_idx", "ring_lat", "ring_lon"])
    return ds.map_batches(area, batch_format="pyarrow")


def q_geo_dbscan(sf_dir: str):
    """Distributed grid-based DBSCAN over rank-26 streets (eps = 1 km,
    min_pts = 3): eps-graph via the bucketed radius join, core points by
    degree, cluster labels by min-label connected components over the
    core-core subgraph, borders attached to their minimum-labeled core
    neighbor.  Oracle = the same haversine eps-graph recomputed by SQL
    cross join + a recursive-CTE transitive closure (cluster.py)."""
    from .cluster import dbscan
    return dbscan(_street_points(sf_dir), 1.0, 3)


def q_geo_path_length(sf_dir: str):
    """Per-postcode tour length over rank-26 streets ordered by
    place_id (the trajectory-length primitive: ordered per-key segment
    sum): ONE co-partitioned shuffle on the postcode, in-partition sort
    + vectorized consecutive-haversine with group-boundary masking.
    Each segment is floored to integer micro-km before the sum, so the
    per-key totals are integer-exact against the SQL LAG window oracle
    (no float summation-order risk; the trig itself is double on both
    sides).  Postcodes with a single street have no segments and are
    omitted, mirroring the SQL inner group."""
    from .geom import haversine_km
    from .shuffle import grouped_map
    d = ensure_synth(sf_dir)
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"])

    out_schema = pa.schema([("post_code", pa.string()),
                            ("n_segments", pa.int64()),
                            ("path_ukm", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        pc_arr = df["post_code"].to_numpy()
        lat = df["lat"].to_numpy(np.float64)
        lon = df["lon"].to_numpy(np.float64)
        seg = np.floor(1e6 * haversine_km(lat[:-1], lon[:-1],
                                          lat[1:], lon[1:])).astype(np.int64)
        same = pc_arr[:-1] == pc_arr[1:]
        seg_pc = pc_arr[:-1][same]
        seg = seg[same]
        if not len(seg):
            return out_schema.empty_table()
        s = pd.DataFrame({"post_code": seg_pc, "d": seg})
        g = s.groupby("post_code", sort=False)["d"].agg(["size", "sum"])
        return pa.table({
            "post_code": pa.array(g.index.to_numpy(), pa.string()),
            "n_segments": pa.array(g["size"].to_numpy(np.int64)),
            "path_ukm": pa.array(g["sum"].to_numpy(np.int64))})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False)


def q_geo_path_bearing(sf_dir: str):
    """Per-postcode heading statistics over the same rank-26 trajectory
    as geo_path_length: initial great-circle bearing per leg
    (atan2 formulation), floored to integer micro-degrees so the
    per-key sums are integer-exact against the SQL LAG window oracle;
    ``east_legs`` counts legs heading into (0°, 180°).  Same scale
    shape as path_length: ONE co-partitioned shuffle, in-partition
    sort, vectorized trig with group-boundary masking."""
    from .shuffle import grouped_map
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"])

    out_schema = pa.schema([("post_code", pa.string()),
                            ("n_legs", pa.int64()),
                            ("bearing_usum", pa.int64()),
                            ("east_legs", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        pc_arr = df["post_code"].to_numpy()
        lat = df["lat"].to_numpy(np.float64)
        lon = df["lon"].to_numpy(np.float64)
        # EXACT mirror of the SQL rendering: radians() applied to the
        # same operands, atan2(y, x) with the same expression trees
        phi1 = np.radians(lat[:-1])
        phi2 = np.radians(lat[1:])
        dl = np.radians(lon[1:] - lon[:-1])
        deg = np.degrees(np.arctan2(
            np.sin(dl) * np.cos(phi2),
            np.cos(phi1) * np.sin(phi2)
            - np.sin(phi1) * np.cos(phi2) * np.cos(dl)))
        deg = np.where(deg < 0, deg + 360.0, deg)
        ub = np.floor(1e6 * deg).astype(np.int64)
        same = pc_arr[:-1] == pc_arr[1:]
        if not same.any():
            return out_schema.empty_table()
        s = pd.DataFrame({
            "post_code": pc_arr[:-1][same],
            "b": ub[same],
            "east": ((ub[same] > 0)
                     & (ub[same] < 180_000_000)).astype(np.int64)})
        g = s.groupby("post_code", sort=False).agg(
            n_legs=("b", "size"), bearing_usum=("b", "sum"),
            east_legs=("east", "sum"))
        return pa.table({
            "post_code": pa.array(g.index.to_numpy(), pa.string()),
            "n_legs": pa.array(g["n_legs"].to_numpy(np.int64)),
            "bearing_usum": pa.array(g["bearing_usum"].to_numpy(np.int64)),
            "east_legs": pa.array(g["east_legs"].to_numpy(np.int64))})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False)


def q_geo_hilbert_index(sf_dir: str):
    """Hilbert-curve locality index per gazetteer place (order 13, ~5 km
    cells): grid coords via the shared equirectangular ``quad_xy``, then
    the vectorized xy2d bit loop (cells.hilbert_from_xy).  Zero shuffle —
    the index is the SORT/RANGE-PARTITION key the 100-TB layout uses for
    spatially compact partitions (consecutive ``hilbert_d`` values are
    always grid-adjacent, unlike the Z-order ``quad_cell`` interleave
    whose jumps split neighborhoods across partitions).  The SQL oracle
    unrolls the same 13 rotate-and-accumulate iterations as chained
    CTEs, so every (rx, ry, flip, swap) step is value-verified."""
    from .cells import hilbert_from_xy, quad_xy
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    order = 13

    def idx(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        x, y = quad_xy(lat, lon, order)
        return pa.table({"place_id": batch["place_id"],
                         "hx": pa.array(x), "hy": pa.array(y),
                         "hilbert_d": pa.array(
                             hilbert_from_xy(x, y, order))})

    return ds.map_batches(idx, batch_format="pyarrow")


def q_geo_od_flows(sf_dir: str):
    """Origin-destination flow matrix: each leg of the per-postcode
    rank-26 trajectory (ordered by place_id, the path_length
    convention) contributes one (origin cell, destination cell) flow at
    the 0.2° square grid; output = flow counts.  Scale shape: ONE
    co-partitioned shuffle on the postcode builds legs locally, then the
    merge groupby moves at most one row per distinct (o, d) pair per
    block — the flow matrix, not the trajectories, crosses the wire."""
    from .cells import square_cell
    from .shuffle import grouped_map
    d = ensure_synth(sf_dir)
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"])
    pitch = 0.2

    out_schema = pa.schema([("o_cell", pa.int64()), ("d_cell", pa.int64()),
                            ("n_flows", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        pc_arr = df["post_code"].to_numpy()
        cell = square_cell(df["lat"].to_numpy(np.float64),
                           df["lon"].to_numpy(np.float64), pitch)
        same = pc_arr[:-1] == pc_arr[1:]
        if not same.any():
            return out_schema.empty_table()
        s = pd.DataFrame({"o_cell": cell[:-1][same],
                          "d_cell": cell[1:][same]})
        g = (s.groupby(["o_cell", "d_cell"], sort=False)
             .size().reset_index(name="n_flows"))
        return pa.table({"o_cell": pa.array(g["o_cell"], pa.int64()),
                         "d_cell": pa.array(g["d_cell"], pa.int64()),
                         "n_flows": pa.array(g["n_flows"], pa.int64())})

    legs = grouped_map(streets, "post_code", per_partition, group_fn=False)
    from ray.data.aggregate import Sum
    return (legs.groupby(["o_cell", "d_cell"])
            .aggregate(Sum("n_flows", alias_name="n_flows")))


def q_geo_hotspot_cells(sf_dir: str):
    """Neighborhood hotspot statistic per occupied 0.05° square cell
    (the Getis-Ord Gi numerator family, integer-exact): n_self = rank-26
    streets in the cell, n_nbr = streets in the 3×3 neighborhood
    INCLUDING self.  Two bounded stages: per-batch partial cell counts
    → groupby-SUM (shuffle carries one row per touched cell per block),
    then the COUNTS table — already ≤ #occupied cells, corpus-size
    independent — expands map-side to its 9 neighbor contributions and
    one more tiny groupby-SUM; occupied cells join back to keep only
    real hotspot candidates."""
    from .cells import square_cell
    from ray.data.aggregate import Sum
    streets = _street_points(sf_dir)
    w = np.int64(int(round(360.0 / SQUARE_CELL_DEG)))

    def partial(batch: pa.Table) -> pa.Table:
        cell = square_cell(batch["lat"].to_numpy(zero_copy_only=False),
                           batch["lon"].to_numpy(zero_copy_only=False))
        uniq, counts = np.unique(cell, return_counts=True)
        return pa.table({"cell": pa.array(uniq),
                         "n": pa.array(counts.astype(np.int64))})

    counts = (streets.map_batches(partial, batch_format="pyarrow")
              .groupby("cell").aggregate(Sum("n", alias_name="n")))

    def expand(batch: pa.Table) -> pa.Table:
        cell = batch["cell"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        outs = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                outs.append(pa.table({
                    "cell": pa.array(cell + np.int64(dy) * w
                                     + np.int64(dx)),
                    "n_self": pa.array(
                        n if dx == 0 and dy == 0
                        else np.zeros(len(n), np.int64)),
                    "n_nbr": pa.array(n.astype(np.int64))}))
        return pa.concat_tables(outs)

    nbr = (counts.map_batches(expand, batch_format="pyarrow")
           .groupby("cell").aggregate(Sum("n_self", alias_name="n_self"),
                                      Sum("n_nbr", alias_name="n_nbr")))
    return nbr.map_batches(
        lambda b: b.filter(pa.compute.greater(b["n_self"], 0)),
        batch_format="pyarrow")


def q_geo_self_crossings(sf_dir: str):
    """Trajectory self-intersection detection (the route/ring validity
    check): all properly-crossing leg pairs within each postcode's
    rank-26 trajectory, by EXACT integer orientation tests on µdeg
    coordinates (sign of int64 cross products — no float epsilon, no
    collinear/touching false positives; |Δ|≤3.6e8 µdeg so the products
    stay ≤1.3e17 < int64).  Scale shape: ONE co-partitioned shuffle on
    the postcode — a trajectory's legs are then local, so the O(k²)
    pair test is per-key vectorized work bounded by trajectory length,
    never corpus size."""
    from .shuffle import grouped_map
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"])

    out_schema = pa.schema([("post_code", pa.string()),
                            ("seg_a", pa.int64()), ("seg_b", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        pcs: list = []
        sa: list = []
        sb: list = []
        for pc, g in df.groupby("post_code", sort=False):
            if len(g) < 3:
                continue
            x = np.floor(g["lon"].to_numpy(np.float64) * 1e6) \
                .astype(np.int64)
            y = np.floor(g["lat"].to_numpy(np.float64) * 1e6) \
                .astype(np.int64)
            sid = g["place_id"].to_numpy(np.int64)[:-1]  # leg start id
            ax, ay, bx, by = x[:-1], y[:-1], x[1:], y[1:]
            ia, ib = np.triu_indices(len(sid), k=1)
            o1 = np.sign((bx[ia] - ax[ia]) * (ay[ib] - ay[ia])
                         - (by[ia] - ay[ia]) * (ax[ib] - ax[ia]))
            o2 = np.sign((bx[ia] - ax[ia]) * (by[ib] - ay[ia])
                         - (by[ia] - ay[ia]) * (bx[ib] - ax[ia]))
            o3 = np.sign((bx[ib] - ax[ib]) * (ay[ia] - ay[ib])
                         - (by[ib] - ay[ib]) * (ax[ia] - ax[ib]))
            o4 = np.sign((bx[ib] - ax[ib]) * (by[ia] - ay[ib])
                         - (by[ib] - ay[ib]) * (bx[ia] - ax[ib]))
            hit = (o1 * o2 == -1) & (o3 * o4 == -1)
            if hit.any():
                pcs.extend([str(pc)] * int(hit.sum()))
                sa.append(sid[ia[hit]])
                sb.append(sid[ib[hit]])
        if not sa:
            return out_schema.empty_table()
        return pa.table({"post_code": pa.array(pcs, pa.string()),
                         "seg_a": pa.array(np.concatenate(sa)),
                         "seg_b": pa.array(np.concatenate(sb))})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False)


def q_geo_snap_to_segment(sf_dir: str):
    """Snap-to-road primitive: each rank-26 street point snaps to the
    nearest NON-INCIDENT leg of its own postcode trajectory (legs that
    start or end at the point are excluded — the map-matching shape:
    nearest candidate segment that isn't already yours).  Argmin over
    point-to-segment distance with a deterministic (dist asc, leg-start
    asc) tie contract; emitted distance floored to µdeg.  ONE
    co-partitioned shuffle co-locates each trajectory with its points;
    per-key work is a vectorized (points × legs) distance matrix
    bounded by trajectory length."""
    from .shuffle import grouped_map
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"])

    out_schema = pa.schema([("place_id", pa.int64()),
                            ("seg_id", pa.int64()),
                            ("snap_udeg", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        pid_out: list = []
        seg_out: list = []
        d_out: list = []
        for _, g in df.groupby("post_code", sort=False):
            if len(g) < 3:
                continue
            px = g["lon"].to_numpy(np.float64)
            py = g["lat"].to_numpy(np.float64)
            pid = g["place_id"].to_numpy(np.int64)
            x1, y1 = px[:-1], py[:-1]
            dx, dy = px[1:] - px[:-1], py[1:] - py[:-1]
            s_start = pid[:-1]
            s_end = pid[1:]
            ll = dx * dx + dy * dy
            qx = px[:, None]
            qy = py[:, None]
            t = ((qx - x1) * dx + (qy - y1) * dy) / ll
            tc = np.minimum(np.maximum(t, 0.0), 1.0)
            ex = qx - (x1 + tc * dx)
            ey = qy - (y1 + tc * dy)
            dist = np.sqrt(ex * ex + ey * ey)
            incident = ((pid[:, None] == s_start[None, :])
                        | (pid[:, None] == s_end[None, :]))
            dist = np.where(incident, np.inf, dist)
            # (dist asc, leg-start asc): legs are already start-ordered,
            # so argmin (first minimum) IS the tie contract
            best = np.argmin(dist, axis=1)
            ok = np.isfinite(dist[np.arange(len(pid)), best])
            pid_out.append(pid[ok])
            seg_out.append(s_start[best[ok]])
            d_out.append(np.floor(
                1e6 * dist[np.arange(len(pid)), best][ok]).astype(np.int64))
        if not pid_out:
            return out_schema.empty_table()
        return pa.table({"place_id": pa.array(np.concatenate(pid_out)),
                         "seg_id": pa.array(np.concatenate(seg_out)),
                         "snap_udeg": pa.array(np.concatenate(d_out))})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False)


def q_geo_street_moments(sf_dir: str):
    """Per-postcode covariance/OLS moments over street coordinates,
    pure int64 (the distributed-regression building block: slope =
    (n·sxy − sx·sy) / (n·sxx − sx²) downstream): µdeg coords translate
    to the key's minimum first (the polygon-centroid overflow trick —
    translated values ≤ the postcode extent, so Σxy stays far inside
    int64), then exact integer sums.  ONE co-partitioned shuffle; the
    output is one row per key."""
    from .shuffle import grouped_map
    streets = _street_points(sf_dir, ["post_code", "lat", "lon"])

    out_schema = pa.schema([("post_code", pa.string()),
                            ("n", pa.int64()),
                            ("x0", pa.int64()), ("y0", pa.int64()),
                            ("sx", pa.int64()), ("sy", pa.int64()),
                            ("sxy", pa.int64()), ("sxx", pa.int64()),
                            ("syy", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        rows = []
        for pc, g in df.groupby("post_code", sort=False):
            x = np.floor(g["lon"].to_numpy(np.float64) * 1e6) \
                .astype(np.int64)
            y = np.floor(g["lat"].to_numpy(np.float64) * 1e6) \
                .astype(np.int64)
            x0 = x.min()
            y0 = y.min()
            xt = x - x0
            yt = y - y0
            rows.append((str(pc), len(g), x0, y0,
                         int(xt.sum()), int(yt.sum()),
                         int((xt * yt).sum()), int((xt * xt).sum()),
                         int((yt * yt).sum())))
        cols = list(zip(*rows))
        return pa.table({f.name: pa.array(list(c), f.type)
                         for f, c in zip(out_schema, cols)})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False)


_EDGE_CACHE: dict = {}


def q_geo_boundary_margin(sf_dir: str):
    """Geofence margin: planar point-to-nearest-edge distance (µdeg,
    floored AFTER the min) from every rank-26 street to its own
    postcode's admin ring — the "how close to the fence" signal a
    geofencing pipeline alerts on.  The boundary table is bounded (per
    admin area, corpus-size independent), so each worker caches the
    per-postcode edge arrays once and the point side streams through
    ONE stateless map_batches — no shuffle.  Float determinism: the
    projection/clamp/hypot expression trees are written identically on
    both sides (no pow(), no FMA), min over the same edge set, floor
    after min."""
    d = ensure_synth(sf_dir)
    bpath = os.path.join(d, "boundaries.parquet")

    out_schema = pa.schema([("place_id", pa.int64()),
                            ("margin_udeg", pa.int64())])

    def margin(batch: pa.Table) -> pa.Table:
        edges = _EDGE_CACHE.get(bpath)
        if edges is None:
            t = pq.read_table(bpath, columns=["post_code", "ring_lat",
                                              "ring_lon"])
            edges = {}
            for pc, la, lo in zip(t["post_code"].to_pylist(),
                                  t["ring_lat"].to_pylist(),
                                  t["ring_lon"].to_pylist()):
                y = np.asarray(la, np.float64)
                x = np.asarray(lo, np.float64)
                x1, y1 = x[:-1], y[:-1]
                x2, y2 = x[1:], y[1:]
                keep = ~((x1 == x2) & (y1 == y2))  # mirror SQL filter
                seg = (x1[keep], y1[keep], x2[keep] - x1[keep],
                       y2[keep] - y1[keep])
                if str(pc) in edges:  # several rings per postcode: concat
                    old = edges[str(pc)]
                    seg = tuple(np.concatenate([o, n])
                                for o, n in zip(old, seg))
                edges[str(pc)] = seg
            _EDGE_CACHE[bpath] = edges
        pcs = np.array([str(v) for v in
                        batch["post_code"].to_pylist()])
        pid = batch["place_id"].to_numpy(zero_copy_only=False)
        px = batch["lon"].to_numpy(zero_copy_only=False)
        py = batch["lat"].to_numpy(zero_copy_only=False)
        out_pid: list = []
        out_m: list = []
        for pc in np.unique(pcs):
            seg = edges.get(pc)
            if seg is None:
                continue  # inner-join semantics, mirrored in SQL
            x1, y1, dx, dy = seg
            m = pcs == pc
            qx = px[m][:, None]
            qy = py[m][:, None]
            ll = dx * dx + dy * dy
            t = ((qx - x1) * dx + (qy - y1) * dy) / ll
            tc = np.minimum(np.maximum(t, 0.0), 1.0)
            ex = qx - (x1 + tc * dx)
            ey = qy - (y1 + tc * dy)
            dist = np.sqrt(ex * ex + ey * ey).min(axis=1)
            out_pid.append(pid[m])
            out_m.append(np.floor(1e6 * dist).astype(np.int64))
        if not out_pid:
            return out_schema.empty_table()
        return pa.table({"place_id": pa.array(np.concatenate(out_pid)),
                         "margin_udeg": pa.array(np.concatenate(out_m))})

    streets = _street_points(sf_dir, ["place_id", "post_code", "lat", "lon"])
    return streets.map_batches(margin, batch_format="pyarrow")


def q_geo_polygon_centroid(sf_dir: str):
    """Exact polygon centroid numerators per admin ring, pure int64:
    coordinates translate to the ring's µdeg minimum first (without
    translation (x+x')·cross overflows int64 at real-world magnitudes),
    then cx_num = Σ(x_i+x_{i+1})·cross_i, cy_num likewise, a2 = Σcross_i
    (signed).  The float centroid is (x0 + cx_num/(3·a2), y0 +
    cy_num/(3·a2)) — two exact divisions away; the published columns
    stay integers so the oracle is bit-exact like geo_polygon_area."""
    d = ensure_synth(sf_dir)

    def cent(batch: pa.Table) -> pa.Table:
        idx = batch["bnd_idx"].to_numpy(zero_copy_only=False)
        lats = batch["ring_lat"].to_pylist()
        lons = batch["ring_lon"].to_pylist()
        n = len(idx)
        x0a = np.zeros(n, np.int64)
        y0a = np.zeros(n, np.int64)
        a2a = np.zeros(n, np.int64)
        cxa = np.zeros(n, np.int64)
        cya = np.zeros(n, np.int64)
        for i, (la, lo) in enumerate(zip(lats, lons)):
            ys = np.floor(np.asarray(la) * 1e6).astype(np.int64)
            xs = np.floor(np.asarray(lo) * 1e6).astype(np.int64)
            x0 = xs.min()
            y0 = ys.min()
            x = xs - x0
            y = ys - y0
            xn = np.roll(x, -1)
            yn = np.roll(y, -1)
            cross = x * yn - xn * y
            x0a[i] = x0
            y0a[i] = y0
            a2a[i] = cross.sum()
            cxa[i] = ((x + xn) * cross).sum()
            cya[i] = ((y + yn) * cross).sum()
        return pa.table({"bnd_idx": pa.array(idx.astype(np.int64)),
                         "x0": pa.array(x0a), "y0": pa.array(y0a),
                         "a2": pa.array(a2a), "cx_num": pa.array(cxa),
                         "cy_num": pa.array(cya)})

    ds = ray.data.read_parquet(os.path.join(d, "boundaries.parquet"),
                               columns=["bnd_idx", "ring_lat", "ring_lon"])
    return ds.map_batches(cent, batch_format="pyarrow")


def q_rel_median_per_key(sf_dir: str):
    """Per-customer lower-median order price in integer cents: one
    co-partitioned shuffle, vectorized in-partition groupby-quantile
    (sort once per partition, pick element (n-1)//2 per group)."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])

    def add_cents(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "cents": pa.array(np.floor(p * 100.0 + 0.5).astype(np.int64))})

    out_schema = pa.schema([("o_custkey", pa.int64()),
                            ("med_cents", pa.int64())])

    def med(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["o_custkey", "cents"], kind="mergesort")
        key = df["o_custkey"].to_numpy()
        cents = df["cents"].to_numpy()
        bounds = np.flatnonzero(np.diff(key)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(key)]))
        pick = starts + (ends - starts - 1) // 2
        return pa.table({"o_custkey": pa.array(key[starts].astype(np.int64)),
                         "med_cents": pa.array(cents[pick].astype(np.int64))})

    cents = ds.map_batches(add_cents, batch_format="pyarrow")
    return grouped_map(cents, "o_custkey", med, group_fn=False)


def q_rel_p90_per_key(sf_dir: str):
    """Per-segment p90 order price (discrete quantile, integer cents):
    same one-shuffle plan as the per-key median, but keyed on the
    customer's market segment (a broadcast-joined dimension) — the
    grouped-quantile shape a curation pipeline uses for per-source
    length/quality cutoffs.  Quantile definition mirrors DuckDB
    ``quantile_disc(0.9)``: element at ceil(0.9*n)-1 of the sorted
    group."""
    from .shuffle import grouped_map
    import ray as _ray

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    seg_ref = _ray.put(dict(zip(cust["c_custkey"].to_pylist(),
                                cust["c_mktsegment"].to_pylist())))
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])

    def add_seg(batch: pa.Table) -> pa.Table:
        seg = _ray.get(seg_ref)
        keys = batch["o_custkey"].to_pylist()
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "seg": pa.array([seg[k] for k in keys], pa.string()),
            "cents": pa.array(np.floor(p * 100.0 + 0.5).astype(np.int64))})

    out_schema = pa.schema([("seg", pa.string()),
                            ("p90_cents", pa.int64())])

    def p90(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["seg", "cents"], kind="mergesort")
        key = df["seg"].to_numpy()
        cents = df["cents"].to_numpy()
        bounds = np.flatnonzero(key[:-1] != key[1:]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(key)]))
        pick = starts + np.ceil(0.9 * (ends - starts)).astype(np.int64) - 1
        return pa.table({"seg": pa.array(key[starts], pa.string()),
                         "p90_cents": pa.array(cents[pick].astype(np.int64))})

    withseg = ds.map_batches(add_seg, batch_format="pyarrow")
    return grouped_map(withseg, "seg", p90, group_fn=False)


def q_geo_knn(sf_dir: str):
    from .geom import haversine_km
    d = ensure_synth(sf_dir)
    gaz_path = os.path.join(d, "gazetteer.parquet")

    def knn(batch: pa.Table) -> pa.Table:
        rlat, rlon, rid = _knn_refs(gaz_path)
        qlat = batch["lat"].to_numpy(zero_copy_only=False)
        qlon = batch["lon"].to_numpy(zero_copy_only=False)
        qid = batch["place_id"].to_numpy(zero_copy_only=False)
        out_q, out_n, out_r = [], [], []
        dm = haversine_km(qlat[:, None], qlon[:, None],
                          rlat[None, :], rlon[None, :])
        for i in range(len(qid)):
            order = np.lexsort((rid, dm[i]))[:3]
            for rank, j in enumerate(order):
                out_q.append(int(qid[i]))
                out_n.append(int(rid[j]))
                out_r.append(rank + 1)
        return pa.table({"query_place_id": pa.array(out_q, pa.int64()),
                         "neighbor_place_id": pa.array(out_n, pa.int64()),
                         "rnk": pa.array(out_r, pa.int64())})

    cities = ray.data.read_parquet(gaz_path,
                                   columns=["place_id", "lat", "lon",
                                            "place_rank"])
    cities = cities.map_batches(
        lambda b: b.filter(pa.compute.equal(b["place_rank"], 16)),
        batch_format="pyarrow")
    return cities.map_batches(knn, batch_format="pyarrow")


def _geocode_documents_ds(sf_dir: str, with_tiles=True, with_knn=True):
    from .pipeline import geocode_documents
    d = ensure_synth(sf_dir)
    spec = spec_for(sf_dir)
    docs = ray.data.read_parquet(os.path.join(d, "documents.parquet"))
    return geocode_documents(docs, spec=spec, cfg=PipelineConfig(),
                             batch_size=1024,
                             with_tiles=with_tiles, with_knn_rescue=with_knn)


def q_geo_span_roundtrip(sf_dir: str):
    from .pipeline import reassemble_documents
    from .spans import explode_spans
    res = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)
    docs = reassemble_documents(res)

    def re_explode(batch: pa.Table) -> pa.Table:
        out = explode_spans(batch.select(["doc_id", "spans"]))
        return out.select(["doc_id", "span_idx", "kind", "text",
                           "media_ref", "offset"])

    return docs.map_batches(re_explode, batch_format="pyarrow")


_BATCH_OUT_COLS = [
    "addr_key", "status", "m_method", "m_reject_reason", "m_place_id",
    "m_place_rank", "o_lat", "o_lon", "o_street_name", "o_post_code",
    "hex_cell", "quad_cell", "pip_ok"]
_DOCS_OUT_COLS = [
    "doc_id", "span_idx", "addr_key", "status", "m_method", "m_place_id",
    "m_place_rank", "o_lat", "o_lon", "hex_cell", "quad_cell", "pip_ok"]


def q_geo_batch_geocode(sf_dir: str):
    """Flagship flat-batch pipeline — round 5: FULL-OUTPUT hash oracle.
    The snapshot carries only row PROVENANCE (addr_key / status / method
    / winning place id) plus the echoed compare-time strings and the
    input postcode; the oracle SQL recomputes every other column —
    reject labels via the comparator kernels, place rank / coordinates /
    output address from the raw gazetteer, hex + quad tiles from the
    coordinates, and PIP validation from the raw boundary rings — and
    must reproduce the engine's 13-column output row-for-row."""
    from .pipeline import geocode_addresses
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(d, "addresses.parquet"),
        columns=[ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY])
    out = geocode_addresses(ds, spec=spec_for(sf_dir), batch_size=1024)
    snap = _write_snapshot(
        out.select_columns(_BATCH_OUT_COLS + ["post_code"] + _CMP_COLS),
        sf_dir, "batch_geocode_full")
    return ray.data.read_parquet(snap, columns=_BATCH_OUT_COLS)


def q_geo_documents_pipeline(sf_dir: str):
    """Flagship documents pipeline — round 5: FULL-OUTPUT hash oracle
    (same recompute scheme as geo_batch_geocode; span provenance
    doc_id/span_idx are snapshot parameters, their integrity covered by
    the span extract/roundtrip/conservation oracles)."""
    out = _geocode_documents_ds(sf_dir)
    snap = _write_snapshot(
        out.select_columns(_DOCS_OUT_COLS + ["post_code"]),
        sf_dir, "documents_pipeline_full")
    return ray.data.read_parquet(snap, columns=_DOCS_OUT_COLS)


def _snapshot_matches(sf_dir: str, columns: list[str], name: str,
                      with_tiles: bool) -> "ray.data.Dataset":
    """Write the pipeline's matched rows (selected columns) to a parquet
    snapshot under the synth dir and read it back — the oracle SQL for
    snapshot-verified rollups reads the same files."""
    import shutil
    out = _geocode_documents_ds(sf_dir, with_tiles=with_tiles,
                                with_knn=False)
    match = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "match")),
        batch_format="pyarrow").select_columns(columns)
    snap = os.path.join(synth_dir(sf_dir), name)
    shutil.rmtree(snap, ignore_errors=True)
    match.write_parquet(snap)
    return ray.data.read_parquet(snap)


def q_geo_method_stats(sf_dir: str):
    """Match-method distribution.  The matched (addr_key, m_method) rows
    are snapshotted to parquet so the DuckDB oracle can verify the
    distributed rollup path against a SQL group-by over the same rows
    (the cascade itself is covered by the span-conservation/singleton
    invariants and the pytest golden runs)."""
    from .tiles import rollup_counts
    snap = _snapshot_matches(sf_dir, ["addr_key", "m_method"],
                             "method_stats_input", with_tiles=False)
    return rollup_counts(snap, "m_method")


def q_geo_hex_assign(sf_dir: str):
    """Hex-cell assignment over the gazetteer points — oracle-checkable
    (the axial transform + cube rounding is replicated in SQL)."""
    from .cells import hex_cell
    d = ensure_synth(sf_dir)

    def assign(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        return pa.table({"place_id": batch["place_id"],
                         "hex_cell": pa.array(hex_cell(lat, lon, 9))})

    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    return ds.map_batches(assign, batch_format="pyarrow")


def q_geo_hex_rollup(sf_dir: str):
    from .tiles import rollup_counts_salted
    return rollup_counts_salted(q_geo_hex_assign(sf_dir), "hex_cell")


def q_geo_hex_rollup_pipeline(sf_dir: str):
    """Hex rollup over GEOCODED MATCH coordinates (the round-1 query
    shape): the annotator-assigned hex cells of pipeline matches are
    snapshotted so the oracle can verify the salted rollup with a SQL
    group-by over the same rows — keeps the pipeline's hex assignment
    exercised (the hex math itself is fully oracled by
    geo_hex_assign)."""
    from .tiles import rollup_counts_salted
    snap = _snapshot_matches(sf_dir, ["addr_key", "hex_cell"],
                             "hex_rollup_input", with_tiles=True)
    return rollup_counts_salted(snap, "hex_cell")


def q_geo_hex_kring_density(sf_dir: str):
    """Hex k-ring neighborhood density (round 4): per occupied hex cell,
    the point count summed over its 1-ring disc (7 cells incl. itself)
    — the smoothing/aggregation primitive behind heatmaps and hotspot
    detection.  Plan: per-cell rollup (map-side combine + one small
    groupby), then each occupied cell EMITS its count to its 7 ring
    members (ring symmetry: c contributes to x iff x's disc contains c)
    plus a self marker; ONE co-partitioned shuffle on the cell id and a
    vectorized per-partition sum — no broadcast of the (data-sized)
    occupied-cell set.  Ring membership is pure int64 axial arithmetic
    (cells.hex_kring), replicated exactly by the SQL oracle."""
    from .cells import hex_kring
    from .shuffle import grouped_map
    from .tiles import rollup_counts
    counts = rollup_counts(q_geo_hex_assign(sf_dir), "hex_cell")

    def explode(batch: pa.Table) -> pa.Table:
        cells = batch["hex_cell"].to_numpy(zero_copy_only=False
                                           ).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        ctr, nbr = hex_kring(cells, 1)
        contrib = np.repeat(n, 7)
        key = np.concatenate([nbr, cells])
        tag = np.concatenate([np.zeros(len(nbr), np.int8),
                              np.ones(len(cells), np.int8)])
        val = np.concatenate([contrib, n])
        return pa.table({"key": pa.array(key),
                         "tag": pa.array(tag, pa.int8()),
                         "val": pa.array(val)})

    rows = counts.map_batches(explode, batch_format="pyarrow")
    schema = pa.schema([("hex_cell", pa.int64()), ("n_ring", pa.int64())])

    def per_part(df: pd.DataFrame) -> pa.Table:
        occupied = set(df.loc[df["tag"] == 1, "key"].tolist())
        c = df[df["tag"] == 0].groupby("key")["val"].sum()
        c = c[c.index.isin(occupied)]
        return pa.table({
            "hex_cell": pa.array(c.index.to_numpy(np.int64), pa.int64()),
            "n_ring": pa.array(c.to_numpy(np.int64), pa.int64())})

    return grouped_map(rows, "key", per_part, group_fn=False,
                       out_schema=schema)


def q_geo_path_simplify(sf_dir: str):
    """Per-postcode Douglas-Peucker trajectory simplification (round 4):
    the rank-26 street tour of geo_path_length, simplified at eps=0.01°
    — emits the KEPT (post_code, place_id) set.  One co-partitioned
    shuffle on the postcode; DP runs vectorized per group inside the
    partition task.  FULL-VALUE oracle: the SQL side replays the whole
    DP recursion with a recursive CTE (same deviation formula, same
    strict > eps split, same first-max tie-break), so a single wrong
    keep/drop anywhere in the recursion hash-mismatches."""
    from .geom import dp_simplify
    from .shuffle import grouped_map
    streets = _street_points(sf_dir, ["post_code", "place_id", "lat", "lon"]
                             ).drop_columns(["place_rank"])
    schema = pa.schema([("post_code", pa.string()),
                        ("place_id", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        pcs: list[str] = []
        pids: list[np.ndarray] = []
        df = df.sort_values(["post_code", "place_id"], kind="mergesort")
        for pc_key, g in df.groupby("post_code", sort=False):
            keep = dp_simplify(g["lat"].to_numpy(np.float64),
                               g["lon"].to_numpy(np.float64), 0.01)
            kept = g["place_id"].to_numpy(np.int64)[keep]
            pcs.extend([pc_key] * len(kept))
            pids.append(kept)
        return pa.table({
            "post_code": pa.array(pcs, pa.string()),
            "place_id": pa.array(
                np.concatenate(pids) if pids else np.zeros(0, np.int64),
                pa.int64())})

    return grouped_map(streets, "post_code", per_partition,
                       group_fn=False, out_schema=schema)


def q_geo_span_conservation(sf_dir: str):
    """Pipeline invariant with a hard oracle: every input span appears in
    the geocode output exactly once (match/reject rows collapse via
    distinct) — per-doc distinct span count must equal len(spans) of the
    raw documents parquet."""
    from .shuffle import distinct_on
    from .tiles import rollup_counts
    out = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)
    uniq = distinct_on(out.select_columns(["doc_id", "span_idx"]),
                       ["doc_id", "span_idx"])
    return rollup_counts(uniq, "doc_id")


def q_geo_addr_conservation(sf_dir: str):
    """Flat-batch invariant with a hard oracle: every input address
    reaches EXACTLY ONE terminal state (one match row XOR one unmatched
    stub) — per-addr_key terminal-row count must equal 1 for every row
    of the raw addresses parquet."""
    import pyarrow.compute as pc

    from .pipeline import geocode_addresses
    from .tiles import rollup_counts
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(d, "addresses.parquet"),
        columns=[ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY])
    out = geocode_addresses(ds, spec=spec_for(sf_dir), with_tiles=False)
    terminal = out.map_batches(
        lambda b: b.filter(pc.is_in(b["status"],
                                    value_set=pa.array(
                                        ["match", "unmatched"]))),
        batch_format="pyarrow")
    return rollup_counts(terminal, ADDR_KEY)


def q_geo_match_singleton(sf_dir: str):
    """Pipeline invariant: at most one match row per addr_key — the
    query emits violators, the oracle is the typed empty set."""
    from .tiles import rollup_counts
    out = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)
    match = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "match")),
        batch_format="pyarrow")
    counts = rollup_counts(match, "addr_key")
    dup = counts.map_batches(
        lambda b: b.filter(pa.compute.greater(b["n"], 1)),
        batch_format="pyarrow")
    pdf = dup.to_pandas()
    if pdf.empty:
        return pa.table({"addr_key": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf[["addr_key", "n"]],
                                preserve_index=False)


def q_geo_knn_rescue(sf_dir: str):
    """CONTENT oracle for the kNN gazetteer rescue (round 3 closes the
    last structural-only gap): the trigram prefilter is a PERF knob, so
    this query runs the rescuer in EXACT mode (prefilter >= any bucket)
    and DuckDB recomputes every suggestion from the raw gazetteer —
    ``_SQL_NORM`` normalization, postcode-prefix bucket routing with
    global fallback, score = 0.5*JW + 0.5*(1 - levenshtein/max(len)) on
    token-sorted forms (JW rebuilt from ``jaro_similarity`` plus the
    engine's unconditional common-prefix Winkler boost; the token leg is
    plain Levenshtein precisely so DuckDB's builtin reproduces it), and
    top-3 by (score desc, street place_id asc).  The snapshot carries
    ROW SELECTION only (which addresses the cascade left unmatched, with
    their raw street/postcode); a wrong suggested place_id or rank
    hash-mismatches.  The production prefilter path stays covered by
    geo_knn_rescue_struct + pytest recall tests."""
    from .knn import KnnRescuer
    out = _geocode_documents_ds(sf_dir, with_tiles=False)
    um = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "unmatched")),
        batch_format="pyarrow").select_columns(
        ["addr_key", "street_name", "post_code", "status"])
    snap = _write_snapshot(um, sf_dir, "knn_rescue_input")
    spec = spec_for(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        aks: list[str] = []
        ranks: list[int] = []
        pids: list[int] = []
        names: list[str] = []
        for ak, ids, sts in zip(batch["addr_key"].to_pylist(),
                                batch["knn_place_ids"].to_pylist(),
                                batch["knn_streets"].to_pylist()):
            for ri, (pid, st) in enumerate(zip(ids or [], sts or [])):
                aks.append(ak)
                ranks.append(ri + 1)
                pids.append(int(pid))
                names.append(str(st))
        return pa.table({"addr_key": pa.array(aks, pa.string()),
                         "sugg_rank": pa.array(ranks, pa.int64()),
                         "place_id": pa.array(pids, pa.int64()),
                         "street_sugg": pa.array(names, pa.string())})

    return (ray.data.read_parquet(snap)
            .map_batches(KnnRescuer, batch_format="pyarrow",
                         fn_constructor_kwargs=dict(
                             spec=spec, k=3, prefilter=1 << 30),
                         concurrency=2)
            .map_batches(explode, batch_format="pyarrow"))


def _write_snapshot(ds_or_table, sf_dir: str, name: str) -> str:
    """Write an engine result to a parquet snapshot under the synth dir
    (the oracle SQL reads the same files for ROW SELECTION — the value
    columns it emits are recomputed from the raw synth tables)."""
    import shutil
    snap = os.path.join(synth_dir(sf_dir), name)
    shutil.rmtree(snap, ignore_errors=True)
    if isinstance(ds_or_table, pa.Table):
        os.makedirs(snap, exist_ok=True)
        pq.write_table(ds_or_table, os.path.join(snap, "part0.parquet"))
    else:
        ds_or_table.write_parquet(snap)
    return snap


def q_geo_batch_match_content(sf_dir: str):
    """CONTENT oracle for the full batch cascade's match assignments
    (round-3: geo_batch_geocode itself is not SQL-expressible, but its
    exact-match-eligible subset is): for every matched address whose
    (normalized street, post_code) has a rank-26 gazetteer entry, the
    pipeline's street-level place id must equal the SQL exact-match
    lookup over the raw tables.  Rank-30 building matches resolve to
    their street via the synth world's id rule (building place_id =
    street_place_id * 1000 + house number — gazetteer.py details()).
    The snapshot is used by the SQL side only to select WHICH addresses
    were matched at ranks 26/30; the expected id is recomputed from the
    gazetteer, so a wrong assignment hash-mismatches."""
    from .pipeline import geocode_addresses
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(d, "addresses.parquet"),
        columns=[ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY])
    out = geocode_addresses(ds, spec=spec_for(sf_dir), batch_size=1024)
    match = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "match")),
        batch_format="pyarrow").select_columns(
        ["addr_key", "m_place_id", "m_place_rank", "street_name",
         "post_code"])
    snap = _write_snapshot(match, sf_dir, "batch_match_content_input")
    gaz_path = os.path.join(d, "gazetteer.parquet")

    def project(batch: pa.Table) -> pa.Table:
        idx = _exact_index(gaz_path)
        aks: list[str] = []
        pids: list[int] = []
        for ak, pid, rank, st, pc in zip(
                batch["addr_key"].to_pylist(),
                batch["m_place_id"].to_pylist(),
                batch["m_place_rank"].to_pylist(),
                batch["street_name"].to_pylist(),
                batch["post_code"].to_pylist()):
            if rank not in (26, 30):
                continue
            if (normalize_street(st), pc) not in idx:
                continue
            aks.append(ak)
            pids.append(int(pid) if rank == 26 else int(pid) // 1000)
        return pa.table({"addr_key": pa.array(aks, pa.string()),
                         "street_pid": pa.array(pids, pa.int64())})

    return ray.data.read_parquet(snap).map_batches(
        project, batch_format="pyarrow")


def q_geo_docs_match_content(sf_dir: str):
    """Same content oracle over the DOCUMENTS pipeline (span-level match
    assignments): per (doc_id, span_idx) matched at rank 26/30 with an
    exact-match-eligible parsed street, the street-level place id must
    equal the SQL lookup recomputed from the raw gazetteer."""
    d = ensure_synth(sf_dir)
    out = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)
    match = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "match")),
        batch_format="pyarrow").select_columns(
        ["doc_id", "span_idx", "m_place_id", "m_place_rank",
         "street_name", "post_code"])
    snap = _write_snapshot(match, sf_dir, "docs_match_content_input")
    gaz_path = os.path.join(d, "gazetteer.parquet")

    def project(batch: pa.Table) -> pa.Table:
        idx = _exact_index(gaz_path)
        docs: list[str] = []
        spans: list[int] = []
        pids: list[int] = []
        for did, si, pid, rank, st, pc in zip(
                batch["doc_id"].to_pylist(),
                batch["span_idx"].to_pylist(),
                batch["m_place_id"].to_pylist(),
                batch["m_place_rank"].to_pylist(),
                batch["street_name"].to_pylist(),
                batch["post_code"].to_pylist()):
            if rank not in (26, 30):
                continue
            if (normalize_street(st), pc) not in idx:
                continue
            docs.append(did)
            spans.append(int(si))
            pids.append(int(pid) if rank == 26 else int(pid) // 1000)
        return pa.table({"doc_id": pa.array(docs, pa.string()),
                         "span_idx": pa.array(spans, pa.int64()),
                         "street_pid": pa.array(pids, pa.int64())})

    return ray.data.read_parquet(snap).map_batches(
        project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Round-4 full-output oracles for the two flagship pipelines: reject-row
# adjudication (labels + the four c_sim_* scores + c_sim_street_which),
# reject->match distance, and the keep-best match selection, all recomputed
# in SQL from the RAW synth tables (comparesql.py renders the comparator
# kernels; bit-parity pinned by tests/test_comparesql.py).  The snapshot
# carries ROW SELECTION only (addr_key / method / osm_order / place_id);
# candidate content is re-derived from gazetteer.parquet by place id and
# input content from addresses.parquet (flat) or the restored parsed span
# fields (documents pipeline, per the geo_knn_rescue precedent).
#
# Round 5: the cascade now ECHOES the compare-time strings onto every
# candidate row (config.py CMP_FIELDS, cascade.py _transform_and_process)
# — the exact four strings the comparator saw, after whatever transformer
# chain the step ran (regex/libpostal/photon/blanking, including the
# digits-only cleansed-hn retry).  With those as snapshot parameters the
# adjudication and selection oracles cover EVERY cascade method; the
# round-4 restriction to raw-table-derivable methods
# (orig/nonum/nostreet) is gone.

def _flat_geocode_full(sf_dir: str):
    from .pipeline import geocode_addresses
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(d, "addresses.parquet"),
        columns=[ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY])
    return geocode_addresses(ds, spec=spec_for(sf_dir), with_tiles=False)


def _filter_status_method(ds, status: str, methods=None):
    import pyarrow.compute as pc

    def f(b: pa.Table) -> pa.Table:
        m = pc.equal(b["status"], status)
        if methods is not None:
            m = pc.and_(m, pc.is_in(b["m_method"],
                                    value_set=pa.array(list(methods))))
        return b.filter(m)

    return ds.map_batches(f, batch_format="pyarrow")


_ADJ_COLS = ["addr_key", "m_method", "m_osm_order", "m_place_id",
             "c_sim_street", "c_sim_street_which", "c_sim_house_number",
             "c_sim_post_code", "c_sim_city", "m_reject_reason"]
_CMP_COLS = ["m_cmp_street_name", "m_cmp_house_number",
             "m_cmp_post_code", "m_cmp_post_name"]


def q_geo_reject_adjudication(sf_dir: str):
    """FULL reject-row oracle for the flat batch cascade at EVERY
    cascade method: for every surviving reject row the engine emits its
    four similarity scores, the street field-priority pick
    (c_sim_street_which) and the mismatch-vs-tail label; DuckDB
    recomputes ALL of them from the echoed compare-time strings
    (CMP_FIELDS snapshot parameters — the transformer outputs the
    comparator actually saw) x raw-gazetteer candidate content.  Closes
    VERDICT r4 item 2: no method subset, no self-certified scores."""
    out = _flat_geocode_full(sf_dir)
    rej = _filter_status_method(out, "reject")
    snap = _write_snapshot(rej.select_columns(_ADJ_COLS + _CMP_COLS),
                           sf_dir, "reject_adjudication_input")
    return ray.data.read_parquet(snap, columns=_ADJ_COLS)


def q_geo_reject_distance(sf_dir: str):
    """distance_to_match oracle (ALL cascade methods): every reject row
    of a matched address carries haversine-km (rounded 3) to its
    address's match — recomputed by SQL from gazetteer coordinates by
    place id (synthesized rank-30 buildings resolved via the parent
    street row + the 5e-5*(hn-lo) offset rule).  Covers the
    utils.py:1080-1093 semantics end-to-end on the pipeline output."""
    out = _flat_geocode_full(sf_dir)

    def keep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        is_rej = pc.and_(pc.equal(b["status"], "reject"),
                         pc.is_valid(b["m_distance_to_match"]))
        return b.filter(pc.or_(is_rej, pc.equal(b["status"], "match")))

    sel = out.map_batches(keep, batch_format="pyarrow").select_columns(
        ["addr_key", "status", "m_method", "m_osm_order", "m_place_id",
         "m_distance_to_match"])
    snap = _write_snapshot(sel, sf_dir, "reject_distance_input")
    ds = ray.data.read_parquet(snap)
    return _filter_status_method(ds, "reject").select_columns(
        ["addr_key", "m_method", "m_osm_order", "m_place_id",
         "m_distance_to_match"])


def q_geo_match_selection(sf_dir: str):
    """keep-best SELECTION oracle over EVERY matched address at EVERY
    cascade method (round 5 — closes VERDICT r4 items 2/6).  Snapshot 1
    = the engine's winners (addr_key, m_place_id + the provenance flags
    cleansed / street_which / method); snapshot 2 = every surviving
    candidate row (winner + rejects) with its OWN echoed compare-time
    strings.  SQL reproduces the winner set three ways:

    - ordinary matches: re-score every candidate of the address at the
      winning method, drop eliminated ones, rank by (sim_street desc,
      sim_house_number desc, osm_order asc) and take the top
      (check_result_utils.py:543-548) — must equal the engine's winner;
    - cleansed-house-number retries: the winner row, scored with its
      echoed digits-only house number, must be non-eliminated AND a
      rank-30 synthesized building (utils.py:225-299's retry contract)
      — the retry's losing candidates are not emitted, so a full
      re-rank is not replayable from output rows;
    - parent alt-name rescues: the winner must be a building one of
      whose parent-street alt names (name/name:fr/name:nl, excluding
      the collapse street) scores non-eliminated against the echoed
      input (check_result_utils.py:560-644's rescue contract).

    A winner failing its rule is absent from the SQL side -> row/hash
    mismatch."""
    out = _flat_geocode_full(sf_dir)

    def pick_matches(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return b.filter(pc.equal(b["status"], "match"))

    matches = out.map_batches(pick_matches, batch_format="pyarrow") \
        .select_columns(["addr_key", "m_place_id", "m_method",
                         "m_match_on_cleansed_house_number",
                         "c_sim_street_which"])
    msnap = _write_snapshot(matches, sf_dir, "match_selection_matches")
    keys = set(pq.read_table(msnap)["addr_key"].to_pylist())
    keyarr = pa.array(sorted(keys))

    def pick_cands(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.is_in(b["addr_key"], value_set=keyarr)
        m = pc.and_(m, pc.not_equal(b["status"], "unmatched"))
        return b.filter(m)

    cands = out.map_batches(pick_cands, batch_format="pyarrow") \
        .select_columns(["addr_key", "status", "m_method", "m_osm_order",
                         "m_place_id"] + _CMP_COLS)
    _write_snapshot(cands, sf_dir, "match_selection_cands")
    return ray.data.read_parquet(msnap, columns=["addr_key", "m_place_id"])


def q_geo_docs_reject_adjudication(sf_dir: str):
    """Reject adjudication over the DOCUMENTS pipeline (span-level), at
    EVERY cascade method: the snapshot echoes the compare-time strings
    (CMP_FIELDS — the transformer outputs the comparator actually saw);
    scores and labels are recomputed by SQL from those strings x
    raw-gazetteer candidate content."""
    out = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)
    rej = _filter_status_method(out, "reject")
    snap = _write_snapshot(
        rej.select_columns(_ADJ_COLS + _CMP_COLS),
        sf_dir, "docs_reject_adjudication_input")
    return ray.data.read_parquet(snap, columns=_ADJ_COLS)


def q_geo_docs_reject_distance(sf_dir: str):
    """distance_to_match oracle over the documents pipeline (all
    methods), same gazetteer-coordinate recompute as
    geo_reject_distance."""
    out = _geocode_documents_ds(sf_dir, with_tiles=False, with_knn=False)

    def keep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        is_rej = pc.and_(pc.equal(b["status"], "reject"),
                         pc.is_valid(b["m_distance_to_match"]))
        return b.filter(pc.or_(is_rej, pc.equal(b["status"], "match")))

    sel = out.map_batches(keep, batch_format="pyarrow").select_columns(
        ["addr_key", "status", "m_method", "m_osm_order", "m_place_id",
         "m_distance_to_match"])
    snap = _write_snapshot(sel, sf_dir, "docs_reject_distance_input")
    ds = ray.data.read_parquet(snap)
    return _filter_status_method(ds, "reject").select_columns(
        ["addr_key", "m_method", "m_osm_order", "m_place_id",
         "m_distance_to_match"])


def q_emb_topk_ivf_recall(sf_dir: str):
    """Recall oracle for the IVF ANN path: per query, how many of the
    IVF top-5 appear in the EXACT top-5.  The engine intersects its IVF
    result with its own brute-force result; the SQL side intersects the
    snapshotted IVF rows with a windowed exact top-5 it computes from
    the raw embeddings — equal counts mean the IVF output is the one the
    engine claims AND its recall vs ground truth is what the engine
    reports.  (A recall >= 0.8 floor is asserted in pytest.)"""
    ivf = q_emb_topk_ivf(sf_dir)
    _write_snapshot(ivf, sf_dir, "ivf_topk_input")
    brute = q_emb_topk_brute(sf_dir).to_pandas()
    iv = ivf.to_pandas()
    hits = iv.merge(brute, on=["query_id", "vec_id"]).groupby(
        "query_id").size()
    qids = sorted(iv["query_id"].unique())
    return pa.table({
        "query_id": pa.array([int(q) for q in qids], pa.int64()),
        "n_hits": pa.array([int(hits.get(q, 0)) for q in qids],
                           pa.int64())})


def q_geo_knn_rescue_struct(sf_dir: str):
    """Structural oracle for the kNN gazetteer rescue: every suggestion,
    exploded to (addr_key, sugg_rank, place_id), must be a rank-26
    street drawn from the address's postcode-prefix bucket when that
    bucket exists (global fallback otherwise).  The engine emits its
    CLAIM per row ('bucket:ok' / 'global:ok' from its own bucket
    routing); the SQL side recomputes the verdict from the raw gazetteer
    — an out-of-prefix or non-street suggestion surfaces as
    'violated'."""
    d = ensure_synth(sf_dir)
    out = _geocode_documents_ds(sf_dir, with_tiles=False)
    um = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "unmatched")),
        batch_format="pyarrow").select_columns(
        ["addr_key", "post_code", "knn_place_ids"])

    def explode(batch: pa.Table) -> pa.Table:
        aks: list[str] = []
        pcs: list[str] = []
        ranks: list[int] = []
        pids: list[int] = []
        for ak, pc, ids in zip(batch["addr_key"].to_pylist(),
                               batch["post_code"].to_pylist(),
                               batch["knn_place_ids"].to_pylist()):
            for ri, pid in enumerate(ids or []):
                aks.append(ak)
                pcs.append(str(pc))
                ranks.append(ri + 1)
                pids.append(int(pid))
        return pa.table({"addr_key": pa.array(aks, pa.string()),
                         "post_code": pa.array(pcs, pa.string()),
                         "sugg_rank": pa.array(ranks, pa.int64()),
                         "place_id": pa.array(pids, pa.int64())})

    exploded = um.map_batches(explode, batch_format="pyarrow")
    snap = _write_snapshot(exploded, sf_dir, "knn_rescue_struct_input")

    # engine-side claim: which scope the rescuer routed each query to
    from .gazetteer import get_gazetteer
    gaz = get_gazetteer(spec_for(sf_dir))
    streets = gaz.places[gaz.places.place_rank == 26]
    prefixes = set(streets["post_code"].astype(str).str[:2])

    def claim(batch: pa.Table) -> pa.Table:
        checks = ["bucket:ok" if str(pc)[:2] in prefixes else "global:ok"
                  for pc in batch["post_code"].to_pylist()]
        return pa.table({"addr_key": batch["addr_key"],
                         "sugg_rank": batch["sugg_rank"],
                         "place_id": batch["place_id"],
                         "scope_check": pa.array(checks, pa.string())})

    return ray.data.read_parquet(snap).map_batches(
        claim, batch_format="pyarrow")


def q_geo_pip_validate(sf_dir: str):
    """Point-in-polygon validation oracle (round 3): run the flat-address
    cascade with the tile annotator, snapshot every matched row's
    (addr_key, post_code, o_lat, o_lon, pip_ok); the SQL side re-derives
    pip_ok from the raw boundary rings with the same even-odd ray cast
    (verified bit-identical to the geom._crosses kernel over 12k sample
    points) and the engine's tie-break (min bnd_idx — PolygonIndex.locate
    returns the lowest polygon index among containing candidates, and
    the index is built in bnd_idx order).  A wrong pip bit anywhere
    hash-mismatches."""
    from .pipeline import geocode_addresses
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(
        os.path.join(d, "addresses.parquet"),
        columns=[ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY])
    out = geocode_addresses(ds, spec=spec_for(sf_dir), batch_size=1024)
    match = out.map_batches(
        lambda b: b.filter(pa.compute.equal(b["status"], "match")),
        batch_format="pyarrow").select_columns(
        ["addr_key", "post_code", "o_lat", "o_lon", "pip_ok"])
    snap = _write_snapshot(match, sf_dir, "pip_validate_input")

    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "addr_key": batch["addr_key"],
            "pip_ok": pa.compute.cast(batch["pip_ok"], pa.int64())})

    return ray.data.read_parquet(snap).map_batches(
        project, batch_format="pyarrow")


def q_geo_raster_points(sf_dir: str):
    """Vector -> raster: gazetteer point density on the 0.05-degree
    grid via map-side partial counts + one (row, col) groupby."""
    from .raster import rasterize_points
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["lat", "lon"])
    return rasterize_points(ds)


def q_geo_raster_polygons(sf_dir: str):
    """Vector -> raster burn: admin-boundary interiors onto the grid by
    cell-center even-odd containment (same bit-verified kernel as the
    PIP validator); each task clips to its polygon's bbox."""
    from .raster import rasterize_polygons
    d = ensure_synth(sf_dir)
    bnds = ray.data.read_parquet(
        os.path.join(d, "boundaries.parquet"),
        columns=["bnd_idx", "ring_lat", "ring_lon"])
    return rasterize_polygons(bnds)


def q_geo_quad_polyfill(sf_dir: str):
    """Per-admin-polygon minimal quadtree cover (the geofence pattern:
    polyfill at level 12, then H3-compact-style promotion): each
    polygon's bbox-clipped cell-center grid is tested with the
    bit-verified even-odd kernel and compacted LOCALLY (a cover is
    polygon-local by construction, so no shuffle at all — one task per
    boundary batch; planet-scale polygons would be split by bbox tiles
    first, the rasterize_polygons caveat).  Oracle = per-key unrolled
    complete-sibling promotion over the same crossing SQL."""
    from .cells import compact_cells, quad_from_xy
    from .geom import point_in_polygon
    d = ensure_synth(sf_dir)
    level = 12
    n = 1 << level
    dlat, dlon = 180.0 / n, 360.0 / n   # exact binary fractions

    empty = pa.table({"bnd_idx": pa.array([], pa.int64()),
                      "cell": pa.array([], pa.int64()),
                      "level": pa.array([], pa.int64())})

    def fill(batch: pa.Table) -> pa.Table:
        out_k, out_c = [], []
        bidx = batch["bnd_idx"].to_numpy(zero_copy_only=False)
        rlats = batch["ring_lat"].to_pylist()
        rlons = batch["ring_lon"].to_pylist()
        for k, la, lo in zip(bidx, rlats, rlons):
            la = np.asarray(la, np.float64)
            lo = np.asarray(lo, np.float64)
            x0 = int(np.clip(np.floor((lo.min() + 180.0) / 360.0 * n),
                             0, n - 1))
            x1 = int(np.clip(np.floor((lo.max() + 180.0) / 360.0 * n),
                             0, n - 1))
            y0 = int(np.clip(np.floor((la.min() + 90.0) / 180.0 * n),
                             0, n - 1))
            y1 = int(np.clip(np.floor((la.max() + 90.0) / 180.0 * n),
                             0, n - 1))
            gx, gy = np.meshgrid(np.arange(x0, x1 + 1, dtype=np.int64),
                                 np.arange(y0, y1 + 1, dtype=np.int64))
            gx, gy = gx.ravel(), gy.ravel()
            clat = -90.0 + (gy + 0.5) * dlat
            clon = -180.0 + (gx + 0.5) * dlon
            inside = point_in_polygon(clat, clon, la, lo)
            if not inside.any():
                continue
            cells = compact_cells(
                quad_from_xy(gx[inside], gy[inside], level))
            out_k.append(np.full(len(cells), k, dtype=np.int64))
            out_c.append(cells)
        if not out_k:
            return empty
        kk = np.concatenate(out_k)
        cc = np.concatenate(out_c)
        return pa.table({"bnd_idx": pa.array(kk), "cell": pa.array(cc),
                         "level": pa.array(cc >> np.int64(56))})

    bnds = ray.data.read_parquet(
        os.path.join(d, "boundaries.parquet"),
        columns=["bnd_idx", "ring_lat", "ring_lon"])
    return bnds.map_batches(fill, batch_format="pyarrow")


def q_geo_raster_vectorize(sf_dir: str):
    """Raster -> vector roundtrip: density raster, threshold >= 2,
    run-length polygonization into horizontal segments (rows
    co-partitioned, segments built locally)."""
    from .raster import rasterize_points, vectorize_runs
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["lat", "lon"])
    pdf = vectorize_runs(rasterize_points(ds), threshold=2).to_pandas()
    if pdf.empty:   # all-empty grouped result loses its schema
        return pa.table({"row": pa.array([], pa.int64()),
                         "col_start": pa.array([], pa.int64()),
                         "col_end": pa.array([], pa.int64()),
                         "n_cells": pa.array([], pa.int64()),
                         "sum_n": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf, preserve_index=False)


# ---------------------------------------------------------------------------
# relational operator parity (testdata tables)

def q_rel_groupby_agg(sf_dir: str):
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["rev_c"] = np.floor(df["l_extendedprice"].to_numpy()
                               * (1.0 - df["l_discount"].to_numpy())
                               * 100.0 + 0.5).astype(np.int64)
        df["qty"] = df["l_quantity"].astype(np.int64)
        g = (df.groupby(["l_returnflag", "l_linestatus"], sort=False)
               .agg(sum_qty=("qty", "sum"), sum_rev_c=("rev_c", "sum"),
                    n=("qty", "size")).reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (partials.groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                       Sum("sum_rev_c", alias_name="sum_rev_c"),
                       Sum("n", alias_name="n")))


def q_rel_top1_per_key(sf_dir: str):
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort")
        return pa.Table.from_pandas(df.drop_duplicates("o_custkey"),
                                    preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_totalprice", "o_orderkey"],
                            ascending=[True, False, True], kind="mergesort")
        return df.drop_duplicates("o_custkey")

    from .shuffle import grouped_map
    return grouped_map(partials, "o_custkey", final, group_fn=False)


def q_rel_anti_join(sf_dir: str):
    """Co-partitioned anti-join (customers with no order): tag + union
    the two key streams, ONE hash shuffle on the key, then emit probe
    keys whose partition holds no build-side row.  The build side is
    locally deduped map-side so the shuffle moves distinct keys, and no
    key set ever materializes on the driver (scales with partitions)."""
    import pyarrow.compute as pc

    from .shuffle import grouped_map

    def tag(col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch[col]
            if side == 1:  # build side: local distinct shrinks the shuffle
                keys = pc.unique(keys)
            return pa.table({"k": keys,
                             "_side": pa.array(
                                 np.full(len(keys), side, dtype=np.int8))})
        return fn

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"]).map_batches(tag("c_custkey", 0),
                                           batch_format="pyarrow")
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"]).map_batches(tag("o_custkey", 1),
                                           batch_format="pyarrow")

    def anti(df: pd.DataFrame) -> pa.Table:
        have = df.loc[df["_side"] == 1, "k"].unique()
        probe = df.loc[df["_side"] == 0, "k"]
        keep = probe[~probe.isin(have)].to_numpy()
        return pa.table({"c_custkey": pa.array(keep, pa.int64())})

    out = grouped_map(cust.union(orders), "k", anti, group_fn=False)
    # typed-empty guard WITHOUT driver row materialization: materialize
    # pins the blocks in the OBJECT STORE (not driver heap) so the
    # count and the consumer share one execution.  (An all-empty
    # Dataset would otherwise surface Ray's zero-column empty blocks —
    # the UDF is skipped on empty shuffle partitions — as a schema-less
    # frame at the comparison boundary.)
    out = out.materialize()
    if out.count() == 0:
        return pa.table({"c_custkey": pa.array([], pa.int64())})
    return out


def q_rel_topk_global(sf_dir: str, k: int = 10):
    """Global top-k (ORDER BY ... LIMIT k) without a global sort:
    per-batch partial top-k inside map_batches, then one tiny driver
    merge over (k × blocks) rows — the only rows that ever leave the
    workers."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True],
            kind="mergesort").head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    top = parts.sort_values(["o_totalprice", "o_orderkey"],
                            ascending=[False, True],
                            kind="mergesort").head(k).reset_index(drop=True)
    top["rnk"] = np.arange(1, len(top) + 1)
    return pa.table({
        "o_orderkey": pa.array(top["o_orderkey"].to_numpy(), pa.int64()),
        "rnk": pa.array(top["rnk"].to_numpy(), pa.int64())})


def q_rel_broadcast_join(sf_dir: str):
    """Broadcast hash join + map-side pre-aggregation: the small customer
    dimension is put into the object store ONCE (``ray.put``) and read by
    every task (worker-local fetch, cached) — no shuffle of the big
    orders side; per-batch partial aggregates then one tiny groupby over
    (segments × blocks) rows.  The canonical small-side join plan at
    100 TB (broadcast, never re-shipped per batch)."""
    import ray
    from ray.data.aggregate import Sum

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"]).to_pandas()
    lookup_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

    def partial(batch: pa.Table) -> pa.Table:
        lk = ray.get(lookup_ref)
        df = batch.to_pandas()
        seg = df["o_custkey"].map(lk)
        rev_c = np.floor(df["o_totalprice"].to_numpy() * 100.0
                         + 0.5).astype(np.int64)
        g = (pd.DataFrame({"c_mktsegment": seg, "rev_c": rev_c})
             .dropna(subset=["c_mktsegment"])  # inner-join semantics
             .groupby("c_mktsegment", sort=False)["rev_c"]
             .agg(["size", "sum"]).reset_index())
        return pa.table({
            "c_mktsegment": pa.array(g["c_mktsegment"], pa.string()),
            "n": pa.array(g["size"].to_numpy(), pa.int64()),
            "sum_rev_c": pa.array(g["sum"].to_numpy(), pa.int64())})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (partials.groupby("c_mktsegment")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_rev_c", alias_name="sum_rev_c")))


def q_rel_hash_join(sf_dir: str):
    """Generic large×large shuffle hash join (row-level inner join,
    neither side broadcastable): tag + union the two streams so the
    join costs exactly ONE co-partitioned shuffle on the key, then a
    vectorized pandas merge per partition.  This is the equi-join plan
    when both sides are big; the broadcast plan (rel_broadcast_join)
    and the salted rollup (tiles.rollup_counts_salted) cover the
    small-side and hot-key regimes."""
    from .shuffle import grouped_map

    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey"]).map_batches(
        lambda b: pa.table({
            "key": b["o_orderkey"].cast(pa.int64()),
            "a": b["o_custkey"].cast(pa.int64()),
            "_side": pa.array(np.zeros(len(b), np.int8))}),
        batch_format="pyarrow")
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_extendedprice"]) \
        .map_batches(
        lambda b: pa.table({
            "key": b["l_orderkey"].cast(pa.int64()),
            "a": (pa.compute.add(
                pa.compute.multiply(
                    b["l_linenumber"].cast(pa.int64()),
                    pa.scalar(10 ** 10, pa.int64())),
                pa.compute.round(pa.compute.multiply(
                    b["l_extendedprice"], pa.scalar(100.0)))
                .cast(pa.int64()))),
            "_side": pa.array(np.ones(len(b), np.int8))}),
        batch_format="pyarrow")

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("o_custkey", pa.int64()),
                            ("l_linenumber", pa.int64()),
                            ("price_cents", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        left = df.loc[df["_side"] == 0, ["key", "a"]] \
            .rename(columns={"a": "cust"})
        right = df.loc[df["_side"] == 1, ["key", "a"]]
        if left.empty or right.empty:
            return out_schema.empty_table()
        m = left.merge(right, on="key", how="inner")
        packed = m["a"].to_numpy(np.int64)
        return pa.table({
            "o_orderkey": pa.array(m["key"].to_numpy(np.int64)),
            "o_custkey": pa.array(m["cust"].to_numpy(np.int64)),
            "l_linenumber": pa.array(packed // 10 ** 10),
            "price_cents": pa.array(packed % 10 ** 10)})

    return grouped_map(od.union(li), "key", per_partition,
                       group_fn=False)


def q_rel_dense_daily(sf_dir: str, span_days: int = 40):
    """Calendar densification / gap fill: daily event counts per type
    with ZERO rows for missing days over the global [min_day,
    min_day+span) window — the generate_series operator Ray Data has
    no native analogue for.  The span anchor is a two-int driver
    aggregate (min day only — bounded, never the data); each type
    group then emits its dense span with zeros filled map-side after
    ONE type shuffle.  A fixed span keeps output size
    partitioning-independent."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "ts"])

    days = ds.map_batches(
        lambda b: pa.table({
            "event_type": b["event_type"],
            "day": pa.array(b["ts"].cast(pa.int64())
                            .to_numpy(zero_copy_only=False)
                            // 86_400_000_000)}),
        batch_format="pyarrow")
    # global anchor: a single int via a bounded min aggregate
    d0 = int(days.min("day"))

    out_schema = pa.schema([("event_type", pa.string()),
                            ("day", pa.int64()), ("n", pa.int64())])

    def densify(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        types, day_o, n_o = [], [], []
        full = np.arange(d0, d0 + span_days, dtype=np.int64)
        for t, g in df.groupby("event_type", sort=False):
            cnt = g.groupby("day").size()
            dense = cnt.reindex(full, fill_value=0)
            types.extend([t] * span_days)
            day_o.append(full)
            n_o.append(dense.to_numpy(np.int64))
        return pa.table({"event_type": pa.array(types, pa.string()),
                         "day": pa.array(np.concatenate(day_o)),
                         "n": pa.array(np.concatenate(n_o))})

    return grouped_map(days, "event_type", densify, group_fn=False)


def q_rel_region_rollup(sf_dir: str):
    """Three-hop dimension chain (customer→nation→region) rolled up to
    revenue per region name: both dimensions are broadcast ONCE
    (``ray.put`` of a composed custkey→region map built from the two
    tiny tables), the orders fact streams through map-side partial
    aggregation, and the final groupby moves ≤|regions| rows per
    block.  The star-schema plan at 100 TB: facts never shuffle."""
    import ray as _ray
    from ray.data.aggregate import Sum

    nat = ray.data.read_parquet(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"]).to_pandas()
    reg = ray.data.read_parquet(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"]).to_pandas()
    cus = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).to_pandas()
    n2r = dict(zip(nat["n_nationkey"], nat["n_regionkey"]))
    r2n = dict(zip(reg["r_regionkey"], reg["r_name"]))
    c2r = {int(c): r2n[n2r[int(n)]]
           for c, n in zip(cus["c_custkey"], cus["c_nationkey"])}
    ref = _ray.put(c2r)

    def partial(batch: pa.Table) -> pa.Table:
        lk = _ray.get(ref)
        df = batch.to_pandas()
        rname = df["o_custkey"].map(lk)
        cents = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        g = (pd.DataFrame({"r_name": rname, "c": cents})
             .groupby("r_name", sort=False)["c"]
             .agg(["size", "sum"]).reset_index())
        return pa.table({
            "r_name": pa.array(g["r_name"], pa.string()),
            "n": pa.array(g["size"].to_numpy(np.int64)),
            "rev": pa.array(g["sum"].to_numpy(np.int64))})

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])
    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("r_name")
            .aggregate(Sum("n", alias_name="n_orders"),
                       Sum("rev", alias_name="rev_cents"))
            .map_batches(lambda b: pa.table({
                "r_name": b["r_name"],
                "n_orders": b["n_orders"].cast(pa.int64()),
                "rev_cents": b["rev_cents"].cast(pa.int64())}),
                batch_format="pyarrow"))


def q_rel_pair_support(sf_dir: str):
    """Frequent-itemset support counting (A-priori's inner loop): for
    every unordered pair of event types, how many users have BOTH.
    ONE co-partitioned shuffle on the user; each group emits its
    distinct-type pairs (≤ C(|types|,2), bounded by the small type
    vocabulary, never by the user's event count), then a bounded
    groupby-SUM over pair keys.  The baskets-to-pairs explosion stays
    map-side — raw events are never reshuffled."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_type"])

    out_schema = pa.schema([("type_a", pa.string()),
                            ("type_b", pa.string()),
                            ("n", pa.int64())])

    def pairs(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        u = df.drop_duplicates(["user_id", "event_type"]) \
            .sort_values(["user_id", "event_type"], kind="mergesort")
        outs_a, outs_b = [], []
        for _, g in u.groupby("user_id", sort=False):
            t = g["event_type"].to_numpy()
            if len(t) < 2:
                continue
            iu = np.triu_indices(len(t), 1)
            outs_a.append(t[iu[0]])
            outs_b.append(t[iu[1]])
        if not outs_a:
            return out_schema.empty_table()
        a = np.concatenate(outs_a)
        b = np.concatenate(outs_b)
        d = (pd.DataFrame({"type_a": a, "type_b": b})
             .groupby(["type_a", "type_b"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({"type_a": pa.array(d["type_a"], pa.string()),
                         "type_b": pa.array(d["type_b"], pa.string()),
                         "n": pa.array(d["n"].to_numpy(np.int64))})

    partial = grouped_map(ds, "user_id", pairs, group_fn=False)
    return (partial.groupby(["type_a", "type_b"])
            .aggregate(Sum("n", alias_name="n_users"))
            .map_batches(lambda b: pa.table({
                "type_a": b["type_a"], "type_b": b["type_b"],
                "n_users": b["n_users"].cast(pa.int64())}),
                batch_format="pyarrow"))


def q_rel_pivot(sf_dir: str):
    """Crosstab / pivot: order counts by priority (rows) × status
    (columns), statuses pivoted into fixed columns.  Per-batch partial
    (priority, status) counts, ONE bounded groupby-SUM over ≤
    |priorities|×|statuses| rows, then a map-side pivot of the tiny
    merged table — the wide result never exists pre-aggregation."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_orderpriority",
                                        "o_orderstatus"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (df.groupby(["o_orderpriority", "o_orderstatus"],
                        sort=False).size().reset_index(name="n"))
        return pa.table({
            "prio": pa.array(g["o_orderpriority"], pa.string()),
            "status": pa.array(g["o_orderstatus"], pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64))})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["prio", "status"])
              .aggregate(Sum("n", alias_name="n")))

    out_schema = pa.schema([("o_orderpriority", pa.string()),
                            ("n_open", pa.int64()),
                            ("n_filled", pa.int64()),
                            ("n_pending", pa.int64())])

    def pivot(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        w = (df.pivot_table(index="prio", columns="status", values="n",
                            aggfunc="sum", fill_value=0)
             .reindex(columns=["O", "F", "P"], fill_value=0)
             .reset_index())
        return pa.table({
            "o_orderpriority": pa.array(w["prio"], pa.string()),
            "n_open": pa.array(w["O"].to_numpy(np.int64)),
            "n_filled": pa.array(w["F"].to_numpy(np.int64)),
            "n_pending": pa.array(w["P"].to_numpy(np.int64))})

    one = merged.map_batches(
        lambda b: b.append_column("_one", pa.array(
            np.zeros(len(b), np.int64))), batch_format="pyarrow")
    return grouped_map(one, "_one",
                       lambda df: pivot(df.drop(columns=["_one"])),
                       num_partitions=1, group_fn=False)


def _customer_spend(df: pd.DataFrame) -> pa.Table:
    """One key partition of the customer (``_side`` 0: key, nation) +
    order (``_side`` 1: key, cents) tagged union → per customer its
    nation and summed order cents.  Customers without orders get 0 by
    ``reindex`` — an int64 fill, so sums past 2^53 stay exact (a
    ``map().fillna(0)`` detours through float64 and rounds them)."""
    left = df.loc[df["_side"] == 0, ["key", "a"]]
    spend = (df.loc[df["_side"] == 1].groupby("key", sort=False)["a"].sum()
             .reindex(left["key"], fill_value=0))
    return pa.table({
        "c_custkey": pa.array(left["key"].to_numpy(np.int64)),
        "nation": pa.array(left["a"].to_numpy(np.int64)),
        "spend_c": pa.array(spend.to_numpy(np.int64))})


def _left_join_orders(df: pd.DataFrame) -> pa.Table:
    """Same partition shape as ``_customer_spend`` → per customer its
    nation, order count and summed cents, 0-filled in int64."""
    left = df.loc[df["_side"] == 0, ["key", "a"]]
    agg = (df.loc[df["_side"] == 1].groupby("key", sort=False)["a"]
           .agg(["size", "sum"]).reindex(left["key"], fill_value=0))
    return pa.table({
        "c_custkey": pa.array(left["key"].to_numpy(np.int64)),
        "c_nationkey": pa.array(left["a"].to_numpy(np.int64)),
        "n_orders": pa.array(agg["size"].to_numpy(np.int64)),
        "rev_cents": pa.array(agg["sum"].to_numpy(np.int64))})


def q_rel_above_group_avg(sf_dir: str):
    """Correlated-subquery analytic (customers whose total spend
    strictly exceeds their NATION's average customer spend) with the
    float-free trick: compare spend_c × n_nation > total_nation_c by
    integer cross-multiplication, so the distributed result is exact
    where an AVG division would wobble.  Plan: one customer-spend
    co-partitioned aggregate, one bounded nation rollup broadcast
    back — the big side is never reshuffled twice."""
    import ray as _ray
    from .shuffle import grouped_map

    cu = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pa.table({
            "key": b["c_custkey"].cast(pa.int64()),
            "a": b["c_nationkey"].cast(pa.int64()),
            "_side": pa.array(np.zeros(len(b), np.int8))}),
        batch_format="pyarrow")
    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda b: pa.table({
            "key": b["o_custkey"].cast(pa.int64()),
            "a": pa.compute.round(pa.compute.multiply(
                b["o_totalprice"], pa.scalar(100.0))).cast(pa.int64()),
            "_side": pa.array(np.ones(len(b), np.int8))}),
        batch_format="pyarrow")

    per_cust = grouped_map(cu.union(od), "key", _customer_spend,
                           group_fn=False).materialize()

    # nation totals are ≤ |nations| rows — aggregate then broadcast
    nat = per_cust.groupby("nation").aggregate(
        ray.data.aggregate.Sum("spend_c", alias_name="tot"),
        ray.data.aggregate.Count(alias_name="n"))
    nat_tbl = nat.to_pandas()
    ref = _ray.put({int(r.nation): (int(r.tot), int(r.n))
                    for r in nat_tbl.itertuples()})

    def flt(batch: pa.Table) -> pa.Table:
        lk = _ray.get(ref)
        nation = pd.Series(batch["nation"].to_numpy(
            zero_copy_only=False))
        spend_c = batch["spend_c"].to_numpy(zero_copy_only=False)
        tot = nation.map({k: v[0] for k, v in lk.items()}) \
            .to_numpy(np.int64)
        n = nation.map({k: v[1] for k, v in lk.items()}) \
            .to_numpy(np.int64)
        keep = spend_c * n > tot
        return pa.table({
            "c_custkey": batch["c_custkey"].filter(pa.array(keep)),
            "nation": batch["nation"].filter(pa.array(keep)),
            "spend_cents": pa.array(spend_c[keep])})

    return per_cust.map_batches(flt, batch_format="pyarrow")


def q_rel_union_sources(sf_dir: str):
    """Dataset-level set algebra in one pass: the distinct union of
    ordering customers and event users, each id flagged with its
    membership (in_orders, in_events) — union / intersect / except
    are all row filters of this output.  Map-side per-batch dedup,
    then ONE co-partitioned shuffle merging bit flags with a grouped
    max — the same two-phase plan ``distinct_on`` uses, never a
    per-group shuffle."""
    from .shuffle import grouped_map

    def tag(col: str, bit: int):
        def fn(b: pa.Table) -> pa.Table:
            ids = np.unique(b[col].to_numpy(zero_copy_only=False)
                            .astype(np.int64))
            return pa.table({
                "id": pa.array(ids),
                "flags": pa.array(np.full(len(ids), bit, np.int64))})
        return fn

    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey"]).map_batches(
        tag("o_custkey", 1), batch_format="pyarrow")
    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id"]).map_batches(
        tag("user_id", 2), batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return pa.table({"id": pa.array([], pa.int64()),
                             "in_orders": pa.array([], pa.int64()),
                             "in_events": pa.array([], pa.int64())})
        f = df["flags"].to_numpy(np.int64)
        d = pd.DataFrame({"id": df["id"].to_numpy(np.int64),
                          "b0": f & 1, "b1": (f >> 1) & 1})
        g = d.groupby("id", sort=False)[["b0", "b1"]].max()
        return pa.table({
            "id": pa.array(g.index.to_numpy(np.int64)),
            "in_orders": pa.array(g["b0"].to_numpy(np.int64)),
            "in_events": pa.array(g["b1"].to_numpy(np.int64))})

    return grouped_map(od.union(ev), "id", merge, group_fn=False)


def q_rel_left_join(sf_dir: str):
    """Left outer join at row level (every customer, their order count
    and revenue, zero-filled when no orders exist — the null-extension
    contract): same single tagged-union shuffle as rel_hash_join, but
    the per-partition merge is outer on the left side and emits 0
    sentinels instead of nulls so the distributed hash compare stays
    type-stable."""
    from .shuffle import grouped_map

    cu = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pa.table({
            "key": b["c_custkey"].cast(pa.int64()),
            "a": b["c_nationkey"].cast(pa.int64()),
            "_side": pa.array(np.zeros(len(b), np.int8))}),
        batch_format="pyarrow")
    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda b: pa.table({
            "key": b["o_custkey"].cast(pa.int64()),
            "a": pa.compute.round(pa.compute.multiply(
                b["o_totalprice"], pa.scalar(100.0))).cast(pa.int64()),
            "_side": pa.array(np.ones(len(b), np.int8))}),
        batch_format="pyarrow")

    return grouped_map(cu.union(od), "key", _left_join_orders,
                       group_fn=False)


def q_rel_moving_sum(sf_dir: str):
    """ROWS-frame window aggregate (the frame class the 7-day RANGE
    window doesn't cover): per customer, the rolling sum of the last 3
    orders' cents under a total (date, key) order.  ONE co-partitioned
    shuffle on the customer, then a vectorized cumsum-difference per
    group — no per-row loop, exact integers."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_orderdate",
                 "o_totalprice"])

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("moving_cents", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        cents = np.round(df["o_totalprice"].to_numpy() * 100) \
            .astype(np.int64)
        cs = np.concatenate(([0], cents.cumsum()))
        pos = np.arange(len(cents))
        grp_start = (df.groupby("o_custkey", sort=False).cumcount()
                     .to_numpy())
        lo = np.maximum(pos - 2, pos - grp_start)
        win = cs[pos + 1] - cs[lo]
        return pa.table({
            "o_orderkey": pa.array(df["o_orderkey"]
                                   .to_numpy(np.int64)),
            "moving_cents": pa.array(win)})

    return grouped_map(ds, "o_custkey", per_partition, group_fn=False)


def q_rel_first_event(sf_dir: str):
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                           kind="mergesort")
        return pa.Table.from_pandas(df.drop_duplicates("user_id"),
                                    preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        return df.drop_duplicates("user_id")[["user_id", "event_id"]]

    from .shuffle import grouped_map
    return grouped_map(partials, "user_id", final, group_fn=False)


def q_rel_asof_join(sf_dir: str):
    """As-of join (each event matched to the user's latest order at or
    before the event time): tag + union the two streams, ONE hash
    shuffle on the user key, then a vectorized ``merge_asof`` per
    partition — the backward-looking temporal join Ray Data lacks
    natively.  Deterministic tie-break: max order date, then max order
    key.  Partitioning assumption (documented): all rows of a user land
    in one partition."""
    from .shuffle import grouped_map

    def tag(side: int, key_col: str, ts_col: str, val_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                "user_id": batch[key_col].cast(pa.int64()),
                "ts": batch[ts_col],
                "k": batch[val_col].cast(pa.int64()),
                "_side": pa.array(
                    np.full(len(batch), side, dtype=np.int8))})
        return fn

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "ts"]).map_batches(
        tag(0, "user_id", "ts", "event_id"), batch_format="pyarrow")
    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_orderdate"]).map_batches(
        tag(1, "o_custkey", "o_orderdate", "o_orderkey"),
        batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        ev_df = (df.loc[df["_side"] == 0, ["user_id", "ts", "k"]]
                 .rename(columns={"k": "event_id"})
                 .sort_values("ts", kind="mergesort"))
        # nullable Int64: an unmatched event is <NA>, not a float NaN
        # that would round order keys past 2**53
        od_df = (df.loc[df["_side"] == 1, ["user_id", "ts", "k"]]
                 .astype({"k": "Int64"})
                 .rename(columns={"k": "o_orderkey"})
                 .sort_values(["ts", "o_orderkey"], kind="mergesort"))
        if ev_df.empty or od_df.empty:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "asof_orderkey": pa.array([], pa.int64())})
        m = pd.merge_asof(ev_df, od_df, on="ts", by="user_id",
                          direction="backward")
        m = m[m["o_orderkey"].notna()]
        return pa.table({
            "event_id": pa.array(m["event_id"].to_numpy(np.int64)),
            "asof_orderkey": pa.array(m["o_orderkey"].to_numpy(np.int64))})

    return grouped_map(ev.union(od), "user_id", per_partition,
                       group_fn=False)


def q_rel_funnel(sf_dir: str):
    """Ordered funnel analysis (view → click → purchase with strictly
    increasing timestamps): per user, the earliest view, the earliest
    click AFTER it, the earliest purchase AFTER that — the product
    analytics primitive SQL needs three chained self-joins for.  ONE
    co-partitioned shuffle on the user; per-key work is three
    vectorized masked mins.  Unreached stages emit -1 (epoch µs
    otherwise) so the row stays null-free for hashing."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "ts", "event_type"])
    ds = ds.map_batches(
        lambda b: b.filter(pa.compute.is_in(
            b["event_type"],
            value_set=pa.array(["view", "click", "purchase"]))),
        batch_format="pyarrow")

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("funnel_stage", pa.int64()),
                            ("t_view_us", pa.int64()),
                            ("t_click_us", pa.int64()),
                            ("t_purchase_us", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        rows = []
        for uid, g in df.groupby("user_id", sort=False):
            ts = g["ts"].astype("int64").to_numpy()  # epoch µs
            et = g["event_type"].to_numpy()
            v = ts[et == "view"]
            if not len(v):
                continue
            t1 = int(v.min())
            t2 = -1
            t3 = -1
            c = ts[(et == "click") & (ts > t1)]
            if len(c):
                t2 = int(c.min())
                p = ts[(et == "purchase") & (ts > t2)]
                if len(p):
                    t3 = int(p.min())
            stage = 1 + (t2 != -1) + (t3 != -1)
            rows.append((int(uid), stage, t1, t2, t3))
        if not rows:
            return out_schema.empty_table()
        cols = list(zip(*rows))
        return pa.table({f.name: pa.array(list(c), f.type)
                         for f, c in zip(out_schema, cols)})

    return grouped_map(ds, "user_id", per_partition, group_fn=False)


def q_rel_ntile(sf_dir: str):
    """NTILE(4) within each order priority, ordered by (total price,
    order key): the even-split window function — first n%4 buckets get
    the extra row, exactly SQL's contract.  ONE co-partitioned shuffle
    on the priority; per-key work is one lexsort + the closed-form
    bucket formula (no per-row loop)."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("quartile", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        keys = []
        quarts = []
        for _, g in df.groupby("o_orderpriority", sort=False):
            ok = g["o_orderkey"].to_numpy(np.int64)
            tp = g["o_totalprice"].to_numpy(np.float64)
            order = np.lexsort((ok, tp))
            n = len(ok)
            k, m = divmod(n, 4)
            r = np.arange(n, dtype=np.int64)
            big = m * (k + 1)
            q = np.where(r < big, r // (k + 1) if k + 1 else 0,
                         m + (r - big) // max(k, 1))
            keys.append(ok[order])
            quarts.append(q + 1)
        return pa.table({"o_orderkey": pa.array(np.concatenate(keys)),
                         "quartile": pa.array(np.concatenate(quarts))})

    return grouped_map(ds, "o_orderpriority", per_partition,
                       group_fn=False)


def q_rel_range_join(sf_dir: str, window_days: int = 30):
    """Pure range join (NO equi-key): per order, how many lineitems —
    any order's — shipped inside [o_orderdate, o_orderdate+30d).  The
    scalable plan Ray Data lacks natively: bucket time by the window
    width W, replicate each lineitem to buckets b(ship) and b(ship)-1
    (2× the small side, never a cross join), co-partition on the
    bucket, then one vectorized searchsorted per bucket group.  An
    order in bucket B finds its complete, deduplicated candidate set
    in the replicas TARGETED at B (ships with b∈{B,B+1} each target B
    exactly once — targeting, not raw bucket, is what makes the count
    exact when two buckets hash to one partition).  Counts are
    integers, so the distributed merge is order-insensitive."""
    from .shuffle import grouped_map
    W = np.int64(window_days) * 86_400_000_000  # window in epoch µs

    def orders_side(batch: pa.Table) -> pa.Table:
        ts = batch["o_orderdate"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return pa.table({
            "tb": pa.array(ts // W),
            "ts": pa.array(ts),
            "k": batch["o_orderkey"].cast(pa.int64()),
            "_side": pa.array(np.zeros(len(batch), np.int8))})

    def ship_side(batch: pa.Table) -> pa.Table:
        ts = batch["l_shipdate"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        b = ts // W
        return pa.table({
            "tb": pa.array(np.concatenate([b, b - 1])),
            "ts": pa.array(np.concatenate([ts, ts])),
            "k": pa.array(np.full(2 * len(ts), -1, np.int64)),
            "_side": pa.array(np.ones(2 * len(ts), np.int8))})

    od = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"]).map_batches(
        orders_side, batch_format="pyarrow")
    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate"]).map_batches(
        ship_side, batch_format="pyarrow")

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("n_in_window", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        keys = []
        cnts = []
        for _, g in df.groupby("tb", sort=False):
            o = g.loc[g["_side"] == 0]
            if o.empty:
                continue
            ships = np.sort(g.loc[g["_side"] == 1, "ts"]
                            .to_numpy(np.int64))
            ots = o["ts"].to_numpy(np.int64)
            lo = np.searchsorted(ships, ots, side="left")
            hi = np.searchsorted(ships, ots + W, side="left")
            keys.append(o["k"].to_numpy(np.int64))
            cnts.append(hi - lo)
        if not keys:
            return out_schema.empty_table()
        return pa.table({"o_orderkey": pa.array(np.concatenate(keys)),
                         "n_in_window": pa.array(
                             np.concatenate(cnts).astype(np.int64))})

    return grouped_map(od.union(li), "tb", per_partition,
                       group_fn=False)


def q_rel_quantile_sketch(sf_dir: str):
    """Mergeable fixed-bin quantile histogram (the 4th sketch beside
    HLL / CMS / Bloom): l_extendedprice in cents binned into 4096
    STATIC bins over [0, 12,000,000) — static bounds make partials
    from any partitioning merge to identical counts (the mergeability
    contract a data-dependent range would break).  Per-batch bincount
    partials, ONE bounded groupby-SUM (≤4096 rows), then the
    ε-approximate quantile = lower bound of the first bin whose
    cumulative count reaches ⌈q·n⌉, computed from the merged
    histogram.  ε = bin width / range = 1/4096."""
    from ray.data.aggregate import Sum
    NBINS = 4096
    LO, WIDTH = 0, 2930  # cents; static universe [0, 12,001,280)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                               columns=["l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        v = np.round(batch["l_extendedprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        b = np.clip((v - LO) // WIDTH, 0, NBINS - 1)
        cnt = np.bincount(b, minlength=NBINS)
        nz = np.flatnonzero(cnt)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "n": pa.array(cnt[nz].astype(np.int64))})

    hist = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bin").aggregate(Sum("n", alias_name="n")))

    def quantiles(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values("bin", kind="mergesort")
        c = df["n"].to_numpy(np.int64).cumsum()
        total = int(c[-1]) if len(c) else 0
        qs = [25, 50, 75, 90, 99]
        outs = []
        for q in qs:
            rank = -(-q * total // 100)  # ceil(q*n/100), exact int
            i = int(np.searchsorted(c, rank, side="left"))
            outs.append(int(df["bin"].to_numpy(np.int64)[i])
                        * WIDTH + LO)
        return pa.table({"q_pct": pa.array(qs, pa.int64()),
                         "approx_cents": pa.array(outs, pa.int64())})

    from .shuffle import grouped_map
    one = hist.map_batches(
        lambda b: b.append_column("_one", pa.array(
            np.zeros(len(b), np.int64))), batch_format="pyarrow")
    return grouped_map(one, "_one",
                       lambda df: quantiles(df.drop(columns=["_one"])),
                       num_partitions=1, group_fn=False)


def q_rel_cohort_retention(sf_dir: str):
    """Cohort retention matrix: customers grouped by first-order month
    (cohort), counted by months-elapsed at each subsequent order —
    (cohort_month, month_offset, n_customers).  ONE co-partitioned
    shuffle on the customer computes each customer's cohort and its
    distinct offsets locally (the skew-proof part: a customer's whole
    history is one group), then the merge groupby moves only bounded
    (cohort × offset) partial counts — never raw orders."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_orderdate"])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return pa.table({"cohort_month": pa.array([], pa.int64()),
                             "month_offset": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        d = pd.DataFrame({
            "cust": df["o_custkey"].to_numpy(np.int64),
            "ym": df["o_orderdate"].dt.year.to_numpy(np.int64) * 12
            + df["o_orderdate"].dt.month.to_numpy(np.int64) - 1})
        first = d.groupby("cust", sort=False)["ym"].transform("min")
        d["cohort"] = first
        d["off"] = d["ym"] - first
        u = d.drop_duplicates(["cust", "cohort", "off"])
        c = (u.groupby(["cohort", "off"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({
            "cohort_month": pa.array(c["cohort"].to_numpy(np.int64)),
            "month_offset": pa.array(c["off"].to_numpy(np.int64)),
            "n": pa.array(c["n"].to_numpy(np.int64))})

    partial = grouped_map(ds, "o_custkey", per_partition, group_fn=False)
    return (partial.groupby(["cohort_month", "month_offset"])
            .aggregate(Sum("n", alias_name="n_customers"))
            .map_batches(lambda b: pa.table({
                "cohort_month": b["cohort_month"],
                "month_offset": b["month_offset"],
                "n_customers": b["n_customers"].cast(pa.int64())}),
                batch_format="pyarrow"))


def q_rel_skyline(sf_dir: str):
    """2-D skyline (Pareto frontier) of orders minimizing
    (o_totalprice, o_orderdate): an order survives iff no other order
    is <= on both axes and < on at least one.  The distributed plan:
    per-batch local skyline (map-side prune — dominated rows never
    leave the block), then one single-partition merge whose input is
    only the union of block frontiers (frontier(∪ frontiers) ==
    global frontier, an algebraic identity).  Price is compared in
    exact cents (int64) so partial pruning is bit-stable."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_orderkey", "o_totalprice",
                                        "o_orderdate"])

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("price_cents", pa.int64()),
                            ("odate_us", pa.int64())])

    def skyline(price: np.ndarray, date: np.ndarray) -> np.ndarray:
        """Indices of non-dominated rows, fully vectorized: the UNIQUE
        (price, date) points sorted ascending survive iff their date
        beats the exclusive running-min date of all cheaper-or-equal
        points; every raw row matching a surviving point survives too
        (exact-tie points don't strictly dominate each other)."""
        dfl = pd.DataFrame({"p": price, "d": date,
                            "i": np.arange(len(price))})
        u = (dfl[["p", "d"]].drop_duplicates()
             .sort_values(["p", "d"], kind="mergesort"))
        cm = np.minimum.accumulate(u["d"].to_numpy())
        excl = np.concatenate(([np.iinfo(np.int64).max], cm[:-1]))
        su = u[u["d"].to_numpy() < excl]
        return dfl.merge(su, on=["p", "d"], how="inner")["i"] \
            .to_numpy()

    def local(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        price = np.round(batch["o_totalprice"].to_numpy(
            zero_copy_only=False) * 100).astype(np.int64)
        date = batch["o_orderdate"].cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        key = batch["o_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        idx = skyline(price, date)
        return pa.table({"o_orderkey": pa.array(key[idx]),
                         "price_cents": pa.array(price[idx]),
                         "odate_us": pa.array(date[idx])})

    def merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        idx = skyline(df["price_cents"].to_numpy(np.int64),
                      df["odate_us"].to_numpy(np.int64))
        s = df.iloc[idx]
        return pa.table({
            "o_orderkey": pa.array(s["o_orderkey"].to_numpy(np.int64)),
            "price_cents": pa.array(s["price_cents"]
                                    .to_numpy(np.int64)),
            "odate_us": pa.array(s["odate_us"].to_numpy(np.int64))})

    from .shuffle import grouped_map
    pruned = ds.map_batches(local, batch_format="pyarrow").map_batches(
        lambda b: b.append_column("_one", pa.array(
            np.zeros(len(b), np.int64))), batch_format="pyarrow")
    out = grouped_map(pruned, "_one",
                      lambda df: merge(df.drop(columns=["_one"])),
                      num_partitions=1, group_fn=False)
    return out


def q_rel_event_gaps(sf_dir: str):
    """Per-user inter-event gap statistics (count / min / max / sum of
    consecutive-event deltas in epoch µs): the LAG-window primitive,
    executed as ONE co-partitioned shuffle on the user + a vectorized
    np.diff per group.  All outputs are int64, so the result is
    bit-identical under any partitioning; the multiset of adjacent
    diffs of a ts-sorted stream is invariant to tie order, so equal
    timestamps can't destabilize the hash.  Users with a single event
    have no gaps and are absent, like the SQL's WHERE prev IS NOT
    NULL."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "ts"])

    out_schema = pa.schema([("user_id", pa.int64()),
                            ("n_gaps", pa.int64()),
                            ("min_gap_us", pa.int64()),
                            ("max_gap_us", pa.int64()),
                            ("sum_gap_us", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        rows_u, rows_n, rows_mn, rows_mx, rows_s = [], [], [], [], []
        for uid, g in df.groupby("user_id", sort=False):
            if len(g) < 2:
                continue
            ts = np.sort(g["ts"].astype("int64").to_numpy())
            d = np.diff(ts)
            rows_u.append(int(uid))
            rows_n.append(len(d))
            rows_mn.append(int(d.min()))
            rows_mx.append(int(d.max()))
            rows_s.append(int(d.sum()))
        return pa.table({
            "user_id": pa.array(rows_u, pa.int64()),
            "n_gaps": pa.array(rows_n, pa.int64()),
            "min_gap_us": pa.array(rows_mn, pa.int64()),
            "max_gap_us": pa.array(rows_mx, pa.int64()),
            "sum_gap_us": pa.array(rows_s, pa.int64())})

    return grouped_map(ds, "user_id", per_partition, group_fn=False)


def q_rel_event_transitions(sf_dir: str):
    """First-order Markov transition counts over per-user event streams
    ((prev type → type) ordered by (ts, event_id)): ONE co-partitioned
    shuffle on the user builds transitions locally, then the merge
    groupby moves only the (from, to) matrix — the sequence-analytics
    dual of the OD flow operator."""
    from .shuffle import grouped_map
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_id", "ts", "event_type"])

    out_schema = pa.schema([("from_type", pa.string()),
                            ("to_type", pa.string()),
                            ("n", pa.int64())])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        uid = df["user_id"].to_numpy()
        et = df["event_type"].to_numpy()
        same = uid[:-1] == uid[1:]
        if not same.any():
            return out_schema.empty_table()
        t = pd.DataFrame({"from_type": et[:-1][same],
                          "to_type": et[1:][same]})
        g = (t.groupby(["from_type", "to_type"], sort=False)
             .size().reset_index(name="n"))
        return pa.table({"from_type": pa.array(g["from_type"], pa.string()),
                         "to_type": pa.array(g["to_type"], pa.string()),
                         "n": pa.array(g["n"], pa.int64())})

    partial = grouped_map(ds, "user_id", per_partition, group_fn=False)
    return (partial.groupby(["from_type", "to_type"])
            .aggregate(Sum("n", alias_name="n")))


def q_rel_sessionize(sf_dir: str):
    """Ordered-window sessionization (30-minute inactivity gap): the
    stateful per-key windowed aggregate — co-partition by user, sort
    within partition, vectorized gap/cumsum session assignment.  One
    hash shuffle; no per-group materialization."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "event_id", "ts"])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        gap = (df["ts"] - df["ts"].shift()).dt.total_seconds()
        new_sess = ((df["user_id"] != df["user_id"].shift())
                    | (gap > 1800.0))
        sess = new_sess.cumsum()
        out = (pd.DataFrame({"user_id": df["user_id"].to_numpy(),
                             "_s": sess.to_numpy()})
               .groupby(["user_id", "_s"], sort=False)
               .size().rename("n_events").reset_index())
        out["session_idx"] = (out.groupby("user_id", sort=False)
                              .cumcount() + 1)
        return pa.table({
            "user_id": pa.array(out["user_id"].to_numpy(), pa.int64()),
            "session_idx": pa.array(out["session_idx"].to_numpy(),
                                    pa.int64()),
            "n_events": pa.array(out["n_events"].to_numpy(), pa.int64())})

    return grouped_map(ds, "user_id", per_partition, group_fn=False)


def q_rel_window_7d(sf_dir: str):
    """Trailing-7-day windowed aggregate per user: map-side per-(user,
    day) partial counts, ONE hash shuffle on the user key, then a
    vectorized calendar-range rolling sum per partition — the
    time-range window aggregate Ray Data lacks natively."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["day"] = df["ts"].dt.floor("D")
        g = (df.groupby(["user_id", "day"], sort=False)
             .size().rename("n").reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        g = (df.groupby(["user_id", "day"], sort=False)["n"].sum()
             .reset_index().sort_values(["user_id", "day"],
                                        kind="mergesort"))
        # pandas rolling('7D') is the half-open window (t-7d, t], which
        # at day granularity equals SQL RANGE 6 days PRECEDING..CURRENT
        roll = (g.set_index("day").groupby("user_id")
                .rolling("7D")["n"].sum())
        g["n7"] = roll.to_numpy().astype(np.int64)
        return pa.table({
            "user_id": pa.array(g["user_id"].to_numpy(), pa.int64()),
            "day": pa.array(g["day"].dt.strftime("%Y-%m-%d"),
                            pa.string()),
            "n7": pa.array(g["n7"].to_numpy(), pa.int64())})

    return grouped_map(partials, "user_id", per_partition,
                       group_fn=False)


def q_rel_events_daily(sf_dir: str):
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["day"] = df["ts"].dt.strftime("%Y-%m-%d")
        g = (df.groupby(["event_type", "day"], sort=False)
               .size().rename("n").reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (partials.groupby(["event_type", "day"])
            .aggregate(Sum("n", alias_name="n")))


def q_rel_distinct_per_key(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type: per-batch local dedup
    of (type, user) pairs (map-side combine — the shuffle moves one row
    per distinct pair per block, never the event stream), ONE
    co-partitioned shuffle on the type, per-partition nunique.  The
    approximate path at higher cardinality is the HLL sketch
    (ops/sketch.py); this is its exact counterpart."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "user_id"])

    def local_dedup(batch: pa.Table) -> pa.Table:
        return batch.group_by(["event_type", "user_id"]).aggregate([])

    out_schema = pa.schema([("event_type", pa.string()),
                            ("n_users", pa.int64())])

    def count_distinct(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        g = df.groupby("event_type", sort=False)["user_id"].nunique()
        return pa.table({
            "event_type": pa.array(g.index.to_numpy(), pa.string()),
            "n_users": pa.array(g.to_numpy(np.int64))})

    pairs = ds.map_batches(local_dedup, batch_format="pyarrow")
    return grouped_map(pairs, "event_type", count_distinct,
                       group_fn=False)


def q_rel_hourly_profile(sf_dir: str):
    """Hour-of-day activity profile per event type (the tumbling
    time-bucket aggregate over a cyclic key): per-batch pyarrow
    hash-agg partials on (type, hour), one 24×types-row groupby merge.
    Value sums are integer micro-units so they are exact."""
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = df["ts"].dt.hour.astype(np.int64)
        df["val_u"] = np.floor(
            df["value"].to_numpy() * 1e6 + 0.5).astype(np.int64)
        g = (df.groupby(["event_type", "hour"], sort=False)
             .agg(n=("val_u", "size"), val_u=("val_u", "sum"))
             .reset_index())
        return pa.table({
            "event_type": pa.array(g["event_type"], pa.string()),
            "hour": pa.array(g["hour"].to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "val_u": pa.array(g["val_u"].to_numpy(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["event_type", "hour"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("val_u", alias_name="val_u")))


def q_rel_mode_per_key(sf_dir: str):
    """Per-status modal order priority (the grouped MODE aggregate):
    map-side (status, priority) partial counts — the shuffle moves one
    row per distinct pair per block — one small groupby merge, then a
    vectorized top-1 per status with the (n desc, priority asc) tie
    order mirrored in the SQL window oracle."""
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderstatus", "o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
            [([], "count_all")])
        return t.rename_columns(["o_orderstatus", "o_orderpriority", "n"])

    merged = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(["o_orderstatus", "o_orderpriority"])
              .aggregate(Sum("n", alias_name="n"))).to_pandas()
    # the merged table is (statuses x priorities) rows — tiny at any
    # input scale, so the final top-1 runs on the driver
    top = merged.sort_values(["o_orderstatus", "n", "o_orderpriority"],
                             ascending=[True, False, True],
                             kind="mergesort").groupby(
        "o_orderstatus", sort=False).head(1)
    return pa.table({
        "o_orderstatus": pa.array(top["o_orderstatus"], pa.string()),
        "mode_priority": pa.array(top["o_orderpriority"], pa.string()),
        "n": pa.array(top["n"].to_numpy(np.int64))})


def q_rel_cumsum(sf_dir: str):
    """Per-customer running order total (SUM OVER (PARTITION BY customer
    ORDER BY date, key)): co-partition by customer, ONE hash shuffle,
    in-partition sort + vectorized grouped cumsum.  Integer cents
    end-to-end so every running prefix is bit-exact vs the SQL window
    oracle (no float summation-order risk)."""
    from .shuffle import grouped_map
    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_orderkey",
                                        "o_orderdate", "o_totalprice"])

    def add_cents(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table({
            "o_custkey": batch["o_custkey"],
            "o_orderkey": batch["o_orderkey"],
            "o_orderdate": batch["o_orderdate"],
            "cents": pa.array(np.floor(p * 100.0 + 0.5).astype(np.int64))})

    out_schema = pa.schema([("o_orderkey", pa.int64()),
                            ("run_cents", pa.int64())])

    def run(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        cum = df.groupby("o_custkey", sort=False)["cents"].cumsum()
        return pa.table({
            "o_orderkey": pa.array(df["o_orderkey"].to_numpy(), pa.int64()),
            "run_cents": pa.array(cum.to_numpy(), pa.int64())})

    cents = ds.map_batches(add_cents, batch_format="pyarrow")
    return grouped_map(cents, "o_custkey", run, group_fn=False)


def q_rel_semi_join(sf_dir: str):
    """Co-partitioned semi-join (customers WITH at least one finished
    'F' order): the dual of q_rel_anti_join — tag + union the two key
    streams, ONE hash shuffle, emit probe keys whose partition DOES
    hold a build-side row.  Build side is locally deduped map-side so
    the shuffle moves distinct keys; no key set on the driver."""
    import pyarrow.compute as pc

    from .shuffle import grouped_map

    def tag(col: str, side: int, pred=None):
        def fn(batch: pa.Table) -> pa.Table:
            if pred is not None:
                batch = pred(batch)
            keys = batch[col]
            if side == 1:
                keys = pc.unique(keys)
            return pa.table({"k": keys,
                             "_side": pa.array(
                                 np.full(len(keys), side, dtype=np.int8))})
        return fn

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey"]).map_batches(tag("c_custkey", 0),
                                           batch_format="pyarrow")
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderstatus"]).map_batches(
        tag("o_custkey", 1,
            pred=lambda b: b.filter(
                pc.equal(b["o_orderstatus"], "F"))),
        batch_format="pyarrow")

    def semi(df: pd.DataFrame) -> pa.Table:
        have = df.loc[df["_side"] == 1, "k"]
        probe = df.loc[df["_side"] == 0, "k"]
        keep = probe[probe.isin(have)].to_numpy()
        return pa.table({"c_custkey": pa.array(keep, pa.int64())})

    out = grouped_map(cust.union(orders), "k", semi, group_fn=False)
    out = out.materialize()
    if out.count() == 0:
        return pa.table({"c_custkey": pa.array([], pa.int64())})
    return out


def q_rel_grouping_sets(sf_dir: str):
    """GROUPING SETS ((status, priority), (status), ()) in ONE input
    pass: every batch emits map-side partial aggregates at all three
    granularities (rolled-up keys take the '(all)' sentinel), then one
    small groupby merges the partials — the multi-granularity rollup
    costs one scan plus a (distinct groups × blocks)-sized shuffle
    instead of three separate jobs over the full table."""
    from ray.data.aggregate import Sum
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"])

    out_schema = pa.schema([("o_orderstatus", pa.string()),
                            ("o_orderpriority", pa.string()),
                            ("sum_c", pa.int64()), ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return out_schema.empty_table()
        df = batch.to_pandas()
        df["cents"] = np.floor(
            df["o_totalprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        outs = []
        for keys in (["o_orderstatus", "o_orderpriority"],
                     ["o_orderstatus"], []):
            if keys:
                g = (df.groupby(keys, sort=False)["cents"]
                     .agg(sum_c="sum", n="size").reset_index())
            else:
                g = pd.DataFrame({"sum_c": [df["cents"].sum()],
                                  "n": [len(df)]})
            for col in ("o_orderstatus", "o_orderpriority"):
                if col not in g.columns:
                    g[col] = "(all)"
            outs.append(g[["o_orderstatus", "o_orderpriority",
                           "sum_c", "n"]])
        allp = pd.concat(outs, ignore_index=True)
        return pa.table({
            "o_orderstatus": pa.array(allp["o_orderstatus"], pa.string()),
            "o_orderpriority": pa.array(allp["o_orderpriority"],
                                        pa.string()),
            "sum_c": pa.array(allp["sum_c"].to_numpy(), pa.int64()),
            "n": pa.array(allp["n"].to_numpy(), pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return (partials.groupby(["o_orderstatus", "o_orderpriority"])
            .aggregate(Sum("sum_c", alias_name="sum_c"),
                       Sum("n", alias_name="n")))


# ---------------------------------------------------------------------------
# document / embedding ops (testdata tables)

def _doc_texts(sf_dir: str) -> "ray.data.Dataset":
    """The (doc_id, text) columns of the documents table."""
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=["doc_id", "text"])


def q_doc_dedup_exact(sf_dir: str):
    from .ops.dedup import exact_duplicates
    ds = _doc_texts(sf_dir)
    pdf = exact_duplicates(ds).to_pandas()
    if pdf.empty:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "keeper_id": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf[["doc_id", "keeper_id"]],
                                preserve_index=False)


def q_doc_token_stats(sf_dir: str):
    from .ops.text import token_stats
    ds = _doc_texts(sf_dir)
    out = ds.map_batches(token_stats, batch_format="pyarrow")

    def punct(batch: pa.Table) -> pa.Table:
        from .ops.text import _PUNCT  # re.ASCII — matches the RE2 oracle
        n_punct = [len(_PUNCT.findall(t or ""))
                   for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "n_tokens": batch["n_tokens"],
                         "n_chars_calc": batch["n_chars_calc"],
                         "n_punct": pa.array(n_punct, pa.int64())})

    return out.map_batches(punct, batch_format="pyarrow")


def q_doc_quality(sf_dir: str):
    from .ops.text import quality_score
    ds = _doc_texts(sf_dir)
    out = ds.map_batches(quality_score, batch_format="pyarrow")
    return out.select_columns(["doc_id", "quality"])


def q_doc_langid(sf_dir: str):
    from .ops.text import LangId
    ds = _doc_texts(sf_dir)
    out = ds.map_batches(LangId, batch_format="pyarrow", concurrency=2)
    # conf in integer basis points: both sides compute the same double
    # division then floor, so the value hash is rounding-mode-proof
    return out.select_columns(["doc_id", "lang_pred", "lang_conf_bp"])


def q_doc_fingerprint(sf_dir: str):
    from .ops.text import rolling_fingerprint
    ds = _doc_texts(sf_dir)
    out = ds.map_batches(rolling_fingerprint, batch_format="pyarrow")
    return out.select_columns(["doc_id", "fingerprint"])


def q_doc_vocab_topk(sf_dir: str, k: int = 50):
    """Corpus top-k vocabulary via map-side combine (ONE (token, n) row
    per distinct token per batch) -> small groupby -> partial-top-k
    merge; ties at the cut resolved by (n desc, token asc) on both
    sides so the hash compare is deterministic."""
    from .ops.text import vocab_topk
    ds = _doc_texts(sf_dir)
    return vocab_topk(ds, k=k)


def q_doc_hll_registers(sf_dir: str):
    """HyperLogLog registers (p=10) over the corpus token vocabulary —
    the sketch ITSELF is compared, not the estimate: registers are
    deterministic given the md5_number_upper hash, so DuckDB recomputes
    every (bucket, max rho) row bit-for-bit."""
    from .ops.sketch import hll_registers
    ds = _doc_texts(sf_dir)
    return hll_registers(ds, p=10)


def q_doc_cms_registers(sf_dir: str):
    """Count-min sketch (depth 4 × width 512) over corpus token counts —
    the additive dual of the HLL oracle above: per-batch partials, one
    bounded groupby-SUM merge (≤ depth×width rows per block at ANY
    corpus size), and the REGISTERS are compared bit-for-bit (hash r of
    a token = md5_number_upper(r || '|' || token) % width on both
    sides)."""
    from .ops.sketch import cms_registers
    ds = _doc_texts(sf_dir)
    return cms_registers(ds, depth=4, width=512)


def q_doc_bloom_bits(sf_dir: str):
    """Bloom filter bits (3 hashes × 4096 bits) over the corpus token
    vocabulary — the membership member of the sketch trio; the SET bit
    positions themselves are compared (md5_number_upper hash convention
    shared with CMS), merged by one bounded distinct."""
    from .ops.sketch import bloom_bits
    ds = _doc_texts(sf_dir)
    return bloom_bits(ds, n_hashes=3, m_bits=4096)


def q_geo_hilbert_ranges(sf_dir: str):
    """Range partitioning ON the Hilbert key, measured: every place maps
    to one of 8 equal hilbert_d ranges and each range reports (n, µdeg
    bbox) — the partition-compactness evidence for the 100-TB layout
    (equal Z-order ranges produce split neighborhoods; Hilbert ranges
    stay spatially tight).  Map-side partial aggregates + one ≤8-row
    groupby merge; all int64."""
    from .cells import hilbert_from_xy, quad_xy
    from ray.data.aggregate import Max, Min, Sum
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "gazetteer.parquet"),
                               columns=["place_id", "lat", "lon"])
    order = 13

    def hd_batch(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        x, y = quad_xy(lat, lon, order)
        return pa.table({"hx": pa.array(x), "hy": pa.array(y),
                         "hilbert_d": pa.array(
                             hilbert_from_xy(x, y, order))})

    hil = ds.map_batches(hd_batch, batch_format="pyarrow")
    # pass 1: the occupied d-span (two ints to the driver) — a regional
    # dataset occupies a sliver of the global curve, so ranges are cut
    # over the span, not the globe
    span = hil.aggregate(Min("hilbert_d"), Max("hilbert_d"))
    d0 = int(span["min(hilbert_d)"])
    width = int(span["max(hilbert_d)"]) - d0 + 1

    def part(batch: pa.Table) -> pa.Table:
        hd = batch["hilbert_d"].to_numpy(zero_copy_only=False)
        x = batch["hx"].to_numpy(zero_copy_only=False)
        y = batch["hy"].to_numpy(zero_copy_only=False)
        rng = ((hd - np.int64(d0)) * np.int64(8)) // np.int64(width)
        return pa.table({"h_range": pa.array(rng),
                         "n": pa.array(np.ones(len(rng), np.int64)),
                         "min_x": pa.array(x), "max_x": pa.array(x),
                         "min_y": pa.array(y), "max_y": pa.array(y)})

    return (hil.map_batches(part, batch_format="pyarrow")
            .groupby("h_range")
            .aggregate(Sum("n", alias_name="n"),
                       Min("min_x", alias_name="min_x"),
                       Max("max_x", alias_name="max_x"),
                       Min("min_y", alias_name="min_y"),
                       Max("max_y", alias_name="max_y")))


def q_doc_length_quantiles(sf_dir: str):
    """Exact corpus length quantiles from per-batch (length, count)
    partial histograms: the shuffle moves one row per distinct length
    per block, never per document — scale-safe at any corpus size.
    Quantile definition = DuckDB quantile_disc (smallest value whose
    cumulative count reaches ceil(q*n))."""
    from .ops.text import length_quantiles
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])
    return length_quantiles(ds)


def q_doc_sample_per_lang(sf_dir: str, k: int = 5):
    """Deterministic stratified sample: k docs per language by smallest
    md5(doc_id) — content-addressed (same sample on any cluster
    topology / rerun), no RNG state, exactly SQL-replicable."""
    from .ops.sample import deterministic_sample_per_key
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "lang"])
    return deterministic_sample_per_key(ds, "lang", "doc_id", k)


def q_doc_minhash_pairs(sf_dir: str):
    from .ops.dedup import minhash_lsh_pairs
    ds = _doc_texts(sf_dir)
    pdf = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    if pdf.empty:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf[["id_a", "id_b"]], preserve_index=False)


def q_doc_dup_clusters(sf_dir: str):
    """Near-dup CLUSTER labels (round 3): MinHash-LSH pairs fed through
    iterative min-label connected components — (doc_id, comp) where comp
    is the smallest doc id in the duplicate cluster.  The oracle
    recomputes the full transitive closure with a recursive CTE over the
    SQL-recomputed pair list, so a missed edge, an extra edge, or an
    under-propagated label all hash-mismatch."""
    from .ops.dedup import connected_components, minhash_lsh_pairs
    ds = _doc_texts(sf_dir)
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    comp = connected_components(pairs).to_pandas()
    if comp.empty:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "comp": pa.array([], pa.int64())})
    comp = comp.rename(columns={"node": "doc_id"})
    return pa.Table.from_pandas(comp[["doc_id", "comp"]],
                                preserve_index=False)


def q_doc_dedup_near(sf_dir: str):
    """End-to-end near-dedup survivors (round 3): MinHash pairs →
    connected components → keep each cluster's min-id doc + all
    unclustered docs, via a broadcast drop-set filter (no corpus
    shuffle).  Oracle: documents anti-joined against the recursive-CTE
    closure's non-canonical nodes."""
    from .ops.dedup import (connected_components, keep_canonical,
                            minhash_lsh_pairs)
    ds = _doc_texts(sf_dir)
    pairs = minhash_lsh_pairs(ds, threshold=0.5)
    comp = connected_components(pairs)
    kept = keep_canonical(ds, comp).select_columns(["doc_id"])
    return kept


def q_doc_simhash_pairs(sf_dir: str):
    from .ops.dedup import simhash_pairs
    ds = _doc_texts(sf_dir)
    pdf = simhash_pairs(ds, max_hamming=3).to_pandas()
    if pdf.empty:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64()),
                         "hamming": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf, preserve_index=False)


def q_doc_curation(sf_dir: str):
    """Training-data curation composite (round 3): content-hash exact
    dedup (keeper = min doc_id), quality floor (>= 0.7), language ID,
    then a per-language rollup of document and token counts — the
    C4/Gopher-style curation chain as ONE streaming pipeline.  Exactly
    one shuffle (the content-key dedup through ``grouped_map``); the
    final rollup moves only per-batch partials (3 langs x blocks
    rows).  Every kernel is individually SQL-oracled (doc_quality /
    doc_langid / doc_dedup_exact / doc_token_stats); this query oracles
    their COMPOSITION."""
    from ray.data.aggregate import Sum

    from .ops.text import LangId, content_md5, quality_score, token_stats
    from .shuffle import grouped_map
    ds = _doc_texts(sf_dir)

    def annotate(batch: pa.Table) -> pa.Table:
        batch = content_md5(batch)
        batch = quality_score(batch)
        batch = token_stats(batch)
        # map-side combine for the dedup shuffle: keep the min-doc_id
        # row per content key within the batch
        df = batch.to_pandas().sort_values("doc_id", kind="mergesort")
        df = df.drop_duplicates("content_key")
        return pa.Table.from_pandas(df[["doc_id", "text", "content_key",
                                        "quality", "n_tokens"]],
                                    preserve_index=False)

    ann = ds.map_batches(annotate, batch_format="pyarrow")
    kept = grouped_map(
        ann, "content_key",
        lambda df: df.sort_values("doc_id", kind="mergesort")
                     .drop_duplicates("content_key"),
        group_fn=False)
    good = kept.map_batches(
        lambda b: b.filter(pa.compute.greater_equal(b["quality"], 0.7)),
        batch_format="pyarrow")
    langed = good.map_batches(LangId, batch_format="pyarrow",
                              concurrency=2)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby("lang_pred").agg(
            n_docs=("doc_id", "size"),
            total_tokens=("n_tokens", "sum")).reset_index()
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (langed.map_batches(partial, batch_format="pyarrow")
           .groupby("lang_pred")
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Sum("total_tokens", alias_name="total_tokens")))
    pdf = out.to_pandas()
    return pa.table({
        "lang_pred": pa.array(pdf["lang_pred"].astype(str), pa.string()),
        "n_docs": pa.array(pdf["n_docs"].astype("int64"), pa.int64()),
        "total_tokens": pa.array(pdf["total_tokens"].astype("int64"),
                                 pa.int64())})


def q_doc_ngram_jaccard(sf_dir: str):
    from .ops.dedup import ngram_jaccard_pairs
    ds = _doc_texts(sf_dir)
    pdf = ngram_jaccard_pairs(ds, threshold=0.6).to_pandas()
    if pdf.empty:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf[["id_a", "id_b"]], preserve_index=False)


def q_doc_repetition(sf_dir: str):
    """Gopher-style repetition quality signals (top-bigram share +
    duplicate-bigram share, integer basis points) — embarrassingly
    parallel per-document map, no shuffle at any scale."""
    from .ops.curation import repetition_signals
    ds = _doc_texts(sf_dir)
    out = ds.map_batches(repetition_signals, batch_format="pyarrow")
    return out.select_columns(["doc_id", "top_bigram_bp", "dup_bigram_bp"])


def q_doc_decontaminate(sf_dir: str, n: int = 4):
    """Benchmark decontamination: flag corpus docs sharing >= 1 word
    4-gram with the benchmark set (here the ``doc_id % 20 == 7`` slice
    stands in for the external eval set, derived identically on both
    sides).  Benchmark grams are collected once (bounded by benchmark
    size), ``ray.put`` broadcast, and membership-checked worker-locally
    — the corpus side never shuffles."""
    import ray

    from .ops.curation import benchmark_gram_hashes, decontaminate
    ds = _doc_texts(sf_dir)

    def bench_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 20 == 7))

    bench = ds.map_batches(bench_only, batch_format="pyarrow")
    ref = ray.put(benchmark_gram_hashes(bench, n=n))
    return decontaminate(ds, ref, n=n)


def q_doc_pii_scrub(sf_dir: str):
    """PII scrub parity check: the corpus has no PII, so both sides
    append identical synthetic PII derived from ``doc_id`` (email /
    phone / IP present or absent by doc_id residue), then the engine's
    regex redaction is verified byte-for-byte via md5 of the scrubbed
    text plus per-kind match counts.  Stateless map, no shuffle."""
    import hashlib as _hl

    from .ops.curation import pii_scrub
    ds = _doc_texts(sf_dir)

    def augment(batch: pa.Table) -> pa.Table:
        aug = []
        for d, t in zip(batch["doc_id"].to_pylist(),
                        batch["text"].to_pylist()):
            s = t or ""
            if d % 4 != 1:
                s += f" contact user{d}@mail.example"
            if d % 3 != 2:
                s += f" tel 0{d % 100:02d}-{d % 1000:03d}-{d % 10000:04d}"
            if d % 5 != 3:
                s += f" ip 10.{d % 256}.{(d // 7) % 256}.{d % 100}"
            aug.append(s)
        return pa.table({"doc_id": batch["doc_id"],
                         "text": pa.array(aug, pa.string())})

    def finish(batch: pa.Table) -> pa.Table:
        md5s = [_hl.md5(s.encode("utf-8")).hexdigest()
                for s in batch["scrubbed"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"],
                         "n_emails": batch["n_emails"],
                         "n_ips": batch["n_ips"],
                         "n_phones": batch["n_phones"],
                         "scrubbed_md5": pa.array(md5s, pa.string())})

    return (ds.map_batches(augment, batch_format="pyarrow")
              .map_batches(pii_scrub, batch_format="pyarrow")
              .map_batches(finish, batch_format="pyarrow"))


def q_doc_chunk(sf_dir: str):
    """Sliding-window chunking (64-token windows, stride 48): stateless
    flat map, chunk content verified via md5 of the rejoined window."""
    from .ops.curation import chunk_documents
    ds = _doc_texts(sf_dir)
    return ds.map_batches(chunk_documents, batch_format="pyarrow")


def q_doc_tfidf_top(sf_dir: str):
    """Per-doc top-3 terms by reciprocal-df tf-idf: corpus df via
    map-side combine (vocabulary-sized shuffle), df table broadcast via
    ``ray.put``, then one stateless pass over the corpus."""
    import ray

    from .ops.text import doc_frequencies, tfidf_top_terms
    ds = _doc_texts(sf_dir)
    df_pdf = doc_frequencies(ds).to_pandas()
    dfs = dict(zip(df_pdf["token"], df_pdf["sum(df)"].astype(int)))
    ref = ray.put(dfs)
    return tfidf_top_terms(ds, ref, n_top=3)


def q_doc_importance_sample(sf_dir: str):
    """Length-proportional deterministic resample: each doc survives
    with probability min(1, n_tokens/100), decided by its content hash
    (ops/sample.hash_weighted_keep) — the weighted-resampling shape a
    curation pipeline uses to rebalance a corpus (any oracled per-doc
    signal can be the weight; token count exercises the filter since
    the synthetic corpus spans 10-99 tokens).  The SQL oracle
    recomputes the exact survivor set from the same tokenizer and the
    same hex-parsed md5 coin."""
    from .ops.sample import hash_weighted_keep
    from .ops.text import token_stats
    ds = _doc_texts(sf_dir)

    def add_qbp(batch: pa.Table) -> pa.Table:
        n = batch["n_tokens"].to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch["doc_id"],
            "qbp": pa.array(np.minimum(n * 10, 1000).astype(np.int64))})

    scored = ds.map_batches(token_stats, batch_format="pyarrow") \
               .map_batches(add_qbp, batch_format="pyarrow")
    return hash_weighted_keep(scored, "doc_id", "qbp")


def q_doc_split(sf_dir: str):
    """Deterministic 80/10/10 train/val/test split by content hash
    (ops/sample.content_split): split = md5(id) bucketed by cumulative
    weights — rerun/topology/resume-invariant, no RNG state; the SQL
    oracle recomputes every row's bucket from the same big-endian
    lower-64 md5 value."""
    from .ops.sample import content_split
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id"])
    return content_split(ds, "doc_id")


def q_doc_bpe_merges(sf_dir: str):
    """Corpus top-30 adjacent token pairs — one BPE tokenizer-training
    merge round's statistic (ops/text.bigram_topk): map-side pair
    combine, vocabulary-sized shuffle, partial-top-k driver merge."""
    from .ops.text import bigram_topk
    ds = _doc_texts(sf_dir)
    return bigram_topk(ds, k=30)


def q_doc_familiarity(sf_dir: str):
    """Per-doc unigram-LM familiarity (sum of corpus occurrence counts
    over the doc's tokens, integer-exact): corpus counts via map-side
    combine, ``ray.put`` broadcast, one stateless corpus pass."""
    import ray

    from .ops.text import corpus_token_counts, unigram_familiarity
    ds = _doc_texts(sf_dir)
    cnt_pdf = corpus_token_counts(ds).to_pandas()
    counts = dict(zip(cnt_pdf["token"], cnt_pdf["sum(n)"].astype(int)))
    ref = ray.put(counts)
    return unigram_familiarity(ds, ref)


def q_doc_dup_spans(sf_dir: str):
    """Exact substring dedup signal: 16-token grams present in >= 2
    distinct documents, via map-side per-doc combine + ONE gram-hash
    shuffle (sampled-anchor knob documented for the 100 TB path)."""
    from .ops.dedup import duplicate_spans
    ds = _doc_texts(sf_dir)
    pdf = duplicate_spans(ds, n=16).to_pandas()
    if pdf.empty:   # all-empty grouped result loses its schema
        return pa.table({"gram_md5": pa.array([], pa.string()),
                         "n_docs": pa.array([], pa.int64()),
                         "n_occ": pa.array([], pa.int64()),
                         "min_id": pa.array([], pa.int64())})
    return pa.Table.from_pandas(
        pdf[["gram_md5", "n_docs", "n_occ", "min_id"]],
        preserve_index=False)


def _first_queries(sf_dir: str, n=5) -> np.ndarray:
    # row-filter pushdown: only the n query vectors leave storage — the
    # driver never reads the full embeddings table (scale rule)
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", n)])
    pdf = t.to_pandas().sort_values("vec_id")
    return np.array(pdf["embedding"].tolist(), dtype=np.float64)


def q_emb_topk_brute(sf_dir: str):
    from .ops.similarity import topk_cosine_brute
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    out = topk_cosine_brute(ds, _first_queries(sf_dir), k=5).to_pandas()
    out = out[["query_id", "vec_id", "rank"]].rename(columns={"rank": "rnk"})
    return pa.Table.from_pandas(out, preserve_index=False)


def q_emb_knn_graph(sf_dir: str):
    """All-pairs kNN graph (round 3): every vector's 3 nearest other
    vectors by cosine, via the broadcast-reference blocked matmul
    (ops/similarity.knn_graph).  Oracled against a SQL self-join window
    — cosine-desc / id-asc tie-break on both sides."""
    from .ops.similarity import knn_graph
    path = os.path.join(sf_dir, "embeddings.parquet")
    ref = pq.read_table(path, columns=["vec_id", "embedding"]).to_pandas()
    ref = ref.sort_values("vec_id")
    mat = np.array(ref["embedding"].tolist(), dtype=np.float64)
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    out = knn_graph(ds, ref["vec_id"].to_numpy(), mat, k=3).to_pandas()
    out = out[["src_id", "nbr_id", "rank"]].rename(columns={"rank": "rnk"})
    return pa.Table.from_pandas(out, preserve_index=False)


def q_emb_knn_graph_ivf(sf_dir: str):
    """Scale-path kNN graph (round-4: the broadcast plan is demoted to
    the small-side fast path — this is the default above the object-
    store guard).  FULL content oracle via the codebook-as-parameter
    pattern (emb_topk_ivf): the snapshotted centroids let DuckDB
    recompute the entire bucketed search from the raw embeddings —
    home-bucket assignment per vector, n_probe probe set per source,
    exact top-k among candidates whose home bucket is probed, ties
    (cosine desc, id asc) mirrored on both sides."""
    from .ops.similarity import _normalize, kmeans_lite, knn_graph_bucketed
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    sample = pq.read_table(path, columns=["vec_id", "embedding"],
                           filters=[("vec_id", "<", 256)]
                           ).to_pandas().sort_values("vec_id")
    mat = np.array(sample["embedding"].tolist(), dtype=np.float64)
    cents = kmeans_lite(mat, n_clusters=8)
    cn = _normalize(np.asarray(cents, dtype=np.float64))
    _write_snapshot(pa.table({
        "cent_id": pa.array(range(len(cn)), pa.int64()),
        "vec": pa.array([row.tolist() for row in cn],
                        pa.list_(pa.float64()))}), sf_dir,
        "knn_graph_centroids")
    out = knn_graph_bucketed(ds, cents, k=3, n_probe=3).to_pandas()
    out = out[["src_id", "nbr_id", "rank"]].rename(columns={"rank": "rnk"})
    return pa.Table.from_pandas(out.sort_values(["src_id", "rnk"]),
                                preserve_index=False)


def q_emb_knn_graph_ivf_recall(sf_dir: str):
    """Recall oracle for the bucketed kNN graph: per source, how many of
    its bucketed top-3 appear in the EXACT top-3 (the engine intersects
    its own two plans; SQL intersects the snapshotted bucketed rows with
    a windowed exact top-3 from the raw embeddings)."""
    ivf = q_emb_knn_graph_ivf(sf_dir)
    _write_snapshot(ivf, sf_dir, "knn_graph_ivf_input")
    exact = q_emb_knn_graph(sf_dir).to_pandas()
    iv = ivf.to_pandas()
    hits = iv.merge(exact, on=["src_id", "nbr_id"]).groupby(
        "src_id").size()
    srcs = sorted(iv["src_id"].unique())
    return pa.table({
        "src_id": pa.array([int(s) for s in srcs], pa.int64()),
        "n_hits": pa.array([int(hits.get(s, 0)) for s in srcs],
                           pa.int64())})


def q_emb_topk_ivf(sf_dir: str):
    """IVF ANN with a FULL content oracle (round 3 closes the last
    similarity `no_oracle`): the k-means codebook is a PARAMETER of the
    search, not its correctness — so the engine's (normalized) centroids
    are snapshotted, and DuckDB recomputes the entire IVF search from
    the raw embeddings given that codebook: nearest-centroid assignment
    per vector, n_probe nearest centroids per query, exact top-k within
    the probed lists — tie-breaks (cosine desc, id asc) mirrored on both
    sides.  A wrong assignment, probe set, or rank hash-mismatches."""
    from .ops.similarity import _normalize, kmeans_lite, topk_cosine_ivf
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    # deterministic bounded codebook sample: row-filter pushdown on the
    # key (ds.limit() truncates by block ARRIVAL order, so the codebook
    # — and hence the IVF output — would vary run to run)
    sample = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                           columns=["vec_id", "embedding"],
                           filters=[("vec_id", "<", 256)]
                           ).to_pandas().sort_values("vec_id")
    mat = np.array(sample["embedding"].tolist(), dtype=np.float64)
    cents = kmeans_lite(mat, n_clusters=8)
    # snapshot the codebook exactly as the op will use it (re-normalized)
    cn = _normalize(np.asarray(cents, dtype=np.float64))
    _write_snapshot(pa.table({
        "cent_id": pa.array(range(len(cn)), pa.int64()),
        "vec": pa.array([row.tolist() for row in cn],
                        pa.list_(pa.float64()))}), sf_dir, "ivf_centroids")
    out = topk_cosine_ivf(ds, _first_queries(sf_dir), cents, k=5,
                          n_probe=4).to_pandas()
    return pa.Table.from_pandas(out[["query_id", "vec_id", "rank"]]
                                .rename(columns={"rank": "rnk"}),
                                preserve_index=False)


def _pq_books(sf_dir: str) -> "np.ndarray":
    """Deterministic PQ codebooks (round 5: STREAMED sample fit — the
    512-vector fit sample is selected distributed by content-addressed
    md5 rank, so the fit input never assumes driver or single-node
    memory at corpus scale; ops/similarity.pq_fit_streamed), m=8
    subspaces, 16 codes."""
    from .ops.similarity import pq_fit_streamed
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    return pq_fit_streamed(ds, m=8, n_codes=16, sample_size=512)


def _pq_snapshot_books(sf_dir: str, books: "np.ndarray") -> None:
    m, n_codes, dsub = books.shape
    rows_s, rows_c, rows_v = [], [], []
    for j in range(m):
        for c in range(n_codes):
            rows_s.append(j)
            rows_c.append(c)
            rows_v.append(books[j, c].tolist())
    t = pa.table({"subspace": pa.array(rows_s, pa.int64()),
                  "code": pa.array(rows_c, pa.int64()),
                  "vals": pa.array(rows_v, pa.list_(pa.float64()))})
    _write_snapshot(t, sf_dir, "pq_codebooks")


def q_emb_pq_encode(sf_dir: str):
    """Product-quantization encode oracle (round 4, scale path: 64x
    embedding compression for ADC search at corpus scale): every
    vector's per-subspace code must equal the SQL argmin of the DIRECT
    squared subspace distance to the snapshotted codebook (first-min
    tie -> lowest code id).  Engine: ops/similarity.pq_encode (one
    codebook broadcast, streaming encode)."""
    from .ops.similarity import pq_encode
    books = _pq_books(sf_dir)
    _pq_snapshot_books(sf_dir, books)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    enc = pq_encode(ds, books)
    m = books.shape[0]

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat = batch["codes"].combine_chunks().flatten().to_numpy(
            zero_copy_only=False).astype(np.int64)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False
                                       ).astype(np.int64)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, m), pa.int64()),
            "subspace": pa.array(np.tile(np.arange(m, dtype=np.int64), n),
                                 pa.int64()),
            "code": pa.array(flat, pa.int64())})

    return enc.map_batches(explode, batch_format="pyarrow")


def q_emb_pq_topk(sf_dir: str):
    """ADC top-k oracle: asymmetric-distance search over the PQ codes —
    SQL recomputes the codes (same argmin CTE), builds each query's
    subspace LUT from the raw embeddings x snapshotted codebook, sums
    the m lookups IN SUBSPACE ORDER (list(dist ORDER BY subspace) ->
    list_sum, matching the engine's fixed-order accumulation) and must
    reproduce rank AND the nano-floored distance."""
    import pyarrow.compute as pc

    from .ops.similarity import pq_encode, pq_topk
    books = _pq_books(sf_dir)
    _pq_snapshot_books(sf_dir, books)
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    qdf = pq.read_table(path, columns=["vec_id", "embedding"]).to_pandas()
    qdf = qdf[qdf["vec_id"] < 5].sort_values("vec_id")
    queries = np.array(qdf["embedding"].tolist(), dtype=np.float64)
    enc = pq_encode(ds, books)
    out = pq_topk(enc, books, queries, qdf["vec_id"].to_numpy(), k=5)

    def final(batch: pa.Table) -> pa.Table:
        nano = pc.cast(pc.floor(pc.multiply(batch["adc_dist"],
                                            pa.scalar(1e9))), pa.int64())
        return pa.table({"query_id": batch["query_id"],
                         "vec_id": batch["vec_id"],
                         "rnk": batch["rank"],
                         "adc_nano": nano})

    return out.map_batches(final, batch_format="pyarrow")


def q_emb_pq_ivf_topk(sf_dir: str):
    """IVF-PQ (FAISS-IVFADC shape) content oracle: coarse k-means
    buckets + PQ codes built in ONE streaming pass, ADC search
    restricted to each query's 2 probed buckets.  SQL recomputes ALL of
    it from the two snapshotted parameter tables (codebooks +
    normalized centroids): code argmins, bucket assignment (cosine
    desc / cent_id asc), probe selection, ordered LUT sums, final
    (dist asc, vec_id asc) ranking."""
    import pyarrow.compute as pc

    from .ops.similarity import (_normalize, kmeans_fit, pq_encode_ivf,
                                 pq_topk_ivf)
    books = _pq_books(sf_dir)
    _pq_snapshot_books(sf_dir, books)
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    init = pq.read_table(path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", 6)]
                         ).to_pandas().sort_values("vec_id")
    cents = kmeans_fit(ds, np.array(init["embedding"].tolist(),
                                    dtype=np.float64), iters=4)
    cn = _normalize(cents)
    _write_snapshot(pa.table({
        "cent_id": pa.array(range(len(cn)), pa.int64()),
        "vec": pa.array([row.tolist() for row in cn],
                        pa.list_(pa.float64()))}), sf_dir,
        "pq_ivf_centroids")
    qdf = pq.read_table(path, columns=["vec_id", "embedding"]).to_pandas()
    qdf = qdf[qdf["vec_id"] < 5].sort_values("vec_id")
    queries = np.array(qdf["embedding"].tolist(), dtype=np.float64)
    enc = pq_encode_ivf(ds, books, cents)
    out = pq_topk_ivf(enc, books, cents, queries,
                      qdf["vec_id"].to_numpy(), k=5, n_probe=2)

    def final(batch: pa.Table) -> pa.Table:
        nano = pc.cast(pc.floor(pc.multiply(batch["adc_dist"],
                                            pa.scalar(1e9))), pa.int64())
        return pa.table({"query_id": batch["query_id"],
                         "vec_id": batch["vec_id"],
                         "rnk": batch["rank"],
                         "adc_nano": nano})

    return out.map_batches(final, batch_format="pyarrow")


def q_emb_kmeans(sf_dir: str):
    """Distributed spherical k-means (round 3): full-data Lloyd's with
    broadcast centroids and map-side partial sums (no shuffle; driver
    traffic = k x dim x blocks floats per iteration), then one
    assignment pass.  Content oracle via the codebook-as-parameter
    pattern (emb_topk_ivf): the FINAL centroids are snapshotted and
    DuckDB recomputes every row's nearest-centroid assignment — ties
    (cosine desc, cent_id asc) mirrored on both sides."""
    from .ops.similarity import _normalize, kmeans_assign, kmeans_fit
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    # deterministic init: the 6 smallest vec_ids via row-filter pushdown
    init = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"],
                         filters=[("vec_id", "<", 6)]
                         ).to_pandas().sort_values("vec_id")
    cents = kmeans_fit(ds, np.array(init["embedding"].tolist(),
                                    dtype=np.float64), iters=4)
    cn = _normalize(cents)
    _write_snapshot(pa.table({
        "cent_id": pa.array(range(len(cn)), pa.int64()),
        "vec": pa.array([row.tolist() for row in cn],
                        pa.list_(pa.float64()))}), sf_dir,
        "kmeans_centroids")
    return kmeans_assign(ds, cents)


def q_emb_pca(sf_dir: str):
    """Distributed PCA (one-pass moment partials, driver-side dim×dim
    eigh) + dominant-component labeling.  Oracle via the components-as-
    parameter pattern (emb_kmeans): the fitted (component, mu) table is
    snapshotted and DuckDB recomputes every row's argmax
    |v·c_k − mu_k| assignment with mirrored ties."""
    from .ops.similarity import pca_assign, pca_fit
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    mean, comps, _ = pca_fit(ds, n_components=4)
    mu = comps @ mean
    _write_snapshot(pa.table({
        "comp_id": pa.array(range(len(comps)), pa.int64()),
        "vec": pa.array([row.tolist() for row in comps],
                        pa.list_(pa.float64())),
        "mu": pa.array(mu, pa.float64())}), sf_dir, "pca_components")
    return pca_assign(ds, mean, comps)


def q_emb_dup_pairs(sf_dir: str):
    from .ops.dedup import embedding_dup_pairs
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    pdf = embedding_dup_pairs(ds, threshold=0.95).to_pandas()
    if pdf.empty:
        return pa.table({"id_a": pa.array([], pa.int64()),
                         "id_b": pa.array([], pa.int64())})
    return pa.Table.from_pandas(pdf[["id_a", "id_b"]], preserve_index=False)


def q_media_byte_histogram(sf_dir: str):
    """Exact byte-value histogram per media kind over the OPAQUE binary
    payload column — the multimodal plumbing check that needs no codec:
    per batch, payloads concatenate per kind into one uint8 view and a
    single vectorized bincount emits ≤256 partial rows; ONE bounded
    groupby-SUM merge (≤ kinds×256 rows per block at any corpus
    size)."""
    from ray.data.aggregate import Sum
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "media.parquet"),
                               columns=["kind", "payload"])

    out_schema = pa.schema([("kind", pa.string()), ("byte", pa.int64()),
                            ("n", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        kinds = batch["kind"].to_pylist()
        payloads = batch["payload"].to_pylist()
        by_kind: dict = {}
        for k, p in zip(kinds, payloads):
            if p:
                by_kind.setdefault(k, []).append(p)
        if not by_kind:
            return out_schema.empty_table()
        ks: list = []
        bs: list = []
        ns: list = []
        for k, chunks in by_kind.items():
            counts = np.bincount(
                np.frombuffer(b"".join(chunks), dtype=np.uint8),
                minlength=256)
            nz = np.flatnonzero(counts)
            ks.extend([k] * len(nz))
            bs.append(nz.astype(np.int64))
            ns.append(counts[nz].astype(np.int64))
        return pa.table({"kind": pa.array(ks, pa.string()),
                         "byte": pa.array(np.concatenate(bs)),
                         "n": pa.array(np.concatenate(ns))})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(["kind", "byte"]).aggregate(Sum("n", alias_name="n")))


def q_media_features(sf_dir: str):
    from .ops.multimodal import MediaFeatureExtractor
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "media.parquet")
                               ).repartition(4)
    out = ds.map_batches(MediaFeatureExtractor, batch_size=32, concurrency=2,
                         fn_constructor_kwargs={"dim": 16},
                         batch_format="pyarrow")

    def widen(batch: pa.Table) -> pa.Table:
        return pa.table({
            "media_id": batch["media_id"], "kind": batch["kind"],
            "feature_dim": batch["feature_dim"].cast(pa.int64())})

    return out.select_columns(["media_id", "kind", "feature_dim"]
                              ).map_batches(widen, batch_format="pyarrow")


def q_media_frames(sf_dir: str):
    """Video frame sampling (actor-pool explode): one row per sampled
    frame at 1000 ms stride; frame counts per media verified against
    ceil(duration/stride) in SQL."""
    from .ops.multimodal import FrameSampler
    from .tiles import rollup_counts
    d = ensure_synth(sf_dir)
    ds = ray.data.read_parquet(os.path.join(d, "media.parquet"),
                               columns=["media_id", "kind", "duration_ms"]
                               ).repartition(4)
    frames = ds.map_batches(FrameSampler, batch_size=32, concurrency=2,
                            fn_constructor_kwargs={"stride_ms": 1000},
                            batch_format="pyarrow")
    return rollup_counts(frames, "media_id")


# ---------------------------------------------------------------------------
# oracle SQL builders for the algorithmic queries (each replicates the
# engine kernel value-for-value in DuckDB SQL; constants are embedded
# from the same deterministic sources the engine uses)

_M61 = (1 << 61) - 1
_TWO64 = 1 << 64


def _fingerprint_sql(docs: str, window: int = 8) -> str:
    """Karp-Rabin min-over-windows rolling hash (ops/text.py
    rolling_fingerprint) as nested modular polynomial evaluation."""
    B = 1000003
    expr = "cast(ord(substr(s, i, 1)) as hugeint)"
    for k in range(1, window):
        expr = f"(({expr}) * {B} + ord(substr(s, i+{k}, 1))) % {_M61}"
    short = "cast(0 as hugeint)"
    for k in range(1, window):
        short = (f"(case when length(s) >= {k} then (({short}) * {B} + "
                 f"ord(substr(s, {k}, 1))) % {_M61} else ({short}) end)")
    return f"""
        with s0 as (select doc_id,
                trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) s
            from {docs}),
        lng as (select doc_id,
                list_min([{expr}
                          for i in range(1, length(s) - {window - 2})]) fp
                from s0 where length(s) >= {window}),
        shrt as (select doc_id, {short} fp from s0
                 where length(s) < {window})
        select doc_id, cast(fp as bigint) as fingerprint from lng
        union all
        select doc_id, cast(fp as bigint) as fingerprint from shrt"""


def _langid_sql(docs: str) -> str:
    """Stopword-hit argmax language ID (ops/text.py LangId): same
    tokenizer regex, same tables, alphabetical tie-break, confidence as
    floor(best/ntoks*10000+0.5) on both sides."""
    from .ops.text import STOPWORDS
    lists = {k: "[" + ", ".join(f"'{w}'" for w in sorted(v)) + "]"
             for k, v in STOPWORDS.items()}
    rex = "(?i)[a-zàâäçéèêëîïôöùûüÿ'']+"
    best = "case when he >= hf and he >= hn then he when hf >= hn then hf else hn end"
    return f"""
        with toks as (select doc_id,
                [lower(x) for x in regexp_extract_all(text, '{rex}')] t
            from {docs}),
        h as (select doc_id, len(t) n,
                len([x for x in t if list_contains({lists['en']}, x)]) he,
                len([x for x in t if list_contains({lists['fr']}, x)]) hf,
                len([x for x in t if list_contains({lists['nl']}, x)]) hn
            from toks)
        select doc_id,
            case when n = 0 or (he = 0 and hf = 0 and hn = 0) then 'und'
                 when he >= hf and he >= hn then 'en'
                 when hf >= hn then 'fr' else 'nl' end as lang_pred,
            cast(case when n = 0 or (he = 0 and hf = 0 and hn = 0) then 0
                 else floor(cast({best} as double) / n * 10000 + 0.5)
                 end as bigint) as lang_conf_bp
        from h"""


def _simhash_sql(docs: str, max_hamming: int = 3) -> str:
    """Charikar SimHash pairs (ops/dedup.py simhash_pairs).  The per-word
    64-bit hash is DuckDB's md5_number_upper == the engine's little-endian
    first-8-md5-bytes; the 4×16-bit chunk bucketing is exact for
    hamming<=3 (pigeonhole), so all-pairs hamming IS the engine's pair
    set."""
    return f"""
        with toks as (select doc_id,
                regexp_extract_all(lower(text), '\\w+') w from {docs}),
        h as (select doc_id,
                [cast(md5_number_upper(x) as ubigint) for x in w] hs
            from toks),
        sh as (select doc_id, cast(list_sum(
                [case when coalesce(list_sum([case when (hh >> b) & 1 = 1
                       then 1 else -1 end for hh in hs]), 0) > 0
                  then cast(cast(1 as ubigint) << b as hugeint)
                  else cast(0 as hugeint) end
                 for b in range(0, 64)]) as ubigint) sim
            from h)
        select a.doc_id as id_a, b.doc_id as id_b,
               cast(bit_count(xor(a.sim, b.sim)) as bigint) as hamming
        from sh a join sh b on a.doc_id < b.doc_id
        where bit_count(xor(a.sim, b.sim)) <= {max_hamming}"""


def _shingle_cte(docs: str) -> str:
    """Word-trigram shingle strings, mirroring ops/dedup._shingle_hashes'
    tokenization and the <3-token join rule."""
    return f"""
        toks as (select doc_id,
                regexp_extract_all(lower(text), '\\w+') t from {docs}),
        sh as (select doc_id,
               case when len(t) = 0 then cast([] as varchar[])
                    when len(t) < 3 then [array_to_string(t, ' ')]
                    else [array_to_string(t[i:i+2], ' ')
                          for i in range(1, len(t) - 1)]
               end s from toks)"""


def _minhash_sql(docs: str, threshold: float = 0.5) -> str:
    """MinHash signature pairs (ops/dedup.py minhash_lsh_pairs): the
    64 permutation coefficients are embedded from the engine's seeded
    MinHasher; the (a*h+b) arithmetic reproduces numpy's uint64
    wraparound via explicit mod-2^64.  Banding caveat: the engine only
    surfaces pairs sharing >=1 full band — equality to this all-pairs
    oracle holds when true near-dups band-collide (verified on the
    testdata; documented recall limit of LSH)."""
    import numpy as _np

    from .ops.dedup import MinHasher
    mh = MinHasher()
    A = "[" + ", ".join(str(int(x)) for x in mh.a) + "]"
    Bc = "[" + ", ".join(str(int(x)) for x in mh.b) + "]"
    min_matches = int(_np.ceil(64 * threshold))
    return f"""
        with {_shingle_cte(docs)},
        hs as (select doc_id,
               [cast(md5_number_upper(x) as hugeint) for x in s] hl
            from sh),
        sig as (select doc_id,
            [coalesce(list_min([
                 (((c.A[k+1] * h) % {_TWO64} + c.B[k+1]) % {_TWO64}) % {_M61}
                 for h in hl]), 0)
             for k in range(0, 64)] sg
            from hs, (select {A} as A, {Bc} as B) c)
        select a.doc_id as id_a, b.doc_id as id_b
        from sig a join sig b on a.doc_id < b.doc_id
        where list_sum([case when a.sg[i+1] = b.sg[i+1] then 1 else 0 end
                        for i in range(0, 64)]) >= {min_matches}"""


def _ngram_sql(docs: str, threshold: float = 0.6) -> str:
    """Exact n-gram Jaccard pairs (ops/dedup.py ngram_jaccard_pairs) as
    all-pairs set arithmetic over the shingle strings (the engine hashes
    shingles; md5 collisions are negligible and the pair sets were
    verified equal)."""
    return f"""
        with {_shingle_cte(docs)},
        d as (select doc_id, list_distinct(s) s from sh)
        select a.doc_id as id_a, b.doc_id as id_b
        from d a join d b on a.doc_id < b.doc_id
        where cast(len(list_intersect(a.s, b.s)) as double)
              / nullif(len(list_distinct(list_concat(a.s, b.s))), 0)
              >= {threshold}"""


def _hex_sql(gaz: str, res: int = 9) -> str:
    """Axial hex assignment (cells.py hex_cell): fractional axial coords,
    cube rounding (floor(x+0.5) stands in for np.rint — equal except at
    exact .5 ties, measure-zero for these coordinates), zigzag packing."""
    s = 2.0 / (2.0 ** res)
    return f"""
        with p as (select place_id, lat, lon from {gaz}),
        a as (select place_id,
                (sqrt(3)/3*lon - lat/3)/{s!r} as x,
                (2.0/3*lat)/{s!r} as z from p),
        b as (select place_id, x, z, -x - z as y,
                floor(x + 0.5) rx, floor(-x - z + 0.5) ry,
                floor(z + 0.5) rz
              from a),
        c as (select place_id, x, y, z, rx, ry, rz,
                case when abs(rx-x) > abs(ry-y) and abs(rx-x) > abs(rz-z)
                     then -ry - rz else rx end rx2 from b),
        d as (select place_id,
                cast(rx2 as bigint) iq,
                cast(case when not (abs(rx-x) > abs(ry-y)
                               and abs(rx-x) > abs(rz-z))
                          and abs(rz-z) > abs(ry-y)
                     then -rx2 - ry else rz end as bigint) ir from c),
        e as (select place_id,
                case when iq >= 0 then iq*2 else -iq*2 - 1 end zq,
                case when ir >= 0 then ir*2 else -ir*2 - 1 end zr from d)
        select place_id,
               (cast({res} as bigint) << 56) | (zq << 28) | zr as hex_cell
        from e"""


# compare-time input strings come straight from the snapshot's echo
# columns (CMP_FIELDS) — valid for EVERY cascade method
_CMP_INPUT_CTE = """
            select c.*,
                   coalesce(c.m_cmp_street_name,'') as in_street,
                   coalesce(c.m_cmp_house_number,'') as in_hn,
                   coalesce(c.m_cmp_post_code,'') as in_pc,
                   coalesce(c.m_cmp_post_name,'') as in_city
            from cand c"""


def _adjudication_sql(snap_glob: str, gaz: str, input_cte: str) -> str:
    """Render the full reject-adjudication recompute: candidate content
    from the raw gazetteer by place id, input content per ``input_cte``
    (a CTE body producing in_street/in_hn/in_pc/in_city per snapshot
    row), comparator kernels from comparesql.py, elimination rule +
    label.  Single statement."""
    from . import comparesql as cs
    s1 = cs.sql_street_sim("cand_street", "in_street")
    s2 = cs.sql_street_sim("''", "in_street")
    s3 = cs.sql_street_sim("cand_named", "in_street")
    sim, which = cs.sql_street_priority("s1", "s2", "s3")
    return f"""
        with snap as (select * from read_parquet('{snap_glob}')),
        cand as (
            select s.*, {cs.sql_candidate_fields(gaz)}
            from snap s
            left join {gaz} g on g.place_id = s.m_place_id
            left join {gaz} g2 on g2.place_id = s.m_place_id // 1000),
        inp as ({input_cte}),
        scored as (
            select addr_key, m_method, m_osm_order, m_place_id,
                   {s1} as s1, {s2} as s2, {s3} as s3,
                   {cs.sql_hn_sim("cand_hn", "in_hn")}
                       as c_sim_house_number,
                   {cs.sql_pc_sim("cand_pc", "in_pc")} as c_sim_post_code,
                   {cs.sql_city_sim("cand_city", "in_city")} as c_sim_city
            from inp),
        final as (
            select addr_key, m_method,
                   cast(m_osm_order as bigint) as m_osm_order,
                   cast(m_place_id as bigint) as m_place_id,
                   {sim} as c_sim_street, {which} as c_sim_street_which,
                   c_sim_house_number, c_sim_post_code, c_sim_city
            from scored)
        select *, case when {cs.sql_elimination(
            "c_sim_street", "c_sim_post_code", "c_sim_city")}
                       then 'mismatch' else 'tail' end as m_reject_reason
        from final"""


def _distance_sql(snap_glob: str, gaz: str) -> str:
    """Render the reject->match distance recompute from raw gazetteer
    coordinates (building rule included); matches join by addr_key."""
    from . import comparesql as cs
    hav = cs.sql_haversine_km("rc.cand_lat", "rc.cand_lon",
                              "mc.cand_lat", "mc.cand_lon")
    coords = """
            select s.*, {fields}
            from {src} s
            left join {gaz} g on g.place_id = s.m_place_id
            left join {gaz} g2 on g2.place_id = s.m_place_id // 1000"""
    fields = cs.sql_candidate_fields(gaz)
    return f"""
        with snap as (select * from read_parquet('{snap_glob}')),
        r as (select addr_key, m_method, m_osm_order, m_place_id
              from snap where status = 'reject'),
        m as (select addr_key, m_place_id from snap
              where status = 'match'),
        rc as ({coords.format(fields=fields, src="r", gaz=gaz)}),
        mc as ({coords.format(fields=fields, src="m", gaz=gaz)})
        select rc.addr_key, rc.m_method,
               cast(rc.m_osm_order as bigint) as m_osm_order,
               cast(rc.m_place_id as bigint) as m_place_id,
               round({hav}, 3) as m_distance_to_match
        from rc join mc using (addr_key)
        where mc.cand_lat is not null"""


def _match_selection_sql(cand_glob: str, match_glob: str, gaz: str) -> str:
    """Render the keep-best winner recompute for EVERY matched address at
    its winning method (round 5): ordinary winners by full re-rank of the
    surviving candidate set; cleansed-house-number and parent alt-name
    rescue winners by qualification of the winner row (see
    q_geo_match_selection docstring).  Inputs come from the echoed
    compare-time strings, so every cascade method is scorable."""
    from . import comparesql as cs
    s1 = cs.sql_street_sim("cand_street", "in_street")
    s2 = cs.sql_street_sim("''", "in_street")
    s3 = cs.sql_street_sim("cand_named", "in_street")
    sim, _ = cs.sql_street_priority("s1", "s2", "s3")
    return f"""
        with snap as (select * from read_parquet('{cand_glob}')),
        mraw as (select addr_key, m_place_id, m_method,
                        m_match_on_cleansed_house_number as cleansed,
                        c_sim_street_which as which
                 from read_parquet('{match_glob}')),
        cand as (
            select s.*, {cs.sql_candidate_fields(gaz)},
                   (g.place_id is null) as is_building,
                   nullif(g2.name, '') as p_name,
                   nullif(g2.name_fr, '') as p_name_fr,
                   nullif(g2.name_nl, '') as p_name_nl,
                   g2.street_name as p_street_name
            from snap s
            left join {gaz} g on g.place_id = s.m_place_id
            left join {gaz} g2 on g2.place_id = s.m_place_id // 1000),
        inp as ({_CMP_INPUT_CTE}),
        scored as (
            select addr_key, status, m_method, m_osm_order, m_place_id,
                   is_building, p_name, p_name_fr, p_name_nl,
                   p_street_name, in_street,
                   {s1} as s1, {s2} as s2, {s3} as s3,
                   {cs.sql_hn_sim("cand_hn", "in_hn")} as hsim,
                   {cs.sql_pc_sim("cand_pc", "in_pc")} as psim,
                   {cs.sql_city_sim("cand_city", "in_city")} as csim
            from inp),
        final as (
            select *, {sim} as ssim from scored),
        -- (1) ordinary winners: full re-rank of the address's surviving
        -- candidates at the winning method
        ordinary as (
            select f.addr_key, f.m_place_id,
                   row_number() over (
                       partition by f.addr_key
                       order by f.ssim desc, f.hsim desc,
                                f.m_osm_order asc) as rn
            from final f
            join mraw m on m.addr_key = f.addr_key
                       and m.m_method = f.m_method
            where not m.cleansed and m.which <> 'n_alt_name'
              and not {cs.sql_elimination("f.ssim", "f.psim", "f.csim")}),
        -- (2) cleansed-hn winners: the winner row scored with its echoed
        -- digits-only house number must be non-eliminated and a rank-30
        -- synthesized building
        cleansed as (
            select f.addr_key, f.m_place_id
            from final f
            join mraw m on m.addr_key = f.addr_key
                       and m.m_place_id = f.m_place_id
            where m.cleansed and f.status = 'match' and f.is_building
              and not {cs.sql_elimination("f.ssim", "f.psim", "f.csim")}),
        -- (3) parent alt-name rescue winners: some parent-street alt
        -- name (not the collapse street) must score non-eliminated
        rescued as (
            select sc.addr_key, sc.m_place_id
            from final sc
            join mraw m on m.addr_key = sc.addr_key
                       and m.m_place_id = sc.m_place_id
            where (not m.cleansed) and m.which = 'n_alt_name'
              and sc.status = 'match' and sc.is_building
              and ({" or ".join(
                  f"(sc.{p} is not null and sc.{p} <> sc.p_street_name "
                  f"and not "
                  + cs.sql_elimination(
                      cs.sql_street_sim(f'sc.{p}', 'sc.in_street'),
                      'sc.psim', 'sc.csim') + ")"
                  for p in ('p_name', 'p_name_fr', 'p_name_nl'))}))
        select addr_key, cast(m_place_id as bigint) as m_place_id
        from ordinary where rn = 1
        union all
        select addr_key, cast(m_place_id as bigint) from cleansed
        union all
        select addr_key, cast(m_place_id as bigint) from rescued"""


def _hex_from_sql(src: str, keys: str, res: int = 9) -> str:
    """Subquery computing the axial-hex cell (cells.py hex_cell — same
    rendering as ``_hex_sql``) for rows of ``src`` with columns
    ``keys``, lat, lon."""
    s = 2.0 / (2.0 ** res)
    return f"""(
        with hp as (select {keys}, lat, lon from {src}),
        ha as (select *, (sqrt(3)/3*lon - lat/3)/{s!r} as x,
                      (2.0/3*lat)/{s!r} as z from hp),
        hb as (select *, -x - z as y, floor(x + 0.5) rx,
                      floor(-x - z + 0.5) ry, floor(z + 0.5) rz from ha),
        hc as (select *, case when abs(rx-x) > abs(ry-y)
                               and abs(rx-x) > abs(rz-z)
                              then -ry - rz else rx end rx2 from hb),
        hd as (select *, cast(rx2 as bigint) iq,
                      cast(case when not (abs(rx-x) > abs(ry-y)
                                     and abs(rx-x) > abs(rz-z))
                                and abs(rz-z) > abs(ry-y)
                           then -rx2 - ry else rz end as bigint) ir
               from hc),
        he as (select *,
                      case when iq >= 0 then iq*2 else -iq*2 - 1 end zq,
                      case when ir >= 0 then ir*2 else -ir*2 - 1 end zr
               from hd)
        select {keys},
               (cast({res} as bigint) << 56) | (zq << 28) | zr as hex_cell
        from he)"""


def _hilbert_sql(gaz: str, order: int = 13) -> str:
    """Unrolled Hilbert xy2d oracle: one chained CTE per bit replaying
    cells.hilbert_from_xy's rotate-and-accumulate step — d += s²·
    ((3·rx) XOR ry), then flip (n-1-·) when ry=0∧rx=1 and swap when
    ry=0 — with (x, y) read from the PREVIOUS iteration's columns (a
    single SELECT evaluates both update expressions against old
    values, exactly like the vectorized numpy step)."""
    n = 1 << order
    grid_x = (f"least(greatest(cast(floor((lon+180.0)/360.0*{n}) "
              f"as bigint), 0), {n - 1})")
    grid_y = (f"least(greatest(cast(floor((lat+90.0)/180.0*{n}) "
              f"as bigint), 0), {n - 1})")
    parts = [f"""
        with it0 as (select place_id,
            {grid_x} hx, {grid_y} hy,
            {grid_x} x, {grid_y} y, cast(0 as bigint) d
          from {gaz})"""]
    for i in range(order):
        s = 1 << (order - 1 - i)
        rx = f"(case when (x & {s}) > 0 then 1 else 0 end)"
        ry = f"(case when (y & {s}) > 0 then 1 else 0 end)"
        parts.append(f""",
        it{i + 1} as (select place_id, hx, hy,
            d + {s * s} * xor(3 * {rx}, {ry}) d,
            case when (y & {s}) = 0
                 then (case when (x & {s}) > 0 then {n - 1} - y else y end)
                 else x end x,
            case when (y & {s}) = 0
                 then (case when (x & {s}) > 0 then {n - 1} - x else x end)
                 else y end y
          from it{i})""")
    parts.append(f"""
        select place_id, hx, hy, d as hilbert_d from it{order}""")
    return "".join(parts)


def _pagerank_sql(gaz: str, iters: int = 3, S: int = 10 ** 12) -> str:
    """Unrolled integer-PageRank oracle: one CTE per iteration with the
    same floor-division update as the engine (q_geo_pagerank) — exact
    integer arithmetic, so no float summation-order caveat."""
    hav = ("2*6371.0088*asin(sqrt(pow(sin(radians(b.lat-a.lat)/2),2)"
           " + cos(radians(a.lat))*cos(radians(b.lat))"
           "*pow(sin(radians(b.lon-a.lon)/2),2)))")
    parts = [f"""
        with s as (select place_id, lat, lon from {gaz}
                   where place_rank = 26),
        p as (select a.place_id u, b.place_id v from s a, s b
              where a.place_id < b.place_id and {hav} <= 1.0),
        e as (select u, v from p union all select v as u, u as v from p),
        dg as (select u, count(*) deg from e group by u),
        nn as (select cast(count(*) as bigint) n from dg),
        r0 as (select u as node, cast({S} as bigint) // nn.n r
               from dg, nn)"""]
    for i in range(iters):
        parts.append(f""",
        r{i + 1} as (select e.v as node,
                  (3 * cast({S} as bigint)) // (20 * nn.n)
                  + (17 * sum(r{i}.r // dg.deg)) // 20 r
           from e join r{i} on r{i}.node = e.u
                  join dg on dg.u = e.u, nn
           group by e.v, nn.n)""")
    parts.append(f"""
        select node, cast(r as bigint) as rank3 from r{iters}""")
    return "".join(parts)


def _bfs_sql(gaz: str, rounds: int = 8) -> str:
    """Unrolled BFS-relaxation oracle: component seeds from a recursive
    min-reachable-label CTE, then one min-merge CTE per hop round."""
    hav = ("2*6371.0088*asin(sqrt(pow(sin(radians(b.lat-a.lat)/2),2)"
           " + cos(radians(a.lat))*cos(radians(b.lat))"
           "*pow(sin(radians(b.lon-a.lon)/2),2)))")
    parts = [f"""
        with recursive s as (select place_id, lat, lon from {gaz}
                   where place_rank = 26),
        p as materialized (select a.place_id u, b.place_id v
              from s a, s b
              where a.place_id < b.place_id and {hav} <= 1.0),
        e as materialized (select u, v from p
                           union all select v as u, u as v from p),
        reach(node, r) as (
            select u, u from e
            union
            select e.v, reach.r from reach
            join e on e.u = reach.node),
        comp as (select node, min(r) c from reach group by node),
        h0 as materialized (select node, cast(0 as bigint) hops
                            from comp where node = c)"""]
    for i in range(rounds):
        parts.append(f""",
        h{i + 1} as materialized (select node, min(hops) hops from (
            select node, hops from h{i}
            union all
            select e.v node, h{i}.hops + 1 hops
            from e join h{i} on h{i}.node = e.u) group by node)""")
    parts.append(f"""
        select node, cast(hops as bigint) as hops from h{rounds}""")
    return "".join(parts)


def _kcore_sql(gaz: str, k: int = 2, rounds: int = 8) -> str:
    """Unrolled k-core peel oracle: 8 fixed drop-and-restrict rounds
    (idempotent once converged, so the engine's early break matches)."""
    hav = ("2*6371.0088*asin(sqrt(pow(sin(radians(b.lat-a.lat)/2),2)"
           " + cos(radians(a.lat))*cos(radians(b.lat))"
           "*pow(sin(radians(b.lon-a.lon)/2),2)))")
    parts = [f"""
        with s as (select place_id, lat, lon from {gaz}
                   where place_rank = 26),
        e0 as materialized (select a.place_id u, b.place_id v
               from s a, s b
               where a.place_id < b.place_id and {hav} <= 1.0)"""]
    for i in range(rounds):
        parts.append(f""",
        d{i} as materialized (select node, count(*) deg from (
                   select u node from e{i}
                   union all select v from e{i}) group by node),
        k{i} as materialized (select node from d{i} where deg >= {k}),
        e{i + 1} as materialized (select u, v from e{i}
                   where u in (select node from k{i})
                     and v in (select node from k{i}))""")
    parts.append(f"""
        select node, cast(count(*) as bigint) as core_deg from (
            select u node from e{rounds}
            union all select v from e{rounds}) group by node""")
    return "".join(parts)


def _quad_compact_sql(gaz: str, level: int = 12, stop: int = 0) -> str:
    """Unrolled quadtree compaction oracle: the ±1-cell coverage mask at
    ``level``, then one complete-sibling promotion step per level down
    to ``stop`` (cells.compact_cells' loop, written as SQL CTEs; parent
    = strip the level byte, shift the code right two bits)."""
    n = 1 << level
    mask = (1 << 56) - 1
    parts = [f"""
        with pts as materialized (select
            least(greatest(cast(floor((lon+180.0)/360.0*{n}) as bigint),
                  0), {n - 1}) x,
            least(greatest(cast(floor((lat+90.0)/180.0*{n}) as bigint),
                  0), {n - 1}) y
          from {gaz}),
        cov as materialized (select distinct
            least(greatest(x + dx, 0), {n - 1}) xx,
            least(greatest(y + dy, 0), {n - 1}) yy
          from pts, (values (-1), (0), (1)) dxs(dx),
               (values (-1), (0), (1)) dys(dy)),
        w{level} as materialized (select distinct
            (cast({level} as bigint) << 56)
             | cast(list_sum([(((xx >> i) & 1) << (2*i))
                 + (((yy >> i) & 1) << (2*i+1))
                 for i in range(0,{level})]) as bigint) cell
          from cov)"""]
    for lv in range(level, stop, -1):
        parts.append(f""",
        p{lv} as materialized (select ((cast({lv - 1} as bigint) << 56)
                           | ((cell & {mask}) >> 2)) par
                  from w{lv} where (cell >> 56) = {lv}
                  group by 1 having count(*) = 4),
        w{lv - 1} as materialized (select par as cell from p{lv}
                      union
                      select cell from w{lv}
                      where (cell >> 56) <> {lv}
                         or ((cast({lv - 1} as bigint) << 56)
                             | ((cell & {mask}) >> 2))
                            not in (select par from p{lv}))""")
    parts.append(f"""
        select cell, cast(cell >> 56 as bigint) as level from w{stop}""")
    return "".join(parts)


def _quad_compact_keyed_sql(key: str, level: int, stop: int) -> str:
    """Per-``key`` complete-sibling promotion steps (cells.compact_cells
    run independently per key): appends CTEs w{level}..w{stop} to a
    query whose CTE ``src`` has columns (``key``, cell).  Returned
    string starts with a comma (continues an open WITH clause)."""
    mask = (1 << 56) - 1
    parts = [f""",
        w{level} as materialized (select distinct {key}, cell from src)"""]
    for lv in range(level, stop, -1):
        parts.append(f""",
        p{lv} as materialized (select {key},
                    ((cast({lv - 1} as bigint) << 56)
                      | ((cell & {mask}) >> 2)) par
                  from w{lv} where (cell >> 56) = {lv}
                  group by 1, 2 having count(*) = 4),
        w{lv - 1} as materialized (select {key}, par as cell from p{lv}
                  union
                  select w.{key}, w.cell from w{lv} w
                  where (w.cell >> 56) <> {lv}
                     or not exists (select 1 from p{lv} p
                          where p.{key} = w.{key}
                            and p.par = ((cast({lv - 1} as bigint) << 56)
                                         | ((w.cell & {mask}) >> 2))))""")
    return "".join(parts)


def _quad_polyfill_sql(bnd: str, level: int = 12) -> str:
    """Per-polygon compacted quad cover: bbox-clipped cell-center grid,
    even-odd crossing (the geo_raster_polygons rendering), then the
    keyed promotion chain."""
    n = 1 << level
    dlat, dlon = 180.0 / n, 360.0 / n
    return f"""
        with b as (select bnd_idx, ring_lat, ring_lon,
            least(greatest(cast(floor((list_min(ring_lon)+180.0)
                  /360.0*{n}) as bigint), 0), {n - 1}) x0,
            least(greatest(cast(floor((list_max(ring_lon)+180.0)
                  /360.0*{n}) as bigint), 0), {n - 1}) x1,
            least(greatest(cast(floor((list_min(ring_lat)+90.0)
                  /180.0*{n}) as bigint), 0), {n - 1}) y0,
            least(greatest(cast(floor((list_max(ring_lat)+90.0)
                  /180.0*{n}) as bigint), 0), {n - 1}) y1
          from {bnd}),
        gx as (select bnd_idx, ring_lat, ring_lon, y0, y1,
                      unnest(range(x0, x1 + 1)) x from b),
        g as (select bnd_idx, ring_lat, ring_lon, x,
                     unnest(range(y0, y1 + 1)) y from gx),
        c as (select bnd_idx, ring_lat, ring_lon, x, y,
                     -90.0 + (cast(y as double) + 0.5) * {dlat!r} clat,
                     -180.0 + (cast(x as double) + 0.5) * {dlon!r} clon
              from g),
        hit as materialized (select bnd_idx, x, y from c
              where (list_sum([case
                       when (case when ring_lat[i] > clat
                                  then 1 else 0 end)
                         <> (case when ring_lat[i+1] > clat
                                  then 1 else 0 end)
                        and ring_lat[i+1] <> ring_lat[i]
                        and clon < (ring_lon[i+1]-ring_lon[i])
                            * (clat-ring_lat[i])
                            / (ring_lat[i+1]-ring_lat[i]) + ring_lon[i]
                       then 1 else 0 end
                       for i in range(1, len(ring_lat))]) % 2) = 1),
        src as (select bnd_idx,
                  (cast({level} as bigint) << 56)
                   | cast(list_sum([(((x >> i) & 1) << (2*i))
                       + (((y >> i) & 1) << (2*i+1))
                       for i in range(0,{level})]) as bigint) cell
                from hit){_quad_compact_keyed_sql("bnd_idx", level, 0)}
        select bnd_idx, cell, cast(cell >> 56 as bigint) as level
        from w0"""


def _quad_from_sql(src: str, keys: str, level: int = 18) -> str:
    """Subquery computing the quadkey cell (cells.py quad_cell — same
    rendering as the geo_quad_assign oracle) for rows of ``src`` with
    columns ``keys``, lat, lon."""
    n = 1 << level
    return f"""(
        with qp as (select {keys},
          least(greatest(cast(floor((lon+180.0)/360.0*{n})
                as bigint), 0), {n - 1}) x,
          least(greatest(cast(floor((lat+90.0)/180.0*{n})
                as bigint), 0), {n - 1}) y
          from {src})
        select {keys},
          (cast({level} as bigint) << 56)
           | cast(list_sum([(((x >> i) & 1) << (2*i))
               + (((y >> i) & 1) << (2*i+1))
               for i in range(0,{level})]) as bigint) as quad_cell
        from qp)"""


def _full_output_sql(prov_glob: str, gaz: str, boundaries: str,
                     docs_mode: bool) -> str:
    """Full-output recompute for a flagship pipeline result: from the
    provenance snapshot (status / method / winning place id / echoed
    compare strings / input postcode), rebuild every value column —
    place rank + coordinates + output address from the raw gazetteer,
    reject labels from the comparator kernels, hex/quad tiles from the
    coordinates (joined back on the exact float pair — both sides read
    identical binary values), and PIP against the raw boundary rings
    with the engine's first-containing (min bnd_idx) tie-break."""
    from . import comparesql as cs
    key_sql = ("doc_id, span_idx, addr_key" if docs_mode else "addr_key")
    s1 = cs.sql_street_sim("cand_street", "in_street")
    s2 = cs.sql_street_sim("''", "in_street")
    s3 = cs.sql_street_sim("cand_named", "in_street")
    sim, _ = cs.sql_street_priority("s1", "s2", "s3")
    if docs_mode:
        # the docs output omits reject_reason / o_street / o_post_code,
        # so no comparator scoring is needed
        scored_cte = "scored as (select *, 0.0 ssim, 0.0 psim, 0.0 csim from cand)"
        reason_col = ""
        addr_cols = ""
    else:
        scored_cte = f"""inp as ({_CMP_INPUT_CTE}),
        pres as (
            select *, {s1} as s1, {s2} as s2, {s3} as s3,
                   {cs.sql_pc_sim("cand_pc", "in_pc")} as psim,
                   {cs.sql_city_sim("cand_city", "in_city")} as csim
            from inp),
        scored as (select *, {sim} as ssim from pres)"""
        reason_col = f"""
               case when g.status = 'reject' then
                    case when {cs.sql_elimination("g.ssim", "g.psim",
                                                  "g.csim")}
                         then 'mismatch' else 'tail' end
                    else '' end as m_reject_reason,"""
        addr_cols = """
               case when g.status in ('match','reject')
                    then coalesce(g.cand_street, '') else '' end
                 as o_street_name,
               case when g.status in ('match','reject')
                    then coalesce(g.cand_pc, '') else '' end
                 as o_post_code,"""
    return f"""
        with snap as (select * from read_parquet('{prov_glob}')),
        cand as (
            select s.* exclude (m_place_rank, o_lat, o_lon, hex_cell,
                                quad_cell, pip_ok{
                                '' if docs_mode else
                                ', m_reject_reason, o_street_name,'
                                ' o_post_code'}),
                   {cs.sql_candidate_fields(gaz)},
                   (g.place_id is null and g2.place_id is not null)
                       as is_building,
                   g.place_rank as g_rank
            from snap s
            left join {gaz} g on g.place_id = s.m_place_id
            left join {gaz} g2 on g2.place_id = s.m_place_id // 1000),
        {scored_cte},
        geo as (
            select *,
                   case when status in ('match','reject')
                        then cand_lat else 'NaN'::double end as ola,
                   case when status in ('match','reject')
                        then cand_lon else 'NaN'::double end as olo
            from scored),
        coords as (select distinct ola lat, olo lon from geo
                   where status in ('match','reject')),
        hexc as {_hex_from_sql("coords", "lat, lon")},
        quadc as {_quad_from_sql("coords", "lat, lon")},
        b as (select bnd_idx, post_code bpc, ring_lat, ring_lon
              from read_parquet('{boundaries}')),
        pts as (select distinct ola lat, olo lon,
                       coalesce(post_code, '') pc
                from geo where status in ('match','reject')),
        cont as (
            select p.lat, p.lon, p.pc, b.bpc, b.bnd_idx,
                   (list_sum([case
                      when (case when ring_lat[i] > p.lat
                                 then 1 else 0 end)
                        <> (case when ring_lat[i+1] > p.lat
                                 then 1 else 0 end)
                       and ring_lat[i+1] <> ring_lat[i]
                       and p.lon < (ring_lon[i+1]-ring_lon[i])
                           * (p.lat-ring_lat[i])
                           / (ring_lat[i+1]-ring_lat[i]) + ring_lon[i]
                      then 1 else 0 end
                      for i in range(1, len(ring_lat))]) % 2) = 1
                   as inside
            from pts p, b),
        loc as (select lat, lon, pc,
                       arg_min(bpc, bnd_idx)
                           filter (where inside) as loc_pc
                from cont group by 1, 2, 3),
        pipc as (select lat, lon, pc,
                        coalesce(loc_pc = pc or pc = '', false) as ok
                 from loc)
        select {key_sql}, g.status, g.m_method,{reason_col}
               cast(g.m_place_id as bigint) as m_place_id,
               cast(case when g.status in ('match','reject') then
                         case when g.is_building then 30
                              else g.g_rank end
                    else -1 end as bigint) as m_place_rank,
               g.ola as o_lat, g.olo as o_lon,{addr_cols}
               coalesce(h.hex_cell, -1) as hex_cell,
               coalesce(q.quad_cell, -1) as quad_cell,
               coalesce(p.ok, false) as pip_ok
        from geo g
        left join hexc h on g.ola = h.lat and g.olo = h.lon
        left join quadc q on g.ola = q.lat and g.olo = q.lon
        left join pipc p on g.ola = p.lat and g.olo = p.lon
                        and coalesce(g.post_code, '') = p.pc"""


def build_oracle_sql() -> dict[str, str]:
    s01 = os.path.join(SYNTH_ROOT, "sf0.01")
    docs = f"read_parquet('{s01}/documents.parquet')"
    addrs = f"read_parquet('{s01}/addresses.parquet')"
    gaz = f"read_parquet('{s01}/gazetteer.parquet')"
    norm_name = _SQL_NORM.format(col="name")
    norm_street = _SQL_NORM.format(col="street_name")
    w = int(round(360.0 / SQUARE_CELL_DEG))
    span_unnest = f"""
        with u as (
            select doc_id, unnest(spans) s,
                   unnest(range(1, len(spans)+1)) ord
            from {docs})
        select doc_id, cast(ord-1 as int) span_idx, s.kind as kind,
               s.text as text, s.media_ref as media_ref, s.offset as offset
        from u"""
    return {
        "geo_span_extract": span_unnest,
        "geo_span_roundtrip": span_unnest,
        "geo_span_conservation": f"""
            select doc_id, cast(len(spans) as bigint) as n from {docs}""",
        "geo_addr_conservation": f"""
            select addr_key, cast(1 as bigint) as n from {addrs}""",
        "geo_match_singleton": """
            select cast(null as varchar) as addr_key,
                   cast(null as bigint) as n where 1 = 0""",
        "geo_method_stats": f"""
            select m_method, count(*) as n
            from read_parquet('{s01}/method_stats_input/*.parquet')
            group by 1""",
        "geo_hex_assign": _hex_sql(gaz),
        "geo_path_simplify": f"""
            -- full Douglas-Peucker replay: segments split recursively
            -- at the first-max-deviation interior point while the max
            -- deviation is STRICTLY > eps (0.01 deg); kept set = all
            -- segment endpoints ever emitted.  Deviation formula is the
            -- engine's, op-for-op.
            with recursive pts as (
                select post_code pc, place_id ord, lon x, lat y
                from {gaz} where place_rank = 26),
            base as (select pc, min(ord) a, max(ord) b
                     from pts group by pc),
            segs(pc, a, b) as (
                select pc, a, b from base
                union all
                select v.pc, u.e[1], u.e[2]
                from (
                    select * from (
                        select s.pc, s.a, s.b, p.ord m,
                               case when pa.x = pb.x and pa.y = pb.y
                                    then sqrt((p.x-pa.x)*(p.x-pa.x)
                                              + (p.y-pa.y)*(p.y-pa.y))
                                    else abs((pb.x-pa.x)*(p.y-pa.y)
                                             - (pb.y-pa.y)*(p.x-pa.x))
                                         / sqrt((pb.x-pa.x)*(pb.x-pa.x)
                                                + (pb.y-pa.y)*(pb.y-pa.y))
                               end dev,
                               row_number() over (
                                   partition by s.pc, s.a, s.b
                                   order by case when pa.x = pb.x
                                                      and pa.y = pb.y
                                    then sqrt((p.x-pa.x)*(p.x-pa.x)
                                              + (p.y-pa.y)*(p.y-pa.y))
                                    else abs((pb.x-pa.x)*(p.y-pa.y)
                                             - (pb.y-pa.y)*(p.x-pa.x))
                                         / sqrt((pb.x-pa.x)*(pb.x-pa.x)
                                                + (pb.y-pa.y)*(pb.y-pa.y))
                               end desc, p.ord asc) rn
                        from segs s
                        join pts p on p.pc = s.pc and p.ord > s.a
                                   and p.ord < s.b
                        join pts pa on pa.pc = s.pc and pa.ord = s.a
                        join pts pb on pb.pc = s.pc and pb.ord = s.b)
                    where rn = 1 and dev > 0.01) v,
                unnest([[v.a, v.m], [v.m, v.b]]) u(e))
            select pc as post_code, cast(ord as bigint) as place_id
            from (select pc, a ord from segs
                  union select pc, b from segs)""",
        "geo_hex_kring_density": f"""
            -- per occupied cell: counts summed over the 1-ring disc
            -- (hex distance (|dq|+|dr|+|dq+dr|)/2 <= 1, incl. self);
            -- cell ids unpacked via the zigzag inverse
            with pts as ({_hex_sql(gaz)}),
            cnt as (select hex_cell, count(*) n from pts group by 1),
            ax as (select hex_cell, n,
                     ((hex_cell >> 28) & ((1 << 28) - 1)) zq,
                     (hex_cell & ((1 << 28) - 1)) zr
                   from cnt),
            axd as (select hex_cell, n,
                      case when zq % 2 = 0 then zq // 2
                           else -((zq + 1) // 2) end q,
                      case when zr % 2 = 0 then zr // 2
                           else -((zr + 1) // 2) end r
                    from ax)
            select a.hex_cell, cast(sum(b.n) as bigint) as n_ring
            from axd a join axd b
              on (abs(a.q - b.q) + abs(a.r - b.r)
                  + abs((a.q - b.q) + (a.r - b.r))) // 2 <= 1
            group by 1""",
        "geo_hex_rollup": f"""
            with h as ({_hex_sql(gaz)})
            select hex_cell, count(*) as n from h group by 1""",
        "geo_hex_rollup_pipeline": f"""
            select hex_cell, count(*) as n
            from read_parquet('{s01}/hex_rollup_input/*.parquet')
            group by 1""",
        "doc_langid": _langid_sql("documents"),
        "doc_fingerprint": _fingerprint_sql("documents"),
        "doc_minhash_pairs": _minhash_sql("documents", threshold=0.5),
        "doc_dup_clusters": f"""
            -- transitive closure over the SQL-recomputed pair list:
            -- comp = min node reachable through the undirected graph
            with recursive p as ({_minhash_sql("documents",
                                               threshold=0.5)}),
            e as (select id_a u, id_b v from p
                  union select id_b, id_a from p),
            n as (select distinct u as node from e),
            reach(node, r) as (
                select node, node from n
                union
                select e.v, reach.r from reach
                join e on e.u = reach.node)
            select node as doc_id, cast(min(r) as bigint) as comp
            from reach group by node""",
        "doc_dedup_near": f"""
            with recursive p as ({_minhash_sql("documents",
                                               threshold=0.5)}),
            e as (select id_a u, id_b v from p
                  union select id_b, id_a from p),
            n as (select distinct u as node from e),
            reach(node, r) as (
                select node, node from n
                union
                select e.v, reach.r from reach
                join e on e.u = reach.node),
            comp as (select node, min(r) mc from reach group by node)
            select d.doc_id from documents d
            left join comp c on c.node = d.doc_id
            where c.node is null or c.node = c.mc""",
        "doc_simhash_pairs": _simhash_sql("documents", max_hamming=3),
        "doc_ngram_jaccard": _ngram_sql("documents", threshold=0.6),
        "emb_dup_pairs": """
            select a.vec_id as id_a, b.vec_id as id_b
            from embeddings a join embeddings b on a.vec_id < b.vec_id
            where list_cosine_similarity(a.embedding, b.embedding)
                  >= 0.95""",
        "media_byte_histogram": f"""
            with h as (select kind,
                         unnest(regexp_extract_all(hex(payload), '..')) hx
                       from read_parquet('{s01}/media.parquet')
                       where payload is not null
                         and octet_length(payload) > 0),
            v as (select kind,
                     cast((strpos('0123456789ABCDEF', substr(hx, 1, 1))
                           - 1) * 16
                          + strpos('0123456789ABCDEF', substr(hx, 2, 1))
                          - 1 as bigint) byte
                  from h)
            select kind, byte, cast(count(*) as bigint) as n
            from v group by 1, 2""",
        "media_features": f"""
            select media_id, kind, cast(16 as bigint) as feature_dim
            from read_parquet('{s01}/media.parquet')""",
        "media_frames": f"""
            select media_id,
                   cast(ceil(greatest(duration_ms, 1) / 1000.0) as bigint)
                   as n
            from read_parquet('{s01}/media.parquet')
            where kind = 'video'""",
        "geo_batch_match_content": f"""
            with g as (
                select {norm_name} k, post_code, min(place_id) pid
                from {gaz} where place_rank = 26 and {norm_name} <> ''
                group by 1, 2),
            a as (select addr_key, {norm_street} k, post_code
                  from {addrs}),
            expct as (select a.addr_key, g.pid
                      from a join g on a.k = g.k
                                    and a.post_code = g.post_code),
            snap as (select addr_key from read_parquet(
                         '{s01}/batch_match_content_input/*.parquet')
                     where m_place_rank in (26, 30))
            select s.addr_key, e.pid as street_pid
            from snap s join expct e using (addr_key)""",
        "geo_docs_match_content": f"""
            with g as (
                select {norm_name} k, post_code, min(place_id) pid
                from {gaz} where place_rank = 26 and {norm_name} <> ''
                group by 1, 2),
            snap as (select doc_id, span_idx,
                            {_SQL_NORM.format(col="street_name")} k,
                            post_code
                     from read_parquet(
                         '{s01}/docs_match_content_input/*.parquet')
                     where m_place_rank in (26, 30))
            select s.doc_id, cast(s.span_idx as bigint) as span_idx,
                   g.pid as street_pid
            from snap s join g on s.k = g.k
                               and s.post_code = g.post_code""",
        # round 5: FULL-OUTPUT hash oracles for the two flagship
        # pipelines — every value column recomputed from raw tables (see
        # _full_output_sql); zero no_oracle rows remain
        "geo_batch_geocode": _full_output_sql(
            f"{s01}/batch_geocode_full/*.parquet", gaz,
            f"{s01}/boundaries.parquet", docs_mode=False),
        "geo_documents_pipeline": _full_output_sql(
            f"{s01}/documents_pipeline_full/*.parquet", gaz,
            f"{s01}/boundaries.parquet", docs_mode=True),
        # round 5: the input strings are the ECHOED compare-time fields
        # (CMP snapshot parameters) — every cascade method is scored, no
        # method-conditional blanking (the echo already contains the
        # transformer/blanking output the comparator saw)
        "geo_reject_adjudication": _adjudication_sql(
            f"{s01}/reject_adjudication_input/*.parquet", gaz,
            _CMP_INPUT_CTE),
        "geo_docs_reject_adjudication": _adjudication_sql(
            f"{s01}/docs_reject_adjudication_input/*.parquet", gaz,
            _CMP_INPUT_CTE),
        "geo_reject_distance": _distance_sql(
            f"{s01}/reject_distance_input/*.parquet", gaz),
        "geo_docs_reject_distance": _distance_sql(
            f"{s01}/docs_reject_distance_input/*.parquet", gaz),
        "geo_match_selection": _match_selection_sql(
            f"{s01}/match_selection_cands/*.parquet",
            f"{s01}/match_selection_matches/*.parquet", gaz),
        "emb_topk_ivf_recall": f"""
            with q as (select vec_id qid, embedding qe from embeddings
                       where vec_id < 5),
            d as (select q.qid, e.vec_id,
                         row_number() over (partition by q.qid order by
                           list_cosine_similarity(q.qe, e.embedding) desc,
                           e.vec_id asc) rnk
                  from q, embeddings e),
            snap as (select query_id, vec_id from read_parquet(
                         '{s01}/ivf_topk_input/*.parquet')),
            qs as (select distinct query_id from snap)
            select qs.query_id,
                   (select count(*) from snap s
                    join d on d.qid = s.query_id and d.vec_id = s.vec_id
                    where d.rnk <= 5 and s.query_id = qs.query_id)
                   as n_hits
            from qs""",
        "geo_knn_rescue": f"""
            -- full content recompute of the exact-mode kNN rescue: the
            -- snapshot provides row selection (unmatched addresses +
            -- raw street/postcode); suggestions are recomputed from the
            -- raw gazetteer.  Score mirrors the engine expression
            -- op-for-op: 0.5*(j + (pl*0.1)*(1-j)) + 0.5*(1 - lev/max),
            -- with j = jaro_similarity and pl = common prefix (<=4).
            with snap as (
                select addr_key, {norm_street} qn,
                       cast(post_code as varchar) pc
                from read_parquet('{s01}/knn_rescue_input/*.parquet')),
            q as (select addr_key, qn, substr(pc, 1, 2) pc2,
                         array_to_string(list_sort(string_split(qn, ' ')),
                                         ' ') tn
                  from snap where qn <> ''),
            streets as (
                select place_id, name, {norm_name} cn,
                       substr(cast(post_code as varchar), 1, 2) sp2
                from {gaz} where place_rank = 26),
            st2 as (select place_id, name, cn, sp2,
                           array_to_string(list_sort(string_split(cn, ' ')),
                                           ' ') tcn
                    from streets),
            qb as (select q.*,
                          exists (select 1 from streets t
                                  where t.sp2 = q.pc2) has_bucket
                   from q),
            pairs as (
                select b.addr_key, t.place_id, t.name,
                       jaro_similarity(b.qn, t.cn) j,
                       (case when substr(b.qn,1,1) = substr(t.cn,1,1)
                                  and substr(b.qn,1,1) <> '' then
                          case when substr(b.qn,2,1) = substr(t.cn,2,1)
                                    and substr(b.qn,2,1) <> '' then
                            case when substr(b.qn,3,1) = substr(t.cn,3,1)
                                      and substr(b.qn,3,1) <> '' then
                              case when substr(b.qn,4,1) = substr(t.cn,4,1)
                                        and substr(b.qn,4,1) <> '' then 4
                              else 3 end
                            else 2 end
                          else 1 end
                        else 0 end) pl,
                       1.0 - levenshtein(b.tn, t.tcn)
                             / greatest(greatest(length(b.tn),
                                                 length(t.tcn)), 1) tok
                from qb b join st2 t
                  on (b.has_bucket and t.sp2 = b.pc2)
                     or (not b.has_bucket)),
            scored as (
                select addr_key, place_id, name,
                       0.5 * (j + (pl * 0.1) * (1 - j)) + 0.5 * tok s
                from pairs),
            ranked as (
                select addr_key, place_id, name,
                       row_number() over (partition by addr_key
                                          order by s desc, place_id) rk
                from scored)
            select addr_key, cast(rk as bigint) sugg_rank, place_id,
                   name street_sugg
            from ranked where rk <= 3""",
        "geo_knn_rescue_struct": f"""
            with streets as (select place_id, substr(post_code, 1, 2) p2
                             from {gaz} where place_rank = 26),
            prefixes as (select distinct p2 from streets),
            snap as (select addr_key, post_code, sugg_rank, place_id
                     from read_parquet(
                         '{s01}/knn_rescue_struct_input/*.parquet'))
            select s.addr_key, s.sugg_rank, s.place_id,
                   case
                     when st.place_id is null then 'violated'
                     when exists (select 1 from prefixes p
                                  where p.p2 = substr(s.post_code, 1, 2))
                       then case when st.p2 = substr(s.post_code, 1, 2)
                                 then 'bucket:ok' else 'violated' end
                     else 'global:ok'
                   end as scope_check
            from snap s left join streets st using (place_id)""",
        "geo_pip_validate": f"""
            with b as (select bnd_idx, post_code bpc, ring_lat, ring_lon
                       from read_parquet('{s01}/boundaries.parquet')),
            snap as (select addr_key, post_code, o_lat, o_lon
                     from read_parquet(
                         '{s01}/pip_validate_input/*.parquet')),
            cont as (
                select s.addr_key, s.post_code, b.bpc, b.bnd_idx,
                       (list_sum([case
                          when (case when ring_lat[i] > s.o_lat
                                     then 1 else 0 end)
                            <> (case when ring_lat[i+1] > s.o_lat
                                     then 1 else 0 end)
                           and ring_lat[i+1] <> ring_lat[i]
                           and s.o_lon < (ring_lon[i+1]-ring_lon[i])
                               * (s.o_lat-ring_lat[i])
                               / (ring_lat[i+1]-ring_lat[i]) + ring_lon[i]
                          then 1 else 0 end
                          for i in range(1, len(ring_lat))]) % 2) = 1
                       as inside
                from snap s, b),
            loc as (select addr_key, post_code,
                           arg_min(bpc, bnd_idx)
                               filter (where inside) as loc_pc
                    from cont group by 1, 2)
            select addr_key,
                   case when loc_pc = post_code or post_code = ''
                        then 1 else 0 end as pip_ok
            from loc""",
        "geo_raster_points": f"""
            select cast(floor((lat - 49.6) / 0.05) as bigint) as "row",
                   cast(floor((lon - 2.75) / 0.05) as bigint) as "col",
                   count(*) as n
            from {gaz}
            where floor((lat - 49.6) / 0.05) between 0 and 35
              and floor((lon - 2.75) / 0.05) between 0 and 69
            group by 1, 2""",
        "geo_raster_polygons": f"""
            with cells as (
              select r.r, c.c,
                     49.6 + (cast(r.r as double) + 0.5) * 0.05 clat,
                     2.75 + (cast(c.c as double) + 0.5) * 0.05 clon
              from (select unnest(range(36)) r) r,
                   (select unnest(range(70)) c) c),
            b as (select bnd_idx, ring_lat, ring_lon
                  from read_parquet('{s01}/boundaries.parquet'))
            select b.bnd_idx, cast(cells.r as bigint) as "row",
                   cast(cells.c as bigint) as "col"
            from b, cells
            where (list_sum([case
                     when (case when ring_lat[i] > cells.clat
                                then 1 else 0 end)
                       <> (case when ring_lat[i+1] > cells.clat
                                then 1 else 0 end)
                      and ring_lat[i+1] <> ring_lat[i]
                      and cells.clon < (ring_lon[i+1]-ring_lon[i])
                          * (cells.clat-ring_lat[i])
                          / (ring_lat[i+1]-ring_lat[i]) + ring_lon[i]
                     then 1 else 0 end
                     for i in range(1, len(ring_lat))]) % 2) = 1""",
        "geo_raster_vectorize": f"""
            with pts as (
              select cast(floor((lat - 49.6) / 0.05) as bigint) rw,
                     cast(floor((lon - 2.75) / 0.05) as bigint) cl
              from {gaz}
              where floor((lat - 49.6) / 0.05) between 0 and 35
                and floor((lon - 2.75) / 0.05) between 0 and 69),
            r as (select rw, cl, count(*) n from pts
                  group by 1, 2 having count(*) >= 2),
            s as (select rw, cl, n,
                         cl - row_number() over (partition by rw
                                                 order by cl) grp
                  from r)
            select rw as "row", min(cl) as col_start, max(cl) as col_end,
                   cast(count(*) as bigint) as n_cells,
                   cast(sum(n) as bigint) as sum_n
            from s group by rw, grp""",
        "geo_exact_match": f"""
            with g as (
                select {norm_name} k, post_code, min(place_id) place_id
                from {gaz} where place_rank = 26 and {norm_name} <> ''
                group by 1, 2),
            a as (select addr_key, {norm_street} k, post_code from {addrs})
            select a.addr_key, g.place_id
            from a join g on a.k = g.k and a.post_code = g.post_code""",
        "geo_tile_assign": f"""
            select place_id,
                   cast(floor((lat+90)/{SQUARE_CELL_DEG}) as bigint)*{w}
                   + cast(floor((lon+180)/{SQUARE_CELL_DEG}) as bigint)
                   as square_cell
            from {gaz}""",
        "geo_cell_diameter": f"""
            with s as (select place_id,
                   cast(floor((lat+90)/{SQUARE_CELL_DEG}) as bigint)*{w}
                   + cast(floor((lon+180)/{SQUARE_CELL_DEG}) as bigint)
                     as cell,
                   cast(floor(lat*1000000) as bigint) latu,
                   cast(floor(lon*1000000) as bigint) lonu
                   from {gaz} where place_rank = 26),
            p as (select a.cell, a.place_id ia, b.place_id ib,
                         (a.latu-b.latu)*(a.latu-b.latu)
                         + (a.lonu-b.lonu)*(a.lonu-b.lonu) d2
                  from s a join s b
                    on a.cell = b.cell and a.place_id < b.place_id)
            select cell as square_cell, ia as id_a, ib as id_b,
                   cast(d2 as bigint) as d2
            from p qualify row_number() over (
                partition by cell order by d2 desc, ia, ib) = 1""",
        "geo_tile_rollup": f"""
            select cast(floor((lat+90)/{SQUARE_CELL_DEG}) as bigint)*{w}
                   + cast(floor((lon+180)/{SQUARE_CELL_DEG}) as bigint)
                   as square_cell,
                   count(*) as n
            from {gaz} group by 1""",
        "geo_knn": f"""
            with c as (select place_id, lat, lon from {gaz}
                       where place_rank = 16),
            s as (select place_id, lat, lon from {gaz}
                  where place_rank = 26),
            d as (select c.place_id q, s.place_id nb,
                         row_number() over (partition by c.place_id order by
                           2*6371.0088*asin(sqrt(
                             pow(sin(radians(s.lat-c.lat)/2),2)
                             + cos(radians(c.lat))*cos(radians(s.lat))
                               *pow(sin(radians(s.lon-c.lon)/2),2)))
                           asc, s.place_id asc) rnk
                  from c, s)
            select q as query_place_id, nb as neighbor_place_id, rnk
            from d where rnk <= 3""",
        "geo_radius_join": f"""
            with s as (select place_id, lat, lon from {gaz}
                       where place_rank = 26)
            select a.place_id as left_id, b.place_id as right_id
            from s a, s b
            where a.place_id < b.place_id
              and 2*6371.0088*asin(sqrt(
                    pow(sin(radians(b.lat-a.lat)/2),2)
                    + cos(radians(a.lat))*cos(radians(b.lat))
                      *pow(sin(radians(b.lon-a.lon)/2),2))) <= 1.0""",
        "geo_pagerank": _pagerank_sql(gaz),
        "geo_kcore": _kcore_sql(gaz),
        "geo_bfs_hops": _bfs_sql(gaz),
        "geo_triangles": f"""
            with s as (select place_id, lat, lon from {gaz}
                       where place_rank = 26),
            e as (select a.place_id u, b.place_id v
                  from s a, s b
                  where a.place_id < b.place_id
                    and 2*6371.0088*asin(sqrt(
                          pow(sin(radians(b.lat-a.lat)/2),2)
                          + cos(radians(a.lat))*cos(radians(b.lat))
                            *pow(sin(radians(b.lon-a.lon)/2),2))) <= 1.0),
            tri as (select a.u x, a.v y, b.v z
                    from e a join e b on b.u = a.v
                             join e c on c.u = a.u and c.v = b.v),
            n as (select x node from tri
                  union all select y from tri
                  union all select z from tri)
            select node, cast(count(*) as bigint) as n_triangles
            from n group by node""",
        "geo_dbscan": f"""
            with recursive s as (select place_id, lat, lon from {gaz}
                       where place_rank = 26),
            e as (select a.place_id u, b.place_id v
                  from s a, s b
                  where a.place_id <> b.place_id
                    and 2*6371.0088*asin(sqrt(
                          pow(sin(radians(b.lat-a.lat)/2),2)
                          + cos(radians(a.lat))*cos(radians(b.lat))
                            *pow(sin(radians(b.lon-a.lon)/2),2))) <= 1.0),
            deg as (select u, count(*) d from e group by u),
            core as (select u from deg where d + 1 >= 3),
            ce as (select e.u, e.v from e
                   join core cu on cu.u = e.u
                   join core cv on cv.u = e.v),
            reach(node, r) as (
                select u, u from core
                union
                select ce.v, reach.r from reach
                join ce on ce.u = reach.node),
            comp as (select node, min(r) c from reach group by node),
            border as (
                select e.u node, min(comp.c) c
                from e join comp on comp.node = e.v
                where e.u not in (select u from core)
                group by e.u)
            select s.place_id,
                   case when comp.node is not null then 'core'
                        when border.node is not null then 'border'
                        else 'noise' end as role,
                   cast(coalesce(comp.c, border.c, -1) as bigint)
                       as cluster
            from s
            left join comp on comp.node = s.place_id
            left join border on border.node = s.place_id""",
        "geo_path_length": f"""
            with s as (select cast(post_code as varchar) post_code,
                              place_id, lat, lon
                       from {gaz} where place_rank = 26),
            o as (select post_code, lat, lon,
                         lag(lat) over w plat, lag(lon) over w plon
                  from s window w as (partition by post_code
                                      order by place_id)),
            seg as (select post_code,
                           cast(floor(1e6 * 2*6371.0088*asin(sqrt(
                                 pow(sin(radians(lat-plat)/2),2)
                                 + cos(radians(plat))*cos(radians(lat))
                                   *pow(sin(radians(lon-plon)/2),2))))
                                as bigint) d
                    from o where plat is not null)
            select post_code, count(*) as n_segments,
                   cast(sum(d) as bigint) as path_ukm
            from seg group by post_code""",
        "geo_path_bearing": f"""
            with s as (select cast(post_code as varchar) post_code,
                              place_id, lat, lon
                       from {gaz} where place_rank = 26),
            o as (select post_code, lat, lon,
                         lag(lat) over w plat, lag(lon) over w plon
                  from s window w as (partition by post_code
                                      order by place_id)),
            leg as (select post_code,
                      degrees(atan2(
                        sin(radians(lon-plon))*cos(radians(lat)),
                        cos(radians(plat))*sin(radians(lat))
                        - sin(radians(plat))*cos(radians(lat))
                          *cos(radians(lon-plon)))) deg
                    from o where plat is not null),
            ub as (select post_code,
                     cast(floor(1e6 * (case when deg < 0 then deg + 360
                                       else deg end)) as bigint) b
                   from leg)
            select post_code, count(*) as n_legs,
                   cast(sum(b) as bigint) as bearing_usum,
                   cast(count(*) filter (where b > 0
                                         and b < 180000000) as bigint)
                     as east_legs
            from ub group by post_code""",
        "geo_hilbert_index": _hilbert_sql(gaz),
        "geo_hilbert_ranges": f"""
            with t as ({_hilbert_sql(gaz)}),
            sp as (select min(hilbert_d) d0,
                          max(hilbert_d) - min(hilbert_d) + 1 w from t)
            select ((t.hilbert_d - sp.d0) * 8) // sp.w as h_range,
                   cast(count(*) as bigint) as n,
                   min(t.hx) as min_x, max(t.hx) as max_x,
                   min(t.hy) as min_y, max(t.hy) as max_y
            from t, sp
            group by 1""",
        "geo_od_flows": f"""
            with s as (select cast(post_code as varchar) post_code,
                              place_id, lat, lon
                       from {gaz} where place_rank = 26),
            c as (select post_code, place_id,
                         cast(floor((lat+90.0)/0.2) as bigint) * 1800
                         + cast(floor((lon+180.0)/0.2) as bigint) cell
                  from s),
            o as (select post_code, cell d_cell, lag(cell) over w o_cell
                  from c window w as (partition by post_code
                                      order by place_id))
            select o_cell, d_cell, cast(count(*) as bigint) as n_flows
            from o where o_cell is not null
            group by 1, 2""",
        "geo_self_crossings": f"""
            with s as (select cast(post_code as varchar) post_code,
                              place_id,
                              cast(floor(lat*1e6) as bigint) y,
                              cast(floor(lon*1e6) as bigint) x
                       from {gaz} where place_rank = 26),
            seg as (select post_code, place_id sid, x bx, y by_,
                           lag(x) over w ax, lag(y) over w ay,
                           lag(place_id) over w said
                    from s window w as (partition by post_code
                                        order by place_id)),
            sg as (select post_code, said sid, ax, ay, bx, by_
                   from seg where ax is not null),
            o as (select a.post_code, a.sid sa, b.sid sb,
                   sign((a.bx-a.ax)*(b.ay-a.ay)
                        - (a.by_-a.ay)*(b.ax-a.ax)) o1,
                   sign((a.bx-a.ax)*(b.by_-a.ay)
                        - (a.by_-a.ay)*(b.bx-a.ax)) o2,
                   sign((b.bx-b.ax)*(a.ay-b.ay)
                        - (b.by_-b.ay)*(a.ax-b.ax)) o3,
                   sign((b.bx-b.ax)*(a.by_-b.ay)
                        - (b.by_-b.ay)*(a.bx-b.ax)) o4
                  from sg a join sg b
                    on a.post_code = b.post_code and a.sid < b.sid)
            select post_code, sa as seg_a, sb as seg_b
            from o where o1*o2 = -1 and o3*o4 = -1""",
        "geo_street_moments": f"""
            with s as (select cast(post_code as varchar) post_code,
                              cast(floor(lon*1e6) as bigint) x,
                              cast(floor(lat*1e6) as bigint) y
                       from {gaz} where place_rank = 26),
            t as (select post_code,
                         x - min(x) over (partition by post_code) xt,
                         y - min(y) over (partition by post_code) yt,
                         min(x) over (partition by post_code) x0,
                         min(y) over (partition by post_code) y0
                  from s)
            select post_code, cast(count(*) as bigint) as n,
                   cast(min(x0) as bigint) as x0,
                   cast(min(y0) as bigint) as y0,
                   cast(sum(xt) as bigint) as sx,
                   cast(sum(yt) as bigint) as sy,
                   cast(sum(xt*yt) as bigint) as sxy,
                   cast(sum(xt*xt) as bigint) as sxx,
                   cast(sum(yt*yt) as bigint) as syy
            from t group by post_code""",
        "geo_snap_to_segment": f"""
            with s as (select cast(post_code as varchar) post_code,
                              place_id, lon px, lat py
                       from {gaz} where place_rank = 26),
            seg as (select post_code, place_id eid,
                           lag(place_id) over w said,
                           px bx, py by_,
                           lag(px) over w ax, lag(py) over w ay
                    from s window w as (partition by post_code
                                        order by place_id)),
            sg as (select post_code, said, eid, ax x1, ay y1,
                          bx - ax dx, by_ - ay dy
                   from seg where said is not null),
            t1 as (select s.place_id, sg.said, s.px, s.py,
                          sg.x1, sg.y1, sg.dx, sg.dy,
                          least(greatest(
                            ((s.px - sg.x1)*sg.dx + (s.py - sg.y1)*sg.dy)
                            / (sg.dx*sg.dx + sg.dy*sg.dy), 0), 1) tc
                   from s join sg on sg.post_code = s.post_code
                   where sg.said <> s.place_id
                     and sg.eid <> s.place_id),
            t2 as (select place_id, said,
                          px - (x1 + tc*dx) ex, py - (y1 + tc*dy) ey
                   from t1),
            t3 as (select place_id, said, sqrt(ex*ex + ey*ey) dist,
                          row_number() over (partition by place_id
                            order by sqrt(ex*ex + ey*ey) asc, said asc) rn
                   from t2)
            select place_id, said as seg_id,
                   cast(floor(1e6 * dist) as bigint) as snap_udeg
            from t3 where rn = 1""",
        "geo_boundary_margin": f"""
            with b as (select cast(post_code as varchar) post_code,
                              ring_lat, ring_lon
                       from read_parquet('{s01}/boundaries.parquet')),
            e as (select post_code,
                         ring_lon[i] x1, ring_lat[i] y1,
                         ring_lon[i+1] - ring_lon[i] dx,
                         ring_lat[i+1] - ring_lat[i] dy
                  from b, unnest(range(1, len(ring_lat))) t(i)
                  where not (ring_lon[i] = ring_lon[i+1]
                             and ring_lat[i] = ring_lat[i+1])),
            s as (select place_id, cast(post_code as varchar) post_code,
                         lon px, lat py
                  from {gaz} where place_rank = 26),
            t1 as (select s.place_id, s.px, s.py, e.x1, e.y1, e.dx, e.dy,
                          least(greatest(((s.px - e.x1) * e.dx
                                          + (s.py - e.y1) * e.dy)
                                         / (e.dx * e.dx + e.dy * e.dy),
                                         0), 1) tc
                   from s join e on e.post_code = s.post_code),
            t2 as (select place_id,
                          px - (x1 + tc * dx) ex,
                          py - (y1 + tc * dy) ey
                   from t1)
            select place_id,
                   cast(floor(1e6 * min(sqrt(ex * ex + ey * ey)))
                        as bigint) as margin_udeg
            from t2 group by place_id""",
        "geo_hotspot_cells": f"""
            with c as (select
                cast(floor((lat+90)/{SQUARE_CELL_DEG}) as bigint)*{w}
                + cast(floor((lon+180)/{SQUARE_CELL_DEG}) as bigint) cell
              from {gaz} where place_rank = 26),
            cnt as (select cell, cast(count(*) as bigint) n
                    from c group by cell),
            nbr as (select a.cell + dy.v * {w} + dx.v cell,
                           case when dx.v = 0 and dy.v = 0
                                then n else 0 end n_self,
                           n n_nbr
                    from cnt a, (values (-1),(0),(1)) dx(v),
                         (values (-1),(0),(1)) dy(v)),
            agg as (select cell, cast(sum(n_self) as bigint) n_self,
                           cast(sum(n_nbr) as bigint) n_nbr
                    from nbr group by cell)
            select cell, n_self, n_nbr from agg where n_self > 0""",
        "geo_nearest_join": f"""
            with s as (select place_id, lat, lon from {gaz}
                       where place_rank = 26),
            d as (select a.place_id l, b.place_id r,
                         row_number() over (partition by a.place_id order by
                           2*6371.0088*asin(sqrt(
                             pow(sin(radians(b.lat-a.lat)/2),2)
                             + cos(radians(a.lat))*cos(radians(b.lat))
                               *pow(sin(radians(b.lon-a.lon)/2),2)))
                           asc, b.place_id asc) rn
                  from s a, s b
                  where a.place_id <> b.place_id
                    and 2*6371.0088*asin(sqrt(
                          pow(sin(radians(b.lat-a.lat)/2),2)
                          + cos(radians(a.lat))*cos(radians(b.lat))
                            *pow(sin(radians(b.lon-a.lon)/2),2))) <= 1.0)
            select l as left_id, r as right_id from d where rn = 1""",
        "geo_quad_assign": f"""
            with p as (select place_id,
              least(greatest(cast(floor((lon+180.0)/360.0*262144)
                    as bigint), 0), 262143) x,
              least(greatest(cast(floor((lat+90.0)/180.0*262144)
                    as bigint), 0), 262143) y
              from {gaz})
            select place_id,
              (cast(18 as bigint) << 56)
               | cast(list_sum([(((x >> i) & 1) << (2*i))
                   + (((y >> i) & 1) << (2*i+1))
                   for i in range(0,18)]) as bigint) as qcell,
              (cast(17 as bigint) << 56)
               | cast(list_sum([((((x>>1) >> i) & 1) << (2*i))
                   + ((((y>>1) >> i) & 1) << (2*i+1))
                   for i in range(0,17)]) as bigint) as qparent
            from p""",
        "geo_quad_compact": _quad_compact_sql(gaz),
        # roundtrip oracle is the RAW mask (stop=level renders zero
        # promotion steps): compact->uncompact must reproduce it exactly
        "geo_quad_roundtrip":
            f"select cell from ({_quad_compact_sql(gaz, 12, 12)})",
        "geo_quad_polyfill": _quad_polyfill_sql(
            f"(select bnd_idx, ring_lat, ring_lon "
            f"from read_parquet('{s01}/boundaries.parquet'))"),
        "geo_idw": f"""
            with s as (select place_id, lat, lon,
                              case when house_numbers = '' then 0
                                   else len(string_split(house_numbers,
                                                         ';')) end v
                       from {gaz} where place_rank = 26),
            cells as (select distinct
                        cast(floor((lat+90)/{SQUARE_CELL_DEG}) as bigint)
                          *{w}
                        + cast(floor((lon+180)/{SQUARE_CELL_DEG})
                               as bigint) cell_id
                      from s),
            ctr as (select cell_id,
                           -90 + (cell_id // {w} + 0.5)
                                 * {SQUARE_CELL_DEG} clat,
                           -180 + (cell_id % {w} + 0.5)
                                  * {SQUARE_CELL_DEG} clon
                    from cells),
            pairs as (select c.cell_id, s.v,
                        cast(floor(1000 * 2*6371.0088*asin(sqrt(
                              pow(sin(radians(s.lat-c.clat)/2),2)
                              + cos(radians(c.clat))*cos(radians(s.lat))
                                *pow(sin(radians(s.lon-c.clon)/2),2))))
                             as bigint) dm
                      from ctr c, s
                      where 2*6371.0088*asin(sqrt(
                              pow(sin(radians(s.lat-c.clat)/2),2)
                              + cos(radians(c.clat))*cos(radians(s.lat))
                                *pow(sin(radians(s.lon-c.clon)/2),2)))
                            <= 1.0),
            wts as (select cell_id,
                           1000000000 // greatest(dm, 1) w, v
                    from pairs)
            select cell_id, cast(sum(w*v) as bigint) as num,
                   cast(sum(w) as bigint) as den
            from wts group by 1""",
        "geo_zone_join": f"""
            with b as (select bnd_idx, ring_lat, ring_lon
                       from read_parquet('{s01}/boundaries.parquet')),
            s as (select place_id, lat, lon from {gaz}
                  where place_rank = 26),
            cont as (
                select s.place_id, b.bnd_idx,
                       (list_sum([case
                          when (case when ring_lat[i] > s.lat
                                     then 1 else 0 end)
                            <> (case when ring_lat[i+1] > s.lat
                                     then 1 else 0 end)
                           and ring_lat[i+1] <> ring_lat[i]
                           and s.lon < (ring_lon[i+1]-ring_lon[i])
                               * (s.lat-ring_lat[i])
                               / (ring_lat[i+1]-ring_lat[i]) + ring_lon[i]
                          then 1 else 0 end
                          for i in range(1, len(ring_lat))]) % 2) = 1
                       as inside
                from s, b),
            agg as (select place_id,
                           min(bnd_idx) filter (where inside) z
                    from cont group by 1)
            select place_id, cast(coalesce(z, -1) as bigint) as zone
            from agg""",
        "geo_geohash": f"""
            -- geohash-7: lon-first MSB interleave (18 lon bits, 17 lat)
            -- then base-32 chars; same floor grid math as the quad id
            with p as (select place_id,
              least(greatest(cast(floor((lon+180.0)/360.0*262144)
                    as bigint), 0), 262143) x,
              least(greatest(cast(floor((lat+90.0)/180.0*131072)
                    as bigint), 0), 131071) y
              from {gaz}),
            c as (select place_id,
              cast(list_sum([(((x >> (17-i)) & 1) << (34-2*i))
                  + (((y >> (16-i)) & 1) << (33-2*i))
                  for i in range(0,17)]) as bigint) + (x & 1) as code
              from p),
            g as (select place_id,
              array_to_string([substr('0123456789bcdefghjkmnpqrstuvwxyz',
                  cast(((code >> (5*(6-i))) & 31) as int) + 1, 1)
                  for i in range(0,7)], '') as gh7
              from c)
            select place_id, gh7, substr(gh7, 1, 5) as gh5 from g""",
        "geo_bbox_agg": f"""
            select post_code,
                   min(cast(floor(lat*1000000) as bigint)) as lat_min,
                   max(cast(floor(lat*1000000) as bigint)) as lat_max,
                   min(cast(floor(lon*1000000) as bigint)) as lon_min,
                   max(cast(floor(lon*1000000) as bigint)) as lon_max,
                   count(*) as n
            from {gaz} where place_rank = 26 group by 1""",
        "geo_polygon_centroid": f"""
            with b as (select bnd_idx,
              [cast(floor(x*1000000) as bigint) for x in ring_lon] xs0,
              [cast(floor(y*1000000) as bigint) for y in ring_lat] ys0,
              len(ring_lat) n
              from read_parquet('{s01}/boundaries.parquet')),
            t0 as (select bnd_idx, n, xs0, ys0,
                          list_min(xs0) x0, list_min(ys0) y0 from b),
            t as (select bnd_idx, n, x0, y0,
                         [x - x0 for x in xs0] xs,
                         [y - y0 for y in ys0] ys
                  from t0)
            select bnd_idx, x0, y0,
                   cast(list_sum([xs[i]*ys[i % n + 1]
                                  - xs[i % n + 1]*ys[i]
                                  for i in range(1, n + 1)])
                        as bigint) as a2,
                   cast(list_sum([(xs[i]+xs[i % n + 1])
                                  * (xs[i]*ys[i % n + 1]
                                     - xs[i % n + 1]*ys[i])
                                  for i in range(1, n + 1)])
                        as bigint) as cx_num,
                   cast(list_sum([(ys[i]+ys[i % n + 1])
                                  * (xs[i]*ys[i % n + 1]
                                     - xs[i % n + 1]*ys[i])
                                  for i in range(1, n + 1)])
                        as bigint) as cy_num
            from t""",
        "geo_polygon_area": f"""
            with b as (select bnd_idx,
              [cast(floor(x*1000000) as bigint) for x in ring_lon] xs,
              [cast(floor(y*1000000) as bigint) for y in ring_lat] ys,
              len(ring_lat) n
              from read_parquet('{s01}/boundaries.parquet'))
            select bnd_idx,
                   cast(abs(list_sum([xs[i]*ys[i % n + 1]
                                      - xs[i % n + 1]*ys[i]
                                      for i in range(1, n + 1)]))
                        as bigint) as area2_u
            from b""",
        "rel_median_per_key": """
            with c as (select o_custkey,
                          cast(floor(o_totalprice*100+0.5) as bigint) cents
                       from orders),
            r as (select o_custkey, cents,
                         row_number() over (partition by o_custkey
                                            order by cents) rn,
                         count(*) over (partition by o_custkey) n
                  from c)
            select o_custkey, cents as med_cents
            from r where rn = (n + 1) // 2""",
        "rel_groupby_agg": """
            select l_returnflag, l_linestatus,
                   cast(sum(cast(l_quantity as bigint)) as bigint) as sum_qty,
                   cast(sum(cast(floor(l_extendedprice*(1-l_discount)*100+0.5)
                            as bigint)) as bigint) as sum_rev_c,
                   count(*) as n
            from lineitem group by 1, 2""",
        "rel_top1_per_key": """
            with r as (select o_custkey, o_orderkey, o_totalprice,
                              row_number() over (partition by o_custkey
                                order by o_totalprice desc, o_orderkey asc)
                              rn
                       from orders)
            select o_custkey, o_orderkey, o_totalprice
            from r where rn = 1""",
        "rel_anti_join": """
            select c_custkey from customer
            where not exists (select 1 from orders
                              where o_custkey = c_custkey)""",
        "rel_topk_global": """
            with r as (select o_orderkey,
                              row_number() over (order by o_totalprice
                                  desc, o_orderkey asc) rnk
                       from orders)
            select o_orderkey, rnk from r where rnk <= 10""",
        "rel_broadcast_join": """
            select c_mktsegment, count(*) as n,
                   cast(sum(cast(floor(o_totalprice*100+0.5) as bigint))
                        as bigint) as sum_rev_c
            from orders join customer on o_custkey = c_custkey
            group by 1""",
        "rel_first_event": """
            with r as (select user_id, event_id,
                              row_number() over (partition by user_id
                                order by ts asc, event_id asc) rn
                       from events)
            select user_id, event_id from r where rn = 1""",
        "rel_asof_join": """
            with j as (
                select e.event_id, o.o_orderkey,
                       row_number() over (partition by e.event_id
                           order by o.o_orderdate desc, o.o_orderkey desc)
                       rn
                from events e join orders o
                  on o.o_custkey = e.user_id and o.o_orderdate <= e.ts)
            select event_id, o_orderkey as asof_orderkey
            from j where rn = 1""",
        "rel_funnel": """
            with v as (select user_id, min(ts) t1 from events
                       where event_type = 'view' group by 1),
            c as (select e.user_id, min(e.ts) t2 from events e
                  join v on v.user_id = e.user_id
                  where e.event_type = 'click' and e.ts > v.t1
                  group by 1),
            p as (select e.user_id, min(e.ts) t3 from events e
                  join c on c.user_id = e.user_id
                  where e.event_type = 'purchase' and e.ts > c.t2
                  group by 1)
            select v.user_id,
                   cast(1 + (case when c.user_id is not null
                             then 1 else 0 end)
                          + (case when p.user_id is not null
                             then 1 else 0 end) as bigint) funnel_stage,
                   epoch_us(v.t1) t_view_us,
                   coalesce(epoch_us(c.t2), -1) t_click_us,
                   coalesce(epoch_us(p.t3), -1) t_purchase_us
            from v left join c on c.user_id = v.user_id
                   left join p on p.user_id = v.user_id""",
        "rel_ntile": """
            select o_orderkey,
                   cast(ntile(4) over (partition by o_orderpriority
                        order by o_totalprice, o_orderkey) as bigint)
                     as quartile
            from orders""",
        "rel_dense_daily": """
            with d as (select event_type,
                              epoch_us(ts) // 86400000000 as day
                       from events),
            a as (select min(day) as d0 from d),
            t as (select distinct event_type from d),
            s as (select a.d0 + x.i as day
                  from a cross join generate_series(0, 39) as x(i)),
            c as (select event_type, day, count(*) n
                  from d group by 1, 2)
            select t.event_type, cast(s.day as bigint) as day,
                   cast(coalesce(c.n, 0) as bigint) as n
            from t cross join s
            left join c on c.event_type = t.event_type
                       and c.day = s.day""",
        "rel_region_rollup": """
            select r.r_name,
                   cast(count(*) as bigint) as n_orders,
                   cast(sum(cast(round(o.o_totalprice*100) as bigint))
                        as bigint) as rev_cents
            from orders o
            join customer c on c.c_custkey = o.o_custkey
            join nation n on n.n_nationkey = c.c_nationkey
            join region r on r.r_regionkey = n.n_regionkey
            group by 1""",
        "rel_pair_support": """
            with u as (select distinct user_id, event_type
                       from events)
            select a.event_type as type_a, b.event_type as type_b,
                   cast(count(*) as bigint) as n_users
            from u a join u b
              on a.user_id = b.user_id
             and a.event_type < b.event_type
            group by 1, 2""",
        "rel_pivot": """
            select o_orderpriority,
                   cast(sum(case when o_orderstatus = 'O' then 1
                            else 0 end) as bigint) as n_open,
                   cast(sum(case when o_orderstatus = 'F' then 1
                            else 0 end) as bigint) as n_filled,
                   cast(sum(case when o_orderstatus = 'P' then 1
                            else 0 end) as bigint) as n_pending
            from orders group by 1""",
        "rel_above_group_avg": """
            with s as (select c.c_custkey, c.c_nationkey as nation,
                              cast(coalesce(sum(cast(
                                  round(o.o_totalprice*100) as bigint)),
                                  0) as bigint) as spend_c
                       from customer c left join orders o
                         on o.o_custkey = c.c_custkey
                       group by 1, 2),
            t as (select nation, sum(spend_c) tot, count(*) n
                  from s group by 1)
            select s.c_custkey, s.nation, s.spend_c as spend_cents
            from s join t on t.nation = s.nation
            where s.spend_c * t.n > t.tot""",
        "rel_union_sources": """
            with o as (select distinct o_custkey as id from orders),
            e as (select distinct user_id as id from events)
            select coalesce(o.id, e.id) as id,
                   cast(case when o.id is null then 0 else 1 end
                        as bigint) as in_orders,
                   cast(case when e.id is null then 0 else 1 end
                        as bigint) as in_events
            from o full outer join e on e.id = o.id""",
        "rel_left_join": """
            select c.c_custkey, c.c_nationkey,
                   cast(count(o.o_custkey) as bigint) as n_orders,
                   cast(coalesce(sum(cast(round(o.o_totalprice*100)
                                          as bigint)), 0) as bigint)
                     as rev_cents
            from customer c left join orders o
              on o.o_custkey = c.c_custkey
            group by 1, 2""",
        "rel_moving_sum": """
            select o_orderkey,
                   cast(sum(cast(round(o_totalprice*100) as bigint))
                        over (partition by o_custkey
                              order by o_orderdate, o_orderkey
                              rows between 2 preceding and current row)
                        as bigint) as moving_cents
            from orders""",
        "rel_hash_join": """
            select o.o_orderkey, o.o_custkey,
                   cast(l.l_linenumber as bigint) as l_linenumber,
                   cast(round(l.l_extendedprice*100) as bigint)
                     as price_cents
            from orders o join lineitem l
              on l.l_orderkey = o.o_orderkey""",
        "rel_quantile_sketch": """
            with v as (select cast(round(l_extendedprice*100) as bigint)
                         as c from lineitem),
            b as (select least(greatest(c // 2930, 0), 4095) as bin
                  from v),
            h as (select bin, count(*) n from b group by bin),
            cum as (select bin, sum(n) over (order by bin) as cm,
                           sum(n) over () as total
                    from h),
            q(q_pct) as (values (25), (50), (75), (90), (99))
            select cast(q.q_pct as bigint) as q_pct,
                   cast(min(cum.bin) * 2930 as bigint) as approx_cents
            from q join cum
              on cum.cm >= (q.q_pct * cum.total + 99) // 100
            group by q.q_pct""",
        "rel_cohort_retention": """
            with o as (select o_custkey cust,
                              year(o_orderdate) * 12
                              + month(o_orderdate) - 1 as ym
                       from orders),
            f as (select cust, min(ym) cohort from o group by cust),
            u as (select distinct o.cust, f.cohort,
                         o.ym - f.cohort as offm
                  from o join f on f.cust = o.cust)
            select cast(cohort as bigint) as cohort_month,
                   cast(offm as bigint) as month_offset,
                   cast(count(*) as bigint) as n_customers
            from u group by 1, 2""",
        "rel_skyline": """
            with o as (select o_orderkey,
                              cast(round(o_totalprice * 100) as bigint)
                                as p,
                              epoch_us(o_orderdate) as d
                       from orders)
            select a.o_orderkey,
                   a.p as price_cents, a.d as odate_us
            from o a where not exists (
                select 1 from o b
                where b.p <= a.p and b.d <= a.d
                  and (b.p < a.p or b.d < a.d))""",
        "rel_event_gaps": """
            with o as (select user_id,
                              epoch_us(ts) - epoch_us(lag(ts) over w)
                                as gap_us
                       from events
                       window w as (partition by user_id order by ts))
            select user_id,
                   cast(count(*) as bigint) as n_gaps,
                   cast(min(gap_us) as bigint) as min_gap_us,
                   cast(max(gap_us) as bigint) as max_gap_us,
                   cast(sum(gap_us) as bigint) as sum_gap_us
            from o where gap_us is not null
            group by user_id""",
        "rel_range_join": """
            select o.o_orderkey,
                   cast(count(l.l_shipdate) as bigint) as n_in_window
            from orders o left join lineitem l
              on l.l_shipdate >= o.o_orderdate
             and l.l_shipdate < o.o_orderdate + interval 30 day
            group by o.o_orderkey""",
        "rel_event_transitions": """
            with o as (select user_id, event_type,
                              lag(event_type) over w prev
                       from events
                       window w as (partition by user_id
                                    order by ts, event_id))
            select prev as from_type, event_type as to_type,
                   cast(count(*) as bigint) as n
            from o where prev is not null
            group by 1, 2""",
        "rel_sessionize": """
            with o as (
                select user_id, ts, event_id,
                       case when lag(ts) over w is null
                                 or epoch(ts) - epoch(lag(ts) over w)
                                    > 1800.0
                            then 1 else 0 end brk
                from events
                window w as (partition by user_id order by ts, event_id)),
            s as (select user_id,
                         sum(brk) over (partition by user_id
                             order by ts, event_id
                             rows unbounded preceding) sid
                  from o)
            select user_id, cast(sid as bigint) as session_idx,
                   cast(count(*) as bigint) as n_events
            from s group by 1, 2""",
        "rel_window_7d": """
            with d as (select user_id, date_trunc('day', ts) as day,
                              count(*) as n
                       from events group by 1, 2)
            select user_id, strftime(day, '%Y-%m-%d') as day,
                   cast(sum(n) over (partition by user_id order by day
                        range between interval 6 days preceding
                        and current row) as bigint) as n7
            from d""",
        "rel_events_daily": """
            select event_type, strftime(ts, '%Y-%m-%d') as day,
                   count(*) as n
            from events group by 1, 2""",
        "rel_hourly_profile": """
            select event_type,
                   cast(extract(hour from ts) as bigint) as hour,
                   count(*) as n,
                   cast(sum(cast(floor(value*1000000+0.5) as bigint))
                        as bigint) as val_u
            from events group by 1, 2""",
        "rel_mode_per_key": """
            with c as (select o_orderstatus, o_orderpriority,
                              count(*) n
                       from orders group by 1, 2),
            r as (select *, row_number() over (partition by o_orderstatus
                         order by n desc, o_orderpriority asc) rn
                  from c)
            select o_orderstatus, o_orderpriority as mode_priority,
                   cast(n as bigint) as n
            from r where rn = 1""",
        "rel_p90_per_key": """
            select c_mktsegment as seg,
                   quantile_disc(cast(floor(o_totalprice*100+0.5)
                                      as bigint), 0.9) as p90_cents
            from orders join customer on o_custkey = c_custkey
            group by 1""",
        "rel_distinct_per_key": """
            select event_type, count(distinct user_id) as n_users
            from events group by 1""",
        "rel_cumsum": """
            select o_orderkey,
                   cast(sum(cast(floor(o_totalprice*100+0.5) as bigint))
                        over (partition by o_custkey
                              order by o_orderdate, o_orderkey)
                        as bigint) as run_cents
            from orders""",
        "rel_semi_join": """
            select c_custkey from customer
            where exists (select 1 from orders
                          where o_custkey = c_custkey
                            and o_orderstatus = 'F')""",
        "rel_grouping_sets": """
            select coalesce(o_orderstatus, '(all)') as o_orderstatus,
                   coalesce(o_orderpriority, '(all)') as o_orderpriority,
                   cast(sum(cast(floor(o_totalprice*100+0.5) as bigint))
                        as bigint) as sum_c,
                   count(*) as n
            from orders
            group by grouping sets ((o_orderstatus, o_orderpriority),
                                    (o_orderstatus), ())""",
        "doc_dedup_exact": """
            with k as (select doc_id, md5(text) content_key from documents),
            g as (select doc_id,
                         min(doc_id) over (partition by content_key) keeper_id,
                         count(*) over (partition by content_key) cnt
                  from k)
            select doc_id, keeper_id from g
            where cnt > 1 and doc_id <> keeper_id""",
        "doc_curation": rf"""
            with k as (select doc_id, text, md5(text) ck from documents),
            keep as (select doc_id, text from (
                select doc_id, text,
                       row_number() over (partition by ck
                                          order by doc_id) rn
                from k) where rn = 1),
            q as (select doc_id, text,
                    case when trim(text) = '' then 0
                         else len(regexp_split_to_array(trim(text), '\s+'))
                    end ntok,
                    length(regexp_replace(text, '[\w\s]', '', 'g')) npunct,
                    length(regexp_replace(text, '\s', '', 'g')) nchnw,
                    length(text) nch
                  from keep),
            good as (select doc_id, text, cast(ntok as bigint) n_tokens
                     from q
                     where round(
                         (case when ntok between 5 and 10000
                               then 0.4 else 0.0 end)
                       + (case when npunct < 0.2 * greatest(nch, 1)
                               then 0.3 else 0.0 end)
                       + (case when ntok > 0 and nchnw >= 3.0 * ntok
                                   and nchnw <= 12.0 * ntok
                               then 0.3 else 0.0 end), 3) >= 0.7),
            l as (select * from ({_langid_sql("good")}) x)
            select l.lang_pred, cast(count(*) as bigint) as n_docs,
                   cast(sum(g.n_tokens) as bigint) as total_tokens
            from good g join l using (doc_id)
            group by 1""",
        "doc_importance_sample": r"""
            with s as (
              select doc_id,
                     case when trim(text) = '' then 0
                          else len(regexp_split_to_array(trim(text),
                                                         '\s+')) end ntok
              from documents),
            qq as (select doc_id,
                          least(cast(ntok * 10 as bigint), 1000) qbp
                   from s),
            h as (select doc_id, qbp,
                    cast(cast(concat('0x',
                         substr(md5(cast(doc_id as varchar)), 17, 16))
                         as ubigint) % 1000 as bigint) hv
                  from qq)
            select doc_id, qbp from h where hv < qbp""",
        "doc_split": """
            -- engine hashes the big-endian LOWER 64 bits of md5(str(id));
            -- DuckDB's md5_number_* builtins are byte-reversed, so parse
            -- the hex string instead
            with h as (select doc_id,
                cast(cast(concat('0x',
                     substr(md5(cast(doc_id as varchar)), 17, 16))
                     as ubigint) % 100 as bigint) hv
              from documents)
            select doc_id,
                   case when hv < 80 then 'train'
                        when hv < 90 then 'val'
                        else 'test' end as split
            from h""",
        "doc_bpe_merges": r"""
            with t as (select doc_id,
                              regexp_extract_all(lower(text), '\w+') toks
                       from documents),
            p as (select unnest([toks[i] || ' ' || toks[i+1]
                                 for i in range(1, len(toks))]) pair
                  from t)
            select pair, cast(count(*) as bigint) n from p
            group by pair order by n desc, pair limit 30""",
        "doc_familiarity": r"""
            with toks as (
              select doc_id, lower(u.tok) as tok
              from documents,
                   unnest(regexp_extract_all(text, '\w+')) u(tok)),
            cnt as (select tok, count(*) n from toks group by tok)
            select t.doc_id, count(*) as n_tok,
                   cast(sum(c.n) as bigint) as freq_sum
            from toks t join cnt c using (tok)
            group by t.doc_id""",
        "doc_vocab_topk": r"""
            with toks as (
              select lower(u.tok) as token
              from documents, unnest(regexp_extract_all(text, '\w+')) u(tok))
            select token, cast(count(*) as bigint) as n
            from toks group by token
            order by n desc, token limit 50""",
        "doc_hll_registers": r"""
            with toks as (
              select distinct lower(u.tok) as token
              from documents,
                   unnest(regexp_extract_all(text, '\w+')) u(tok)),
            h as (select cast(md5_number_upper(token) as ubigint) hv
                  from toks),
            r as (select cast(hv >> 54 as bigint) bucket,
                         cast(hv & cast(18014398509481983 as ubigint)
                              as ubigint) w
                  from h),
            rr as (select bucket,
                          coalesce(list_min([i for i in range(1, 55)
                            if ((w >> (54 - i)) & cast(1 as ubigint))
                               = cast(1 as ubigint)]), 55) rho
                   from r)
            select bucket, cast(max(rho) as bigint) as rho
            from rr group by bucket""",
        "doc_bloom_bits": r"""
            with toks as (
              select distinct lower(u.tok) as token
              from documents,
                   unnest(regexp_extract_all(text, '\w+')) u(tok))
            select distinct cast(md5_number_upper(
                     cast(rs.r as varchar) || '|' || token)
                   % 4096 as bigint) bit_pos
            from toks, (values (0),(1),(2)) rs(r)""",
        "doc_cms_registers": r"""
            with toks as (
              select lower(u.tok) as token
              from documents,
                   unnest(regexp_extract_all(text, '\w+')) u(tok)),
            tc as (select token, cast(count(*) as bigint) n
                   from toks group by token),
            reg as (select rs.r,
                           cast(md5_number_upper(
                                  cast(rs.r as varchar) || '|' || token)
                                % 512 as bigint) bucket,
                           sum(n) n
                    from tc, (values (0),(1),(2),(3)) rs(r)
                    group by 1, 2)
            select cast(r as bigint) as row, bucket,
                   cast(n as bigint) as n
            from reg""",
        "doc_length_quantiles": r"""
            with lens as (
              select cast(length(text) as bigint) as v from documents),
            tot as (select cast(count(*) as bigint) as n from lens),
            hist as (
              select v, cast(sum(count(*)) over (order by v) as bigint) cum
              from lens group by v),
            qs(q_bp) as (values (2500),(5000),(7500),(9000),(9900))
            select cast(q.q_bp as bigint) as q_bp,
                   (select min(h.v) from hist h, tot t
                    where h.cum >= greatest(1, ceil(q.q_bp / 10000.0 * t.n)))
                   as value
            from qs q order by q.q_bp""",
        "doc_sample_per_lang": r"""
            select lang, doc_id from (
              select lang, doc_id,
                     row_number() over (partition by lang
                       order by md5(cast(doc_id as varchar)), doc_id) rn
              from documents) t where rn <= 5""",
        "doc_token_stats": r"""
            select doc_id,
                   cast(case when trim(text) = '' then 0
                        else len(regexp_split_to_array(trim(text), '\s+'))
                        end as bigint) as n_tokens,
                   cast(length(text) as bigint) as n_chars_calc,
                   cast(length(regexp_replace(text, '[\w\s]', '', 'g'))
                        as bigint) as n_punct
            from documents""",
        "doc_quality": r"""
            with s as (
              select doc_id, text,
                     case when trim(text) = '' then 0
                          else len(regexp_split_to_array(trim(text), '\s+'))
                     end ntok,
                     length(regexp_replace(text, '[\w\s]', '', 'g')) npunct,
                     length(regexp_replace(text, '\s', '', 'g')) nchnw,
                     length(text) nch
              from documents)
            select doc_id,
                   round(
                     (case when ntok between 5 and 10000 then 0.4 else 0.0 end)
                   + (case when npunct < 0.2 * greatest(nch, 1)
                           then 0.3 else 0.0 end)
                   + (case when ntok > 0
                               and nchnw >= 3.0 * ntok
                               and nchnw <= 12.0 * ntok
                           then 0.3 else 0.0 end), 3) as quality
            from s""",
        "doc_repetition": r"""
            with toks as (
              select doc_id,
                     [lower(x) for x in regexp_extract_all(text, '\w+')] lst
              from documents),
            bg as (
              select doc_id,
                     unnest([lst[i] || ' ' || lst[i+1]
                             for i in range(1, len(lst))]) g
              from toks where len(lst) >= 2),
            c as (select doc_id, g, count(*) n from bg group by 1, 2),
            agg as (select doc_id,
                           cast(max(n) as bigint) top_n,
                           cast(sum(n) as bigint) tot,
                           cast(sum(n - 1) as bigint) dup
                    from c group by 1)
            select d.doc_id,
                   cast(coalesce(floor(cast(a.top_n as double)
                        / cast(a.tot as double) * 10000 + 0.5), 0)
                        as bigint) as top_bigram_bp,
                   cast(coalesce(floor(cast(a.dup as double)
                        / cast(a.tot as double) * 10000 + 0.5), 0)
                        as bigint) as dup_bigram_bp
            from documents d left join agg a using (doc_id)""",
        "doc_decontaminate": r"""
            with toks as (
              select doc_id,
                     [lower(x) for x in regexp_extract_all(text, '\w+')] lst
              from documents),
            grams as (
              select doc_id,
                     unnest([list_reduce(lst[i:i+3], (a, b) -> a || ' ' || b)
                             for i in range(1, len(lst) - 2)]) g
              from toks where len(lst) >= 4),
            bench as (select distinct g from grams where doc_id % 20 = 7)
            select g2.doc_id,
                   cast(count(distinct g2.g) as bigint) as n_hits
            from grams g2 join bench using (g)
            group by 1""",
        "doc_pii_scrub": r"""
            with aug as (
              select doc_id, text
                || case when doc_id % 4 <> 1
                        then ' contact user' || cast(doc_id as varchar)
                             || '@mail.example' else '' end
                || case when doc_id % 3 <> 2
                        then ' tel 0'
                             || lpad(cast(doc_id % 100 as varchar), 2, '0')
                             || '-'
                             || lpad(cast(doc_id % 1000 as varchar), 3, '0')
                             || '-'
                             || lpad(cast(doc_id % 10000 as varchar), 4, '0')
                        else '' end
                || case when doc_id % 5 <> 3
                        then ' ip 10.' || cast(doc_id % 256 as varchar)
                             || '.' || cast((doc_id // 7) % 256 as varchar)
                             || '.' || cast(doc_id % 100 as varchar)
                        else '' end as t
              from documents)
            select doc_id,
                   cast(len(regexp_extract_all(t,
                        '\w[\w.]*@[\w.]*\w')) as bigint) as n_emails,
                   cast(len(regexp_extract_all(t,
                        '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))
                        as bigint) as n_ips,
                   cast(len(regexp_extract_all(t,
                        '\b0\d{2}-\d{3}-\d{4}\b')) as bigint) as n_phones,
                   md5(regexp_replace(regexp_replace(regexp_replace(t,
                        '\w[\w.]*@[\w.]*\w', '<EMAIL>', 'g'),
                        '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                        '<IP>', 'g'),
                        '\b0\d{2}-\d{3}-\d{4}\b', '<PHONE>', 'g'))
                   as scrubbed_md5
            from aug""",
        "doc_chunk": r"""
            with toks as (
              select doc_id,
                     [lower(x) for x in regexp_extract_all(text, '\w+')] lst
              from documents),
            sized as (
              select doc_id, lst, len(lst) n,
                     case when len(lst) <= 64 then 1
                          else cast(ceil((len(lst) - 64) / 48.0) as bigint)
                               + 1 end nch
              from toks where len(lst) > 0),
            idx as (
              select doc_id, lst, n, unnest(range(nch)) i from sized)
            select doc_id, cast(i as bigint) as chunk_idx,
                   cast(least(i * 48 + 64, n) - i * 48 as bigint)
                     as chunk_ntok,
                   md5(list_reduce(lst[i * 48 + 1 : least(i * 48 + 64, n)],
                                   (a, b) -> a || ' ' || b)) as chunk_md5
            from idx""",
        "doc_tfidf_top": r"""
            with toks as (
              select doc_id, unnest([lower(x) for x in
                     regexp_extract_all(text, '\w+')]) tok
              from documents),
            tf as (select doc_id, tok, cast(count(*) as bigint) tf
                   from toks group by 1, 2),
            df as (select tok, cast(count(distinct doc_id) as bigint) df
                   from toks group by 1),
            r as (select tf.doc_id, tf.tok,
                         cast(tf.tf as double) / df.df score,
                         row_number() over (partition by tf.doc_id
                           order by cast(tf.tf as double) / df.df desc,
                                    tf.tok asc) rnk
                  from tf join df using (tok))
            select doc_id, cast(rnk as bigint) as rank, tok as token,
                   cast(floor(score * 10000 + 0.5) as bigint) as score_bp
            from r where rnk <= 3""",
        "doc_dup_spans": r"""
            with toks as (
              select doc_id,
                     [lower(x) for x in regexp_extract_all(text, '\w+')] lst
              from documents),
            grams as (
              select doc_id,
                     unnest([list_reduce(lst[i:i+15], (a, b) -> a || ' ' || b)
                             for i in range(1, len(lst) - 14)]) g
              from toks where len(lst) >= 16),
            k as (select md5(g) gram_md5, doc_id from grams)
            select gram_md5,
                   cast(count(distinct doc_id) as bigint) as n_docs,
                   cast(count(*) as bigint) as n_occ,
                   min(doc_id) as min_id
            from k group by 1
            having count(distinct doc_id) > 1""",
        "emb_knn_graph": """
            with d as (select a.vec_id src_id, b.vec_id nbr_id,
                         row_number() over (partition by a.vec_id order by
                           list_cosine_similarity(a.embedding, b.embedding)
                             desc,
                           b.vec_id asc) rnk
                       from embeddings a join embeddings b
                         on a.vec_id <> b.vec_id)
            select src_id, nbr_id, rnk from d where rnk <= 3""",
        "emb_knn_graph_ivf": f"""
            -- full bucketed-graph recompute given the snapshotted
            -- codebook: home bucket per vector, n_probe=3 probe set per
            -- source, exact top-3 among probed-bucket candidates
            with cents as (select cent_id, vec from read_parquet(
                               '{s01}/knn_graph_centroids/*.parquet')),
            a1 as (select e.vec_id, c.cent_id,
                          row_number() over (partition by e.vec_id order by
                            list_cosine_similarity(c.vec, e.embedding) desc,
                            c.cent_id) rn
                   from embeddings e, cents c),
            assign as (select vec_id, cent_id from a1 where rn = 1),
            probe as (select vec_id, cent_id from a1 where rn <= 3),
            d as (select s.vec_id src_id, e.vec_id nbr_id,
                         row_number() over (partition by s.vec_id order by
                           list_cosine_similarity(s.embedding, e.embedding)
                             desc,
                           e.vec_id asc) rnk
                  from embeddings s
                  join probe p on p.vec_id = s.vec_id
                  join assign a on a.cent_id = p.cent_id
                  join embeddings e on e.vec_id = a.vec_id
                                    and e.vec_id <> s.vec_id)
            select src_id, nbr_id, rnk from d where rnk <= 3""",
        "emb_knn_graph_ivf_recall": f"""
            with d as (select a.vec_id src_id, b.vec_id nbr_id,
                         row_number() over (partition by a.vec_id order by
                           list_cosine_similarity(a.embedding, b.embedding)
                             desc,
                           b.vec_id asc) rnk
                       from embeddings a join embeddings b
                         on a.vec_id <> b.vec_id),
            snap as (select src_id, nbr_id from read_parquet(
                         '{s01}/knn_graph_ivf_input/*.parquet')),
            srcs as (select distinct src_id from snap)
            select srcs.src_id,
                   (select count(*) from snap s
                    join d on d.src_id = s.src_id and d.nbr_id = s.nbr_id
                    where d.rnk <= 3 and s.src_id = srcs.src_id)
                   as n_hits
            from srcs""",
        "emb_topk_brute": """
            with q as (select vec_id qid, embedding qe from embeddings
                       where vec_id < 5),
            d as (select q.qid, e.vec_id,
                         row_number() over (partition by q.qid order by
                           list_cosine_similarity(q.qe, e.embedding) desc,
                           e.vec_id asc) rnk
                  from q, embeddings e)
            select qid as query_id, vec_id, rnk from d where rnk <= 5""",
        "emb_pq_encode": f"""
            -- PQ code assignment recomputed from the snapshotted
            -- codebooks: per (vector, subspace), argmin of the DIRECT
            -- squared distance ((a-b)*(a-b) summed in element order —
            -- no square-expansion, which would change last-ulp values),
            -- first-min tie -> lowest code id
            with cb as (select subspace, code, vals from read_parquet(
                            '{s01}/pq_codebooks/*.parquet')),
            d as (select e.vec_id, cb.subspace, cb.code,
                    list_sum(list_transform(range(1, 9), i ->
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]) *
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]))) as dist
                  from embeddings e, cb)
            select vec_id, subspace, code from (
                select vec_id, subspace, code,
                       row_number() over (partition by vec_id, subspace
                                          order by dist asc, code asc) rn
                from d)
            where rn = 1""",
        "emb_pq_topk": f"""
            -- ADC top-k recompute: codes via the same argmin CTE, each
            -- query's (subspace, code) LUT from the raw embeddings x
            -- snapshotted codebook, total distance = the m lookups
            -- summed IN SUBSPACE ORDER (list(... order by subspace) ->
            -- list_sum = the engine's fixed-order accumulation)
            with cb as (select subspace, code, vals from read_parquet(
                            '{s01}/pq_codebooks/*.parquet')),
            d as (select e.vec_id, cb.subspace, cb.code,
                    list_sum(list_transform(range(1, 9), i ->
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]) *
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]))) as dist
                  from embeddings e, cb),
            codes as (select vec_id, subspace, code from (
                select vec_id, subspace, code,
                       row_number() over (partition by vec_id, subspace
                                          order by dist asc, code asc) rn
                from d) where rn = 1),
            q as (select vec_id qid, embedding qe from embeddings
                  where vec_id < 5),
            lut as (select q.qid, cb.subspace, cb.code,
                      list_sum(list_transform(range(1, 9), i ->
                        (q.qe[cast(cb.subspace*8 as bigint) + i]
                         - cb.vals[i]) *
                        (q.qe[cast(cb.subspace*8 as bigint) + i]
                         - cb.vals[i]))) as dist
                    from q, cb),
            vd as (select l.qid, c.vec_id,
                     list_sum(list(l.dist order by l.subspace)) as dist
                   from codes c
                   join lut l using (subspace, code)
                   group by 1, 2),
            r as (select qid as query_id, vec_id,
                    row_number() over (partition by qid
                                       order by dist asc, vec_id asc) rnk,
                    dist from vd)
            select query_id, vec_id, cast(rnk as bigint) as rnk,
                   cast(floor(1e9*dist) as bigint) as adc_nano
            from r where rnk <= 5""",
        "emb_pq_ivf_topk": f"""
            -- full IVF-PQ recompute from the two snapshotted parameter
            -- tables: PQ code argmins, coarse bucket assignment
            -- (cosine desc / cent_id asc), per-query 2-bucket probe
            -- selection, ordered LUT sums, (dist asc, vec_id asc) rank
            with cb as (select subspace, code, vals from read_parquet(
                            '{s01}/pq_codebooks/*.parquet')),
            cents as (select cent_id, vec from read_parquet(
                          '{s01}/pq_ivf_centroids/*.parquet')),
            d as (select e.vec_id, cb.subspace, cb.code,
                    list_sum(list_transform(range(1, 9), i ->
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]) *
                      (e.embedding[cast(cb.subspace*8 as bigint) + i]
                       - cb.vals[i]))) as dist
                  from embeddings e, cb),
            codes as (select vec_id, subspace, code from (
                select vec_id, subspace, code,
                       row_number() over (partition by vec_id, subspace
                                          order by dist asc, code asc) rn
                from d) where rn = 1),
            bkt as (select vec_id, cent_id as bucket from (
                select e.vec_id, c.cent_id,
                       row_number() over (partition by e.vec_id order by
                         list_cosine_similarity(c.vec, e.embedding) desc,
                         c.cent_id) rn
                from embeddings e, cents c) where rn = 1),
            q as (select vec_id qid, embedding qe from embeddings
                  where vec_id < 5),
            probes as (select qid, cent_id from (
                select q.qid, c.cent_id,
                       row_number() over (partition by q.qid order by
                         list_cosine_similarity(c.vec, q.qe) desc,
                         c.cent_id) rn
                from q, cents c) where rn <= 2),
            lut as (select q.qid, cb.subspace, cb.code,
                      list_sum(list_transform(range(1, 9), i ->
                        (q.qe[cast(cb.subspace*8 as bigint) + i]
                         - cb.vals[i]) *
                        (q.qe[cast(cb.subspace*8 as bigint) + i]
                         - cb.vals[i]))) as dist
                    from q, cb),
            vd as (select l.qid, c.vec_id,
                     list_sum(list(l.dist order by l.subspace)) as dist
                   from codes c
                   join bkt b on b.vec_id = c.vec_id
                   join lut l using (subspace, code)
                   join probes p on p.qid = l.qid
                                 and p.cent_id = b.bucket
                   group by 1, 2),
            r as (select qid as query_id, vec_id,
                    row_number() over (partition by qid
                                       order by dist asc, vec_id asc) rnk,
                    dist from vd)
            select query_id, vec_id, cast(rnk as bigint) as rnk,
                   cast(floor(1e9*dist) as bigint) as adc_nano
            from r where rnk <= 5""",
        "emb_kmeans": f"""
            -- nearest-centroid assignment given the snapshotted final
            -- k-means codebook (ties: cosine desc, cent_id asc)
            with cents as (select cent_id, vec from read_parquet(
                               '{s01}/kmeans_centroids/*.parquet')),
            a1 as (select e.vec_id, c.cent_id,
                          row_number() over (partition by e.vec_id order by
                            list_cosine_similarity(c.vec, e.embedding) desc,
                            c.cent_id) rn
                   from embeddings e, cents c)
            select vec_id, cast(cent_id as bigint) as cluster
            from a1 where rn = 1""",
        "emb_pca": f"""
            -- dominant-PC assignment given the snapshotted components:
            -- argmax |v.c_k - mu_k|, ties to the smaller comp_id; the
            -- embedding list is cast to double so both sides accumulate
            -- the dot product at the same precision
            with comps as (select comp_id, vec, mu from read_parquet(
                               '{s01}/pca_components/*.parquet')),
            a1 as (select e.vec_id, c.comp_id,
                          row_number() over (partition by e.vec_id order by
                            abs(list_dot_product(
                                  cast(e.embedding as double[]), c.vec)
                                - c.mu) desc,
                            c.comp_id) rn
                   from embeddings e, comps c)
            select vec_id, cast(comp_id as bigint) as comp
            from a1 where rn = 1""",
        "emb_topk_ivf": f"""
            -- full IVF search recompute given the snapshotted codebook:
            -- nearest-centroid assignment, n_probe=4 probe set, exact
            -- top-5 within probed lists (ties: cosine desc, id asc)
            with cents as (select cent_id, vec from read_parquet(
                               '{s01}/ivf_centroids/*.parquet')),
            q as (select vec_id qid, embedding qe from embeddings
                  where vec_id < 5),
            a1 as (select e.vec_id, c.cent_id,
                          row_number() over (partition by e.vec_id order by
                            list_cosine_similarity(c.vec, e.embedding) desc,
                            c.cent_id) rn
                   from embeddings e, cents c),
            assign as (select vec_id, cent_id from a1 where rn = 1),
            p1 as (select q.qid, c.cent_id,
                          row_number() over (partition by q.qid order by
                            list_cosine_similarity(c.vec, q.qe) desc,
                            c.cent_id) rn
                   from q, cents c),
            probe as (select qid, cent_id from p1 where rn <= 4),
            d as (select q.qid, e.vec_id,
                         row_number() over (partition by q.qid order by
                           list_cosine_similarity(q.qe, e.embedding) desc,
                           e.vec_id asc) rnk
                  from q
                  join embeddings e on true
                  join assign a on a.vec_id = e.vec_id
                  join probe p on p.qid = q.qid and p.cent_id = a.cent_id)
            select qid as query_id, vec_id, rnk from d where rnk <= 5""",
    }
