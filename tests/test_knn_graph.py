"""knn_graph plans: broadcast (small-side fast path) vs bucketed
(scale path).  With full probe coverage the bucketed plan is EXACT, so
it must reproduce the broadcast output bit-for-bit on ids/ranks; with
few probes it is approximate with high recall."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from georay.ops.similarity import (kmeans_lite, knn_graph,
                                   knn_graph_bucketed)


def _vec_table(n=400, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    # plant clusters so kNN structure is non-trivial
    m[: n // 2] += 4.0
    offsets = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    emb = pa.ListArray.from_arrays(offsets, pa.array(m.ravel()))
    return pa.table({"vec_id": pa.array(np.arange(n), pa.int64()),
                     "embedding": emb}), m


@pytest.fixture(scope="module")
def vecs():
    tbl, m = _vec_table()
    return tbl, m


def _dup_block_table(n=400, dim=8):
    """Rows 100-139 are one repeated vector and the ids are a permutation
    of memory order: every source in the block has exact ties at its
    k-th place, which only the id tie-break may cut."""
    _, m = _vec_table(n, dim)
    m[100:140] = m[100]
    ids = np.random.default_rng(5).permutation(n).astype(np.int64) + 1000
    offsets = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    emb = pa.ListArray.from_arrays(offsets, pa.array(m.ravel()))
    return pa.table({"vec_id": pa.array(ids), "embedding": emb}), m


def _run(ds_tbl, **kw):
    ds = ray.data.from_arrow(ds_tbl).repartition(6)
    out = knn_graph(ds, **kw).to_pandas()
    return out.sort_values(["src_id", "rank"]).reset_index(drop=True)


def test_bucketed_full_probe_equals_broadcast(ray_session, vecs):
    for tbl, m in (vecs, _dup_block_table()):
        ids = tbl["vec_id"].to_numpy()
        cents = kmeans_lite(m[::7], n_clusters=6)
        brute = _run(tbl, ref_ids=ids, ref_vecs=m, k=3, plan="broadcast")
        bucketed = _run(tbl, k=3, plan="bucketed", centroids=cents,
                        n_probe=len(cents))
        assert brute[["src_id", "nbr_id", "rank"]].equals(
            bucketed[["src_id", "nbr_id", "rank"]])
    # the tied block keeps its lowest other ids, in id order
    block = np.sort(ids[100:140])
    for src in block:
        got = brute[brute["src_id"] == src]["nbr_id"].tolist()
        assert got == [i for i in block if i != src][:3], src


def test_bucketed_low_probe_recall(ray_session, vecs):
    tbl, m = vecs
    ids = np.arange(len(m))
    cents = kmeans_lite(m[::7], n_clusters=6)
    brute = _run(tbl, ref_ids=ids, ref_vecs=m, k=3, plan="broadcast")
    approx = _run(tbl, k=3, plan="bucketed", centroids=cents, n_probe=2)
    bset = set(zip(brute["src_id"], brute["nbr_id"]))
    aset = set(zip(approx["src_id"], approx["nbr_id"]))
    recall = len(bset & aset) / len(bset)
    assert recall >= 0.8, recall


def test_auto_routes_by_reference_size(ray_session, vecs):
    tbl, m = vecs
    ids = np.arange(len(m))
    # tiny guard forces the bucketed route even though ref arrays exist
    out = _run(tbl, ref_ids=ids, ref_vecs=m, k=3, plan="auto",
               max_broadcast_bytes=64)
    assert len(out) > 0 and set(out.columns) >= {"src_id", "nbr_id",
                                                 "rank"}
    # default guard keeps the small side on the broadcast fast path
    brute = _run(tbl, ref_ids=ids, ref_vecs=m, k=3, plan="auto")
    ref = _run(tbl, ref_ids=ids, ref_vecs=m, k=3, plan="broadcast")
    assert brute.equals(ref)


def test_bucketed_self_graph_excludes_self(ray_session, vecs):
    tbl, m = vecs
    cents = kmeans_lite(m[::7], n_clusters=6)
    ds = ray.data.from_arrow(tbl).repartition(4)
    out = knn_graph_bucketed(ds, cents, k=3, n_probe=6).to_pandas()
    assert (out["src_id"] != out["nbr_id"]).all()
