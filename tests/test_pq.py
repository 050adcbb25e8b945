"""Product-quantization operator tests (ops/similarity.py): encode
determinism, ADC recall floor vs exact search, and the compression
contract.  The value-level oracles live in entrylib (emb_pq_encode /
emb_pq_topk, SQL recompute from the snapshotted codebooks)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from georay.ops.similarity import (kmeans_lite, pq_encode, pq_encode_ivf,
                                   pq_fit, pq_topk, pq_topk_ivf,
                                   topk_cosine_brute, topk_cosine_ivf)


def _vecs(n=600, dim=64, seed=11, with_labels=False):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(12, dim))
    cid = rng.integers(0, 12, size=n)
    v = (centers[cid] + 0.25 * rng.normal(size=(n, dim))).astype(
        np.float64)
    return (v, cid) if with_labels else v


def _ds(v):
    n, dim = v.shape
    offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.ListArray.from_arrays(
            offs, pa.array(v.ravel(), pa.float64()))})
    return ray.data.from_arrow(t).repartition(4)


def test_pq_encode_deterministic_and_shaped(ray_session):
    v = _vecs()
    books = pq_fit(v[:256], m=8, n_codes=16)
    assert books.shape == (8, 16, 8)
    e1 = pq_encode(_ds(v), books).to_pandas().sort_values("vec_id")
    e2 = pq_encode(_ds(v), books).to_pandas().sort_values("vec_id")
    assert list(map(list, e1["codes"])) == list(map(list, e2["codes"]))
    codes = np.array(list(map(list, e1["codes"])))
    assert codes.shape == (len(v), 8)
    assert codes.min() >= 0 and codes.max() < 16
    # compression contract: m uint8-range codes replace dim floats
    assert codes.shape[1] * 1 <= v.shape[1] * 8 / 64


def test_pq_adc_matches_direct_computation(ray_session):
    v = _vecs(200)
    books = pq_fit(v[:128], m=8, n_codes=16)
    q = v[:3]
    enc = pq_encode(_ds(v), books)
    out = pq_topk(enc, books, q, np.arange(3), k=4).to_pandas()
    # recompute one (query, vec) ADC distance by hand
    codes = pq_encode(_ds(v), books).to_pandas().sort_values("vec_id")
    cmat = np.array(list(map(list, codes["codes"])))
    row = out.iloc[0]
    qx, vid = int(row["query_id"]), int(row["vec_id"])
    dist = 0.0
    for j in range(8):
        c = books[j, cmat[vid, j]]
        qs = q[qx, j * 8:(j + 1) * 8]
        dist = dist + ((qs - c) ** 2).sum()
    assert row["adc_dist"] == pytest.approx(dist, rel=0, abs=0)
    # ranks are 1..k per query, unique
    g = out.groupby("query_id")["rank"].apply(list)
    assert all(sorted(r) == list(range(1, 5)) for r in g)


def test_pq_adc_neighborhood_quality(ray_session):
    """A 16-codes-per-8-dim quantizer CANNOT resolve exact top-5 inside a
    dense cluster (same-code vectors tie exactly — that's the
    compression), so the quality contract is cluster-level: retrieved
    neighbors must come from the query's latent cluster, and their true
    distances must be close to the exact top-5's."""
    v, cid = _vecs(600, with_labels=True)
    books = pq_fit(v[:256], m=8, n_codes=16)
    qidx = [5, 6, 7, 8, 9]
    q = v[qidx]
    enc = pq_encode(_ds(v), books)
    adc = pq_topk(enc, books, q, np.arange(5), k=5).to_pandas()
    d = ((q[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    same_cluster = 0
    ratios = []
    for qx in range(5):
        got = adc[adc["query_id"] == qx]["vec_id"].to_numpy()
        same_cluster += int((cid[got] == cid[qidx[qx]]).sum())
        exact5 = np.sort(d[qx], kind="stable")[:5].mean()
        ratios.append(d[qx, got].mean() / max(exact5, 1e-12))
    assert same_cluster / 25.0 >= 0.8, same_cluster
    # retrieved true distances within 4x of the exact-top-5 mean
    assert max(ratios) <= 4.0, ratios


def test_pq_topk_tie_aware_across_partitions(ray_session):
    """Exact ADC ties are common (identical codes => identical distance);
    the per-batch selection must keep the LOWEST vec_ids at the tie
    boundary regardless of how rows are partitioned (round-4 advice:
    bare argpartition cut boundary ties by memory order)."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 64))
    # 40 vectors = 10 identical copies of each of 4 prototypes ->
    # every copy encodes to the same codes, ADC distances tie exactly
    v = np.repeat(base, 10, axis=0)
    books = pq_fit(base, m=8, n_codes=4)
    q = base[:1]
    exp = None
    for parts in (1, 4, 13):
        n, dim = v.shape
        offs = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
        t = pa.table({
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.ListArray.from_arrays(
                offs, pa.array(v.ravel(), pa.float64()))})
        ds = ray.data.from_arrow(t).repartition(parts)
        enc = pq_encode(ds, books)
        out = pq_topk(enc, books, q, np.arange(1), k=5).to_pandas()
        out = out.sort_values("rank").reset_index(drop=True)
        got = list(zip(out["vec_id"], out["rank"]))
        if exp is None:
            exp = got
            # the winner block is 10 exact ties -> ids 0..4 must win
            assert [g[0] for g in got] == [0, 1, 2, 3, 4]
        else:
            assert got == exp, f"partitioning changed tie result at {parts}"


def test_full_probe_ivf_equals_exact_search(ray_session):
    """With every bucket probed the IVF searches score every row, so they
    must reproduce the exact searches bit for bit (ids, values, ranks);
    the duplicated rows put exact ties at the k-th place."""
    v = _vecs(600)
    v[40:60] = v[40]
    books = pq_fit(v[:256], m=8, n_codes=16)
    cents = kmeans_lite(v[::5], n_clusters=6)
    q, qids = v[[3, 40, 300]] + 0.01, np.array([7, 8, 9])
    cols = ["query_id", "vec_id", "adc_dist", "rank"]

    def run(ds):
        return ds.to_pandas().sort_values(cols[:1] + ["rank"]
                                          ).reset_index(drop=True)

    exact = run(pq_topk(pq_encode(_ds(v), books), books, q, qids, k=5))
    ivf = run(pq_topk_ivf(pq_encode_ivf(_ds(v), books, cents), books,
                          cents, q, qids, k=5, n_probe=len(cents)))
    assert exact[cols].equals(ivf[cols])
    cols[2] = "cosine"
    exact = run(topk_cosine_brute(_ds(v), q, k=5))
    ivf = run(topk_cosine_ivf(_ds(v), q, cents, k=5, n_probe=len(cents)))
    assert exact[cols].equals(ivf[cols])


def test_topk_empty_query_set(ray_session):
    """Zero queries is a valid input for every search: each returns an
    empty (typed) dataset instead of erroring on num_partitions=0
    (round-4 advice); the PQ pair builds its LUT from the (0, dim) query
    array before the scan."""
    v = _vecs(50)
    books = pq_fit(v, m=8, n_codes=4)
    cents = kmeans_lite(v, n_clusters=3)
    none = np.empty((0, 64))
    no_ids = np.empty(0, np.int64)
    for ds, val in (
            (topk_cosine_brute(_ds(v), none, k=3), "cosine"),
            (topk_cosine_ivf(_ds(v), none, cents, k=3), "cosine"),
            (pq_topk(pq_encode(_ds(v), books), books, none, no_ids, k=3),
             "adc_dist"),
            (pq_topk_ivf(pq_encode_ivf(_ds(v), books, cents), books, cents,
                         none, no_ids, k=3), "adc_dist")):
        assert ds.count() == 0
        # schema survives even though empty (to_pandas drops columns on
        # empty datasets — a Ray quirk, not an engine one)
        assert ds.schema().names == ["query_id", "vec_id", val, "rank"]
