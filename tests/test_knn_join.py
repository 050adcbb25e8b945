"""Co-partitioned kNN join (the both-sides-large plan, SURVEY.md §2.4)."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from georay.knn import knn_join_copartitioned, knn_points_broadcast


def test_knn_points_broadcast_exact():
    rng = np.random.default_rng(4)
    ref_lat = rng.uniform(49, 52, 200)
    ref_lon = rng.uniform(2, 6, 200)
    ref_ids = np.arange(1000, 1200)
    q = pd.DataFrame({"qid": [0, 1], "lat": [50.5, 51.0],
                      "lon": [4.0, 5.0]})
    out = knn_points_broadcast(q, ref_lat, ref_lon, ref_ids, k=3)
    assert len(out) == 6
    # verify against brute force for the first query
    from georay.geom import haversine_km
    d = haversine_km(np.full(200, 50.5), np.full(200, 4.0),
                     ref_lat, ref_lon)
    exp = ref_ids[np.lexsort((ref_ids, d))[:3]]
    got = out[out["qid"] == 0].sort_values("rank")["neighbor_id"].to_numpy()
    assert (got == exp).all()


def test_knn_points_broadcast_ties_cut_by_id():
    """40 co-located references tie exactly; the k kept are the lowest
    ids whatever order the references arrive in."""
    rng = np.random.default_rng(8)
    lat = np.r_[np.full(40, 50.0), rng.uniform(49, 52, 60)]
    lon = np.r_[np.full(40, 4.0), rng.uniform(2, 6, 60)]
    ids = np.arange(100)
    q = pd.DataFrame({"qid": [0], "lat": [50.001], "lon": [4.001]})
    for perm in (np.arange(100), rng.permutation(100), np.arange(100)[::-1]):
        out = knn_points_broadcast(q, lat[perm], lon[perm], ids[perm], k=3)
        assert out.sort_values("rank")["neighbor_id"].tolist() == [0, 1, 2]


def test_knn_points_broadcast_nan_query_keeps_k_rows():
    rng = np.random.default_rng(9)
    q = pd.DataFrame({"qid": [0, 1], "lat": [np.nan, 50.5],
                      "lon": [4.0, 4.0]})
    out = knn_points_broadcast(q, rng.uniform(49, 52, 50),
                               rng.uniform(2, 6, 50), np.arange(50), k=3)
    assert (out.groupby("qid").size() == 3).all() and len(out) == 6
    assert out[out["qid"] == 0]["dist_km"].isna().all()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_knn_join_copartitioned_ties_cut_by_id(ray_session, seed):
    """Every reference of the bucket scores the same; whatever order the
    references arrive in, the k kept are the lowest ids."""
    rids = np.random.default_rng(seed).permutation(30) + 100
    queries = ray.data.from_items([{"qid": i, "b": 0} for i in range(4)])
    refs = ray.data.from_items([{"rid": int(r), "b": 0} for r in rids])

    def score_fn(q_df, ref_df):
        return (np.ones((len(q_df), len(ref_df))),
                ref_df["rid"].to_numpy())

    out = knn_join_copartitioned(queries, refs, lambda df: df["b"],
                                 score_fn, k=3,
                                 query_cols=["qid"]).to_pandas()
    for _, g in out.groupby("qid"):
        assert g.sort_values("rank")["neighbor_id"].tolist() == [100, 101,
                                                                102]


def test_knn_join_copartitioned(ray_session):
    # queries and refs share a bucket key; scoring is 1/(1+|x - y|)
    queries = ray.data.from_items(
        [{"qid": i, "x": float(i), "bucket_src": i % 3} for i in range(9)])
    refs = ray.data.from_items(
        [{"rid": 100 + j, "x": float(j) + 0.25, "bucket_src": j % 3}
         for j in range(9)])

    def bucket_fn(df):
        return df["bucket_src"]

    def score_fn(q_df, ref_df):
        # vectorized bucket contract: (nq, nref) score matrix
        diff = np.abs(q_df["x"].to_numpy()[:, None]
                      - ref_df["x"].to_numpy()[None, :])
        return 1.0 / (1.0 + diff), ref_df["rid"].to_numpy()

    out = knn_join_copartitioned(queries, refs, bucket_fn, score_fn, k=2,
                                 query_cols=["qid"]).to_pandas()
    # every query got 2 neighbors from its own bucket
    assert len(out) == 18
    g0 = out[out["qid"] == 0].sort_values("rank")
    # query x=0 bucket 0; refs in bucket 0 have x in {0.25, 3.25, 6.25}
    assert g0.iloc[0]["neighbor_id"] == 100   # nearest: x=0.25


def test_knn_join_copartitioned_keeps_int64_ids(ray_session):
    """Integer ids stay int64 end to end: the union of the two sides
    must not turn them into float64 (2**53 + 1 would read 2**53)."""
    big = 2 ** 53 + 1
    queries = ray.data.from_items([{"qid": big, "b": 0}])
    refs = ray.data.from_items([{"rid": big + 2, "b": 0},
                                {"rid": 7, "b": 0}])

    def score_fn(q_df, ref_df):
        return (np.ones((len(q_df), len(ref_df))),
                ref_df["rid"].to_numpy())

    out = knn_join_copartitioned(queries, refs, lambda df: df["b"],
                                 score_fn, k=2, query_cols=["qid"],
                                 num_partitions=2).to_pandas()
    assert out["qid"].dtype == np.int64
    assert out["neighbor_id"].dtype == np.int64
    assert out["qid"].tolist() == [big, big]
    assert out.sort_values("rank")["neighbor_id"].tolist() == [7, big + 2]


def test_knn_join_copartitioned_keeps_only_query_columns(ray_session):
    """With ``query_cols=None`` the output carries the query side's
    columns, never the reference side's own ones (always null there);
    a query column named "_w" reaches ``score_fn`` but not the output."""
    queries = ray.data.from_items(
        [{"qid": i, "x": float(i), "b": i % 2, "_w": 1.0} for i in range(6)])
    refs = ray.data.from_items(
        [{"rid": 100 + j, "x": j + 0.5, "b": j % 2} for j in range(6)])

    def score_fn(q_df, ref_df):
        assert "_w" in q_df.columns and "rid" not in q_df.columns
        diff = np.abs(q_df["x"].to_numpy()[:, None]
                      - ref_df["x"].to_numpy()[None, :])
        return -diff, ref_df["rid"].to_numpy()

    out = knn_join_copartitioned(queries, refs, lambda df: df["b"],
                                 score_fn, k=1,
                                 num_partitions=4).to_pandas()
    assert sorted(out.columns) == sorted(["qid", "x", "b", "neighbor_id",
                                          "score", "rank"])
    out = out.sort_values("qid").reset_index(drop=True)
    assert out["x"].tolist() == [float(i) for i in range(6)]
    # within its bucket (parity of i), query x = i is nearest to the
    # reference x = i + 0.5, rid 100 + i
    assert out["neighbor_id"].tolist() == [100 + i for i in range(6)]
