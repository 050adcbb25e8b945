"""Parity of the vectorized LSH verify with the per-bucket loops it
replaced: one partition frame in, the same (id_a, id_b, score) table out
(rows, order, schema and values), for minhash, simhash and n-gram; plus
the band keys.  Pure numpy/pandas — no Ray needed."""

import warnings

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.ops.dedup import (_band_keys, _id_type, _popcount64,
                              _verify_minhash, _verify_ngram,
                              _verify_simhash)

K = 8   # signature slots in the generated frames


# -- reference: the per-bucket loops ------------------------------------------

def _ref_table(out, id_t, name, extra_t):
    return pa.table({"id_a": pa.array([r[0] for r in out], id_t),
                     "id_b": pa.array([r[1] for r in out], id_t),
                     name: pa.array([r[2] for r in out], extra_t)})


def _ref_runs(df, col):
    ids_all = df["doc_id"].to_numpy()
    bkt = df["bucket"].to_numpy()
    vals = df[col].to_numpy()
    order = np.lexsort((ids_all, bkt))
    ids_all, bkt, vals = ids_all[order], bkt[order], vals[order]
    dup = np.r_[False, (bkt[1:] == bkt[:-1])
                & (ids_all[1:] == ids_all[:-1])]
    if dup.any():
        keep = ~dup
        ids_all, bkt, vals = ids_all[keep], bkt[keep], vals[keep]
    starts = np.flatnonzero(np.r_[True, bkt[1:] != bkt[:-1]])
    ends = np.r_[starts[1:], len(bkt)]
    return ids_all, vals, [(int(starts[g]), int(ends[g])) for g in
                           np.flatnonzero((ends - starts) >= 2)]


def ref_minhash(df, k, threshold, max_bucket):
    ids_all, mh, runs = _ref_runs(df, "minhash")
    out = []
    for s, e in runs:
        m = e - s
        sigs = np.frombuffer(b"".join(mh[s:e]),
                             dtype=np.uint64).reshape(m, k)
        ids = ids_all[s:e]
        if m > max_bucket:
            est = (sigs[1:] == sigs[0][None, :]).mean(axis=1)
            for off in np.flatnonzero(est >= threshold):
                out.append((ids[0], ids[1 + off], float(est[off])))
        else:
            for i in range(m):
                sim = (sigs[i + 1:] == sigs[i][None, :]).mean(axis=1)
                for off in np.flatnonzero(sim >= threshold):
                    out.append((ids[i], ids[i + 1 + off], float(sim[off])))
    return _ref_table(out, _id_type(df["doc_id"]), "est_jaccard",
                      pa.float64())


def ref_simhash(df, max_hamming, max_bucket):
    ids_all, vals, runs = _ref_runs(df, "simhash")
    out = []
    for s, e in runs:
        v = vals[s:e].astype(np.uint64)
        ids = ids_all[s:e]
        m = e - s
        for i in range(1 if m > max_bucket else m):
            ham = _popcount64(v[i] ^ v[i + 1:])
            for off in np.flatnonzero(ham <= max_hamming):
                out.append((ids[i], ids[i + 1 + off], int(ham[off])))
    return _ref_table(out, _id_type(df["doc_id"]), "hamming", pa.int64())


def ref_ngram(df, threshold, max_bucket):
    ids_all, sh, runs = _ref_runs(df, "shingles")
    out = []
    for s, e in runs:
        ids = ids_all[s:e]
        sets = [set(x.tolist()) for x in sh[s:e]]
        m = e - s
        for i in range(1 if m > max_bucket else m):
            for j in range(i + 1, m):
                inter = len(sets[i] & sets[j])
                union = len(sets[i] | sets[j])
                jac = inter / union if union else 0.0
                if jac >= threshold:
                    out.append((ids[i], ids[j], round(jac, 6)))
    return _ref_table(out, _id_type(df["doc_id"]), "jaccard", pa.float64())


def ref_band_keys(sig, bands):
    mix = np.uint64(0x9E3779B97F4A7C15)
    n, r = len(sig), sig.shape[1] // bands
    bkts = np.empty(n * bands, dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for b in range(bands):
            h = np.full(n, np.uint64(b + 1) * mix, dtype=np.uint64)
            for j in range(b * r, (b + 1) * r):
                h = (h ^ sig[:, j]) * mix
            bkts[b * n:(b + 1) * n] = h
    return bkts.astype(np.int64)


# -- partition frames -----------------------------------------------------------

def _frame(rows, str_ids):
    """rows: (bucket, id, payload seed) triples.  A doc's payload is a
    function of its id and seed, so a repeated (bucket, id) row may carry
    a different payload than its first copy (the verify keeps the
    first)."""
    ids = [f"d{i:03d}" if str_ids else i for _, i, _ in rows]
    rng = [np.random.default_rng(1000 * i + p) for _, i, p in rows]
    sigs = [g.integers(0, 3, K, dtype=np.uint64) for g in rng]
    return pd.DataFrame({
        "doc_id": pd.Series(ids, dtype=object if str_ids else np.int64),
        "bucket": pd.Series([b for b, _, _ in rows], dtype=np.int64),
        "minhash": [s.tobytes() for s in sigs],
        "simhash": [np.int64(-(1 << 62)) ^ np.int64(
            int(g.integers(0, 1 << 12))) for g in rng],
        "shingles": [np.unique(g.integers(0, 12, int(g.integers(0, 6)),
                                          dtype=np.uint64)) for g in rng]})


_rows = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 12),
                           st.integers(0, 1)), max_size=48)


def _check(df, threshold, max_hamming, max_bucket):
    got = [_verify_minhash(df, "doc_id", K, threshold, max_bucket),
           _verify_simhash(df, "doc_id", max_hamming, max_bucket),
           _verify_ngram(df, "doc_id", threshold, max_bucket)]
    want = [ref_minhash(df, K, threshold, max_bucket),
            ref_simhash(df, max_hamming, max_bucket),
            ref_ngram(df, threshold, max_bucket)]
    for g, w in zip(got, want):
        assert g.schema == w.schema
        assert g.equals(w), (g.to_pydict(), w.to_pydict())


@settings(max_examples=200, deadline=None)
@given(_rows, st.booleans(),
       st.sampled_from([0.0, 0.25, 0.5, 0.625, 1.0]) | st.floats(0, 1),
       st.integers(0, 12), st.integers(1, 6))
def test_verify_matches_per_bucket_loops(rows, str_ids, threshold,
                                         max_hamming, max_bucket):
    _check(_frame(rows, str_ids), threshold, max_hamming, max_bucket)


def test_verify_edge_partitions():
    cap = 4
    cases = [
        [],                                              # empty partition
        [(0, 1, 0), (1, 2, 0), (2, 3, 0)],               # singletons only
        [(0, 5, 0), (0, 5, 1), (0, 2, 0), (0, 2, 0)],    # repeated rows
        [(7, i, 0) for i in range(cap)],                 # exactly the cap
        [(7, i, 0) for i in range(cap + 1)],             # one past: hub
        [(3, i, i % 2) for i in (9, 4, 4, 1, 6, 1)] + [(1, 0, 0)],
    ]
    for rows in cases:
        for str_ids in (False, True):
            for threshold in (0.0, 1.0):
                _check(_frame(rows, str_ids), threshold, 3, cap)


def test_verify_hub_pairs_only_with_the_minimum_id():
    df = _frame([(7, i, 0) for i in (4, 9, 2, 6, 3)], str_ids=False)
    df["minhash"] = df["minhash"].iloc[0]   # every row the same signature
    assert _verify_minhash(df, "doc_id", K, 1.0, 5).num_rows == 10
    hub = _verify_minhash(df, "doc_id", K, 1.0, 4).to_pydict()
    assert hub["id_a"] == [2] * 4 and hub["id_b"] == [3, 4, 6, 9]


def test_band_keys_match_the_scalar_seed_formula():
    sig = np.random.default_rng(3).integers(
        0, 1 << 63, (37, 64), dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _band_keys(sig, 16)
        empty = _band_keys(sig[:0], 16)
    assert np.array_equal(got, ref_band_keys(sig, 16))
    assert got.dtype == np.int64 and len(empty) == 0
    # a band width that leaves signature slots over (64 = 3 * 21 + 1)
    assert np.array_equal(_band_keys(sig, 3), ref_band_keys(sig, 3))
