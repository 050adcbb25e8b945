"""Training-data op tests: dedup family, ANN search, text analysis,
multimodal plumbing — verified against brute-force / DuckDB locally."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data

from georay.ops.dedup import (embedding_dup_pairs, exact_duplicates,
                              minhash_lsh_pairs, ngram_jaccard_pairs,
                              simhash_pairs)
from georay.ops.multimodal import (MediaFeatureExtractor, FrameSampler,
                                   synth_media_batch)
from georay.ops.similarity import kmeans_lite, topk_cosine_brute, topk_cosine_ivf
from georay.ops.text import LangId, content_md5, quality_score, token_stats

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def embeds(ray_session):
    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


def test_exact_duplicates_matches_duckdb(docs):
    got = exact_duplicates(docs).to_pandas()
    exp = duckdb.sql(f"""
        with k as (select doc_id, md5(text) content_key
                   from read_parquet('{SF}/documents.parquet')),
        g as (select *, min(doc_id) over (partition by content_key) keeper,
                     count(*) over (partition by content_key) n from k)
        select doc_id from g where n > 1 and doc_id <> keeper
    """).df()
    got_ids = set(got["doc_id"]) if "doc_id" in got.columns else set()
    assert got_ids == set(exp["doc_id"])


def test_exact_duplicates_finds_planted_dups(ray_session):
    rows = [{"doc_id": i, "text": f"unique {i}"} for i in range(10)]
    rows += [{"doc_id": 100, "text": "unique 3"},
             {"doc_id": 101, "text": "unique 3"}]
    ds = ray.data.from_items(rows)
    got = exact_duplicates(ds).to_pandas()
    assert set(got["doc_id"]) == {100, 101}
    assert (got["keeper_id"] == 3).all()


def test_minhash_pairs_find_real_duplicates(ray_session):
    texts = ["the quick brown fox jumps over the lazy dog " * 5,
             "the quick brown fox jumps over the lazy dog " * 5 + "extra tail",
             "completely different content about graph databases " * 5]
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    pairs = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    assert {(0, 1)} == set(zip(pairs["id_a"], pairs["id_b"]))


def test_simhash_pairs(ray_session):
    # simhash is order-insensitive: a token permutation is hamming-0
    base = " ".join(f"word{i}" for i in range(40))
    shuffled = " ".join(f"word{i}" for i in reversed(range(40)))
    texts = [base, shuffled,
             "unrelated words entirely here about other topics " * 4]
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    pairs = simhash_pairs(ds, max_hamming=3).to_pandas()
    assert (0, 1) in set(zip(pairs["id_a"], pairs["id_b"]))
    assert not any(2 in p for p in zip(pairs["id_a"], pairs["id_b"]))


def test_ngram_jaccard_exact_values(ray_session):
    words = [f"tok{i}" for i in range(40)]
    a = " ".join(words)
    b = " ".join(words[:-1] + ["changed"])   # last bigram differs
    ds = ray.data.from_items([{"doc_id": 0, "text": a},
                              {"doc_id": 1, "text": b}])
    pairs = ngram_jaccard_pairs(ds, threshold=0.1, shingle_n=2).to_pandas()
    # bigrams: 39 each, 38 shared -> exact jaccard 38/40
    assert len(pairs) == 1
    assert pairs.iloc[0]["jaccard"] == pytest.approx(38 / 40, abs=1e-6)


def test_topk_cosine_brute_matches_numpy(embeds):
    pdf = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    mat = np.array(pdf["embedding"].tolist(), dtype=np.float64)
    queries = mat[:3]
    got = topk_cosine_brute(embeds, queries, k=4).to_pandas()
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    sim = qn @ mn.T
    for qi in range(3):
        order = np.lexsort((pdf["vec_id"].to_numpy(), -sim[qi]))[:4]
        exp_ids = pdf["vec_id"].to_numpy()[order].tolist()
        g = got[got["query_id"] == qi].sort_values("rank")
        assert g["vec_id"].tolist() == exp_ids


def test_ivf_recall_vs_brute(embeds):
    pdf = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    mat = np.array(pdf["embedding"].tolist(), dtype=np.float64)
    queries = mat[10:15]
    cents = kmeans_lite(mat[:200], n_clusters=8)
    brute = topk_cosine_brute(embeds, queries, k=5).to_pandas()
    ivf = topk_cosine_ivf(embeds, queries, cents, k=5, n_probe=4).to_pandas()
    hits = 0
    total = 0
    for qi in range(5):
        b = set(brute[brute.query_id == qi]["vec_id"])
        a = set(ivf[ivf.query_id == qi]["vec_id"])
        hits += len(b & a)
        total += len(b)
    # synthetic embeddings are weakly clustered; probing half the
    # codebook must recover a solid majority of the exact top-k
    assert hits / total >= 0.7


def test_embedding_dup_pairs_self_duplicates(ray_session):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((5, 16))
    rows = []
    for i, v in enumerate(base):
        rows.append({"vec_id": i, "embedding": v.tolist()})
        rows.append({"vec_id": 100 + i,
                     "embedding": (v + 0.001 * rng.standard_normal(16)).tolist()})
    ds = ray.data.from_items(rows)
    pairs = embedding_dup_pairs(ds, threshold=0.999).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    assert all((i, 100 + i) in found for i in range(5))


def test_text_stats_and_quality(docs):
    out = docs.map_batches(token_stats, batch_format="pyarrow") \
              .map_batches(quality_score, batch_format="pyarrow") \
              .map_batches(content_md5, batch_format="pyarrow").to_pandas()
    assert (out["n_chars_calc"] == out["n_chars"]).all()   # testdata agrees
    assert out["quality"].between(0, 1).all()
    assert out["content_key"].str.len().eq(32).all()


def test_langid(ray_session, docs):
    # NOTE: the testdata `lang` column is a random label over English-ish
    # jargon text, so we assert the heuristic's own contract instead.
    out = docs.map_batches(LangId, batch_format="pyarrow",
                           concurrency=2).to_pandas()
    assert set(out["lang_pred"]) <= {"en", "fr", "nl", "und"}
    ds = ray.data.from_items([
        {"doc_id": 1, "text": "the cat and the dog sat in a house for a while"},
        {"doc_id": 2, "text": "le chat et le chien sont dans la maison pour un moment"},
        {"doc_id": 3, "text": "de kat en de hond zijn in het huis met een vriend"},
        {"doc_id": 4, "text": "zzz qqq xxx"},
    ])
    got = ds.map_batches(LangId, batch_format="pyarrow",
                         concurrency=1).to_pandas()
    got = got.set_index("doc_id")["lang_pred"]
    assert got[1] == "en" and got[2] == "fr" and got[3] == "nl" and got[4] == "und"


def test_media_plumbing(ray_session):
    tbl = synth_media_batch(30, seed=1)
    ds = ray.data.from_arrow(tbl)
    feats = ds.map_batches(MediaFeatureExtractor, batch_size=8,
                           concurrency=2,
                           fn_constructor_kwargs={"dim": 32},
                           batch_format="pyarrow").to_pandas()
    assert len(feats) == 30
    assert feats["feature"].map(len).eq(32).all()
    assert "payload" not in feats.columns          # bytes never forwarded
    # determinism: same payload -> same feature
    f2 = ds.map_batches(MediaFeatureExtractor, batch_size=16, concurrency=1,
                        fn_constructor_kwargs={"dim": 32},
                        batch_format="pyarrow").to_pandas()
    a = feats.sort_values("media_id")["feature"].tolist()
    b = f2.sort_values("media_id")["feature"].tolist()
    assert all(np.allclose(x, y) for x, y in zip(a, b))
    frames = ds.map_batches(FrameSampler, batch_format="pyarrow",
                            concurrency=1).to_pandas()
    assert (frames["ts_ms"] % 1000 == 0).all()
    with pytest.raises(NotImplementedError):
        MediaFeatureExtractor(real=True)


def test_vec_matrix_zero_copy_and_fallback():
    import pyarrow as pa
    import numpy as np
    from georay.ops.similarity import vec_matrix

    m = np.arange(12, dtype=np.float32).reshape(4, 3)
    offsets = pa.array(np.arange(0, 15, 3, dtype=np.int32))
    emb = pa.ListArray.from_arrays(offsets, pa.array(m.ravel()))
    t = pa.table({"embedding": emb})
    out = vec_matrix(t, "embedding")
    assert out.shape == (4, 3) and out.dtype == np.float64
    assert np.allclose(out, m)
    # chunked column path (combine_chunks) round-trips too
    t2 = pa.concat_tables([t, t])
    out2 = vec_matrix(t2, "embedding")
    assert out2.shape == (8, 3)
    assert np.allclose(out2[4:], m)


def test_grouped_map_schema_stability(ray_session):
    """Empty fn outputs keep typed schemas (no null-typed blocks)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from georay.shuffle import grouped_map

    ds = ray.data.from_items(
        [{"k": "a" if i % 2 else "b", "v": i} for i in range(40)]
    ).repartition(4)

    out_schema = pa.schema([("k", pa.string()), ("n", pa.int64())])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        # emit nothing for half the partitions
        if (df["v"] % 2 == 0).all():
            return df.iloc[0:0][["k"]].assign(n=pd.Series(dtype="int64"))
        return (df.groupby("k", sort=False)["v"].size()
                .rename("n").reset_index())

    res = grouped_map(ds, "k", fn, num_partitions=8, group_fn=False,
                      out_schema=out_schema).to_pandas()
    assert list(res.columns) == ["k", "n"]
    assert res["n"].sum() == 20  # only the odd-v rows counted


def test_embedding_dup_pairs_hub_cap(ray_session):
    # a mass-duplicated bucket beyond max_bucket degrades to hub-and-
    # spoke: pairs stay LINEAR in bucket size, connected through the hub
    v = [0.1] * 16
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": v} for i in range(10)])
    pairs = embedding_dup_pairs(ds, threshold=0.99,
                                max_bucket=4).to_pandas()
    assert len(pairs) == 9            # not C(10,2) = 45
    assert (pairs["id_a"] == 0).all()  # hub = minimum id


@pytest.mark.parametrize("op", [minhash_lsh_pairs, simhash_pairs])
def test_text_dup_pairs_hub_cap(ray_session, op):
    # 70 copies of one text fill one bucket per band: past max_bucket
    # only the hub (the minimum id) pairs; under it, every pair does
    ds = ray.data.from_items(
        [{"doc_id": i, "text": "rue de la loi 16 1000 bruxelles"}
         for i in range(70)])
    hub = op(ds, max_bucket=64).to_pandas()
    assert len(hub) == 69
    assert (hub["id_a"] == 0).all() and sorted(hub["id_b"]) == list(
        range(1, 70))
    assert len(op(ds, max_bucket=128).to_pandas()) == 70 * 69 // 2


def test_knn_graph_matches_numpy(embeds):
    from georay.ops.similarity import knn_graph
    pdf = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    pdf = pdf.sort_values("vec_id")
    mat = np.array(pdf["embedding"].tolist(), dtype=np.float64)
    ids = pdf["vec_id"].to_numpy()
    got = knn_graph(embeds, ids, mat, k=3).to_pandas()
    mn = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sim = mn @ mn.T
    np.fill_diagonal(sim, -np.inf)
    assert len(got) == 3 * len(ids)
    for probe in (0, len(ids) // 2, len(ids) - 1):
        order = np.lexsort((ids, -sim[probe]))[:3]
        exp = ids[order].tolist()
        g = got[got["src_id"] == ids[probe]].sort_values("rank")
        assert g["nbr_id"].tolist() == exp
        assert (g["nbr_id"] != ids[probe]).all()  # no self edges


def test_doc_curation_composition(ray_session):
    """The curation composite equals its kernels composed independently."""
    from georay.entrylib import q_doc_curation
    out = q_doc_curation(SF).to_pandas().set_index("lang_pred")
    docs = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    keep = docs.loc[docs.groupby(docs["text"].map(
        lambda t: __import__("hashlib").md5(
            (t or "").encode()).hexdigest()))["doc_id"].idxmin()]
    import pyarrow as pa
    kept_t = pa.Table.from_pandas(keep[["doc_id", "text"]],
                                  preserve_index=False)
    q = quality_score(kept_t).to_pandas()
    good = keep[q["quality"].to_numpy() >= 0.7]
    good_t = pa.Table.from_pandas(good[["doc_id", "text"]],
                                  preserve_index=False)
    lang = LangId()(good_t).to_pandas()
    toks = token_stats(good_t).to_pandas()
    ref = pd.DataFrame({"lang_pred": lang["lang_pred"],
                        "n_tokens": toks["n_tokens"]}).groupby(
        "lang_pred").agg(n_docs=("n_tokens", "size"),
                         total_tokens=("n_tokens", "sum"))
    assert out.sort_index().to_dict() == ref.sort_index().to_dict()


def test_vocab_topk_matches_duckdb(ray_session, docs):
    from georay.ops.text import vocab_topk
    got = vocab_topk(docs, k=20).to_pandas()
    ref = duckdb.sql(f"""
        with toks as (select lower(u.tok) as token
          from read_parquet('{SF}/documents.parquet'),
               unnest(regexp_extract_all(text, '\\w+')) u(tok))
        select token, cast(count(*) as bigint) n from toks
        group by token order by n desc, token limit 20""").df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), ref)


def test_bigram_topk_matches_duckdb(ray_session, docs):
    from georay.ops.text import bigram_topk
    got = bigram_topk(docs, k=15).to_pandas()
    ref = duckdb.sql(f"""
        with t as (select regexp_extract_all(lower(text), '\\w+') toks
                   from read_parquet('{SF}/documents.parquet')),
        p as (select unnest([toks[i] || ' ' || toks[i+1]
                             for i in range(1, len(toks))]) pair
              from t)
        select pair, cast(count(*) as bigint) n from p
        group by pair order by n desc, pair limit 15""").df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), ref)


def test_unigram_familiarity_matches_duckdb(ray_session, docs):
    import ray
    from georay.ops.text import corpus_token_counts, unigram_familiarity
    cnt = corpus_token_counts(docs).to_pandas()
    ref = ray.put(dict(zip(cnt["token"], cnt["sum(n)"].astype(int))))
    got = unigram_familiarity(docs, ref).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    want = duckdb.sql(f"""
        with toks as (select doc_id, lower(u.tok) as tok
          from read_parquet('{SF}/documents.parquet'),
               unnest(regexp_extract_all(text, '\\w+')) u(tok)),
        cnt as (select tok, count(*) n from toks group by tok)
        select t.doc_id, count(*) as n_tok,
               cast(sum(c.n) as bigint) as freq_sum
        from toks t join cnt c using (tok)
        group by t.doc_id order by t.doc_id""").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_length_quantiles_matches_duckdb(ray_session, docs):
    from georay.ops.text import length_quantiles
    got = length_quantiles(docs).to_pandas()
    ref = duckdb.sql(f"""
        with lens as (select cast(length(text) as bigint) v
                      from read_parquet('{SF}/documents.parquet')),
        tot as (select cast(count(*) as bigint) n from lens),
        hist as (select v, cast(sum(count(*)) over (order by v) as bigint)
                 cum from lens group by v),
        qs(q_bp) as (values (2500),(5000),(7500),(9000),(9900))
        select cast(q.q_bp as bigint) q_bp,
               (select min(h.v) from hist h, tot t
                where h.cum >= greatest(1, ceil(q.q_bp / 10000.0 * t.n)))
               as value
        from qs q order by q.q_bp""").df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True), ref)


def test_length_quantiles_empty(ray_session):
    """Empty corpus yields an empty (typed) result, not a crash."""
    import pyarrow as pa
    from georay.ops.text import length_quantiles
    ds = ray.data.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = length_quantiles(ds).to_pandas()
    assert len(out) == 0 and list(out.columns) == ["q_bp", "value"]


def test_vocab_partial_is_a_combiner():
    """Partial output rows are DISTINCT tokens, not occurrences."""
    import pyarrow as pa
    from georay.ops.text import vocab_partial_counts
    b = pa.table({"text": ["a a a b", "b c"]})
    out = vocab_partial_counts(b).to_pandas()
    assert sorted(out["token"]) == ["a", "b", "c"]
    assert dict(zip(out["token"], out["n"])) == {"a": 3, "b": 2, "c": 1}


def test_sample_per_key_deterministic(ray_session, docs):
    from georay.ops.sample import deterministic_sample_per_key
    got = deterministic_sample_per_key(docs, "lang", "doc_id", 3).to_pandas()
    ref = duckdb.sql(f"""
        select lang, doc_id from (
          select lang, doc_id, row_number() over (partition by lang
            order by md5(cast(doc_id as varchar)), doc_id) rn
          from read_parquet('{SF}/documents.parquet')) t where rn <= 3""").df()
    key = lambda d: sorted(map(tuple, d[["lang", "doc_id"]].to_numpy()))
    assert key(got) == key(ref)
    # rerun -> identical sample (content-addressed, no RNG)
    again = deterministic_sample_per_key(docs, "lang", "doc_id", 3).to_pandas()
    assert key(again) == key(got)


def test_connected_components_matches_union_find(ray_session):
    """Min-label propagation must equal a scalar union-find's
    min-node-per-component labels on a random graph that includes
    chains (multi-round propagation), cliques, and isolated pairs."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.ops.dedup import connected_components

    rng = np.random.default_rng(11)
    edges = []
    # 5 cliques of 4
    for c in range(5):
        ids = [100 * c + i for i in range(4)]
        edges += [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    # a 12-node chain (diameter forces several rounds)
    chain = [1000 + i for i in range(12)]
    edges += list(zip(chain, chain[1:]))
    # random extra edges over a 60-node pool
    pool = rng.integers(2000, 2060, size=(25, 2))
    edges += [(int(a), int(b)) for a, b in pool if a != b]

    # scalar union-find reference
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    roots: dict[int, list] = {}
    for n in parent:
        roots.setdefault(find(n), []).append(n)
    expect = {n: min(ns) for r, ns in roots.items() for n in ns}

    pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([a for a, _ in edges], pa.int64()),
        "id_b": pa.array([b for _, b in edges], pa.int64())}))
    out = connected_components(pairs, num_partitions=8).to_pandas()
    got = dict(zip(out["node"], out["comp"]))
    assert got == expect


def test_connected_components_empty(ray_session):
    import pyarrow as pa
    import ray

    from georay.ops.dedup import connected_components

    pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64())}))
    out = connected_components(pairs).to_pandas()
    assert len(out) == 0


def test_keep_canonical_broadcast_filter(ray_session):
    """keep_canonical drops exactly the non-min members of each pair
    cluster and keeps everything else untouched."""
    import pyarrow as pa
    import ray

    from georay.ops.dedup import connected_components, keep_canonical

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(10)), pa.int64()),
        "text": pa.array([f"t{i}" for i in range(10)], pa.string())}))
    pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([1, 2, 7], pa.int64()),
        "id_b": pa.array([2, 3, 8], pa.int64())}))
    comp = connected_components(pairs, num_partitions=4)
    kept = sorted(keep_canonical(docs, comp).to_pandas()["doc_id"])
    assert kept == [0, 1, 4, 5, 6, 7, 9]

    # empty pair set: everything survives
    empty = ray.data.from_arrow(pa.table({
        "id_a": pa.array([], pa.int64()),
        "id_b": pa.array([], pa.int64())}))
    comp0 = connected_components(empty)
    assert len(keep_canonical(docs, comp0).to_pandas()) == 10


def test_pca_matches_numpy(ray_session):
    """Distributed one-pass PCA reproduces driver-side numpy PCA on the
    same rows (components up to the canonical sign, assignments
    exactly), independent of block layout."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.ops.similarity import pca_assign, pca_fit

    rng = np.random.default_rng(11)
    # anisotropic cloud: two dominant axes
    base = rng.normal(size=(300, 8))
    base[:, 0] *= 6.0
    base[:, 3] *= 3.0
    base += rng.normal(size=8)  # nonzero mean
    tbl = pa.table({"vec_id": pa.array(range(300), pa.int64()),
                    "embedding": pa.array([r.tolist() for r in base],
                                          pa.list_(pa.float64()))})
    ds = ray.data.from_arrow(tbl).repartition(7)
    mean, comps, evals = pca_fit(ds, n_components=3)

    np.testing.assert_allclose(mean, base.mean(axis=0), rtol=1e-9)
    cov = np.cov(base.T, bias=True)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:3]
    np.testing.assert_allclose(np.sort(evals)[::-1], w[order], rtol=1e-7)
    for i, oi in enumerate(order):
        ref = v[:, oi]
        j = int(np.argmax(np.abs(ref)))
        if ref[j] < 0:
            ref = -ref
        np.testing.assert_allclose(comps[i], ref, atol=1e-8)

    got = pca_assign(ds, mean, comps).to_pandas().sort_values(
        "vec_id")["comp"].to_numpy()
    want = np.argmax(np.abs((base - base.mean(axis=0)) @ comps.T), axis=1)
    assert (got == want).all()


def test_kmeans_fit_recovers_planted_clusters(ray_session):
    """Distributed spherical k-means recovers 3 well-separated planted
    directions, is deterministic across reruns, and its assignment op
    matches a driver-side numpy argmax on the final centroids."""
    import numpy as np
    import pyarrow as pa
    import ray

    from georay.ops.similarity import (_normalize, kmeans_assign,
                                       kmeans_fit, vec_matrix)

    rng = np.random.default_rng(3)
    dirs = _normalize(rng.normal(size=(3, 16)))
    vecs, truth = [], []
    for i in range(240):
        c = i % 3
        v = dirs[c] + 0.05 * rng.normal(size=16)
        vecs.append(v.tolist())
        truth.append(c)
    tbl = pa.table({"vec_id": pa.array(range(240), pa.int64()),
                    "embedding": pa.array(vecs, pa.list_(pa.float64()))})
    ds = ray.data.from_arrow(tbl).repartition(6)
    init = np.array(vecs[:3], dtype=np.float64)   # one seed per class

    cent1 = kmeans_fit(ds, init, iters=4)
    cent2 = kmeans_fit(ds, init, iters=4)
    assert np.array_equal(cent1, cent2)           # bit-deterministic

    out = kmeans_assign(ds, cent1).to_pandas().sort_values("vec_id")
    # engine assignment == numpy brute on the same centroids
    m = _normalize(np.array(vecs, dtype=np.float64))
    brute = np.argmax(m @ _normalize(cent1).T, axis=1)
    assert np.array_equal(out["cluster"].to_numpy(), brute)
    # each planted class maps to ONE cluster, classes to distinct ones
    by_class = [set(out["cluster"][np.array(truth) == c]) for c in range(3)]
    assert all(len(s) == 1 for s in by_class)
    assert len(set().union(*by_class)) == 3


def test_repetition_signals_pinned(ray_session):
    from georay.ops.curation import repetition_signals
    import pyarrow as pa
    # "a b a b a": bigrams (a,b)x2 (b,a)x2 -> tot=4 top=2 dup=2
    # "x y z": 2 distinct bigrams -> top 1/2, dup 0
    # "w": <2 tokens -> 0/0
    batch = pa.table({"doc_id": [1, 2, 3],
                      "text": ["a b a b a", "x y z", "w"]})
    out = repetition_signals(batch).to_pandas()
    assert out["top_bigram_bp"].tolist() == [5000, 5000, 0]
    assert out["dup_bigram_bp"].tolist() == [5000, 0, 0]


def test_decontaminate_flags_overlap(ray_session):
    from georay.ops.curation import benchmark_gram_hashes, decontaminate
    import ray as _ray
    bench_text = "alpha beta gamma delta epsilon"
    rows = [{"doc_id": 0, "text": bench_text},                  # the benchmark doc
            {"doc_id": 1, "text": "x y alpha beta gamma delta z"},  # shares a 4-gram
            {"doc_id": 2, "text": "alpha beta zeta eta theta"},     # shares no 4-gram
            {"doc_id": 3, "text": "tiny"}]                          # <4 tokens
    ds = ray.data.from_items(rows)
    bench = ray.data.from_items([rows[0]])
    ref = _ray.put(benchmark_gram_hashes(bench, n=4))
    got = decontaminate(ds, ref, n=4).to_pandas()
    assert dict(zip(got["doc_id"], got["n_hits"])) == {0: 2, 1: 1}


def test_pii_scrub_pinned(ray_session):
    from georay.ops.curation import pii_scrub
    import pyarrow as pa
    batch = pa.table({"text": [
        "mail me at jo.doe@ex.org or call 012-345-6789",
        "server at 192.168.0.1 end",
        "clean text with no pii",
    ]})
    out = pii_scrub(batch).to_pandas()
    assert out["n_emails"].tolist() == [1, 0, 0]
    assert out["n_phones"].tolist() == [1, 0, 0]
    assert out["n_ips"].tolist() == [0, 1, 0]
    assert out["scrubbed"].tolist() == [
        "mail me at <EMAIL> or call <PHONE>",
        "server at <IP> end",
        "clean text with no pii"]


def test_chunk_documents_pinned(ray_session):
    from georay.ops.curation import chunk_documents
    import hashlib
    import pyarrow as pa
    toks = [f"w{i}" for i in range(100)]
    batch = pa.table({"doc_id": [1, 2, 3],
                      "text": [" ".join(toks), "short doc", ""]})
    out = chunk_documents(batch, chunk_tokens=64, stride=48).to_pandas()
    # doc 1: 100 tokens -> ceil((100-64)/48)+1 = 2 chunks (0..63, 48..99)
    d1 = out[out.doc_id == 1]
    assert d1["chunk_idx"].tolist() == [0, 1]
    assert d1["chunk_ntok"].tolist() == [64, 52]
    assert d1["chunk_md5"].iloc[1] == hashlib.md5(
        " ".join(toks[48:100]).encode()).hexdigest()
    # doc 2: one short chunk; doc 3: empty -> no rows
    assert out[out.doc_id == 2]["chunk_ntok"].tolist() == [2]
    assert (out.doc_id == 3).sum() == 0


def test_tfidf_top_terms_pinned(ray_session):
    import ray as _ray
    from georay.ops.text import doc_frequencies, tfidf_top_terms
    rows = [{"doc_id": 1, "text": "apple apple banana"},
            {"doc_id": 2, "text": "banana cherry"},
            {"doc_id": 3, "text": "cherry cherry cherry apple"}]
    ds = ray.data.from_items(rows)
    dfp = doc_frequencies(ds).to_pandas()
    dfs = dict(zip(dfp["token"], dfp["sum(df)"].astype(int)))
    assert dfs == {"apple": 2, "banana": 2, "cherry": 2}
    out = tfidf_top_terms(ds, _ray.put(dfs), n_top=2).to_pandas()
    d1 = out[out.doc_id == 1].sort_values("rank")
    # doc1: apple tf2/df2=1.0 > banana tf1/df2=0.5
    assert d1["token"].tolist() == ["apple", "banana"]
    assert d1["score_bp"].tolist() == [10000, 5000]
    d3 = out[out.doc_id == 3].sort_values("rank")
    assert d3["token"].tolist() == ["cherry", "apple"]
    assert d3["score_bp"].tolist() == [15000, 5000]


def test_duplicate_spans_planted(ray_session):
    from georay.ops.dedup import duplicate_spans
    shared = " ".join(f"s{i}" for i in range(16))
    rows = [{"doc_id": 1, "text": shared + " tail one"},
            {"doc_id": 2, "text": "head two " + shared},
            {"doc_id": 3, "text": "unrelated " + " ".join(
                f"u{i}" for i in range(20))},
            # within-doc repeat only -> not a cross-doc duplicate
            {"doc_id": 4, "text": " ".join(
                f"r{i % 4}" for i in range(40))}]
    ds = ray.data.from_items(rows)
    got = duplicate_spans(ds, n=16).to_pandas()
    # every reported gram spans >= 2 docs; the planted shared gram is
    # there with min_id 1 and exactly docs {1, 2}
    assert (got["n_docs"] >= 2).all()
    import hashlib
    h = hashlib.md5(shared.encode()).hexdigest()
    hit = got[got.gram_md5 == h]
    assert len(hit) == 1
    assert hit["n_docs"].iloc[0] == 2 and hit["min_id"].iloc[0] == 1
    assert 4 not in set(got["min_id"])


def test_duplicate_spans_sampling_subset(ray_session):
    from georay.ops.dedup import duplicate_spans
    shared = " ".join(f"t{i}" for i in range(30))
    ds = ray.data.from_items([{"doc_id": 1, "text": shared},
                              {"doc_id": 2, "text": shared}])
    full = duplicate_spans(ds, n=16, sample_hex=16).to_pandas()
    samp = duplicate_spans(ds, n=16, sample_hex=4).to_pandas()
    # the 1/4 anchor sample keeps exactly the grams whose first md5 hex
    # digit is < 4 — a deterministic subset of the full result
    assert set(samp.gram_md5) == {
        g for g in full.gram_md5 if int(g[0], 16) < 4}


def test_duplicate_spans_digest_impl_parity(ray_session):
    # the vectorized md5 path and the per-gram hashlib reference must be
    # bit-identical on the SAME buffer slices (the stage-level A/B in
    # scripts/bench_dup_spans.py relies on this)
    from georay.ops.dedup import duplicate_spans
    shared = " ".join(f"p{i}" for i in range(24))
    rows = [{"doc_id": 1, "text": shared + " alpha beta"},
            {"doc_id": 2, "text": "gamma " + shared},
            {"doc_id": 3, "text": " ".join(f"z{i}" for i in range(40))}]
    ds = ray.data.from_items(rows)
    cols = ["gram_md5", "n_docs", "n_occ", "min_id"]
    vec = (duplicate_spans(ds, n=16, digest_impl="vec").to_pandas()
           .sort_values(cols).reset_index(drop=True))
    ref = (duplicate_spans(ds, n=16, digest_impl="hashlib").to_pandas()
           .sort_values(cols).reset_index(drop=True))
    assert vec[cols].equals(ref[cols])


# ---------------------------------------------------------------------------
# HyperLogLog sketch (ops/sketch.py)
# ---------------------------------------------------------------------------

def test_hll_estimate_accuracy(ray_session):
    """20k distinct values at p=12: the deterministic estimate must land
    within 5% of exact (std error ≈ 1.6%; fixed hash ⇒ fixed result)."""
    import pyarrow as pa
    import ray.data
    from georay.ops.sketch import hll_estimate, hll_registers
    n = 20_000
    vals = [f"value-{i}" for i in range(n)] * 2  # every value twice
    ds = ray.data.from_arrow(pa.table({"text": vals}))
    regs = hll_registers(ds, p=12, tokenize=False).to_pandas()
    est = hll_estimate(regs, p=12)
    assert abs(est - n) / n < 0.05


def test_hll_registers_merge_invariant(ray_session):
    """Registers are a mergeable summary: sketching the union equals
    max-merging per-part sketches."""
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from georay.ops.sketch import hll_registers
    a = [f"a-{i}" for i in range(500)]
    b = [f"b-{i}" for i in range(300)] + a[:100]
    whole = hll_registers(
        ray.data.from_arrow(pa.table({"text": a + b})),
        p=8, tokenize=False).to_pandas()
    pa_ = hll_registers(ray.data.from_arrow(pa.table({"text": a})),
                        p=8, tokenize=False).to_pandas()
    pb_ = hll_registers(ray.data.from_arrow(pa.table({"text": b})),
                        p=8, tokenize=False).to_pandas()
    merged = (pd.concat([pa_, pb_]).groupby("bucket", as_index=False)["rho"]
              .max())
    w = whole.sort_values("bucket").reset_index(drop=True)
    m = merged.sort_values("bucket").reset_index(drop=True)
    assert w.equals(m.astype({"bucket": "int64", "rho": "int64"}))


def test_hll_bit_length_exact():
    import numpy as np
    from georay.ops.sketch import _bit_length_u64
    vals = np.array([0, 1, 2, 3, 4, 2**10, 2**10 - 1, 2**53, 2**53 - 1,
                     2**63, 2**64 - 1], dtype=np.uint64)
    want = np.array([int(v).bit_length() for v in vals.tolist()])
    assert np.array_equal(_bit_length_u64(vals), want)


def test_content_split_deterministic(ray_session, docs):
    """Split is rerun-invariant, partitions the corpus, and lands near
    the 80/10/10 weights."""
    from georay.ops.sample import content_split
    a = content_split(docs, "doc_id").to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    b = content_split(docs.repartition(5), "doc_id").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)   # topology-invariant
    counts = a["split"].value_counts()
    n = len(a)
    assert set(counts.index) <= {"train", "val", "test"}
    assert counts.get("train", 0) > 0.6 * n
    assert counts.sum() == n


def test_hash_weighted_keep_extremes(ray_session):
    import pyarrow as pa
    import ray.data
    from georay.ops.sample import hash_weighted_keep
    tbl = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                    "w": pa.array([0] * 25 + [1000] * 25, pa.int64())})
    ds = ray.data.from_arrow(tbl)
    kept = hash_weighted_keep(ds, "doc_id", "w").to_pandas()
    # weight 0 never survives, weight == scale always survives
    assert sorted(kept["doc_id"]) == list(range(25, 50))


def test_keep_canonical_anti_join_plan_equivalence(ray_session):
    """The co-partitioned anti-join plan (round 5, the at-scale path
    when the drop set outgrows the object store) must produce exactly
    the broadcast plan's survivor set — full rows, schema preserved —
    and the auto threshold must route to it."""
    import pyarrow as pa
    import ray

    from georay.ops.dedup import connected_components, keep_canonical

    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(12)), pa.int64()),
        "text": pa.array([f"t{i}" for i in range(12)], pa.string())}))
    pairs = ray.data.from_arrow(pa.table({
        "id_a": pa.array([1, 2, 7, 10], pa.int64()),
        "id_b": pa.array([2, 3, 8, 11], pa.int64())}))
    comp = connected_components(pairs, num_partitions=4)
    bc = keep_canonical(docs, comp, plan="broadcast").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    aj = keep_canonical(docs, comp, plan="anti_join").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert bc.equals(aj)
    assert list(aj.columns) == ["doc_id", "text"]
    assert list(aj["doc_id"]) == [0, 1, 4, 5, 6, 7, 9, 10]
    # auto with a zero budget must take the anti-join route and agree
    auto = keep_canonical(docs, comp, plan="auto",
                          max_broadcast_bytes=0).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert auto.equals(bc)


# ---------------------------------------------------------------------------
# Count-min sketch (ops/sketch.py)
# ---------------------------------------------------------------------------

def test_cms_registers_merge_and_overestimate(ray_session):
    """Sum-merge invariant (sketching the union == summing per-part
    sketches) and the CMS guarantee: point estimates NEVER
    underestimate, and with few tokens vs width they are exact."""
    from collections import Counter

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from georay.ops.sketch import (_WORD, cms_point_estimate,
                                   cms_registers)
    a = [f"tok{i} tok{i % 7} filler" for i in range(50)]
    b = [f"tok{i % 3} other words here" for i in range(30)]
    whole = cms_registers(ray.data.from_arrow(pa.table({"text": a + b})),
                          depth=4, width=256).to_pandas()
    pa_ = cms_registers(ray.data.from_arrow(pa.table({"text": a})),
                        depth=4, width=256).to_pandas()
    pb_ = cms_registers(ray.data.from_arrow(pa.table({"text": b})),
                        depth=4, width=256).to_pandas()
    merged = (pd.concat([pa_, pb_])
              .groupby(["row", "bucket"], as_index=False)["n"].sum())
    w = whole.sort_values(["row", "bucket"]).reset_index(drop=True)
    m = merged.sort_values(["row", "bucket"]).reset_index(drop=True)
    assert w.equals(m.astype({"row": "int64", "bucket": "int64",
                              "n": "int64"}))
    cnt: Counter = Counter()
    for t in a + b:
        cnt.update(_WORD.findall(t.lower()))
    toks = list(cnt.keys())
    true = np.fromiter(cnt.values(), dtype=np.int64, count=len(toks))
    est = cms_point_estimate(whole, toks, depth=4, width=256)
    assert (est >= true).all()
    # register totals conserve the token stream per hash row
    per_row = whole.groupby("row")["n"].sum()
    assert (per_row == true.sum()).all()


def test_bloom_bits_membership_and_merge(ray_session):
    """No false negatives, OR-merge invariance, and absent tokens are
    mostly rejected at this fill ratio."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from georay.ops.sketch import _WORD, bloom_bits, bloom_might_contain
    a = [f"alpha{i} beta{i % 5}" for i in range(40)]
    b = [f"gamma{i % 7} delta words" for i in range(30)]
    whole = bloom_bits(ray.data.from_arrow(pa.table({"text": a + b})),
                       n_hashes=3, m_bits=2048).to_pandas()
    pa_ = bloom_bits(ray.data.from_arrow(pa.table({"text": a})),
                     n_hashes=3, m_bits=2048).to_pandas()
    pb_ = bloom_bits(ray.data.from_arrow(pa.table({"text": b})),
                     n_hashes=3, m_bits=2048).to_pandas()
    merged = (pd.concat([pa_, pb_])["bit_pos"].drop_duplicates()
              .sort_values().reset_index(drop=True))
    assert merged.equals(whole["bit_pos"].sort_values()
                         .reset_index(drop=True).astype("int64"))
    vocab: set = set()
    for t in a + b:
        vocab.update(_WORD.findall(t.lower()))
    present = sorted(vocab)
    ok = bloom_might_contain(whole, present, n_hashes=3, m_bits=2048)
    assert ok.all()  # a Bloom filter NEVER false-negatives
    absent = [f"zeta{i}x" for i in range(500)]
    fp = bloom_might_contain(whole, absent, n_hashes=3, m_bits=2048)
    assert fp.mean() < 0.05
