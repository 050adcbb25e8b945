"""Similarity search over an embedding column (``list<float>``): exact
and IVF cosine top-k, PQ / IVF-PQ ADC top-k, the all-pairs kNN graph,
and the k-means / PCA fits behind them.

Every search follows one plan (partition, verify inside the partition,
merge once — the plan of Distributed Streaming Set Similarity Join,
ICDE 2020) and one selection rule; only the scoring differs:

- ``_scan_topk`` is the one scan plan.  The query side is small and is
  broadcast; each streaming batch gets a per-query partial top-k and
  ``_merge_topk`` merges the partials once.  A search passes only
  ``prepare(batch)``, which returns ``score(qx) -> (rows, val)``: the
  batch rows query ``qx`` may reach (``None`` means all; IVF: the rows
  of the probed buckets) and their values.
- ``_topk_rows`` is the one selection rule, used by the scan, both
  kNN-graph plans and the point kNN joins of ``georay.knn``.  Per row it
  keeps the entries at or better than the row's k-th value (a cheap
  filter that keeps every tie at the boundary), then one (row, value,
  id) sort keeps ``k``: ties at the k-th place go to the lower id,
  whatever the memory order.

IVF: seeded centroids (deterministic k-means-lite on a sample),
map-side assignment to the nearest centroid, search only the probed
centroids' buckets — recall < 1 by design, verified against brute force
in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .._workergc import default_gc


def _normalize(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


_WORKER_BUFS: dict[str, np.ndarray] = {}


def _buf(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """Per-worker reusable scratch buffer (grown geometrically, never
    shrunk).  The hot ANN partials' float64 temporaries were the stage's
    dominant wall-time under this host's intermittent page-reclaim
    stalls (round 5 measurement: the SAME 12 MB ``astype(float64)``
    costs 1 ms or 100 ms seconds apart — allocation-bound, not
    compute-bound); writing into already-faulted pages makes the stage
    allocation-free after each worker's first batch.  ONLY safe for
    temporaries whose lifetime ends inside one batch call — never return
    a view of these to the caller."""
    need = 1
    for s in shape:
        need *= int(s)
    b = _WORKER_BUFS.get(name)
    if b is None or b.size < need or b.dtype != np.dtype(dtype):
        cap = max(need, 2 * (b.size if b is not None else 0))
        _WORKER_BUFS[name] = b = np.empty(cap, dtype)
    return b[:need].reshape(shape)


def _vec_view(arr) -> np.ndarray | None:
    """(n, dim) matrix view of a uniform list<float> array in its SOURCE
    dtype — zero-copy from the Arrow child buffer; None when ragged."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if pa.types.is_fixed_size_list(arr.type):
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        return flat.reshape(n, -1)
    if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type):
        # uniform-length check via the offsets buffer: total-divisible-
        # by-n is NOT enough (rows of length 2 and 4 would silently
        # reshape into wrong rows), and nulls must fall through too
        offs = arr.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if (arr.null_count == 0 and len(widths)
                and (widths == widths[0]).all() and widths[0] > 0):
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(n, -1)
    return None


def vec_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> column — zero-copy
    flatten of the Arrow child buffer instead of to_pylist (which builds
    n python lists and was the dominant cost of the ANN stages)."""
    arr = batch[vec_col]
    v = _vec_view(arr)
    if v is not None:
        return v.astype(np.float64, copy=False)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return np.array(arr.to_pylist(), dtype=np.float64)  # ragged fallback


def _vec_matrix_buffered(batch: pa.Table, vec_col: str,
                         buf_name: str) -> np.ndarray:
    """float64 matrix materialized into a reused per-worker buffer (see
    ``_buf``) — for batch-scoped temporaries only."""
    v = _vec_view(batch[vec_col])
    if v is None:
        return vec_matrix(batch, vec_col)
    if v.dtype == np.float64:
        return v
    out = _buf(buf_name, v.shape)
    np.copyto(out, v)
    return out


def _list_column(mat: np.ndarray, typ: pa.DataType) -> pa.ListArray:
    """list<typ> column holding the rows of a 2-D matrix."""
    n, w = mat.shape
    offs = pa.array(np.arange(0, (n + 1) * w, w, dtype=np.int32))
    return pa.ListArray.from_arrays(offs, pa.array(mat.ravel(), typ))


# -- shared top-k merge -----------------------------------------------------

_SMALL_MERGE_ROWS = 4096


def _keep_best_rows(t: pa.Table, key_col: str, id_col: str, val_col: str,
                    k: int, ascending: bool, with_rank: bool) -> pa.Table:
    """Vectorized per-key best-k selection over one Arrow batch under
    the (val, id) lexicographic tie contract — associative (applying it
    to any concatenation of its own outputs gives the global answer)."""
    fields = [(key_col, pa.int64()), (id_col, pa.int64()),
              (val_col, pa.float64())]
    if with_rank:
        fields.append(("rank", pa.int64()))
    if t.num_rows == 0:
        return pa.table({n: pa.array([], typ) for n, typ in fields})
    key = t[key_col].to_numpy(zero_copy_only=False)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    val = t[val_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, val if ascending else -val, key))
    ks = key[order]
    starts = np.r_[True, ks[1:] != ks[:-1]]
    first = np.flatnonzero(starts)
    grp = np.cumsum(starts) - 1
    pos = np.arange(len(ks)) - first[grp]
    keep = pos < k
    sel = order[keep]
    cols = {key_col: pa.array(key[sel].astype(np.int64), pa.int64()),
            id_col: pa.array(ids[sel].astype(np.int64), pa.int64()),
            val_col: pa.array(val[sel].astype(np.float64), pa.float64())}
    if with_rank:
        cols["rank"] = pa.array((pos[keep] + 1).astype(np.int64),
                                pa.int64())
    return pa.table(cols)


def _empty_topk(key_col: str, id_col: str, val_col: str
                ) -> "ray.data.Dataset":
    """Typed empty result for a zero-query search (a valid input: the
    round-4 advice case — num_partitions=0 used to error)."""
    return ray.data.from_arrow(pa.table({
        key_col: pa.array([], pa.int64()),
        id_col: pa.array([], pa.int64()),
        val_col: pa.array([], pa.float64()),
        "rank": pa.array([], pa.int64())}))


def _merge_topk(partials: "ray.data.Dataset", key_col: str, id_col: str,
                val_col: str, k: int, n_keys: int | None,
                ascending: bool) -> "ray.data.Dataset":
    """Global per-key top-k from per-batch partial top-k rows
    (``n_keys=None``: the key count is unknown, e.g. one key per source
    row of a kNN graph — the grouped path with adaptive partitions).

    Small-key fast path (``n_keys * k`` bounded): the merge is an
    ASSOCIATIVE combine — one vectorized keep-best-k map over coalesced
    partial blocks, then a single-block final task that ranks.  No hash
    shuffle and no sort barrier: round-5 stats showed the previous
    ``grouped_map`` sort machinery spending ~3 s wall on 2,720 merge
    rows (40 ms of remote work) purely in the sort operator's
    sample/barrier overhead.  Scale note: with B partial blocks the
    final task sees at most ``ceil(B / coalesce) * n_keys * k`` rows —
    the combine level reduces ~400 blocks per task, so even 10^6 input
    blocks leave the final task ~4 x 10^3 x n_keys*k rows; for LARGE
    key sets the hash-partitioned ``grouped_map`` path (bounded by
    ``n_keys``, floored at 1 — empty query sets are valid) is used
    instead."""
    from ..shuffle import adaptive_partitions, grouped_map

    if n_keys is not None and n_keys * k <= _SMALL_MERGE_ROWS:
        # batch_size=None is load-bearing: the combine FUSES with the
        # upstream partial map, so a row-count batch size here would set
        # the fused operator's input bundling and collapse the whole
        # partial stage into one task (measured round 5: a 64k batch
        # size ran gen+partial as 1 task / 25 s instead of 34 tasks).
        # Per-bundle combine keeps the upstream task granularity and
        # still caps each task's output at n_keys * k rows.
        combined = partials.map_batches(
            lambda t: _keep_best_rows(t, key_col, id_col, val_col, k,
                                      ascending, with_rank=False),
            batch_format="pyarrow", batch_size=None)
        # the final task sees at most (upstream blocks) * n_keys * k
        # rows of 24 B each — for extreme block counts (10^6 blocks x a
        # small query set) insert one more repartition+combine level or
        # use the grouped_map path below
        return combined.repartition(1).map_batches(
            lambda t: _keep_best_rows(t, key_col, id_col, val_col, k,
                                      ascending, with_rank=True),
            batch_format="pyarrow", batch_size=None)

    def merge_partition(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key_col, val_col, id_col],
                            ascending=[True, ascending, True],
                            kind="mergesort")
        g = df.groupby(key_col, sort=False).head(k).copy()
        g["rank"] = g.groupby(key_col, sort=False).cumcount() + 1
        return g

    parts = adaptive_partitions()
    return grouped_map(partials, key_col, merge_partition,
                       num_partitions=(parts if n_keys is None
                                       else max(1, min(parts, n_keys))),
                       group_fn=False,
                       out_schema=pa.schema([
                           (key_col, pa.int64()), (id_col, pa.int64()),
                           (val_col, pa.float64()),
                           ("rank", pa.int64())]))


def _topk_rows(val: np.ndarray, ids: np.ndarray, k: int,
               ascending: bool) -> tuple[np.ndarray, np.ndarray,
                                         np.ndarray]:
    """The one selection rule: per row of ``val`` ((rows, n), or one row
    as a 1-D array; ``ids`` (n,) names the columns) the first ``k``
    entries by (value, id asc), value ascending or descending.

    A cheap filter keeps the entries at or better than the row's k-th
    value, so every tie at the boundary survives (exact ties are common:
    identical PQ codes or duplicate vectors score alike); one lexsort of
    just those candidates is the exact verify.  A bare argpartition cuts
    boundary ties by memory order, which made results depend on the
    partitioning.  A row whose k-th value is NaN keeps all its entries
    (NaN sorts last), so it still yields ``min(k, n)`` of them.

    Returns (row, col, rank) arrays ordered by (row, rank), rank 1..k."""
    v = np.atleast_2d(val if ascending else -val)
    n = v.shape[1]
    kk = min(k, n)
    if kk <= 0:
        e = np.zeros(0, np.int64)
        return e, e, e
    if kk < n:
        thr = np.partition(v, kk - 1, axis=1)[:, kk - 1:kk]
        cand = v <= thr
        nan_thr = np.isnan(thr)
        if nan_thr.any():
            cand |= nan_thr
        flat = np.flatnonzero(cand)
    else:
        flat = np.arange(v.size)
    row, col = np.divmod(flat, n)
    order = np.lexsort((ids[col], v[row, col], row))
    row, col = row[order], col[order]
    rank = np.arange(1, len(row) + 1) - np.searchsorted(row, row)
    keep = rank <= kk
    return row[keep], col[keep], rank[keep]


def _scan_topk(ds: "ray.data.Dataset", prepare, query_ids: np.ndarray,
               k: int, id_col: str, val_col: str,
               ascending: bool) -> "ray.data.Dataset":
    """The one partial-top-k scan: ``prepare(batch)`` returns
    ``score(qx) -> (rows, val)`` (the batch rows query ``qx`` may reach,
    ``None`` for all, and their values); each batch keeps its per-query
    ``_topk_rows`` and ``_merge_topk`` merges them.  Returns
    (query_id, id_col, val_col, rank); a zero-query search returns the
    typed empty result."""
    qids = np.asarray(query_ids, dtype=np.int64)
    if len(qids) == 0:
        return _empty_topk("query_id", id_col, val_col)

    def partial(batch: pa.Table) -> pa.Table:
        default_gc()
        out_q = [np.zeros(0, np.int64)]
        out_id = [np.zeros(0, np.int64)]
        out_v = [np.zeros(0, np.float64)]
        if batch.num_rows:
            ids = batch[id_col].to_numpy(zero_copy_only=False
                                         ).astype(np.int64, copy=False)
            score = prepare(batch)
            for qx, qid in enumerate(qids):
                rows, val = score(qx)
                rid = ids if rows is None else ids[rows]
                _, col, _ = _topk_rows(val, rid, k, ascending)
                out_q.append(np.full(len(col), qid, np.int64))
                out_id.append(rid[col])
                out_v.append(val[col])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            id_col: pa.array(np.concatenate(out_id), pa.int64()),
            val_col: pa.array(np.concatenate(out_v), pa.float64())})

    return _merge_topk(ds.map_batches(partial, batch_format="pyarrow"),
                       "query_id", id_col, val_col, k, len(qids), ascending)


def _cosines(batch: pa.Table, vec_col: str, qn: np.ndarray):
    """(batch matrix, (nq, n) cosine matrix) for normalized queries
    ``qn``.  Allocation-light: the f64 conversion and the similarity
    matrix live in reused per-worker buffers (``_buf``), and the dot
    products are divided by the row norms in place — one einsum for the
    norms instead of a (n, dim) normalized copy."""
    v = _vec_matrix_buffered(batch, vec_col, "scan_v")
    nrm = np.sqrt(np.einsum("ij,ij->i", v, v))
    np.maximum(nrm, 1e-12, out=nrm)
    sim = _buf("scan_sim", (len(qn), len(v)))
    np.dot(qn, v.T, out=sim)
    sim /= nrm[None, :]
    return v, sim


def topk_cosine_brute(ds: "ray.data.Dataset", queries: np.ndarray,
                      k: int = 5, id_col: str = "vec_id",
                      vec_col: str = "embedding") -> "ray.data.Dataset":
    """Exact top-k by cosine for each query row: one matmul per batch
    (``_cosines``), then the ``_scan_topk`` plan.  Returns (query_id,
    vec_id, cosine, rank) with rank 1..k, deterministic tie-break on
    vec_id asc."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))

    def prepare(batch: pa.Table):
        _, sim = _cosines(batch, vec_col, qn)
        return lambda qx: (None, sim[qx])

    return _scan_topk(ds, prepare, np.arange(len(qn)), k, id_col, "cosine",
                      ascending=False)


def kmeans_lite(sample: np.ndarray, n_clusters: int, iters: int = 10,
                seed: int = 5) -> np.ndarray:
    """Deterministic k-means on a driver-side sample (the IVF codebook)."""
    rng = np.random.default_rng(seed)
    x = _normalize(np.asarray(sample, dtype=np.float64))
    idx = rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)
    cent = x[np.sort(idx)].copy()
    for _ in range(iters):
        assign = np.argmax(x @ cent.T, axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                v = x[m].mean(axis=0)
                cent[c] = v / max(np.linalg.norm(v), 1e-12)
    return cent


def topk_cosine_ivf(ds: "ray.data.Dataset", queries: np.ndarray,
                    centroids: np.ndarray, k: int = 5, n_probe: int = 2,
                    id_col: str = "vec_id", vec_col: str = "embedding"
                    ) -> "ray.data.Dataset":
    """IVF-bucketed ANN: rows are searched only if their centroid is among
    each query's ``n_probe`` nearest centroids.  Same output layout as the
    brute path; approximate recall (tested >= ~0.9 on the synthetic
    embeddings)."""
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :n_probe]   # (q, n_probe)

    def prepare(batch: pa.Table):
        v, sim = _cosines(batch, vec_col, qn)
        # bucket assignment must use the NORMALIZED row (the
        # kmeans_assign contract): (v @ cnT) / nrm preserves argmax
        # since nrm > 0 scales each row uniformly
        assign = np.argmax(v @ cn.T, axis=1)

        def score(qx):
            rows = np.flatnonzero(np.isin(assign, probe[qx]))
            return rows, sim[qx, rows]
        return score

    return _scan_topk(ds, prepare, np.arange(len(qn)), k, id_col, "cosine",
                      ascending=False)


def knn_graph(ds: "ray.data.Dataset", ref_ids: np.ndarray | None = None,
              ref_vecs: np.ndarray | None = None, k: int = 3,
              id_col: str = "vec_id", vec_col: str = "embedding",
              plan: str = "auto", centroids: np.ndarray | None = None,
              n_probe: int = 4, n_clusters: int = 32,
              max_broadcast_bytes: int = 256 << 20) -> "ray.data.Dataset":
    """All-pairs k-nearest-neighbor graph by cosine: for every row, its
    ``k`` nearest OTHER reference vectors — the standard training-data
    op behind near-dup clustering and diversity sampling.

    Two physical plans; ``plan="auto"`` picks by reference size
    (round-4: the broadcast plan is now the documented SMALL-SIDE fast
    path, not the default scale story — a corpus-vs-corpus kNN graph at
    100 TB cannot broadcast the corpus):

    - ``"broadcast"``: the reference matrix (``ref_ids``/``ref_vecs``)
      is normalized once on the driver and shipped via ``ray.put``
      (read worker-locally per task, never re-shipped per batch); each
      streaming batch does one (b, n) matmul.  No shuffle.  Requires
      the reference to fit in the object store —
      ``max_broadcast_bytes`` guards the auto route.
    - ``"bucketed"``: NO driver-side reference matrix — the IVF
      co-partition plan of ``knn_graph_bucketed`` (exact within probed
      buckets, recall < 1 by design like ``topk_cosine_ivf``).  Needs
      ``centroids`` (fit with ``kmeans_fit``/``kmeans_lite``); with
      ``ref_vecs`` given and no centroids, a codebook is fit from a
      deterministic stride sample of the reference.

    auto: broadcast iff ``ref_vecs`` is provided and under the byte
    guard, else bucketed.  Ids must be unique: a row's self slot is the
    reference with an equal id.  Both plans rank by (cosine desc,
    nbr_id asc), ties at the k-th place included."""
    import ray

    if plan == "auto":
        plan = ("broadcast" if ref_vecs is not None
                and np.asarray(ref_vecs).nbytes <= max_broadcast_bytes
                else "bucketed")
    if plan == "bucketed":
        if centroids is None:
            if ref_vecs is None:
                raise ValueError(
                    "bucketed knn_graph needs `centroids` (fit via "
                    "kmeans_fit on a key-pushdown init) or `ref_vecs` "
                    "to fit a codebook from")
            m = np.asarray(ref_vecs, dtype=np.float64)
            stride = max(1, len(m) // 4096)
            centroids = kmeans_lite(m[::stride], n_clusters=n_clusters)
        return knn_graph_bucketed(ds, centroids, k=k, n_probe=n_probe,
                                  id_col=id_col, vec_col=vec_col)
    if ref_ids is None or ref_vecs is None:
        raise ValueError("broadcast knn_graph needs ref_ids and ref_vecs")

    rn = _normalize(np.asarray(ref_vecs, dtype=np.float64))
    ref = ray.put((np.asarray(ref_ids, dtype=np.int64), rn.T.copy()))

    def partial(batch: pa.Table) -> pa.Table:
        default_gc()
        ids_r, rnT = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _row_topk(_normalize(vec_matrix(batch, vec_col)), rnT, ids,
                         ids_r, k)

    return ds.map_batches(partial, batch_format="pyarrow")


_GRAPH_SCHEMA = pa.schema([("src_id", pa.int64()), ("nbr_id", pa.int64()),
                           ("cosine", pa.float64()), ("rank", pa.int64())])


def _row_topk(qn: np.ndarray, rT: np.ndarray, src: np.ndarray,
              nbr: np.ndarray, k: int) -> pa.Table:
    """kNN-graph rows shared by both plans: for each normalized query row
    of ``qn`` (ids ``src``) its ``k`` most cosine-similar OTHER columns of
    ``rT`` (ids ``nbr``; ids are unique, so the self slot is the one with
    an equal id).  Rows are chunked so each (rows, refs) similarity block
    stays ~32 MB — at 1M refs a full 1024-row batch would be 8 GB."""
    out = [_GRAPH_SCHEMA.empty_table()]
    rows_per = max(1, (4 << 20) // max(1, len(nbr)))
    for lo in range(0, len(src), rows_per):
        sim = qn[lo:lo + rows_per] @ rT
        s = src[lo:lo + rows_per]
        sim[s[:, None] == nbr[None, :]] = -np.inf
        # one extra slot, then drop the masked self slot (it sorts last,
        # so the ranks before it hold): a query id absent from the
        # reference gets min(k, n_ref) neighbors, not n_ref - 1
        row, col, rank = _topk_rows(sim, nbr, k + 1, ascending=False)
        cos = sim[row, col]
        keep = (cos > -np.inf) & (rank <= k)
        out.append(pa.table([s[row[keep]], nbr[col[keep]], cos[keep],
                             rank[keep]], schema=_GRAPH_SCHEMA))
    return pa.concat_tables(out)


def knn_graph_bucketed(ds: "ray.data.Dataset", centroids: np.ndarray,
                       k: int = 3, n_probe: int = 4,
                       id_col: str = "vec_id", vec_col: str = "embedding",
                       refs: "ray.data.Dataset | None" = None
                       ) -> "ray.data.Dataset":
    """Scale-path all-pairs kNN graph: IVF co-partitioning instead of a
    corpus broadcast.  Every row is emitted ONCE as a reference (to its
    home bucket = nearest centroid, first-max tie = lowest cent_id) and
    ``n_probe`` times as a query (to its probed buckets, cosine desc /
    cent_id asc); one hash shuffle co-locates buckets; each partition
    computes exact per-bucket (queries × refs) top-k partials; a second,
    candidate-sized shuffle merges partials to the global top-k per
    source (ties: cosine desc, nbr_id asc — same as the broadcast plan).

    Each (query, ref) pair meets in AT MOST ONE partition (the ref's
    home bucket), so no pair dedup is needed.  Only the (k × dim)
    codebook is broadcast; vector bytes move through the shuffle once
    per probe — the honest, corpus-size-linear cost that replaces the
    object-store-fit assumption.  Recall < 1 by design (like
    ``topk_cosine_ivf``); raise ``n_probe``/codebook quality to trade
    cost for recall.  ``refs`` defaults to ``ds`` (self-graph)."""
    import ray

    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    cref = ray.put(cn.T.copy())

    def _emit(batch: pa.Table, as_query: bool) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                id_col: pa.array([], pa.int64()),
                "vec": pa.array([], pa.list_(pa.float64()))})
        vn = _normalize(v)
        sims = vn @ ray.get(cref)                     # (b, C)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if as_query:
            # stable argsort: cosine desc, cent_id asc on ties
            probes = np.argsort(-sims, axis=1, kind="stable")[:, :n_probe]
            reps = probes.shape[1]
            bkt = probes.reshape(-1).astype(np.int64)
            out_ids = np.repeat(ids, reps)
            mat = vn[np.repeat(np.arange(len(ids)), reps)]
            side = np.ones(len(out_ids), np.int8)
        else:
            bkt = np.argmax(sims, axis=1).astype(np.int64)
            out_ids = ids
            mat = vn
            side = np.zeros(len(out_ids), np.int8)
        return pa.table({"bucket": pa.array(bkt),
                         "side": pa.array(side, pa.int8()),
                         id_col: pa.array(out_ids, pa.int64()),
                         "vec": _list_column(mat, pa.float64())})

    rside = (refs if refs is not None else ds).map_batches(
        lambda b: _emit(b, as_query=False), batch_format="pyarrow")
    qside = ds.map_batches(lambda b: _emit(b, as_query=True),
                           batch_format="pyarrow")

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        out = [_GRAPH_SCHEMA.empty_table()]
        for _, g in df.groupby("bucket", sort=False):
            q = g[g["side"] == 1]
            r = g[g["side"] == 0]
            if not len(q) or not len(r):
                continue
            rm = np.stack(r["vec"].to_numpy())
            out.append(_row_topk(np.stack(q["vec"].to_numpy()), rm.T,
                                 q[id_col].to_numpy(np.int64),
                                 r[id_col].to_numpy(np.int64), k))
        return pa.concat_tables(out).drop_columns(["rank"])

    from ..shuffle import grouped_map
    cands = grouped_map(rside.union(qside), "bucket", per_bucket,
                        group_fn=False)
    return _merge_topk(cands, "src_id", "nbr_id", "cosine", k, None,
                       ascending=False)


def kmeans_fit(ds: "ray.data.Dataset", init: np.ndarray, iters: int = 5,
               id_col: str = "vec_id", vec_col: str = "embedding"
               ) -> np.ndarray:
    """Distributed spherical k-means over the FULL dataset — the scale
    path beyond ``kmeans_lite`` (which Lloyd-iterates a driver-side
    sample).  Per iteration: the current centroids are broadcast via
    ``ray.put`` (read worker-locally per task, never re-shipped per
    batch); every batch computes its (k x dim) partial vector sums and
    counts map-side — so the per-iteration traffic back to the driver
    is k x dim x num_blocks floats, independent of dataset size, and
    there is NO shuffle at any point.  Partials are reduced in a
    deterministic order (sorted by partial key) so a rerun on the same
    blocks reproduces the same centroids bit-for-bit.  Empty clusters
    keep their previous centroid.  ``init`` must be a deterministic
    (k, dim) seed — callers use a key-pushdown sample (see
    ``entrylib.q_emb_kmeans``) or ``kmeans_lite`` output."""
    import ray

    cent = _normalize(np.asarray(init, dtype=np.float64))
    k, dim = cent.shape
    for _ in range(iters):
        ref = ray.put(cent.T.copy())

        def partial(batch: pa.Table) -> pa.Table:
            default_gc()
            v = vec_matrix(batch, vec_col)
            sums = np.zeros((k, dim), dtype=np.float64)
            counts = np.zeros(k, dtype=np.int64)
            key = -1
            if v.size:
                vn = _normalize(v)
                assign = np.argmax(vn @ ray.get(ref), axis=1)
                for c in range(k):
                    m = assign == c
                    if m.any():
                        sums[c] = vn[m].sum(axis=0)
                        counts[c] = int(m.sum())
                # deterministic reduce key: the batch's smallest id
                # (batches are deterministic slices of the input files)
                ids = batch[id_col].to_numpy(zero_copy_only=False)
                key = int(np.min(ids))
            return pa.table({
                "cluster": pa.array(range(k), pa.int64()),
                "psum": pa.array([row.tolist() for row in sums],
                                 pa.list_(pa.float64())),
                "count": pa.array(counts, pa.int64()),
                "pkey": pa.array([key] * k, pa.int64())})

        parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
        parts = parts.sort_values(["cluster", "pkey"], kind="mergesort")
        new = cent.copy()
        for c in range(k):
            sub = parts[parts["cluster"] == c]
            n = int(sub["count"].sum())
            if n == 0:
                continue
            s = np.zeros(dim, dtype=np.float64)
            for row in sub["psum"]:
                s += np.asarray(row, dtype=np.float64)
            v = s / n
            nv = np.linalg.norm(v)
            if nv > 1e-12:
                new[c] = v / nv
        cent = new
    return cent


def pca_fit(ds: "ray.data.Dataset", n_components: int = 4,
            id_col: str = "vec_id", vec_col: str = "embedding"):
    """Distributed PCA fit in ONE pass, NO shuffle: every batch emits
    its (dim,) vector sum, (dim x dim) Gram partial and count map-side
    — driver traffic is dim² x blocks floats, independent of dataset
    size.  Partials merge on the driver in deterministic order (sorted
    by each batch's smallest id), the covariance forms from the merged
    moments, and the (dim x dim) eigendecomposition — trivially small —
    runs once on the driver.  Component sign is canonicalized (the
    largest-|coordinate| entry made positive) so SAME-LAYOUT reruns are
    bit-identical; a different block layout can shift the float partial
    sums in the last ulps (the emb_pca oracle compares against the
    SNAPSHOTTED components, which keeps it layout-independent).
    Returns (mean (dim,), components
    (n_components x dim) eigenvalue-descending, eigenvalues)."""
    def partial(batch: pa.Table) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({"psum": pa.array([], pa.list_(pa.float64())),
                             "pgram": pa.array([], pa.list_(pa.float64())),
                             "count": pa.array([], pa.int64()),
                             "pkey": pa.array([], pa.int64())})
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "psum": pa.array([v.sum(axis=0).tolist()],
                             pa.list_(pa.float64())),
            "pgram": pa.array([(v.T @ v).reshape(-1).tolist()],
                              pa.list_(pa.float64())),
            "count": pa.array([len(v)], pa.int64()),
            "pkey": pa.array([int(np.min(ids))], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values("pkey", kind="mergesort")
    n = int(parts["count"].sum())
    dim = len(parts["psum"].iloc[0])
    s = np.zeros(dim, dtype=np.float64)
    g = np.zeros(dim * dim, dtype=np.float64)
    for _, row in parts.iterrows():
        s += np.asarray(row["psum"], dtype=np.float64)
        g += np.asarray(row["pgram"], dtype=np.float64)
    mean = s / n
    cov = g.reshape(dim, dim) / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)          # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T.copy()
    for i in range(len(comps)):                 # deterministic sign
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return mean, comps, evals[order]


def pca_assign(ds: "ray.data.Dataset", mean: np.ndarray,
               components: np.ndarray, id_col: str = "vec_id",
               vec_col: str = "embedding") -> "ray.data.Dataset":
    """Dominant-principal-component label per vector: comp = argmax_k
    |(v - mean)·c_k| = |v·c_k - mu_k| with mu_k = mean·c_k precomputed —
    exactly the expression the SQL oracle recomputes from the
    snapshotted (component, mu) table via ``list_dot_product``; ties go
    to the smaller component id (numpy first-max = the oracle's
    row_number order).  Components broadcast once via ``ray.put``."""
    import ray

    c = np.asarray(components, dtype=np.float64)
    mu = c @ np.asarray(mean, dtype=np.float64)
    ref = ray.put((c.T.copy(), mu))

    def assign(batch: pa.Table) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "comp": pa.array([], pa.int64())})
        ct, m = ray.get(ref)
        a = np.argmax(np.abs(v @ ct - m[None, :]), axis=1)
        return pa.table({
            id_col: batch[id_col],
            "comp": pa.array(a.astype(np.int64), pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


def kmeans_assign(ds: "ray.data.Dataset", centroids: np.ndarray,
                  id_col: str = "vec_id", vec_col: str = "embedding"
                  ) -> "ray.data.Dataset":
    """(id, cluster) for every row: one broadcast-matmul pass, ties
    broken by lowest centroid index (numpy argmax first-max = the SQL
    oracle's (cosine desc, cent_id asc) row_number)."""
    import ray

    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    ref = ray.put(cn.T.copy())

    def assign(batch: pa.Table) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64())})
        a = np.argmax(_normalize(v) @ ray.get(ref), axis=1)
        return pa.table({
            id_col: batch[id_col],
            "cluster": pa.array(a.astype(np.int64), pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


# -- product quantization (PQ): the memory-compression scale path ----------
#
# At 100 TB the raw float embeddings cannot sit in worker memory for
# re-ranking; PQ compresses dim x float64 to m uint8 codes (64x at
# dim=64, m=8) and searches with asymmetric distance (ADC): per query,
# one (m x n_codes) lookup table of exact subspace distances, then each
# encoded vector costs m table lookups + m-1 adds.  Published
# construction (Jegou et al., "Product Quantization for Nearest
# Neighbor Search", TPAMI 2011) — implemented from the paper, no
# reference-code lineage.
#
# Determinism contract (what the SQL oracles pin): subspace assignment
# = argmin of the DIRECT squared distance ((x - c)^2 summed in element
# order, first-min tie -> lowest code id); ADC distance = the m subspace
# LUT values added in subspace order.  No (a-b)^2 = a^2+b^2-2ab
# expansion anywhere — it changes last-ulp values and would break
# bit-parity with the SQL recompute.


def _lloyd_euclid(x: np.ndarray, k: int, iters: int = 10,
                  seed: int = 5) -> np.ndarray:
    """Deterministic plain (non-spherical) Lloyd on a driver-side sample
    — PQ codebooks quantize raw subvectors, so no normalization."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64)
    idx = rng.choice(len(x), size=min(k, len(x)), replace=False)
    cent = x[np.sort(idx)].copy()
    for _ in range(iters):
        d = ((x[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d, axis=1)
        for c in range(len(cent)):
            m = assign == c
            if m.any():
                cent[c] = x[m].mean(axis=0)
    return cent


def pq_fit(sample: np.ndarray, m: int = 8, n_codes: int = 16,
           iters: int = 10, seed: int = 5) -> np.ndarray:
    """(m, n_codes, dim//m) PQ codebooks from a deterministic driver-side
    sample: independent Lloyd per subspace.  The sample is small (the
    codebook is what ships to workers); encoding streams."""
    x = np.asarray(sample, dtype=np.float64)
    dim = x.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    dsub = dim // m
    return np.stack([
        _lloyd_euclid(x[:, j * dsub:(j + 1) * dsub], n_codes, iters, seed)
        for j in range(m)])


def pq_fit_streamed(ds: "ray.data.Dataset", m: int = 8, n_codes: int = 16,
                    sample_size: int = 512, iters: int = 10, seed: int = 5,
                    id_col: str = "vec_id", vec_col: str = "embedding"
                    ) -> np.ndarray:
    """Codebook fit whose SAMPLE SELECTION is distributed and
    content-addressed (round 5): ``pq_fit`` itself is driver-side by
    design (the codebook is tiny), but its input sample must not assume
    the corpus fits anywhere.  Pass 1 ranks every row by
    ``md5(str(id))`` (deterministic, layout-independent — the
    ``deterministic_sample_per_key`` convention) through the
    ``_scan_topk`` plan as one query of top-``sample_size``, moving only
    (id, hash) pairs; pass 2 fetches just the
    selected rows' vectors via a broadcast id filter.  Only
    ``sample_size x dim`` floats ever reach the driver, at any corpus
    size."""
    import hashlib

    import ray

    def _hval(i) -> float:
        # first 13 hex digits = 52 bits — exact in float64
        return float(int(hashlib.md5(str(i).encode()).hexdigest()[:13],
                         16))

    def prepare(batch: pa.Table):
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        hv = np.array([_hval(i) for i in ids], dtype=np.float64)
        return lambda qx: (None, hv)

    ranked = _scan_topk(ds, prepare, np.zeros(1, np.int64), sample_size,
                        id_col, "hval", ascending=True).to_pandas()
    sel_ids = np.sort(ranked[id_col].to_numpy(np.int64))
    ref = ray.put(sel_ids)

    def fetch(batch: pa.Table) -> pa.Table:
        default_gc()
        want = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False
                                     ).astype(np.int64)
        pos = np.searchsorted(want, ids)
        hit = (pos < len(want)) & (want[np.minimum(pos, len(want) - 1)]
                                   == ids)
        return batch.filter(pa.array(hit)).select([id_col, vec_col])

    rows = ds.map_batches(fetch, batch_format="pyarrow").to_pandas()
    # fit-input order = the selection order (hash asc, id asc) — the
    # Lloyd seeding indexes by row, so order must be layout-independent
    rows["_h"] = [_hval(i) for i in rows[id_col]]
    rows = rows.sort_values(["_h", id_col], kind="mergesort")
    sample = np.array(rows[vec_col].tolist(), dtype=np.float64)
    return pq_fit(sample, m=m, n_codes=n_codes, iters=iters, seed=seed)


def _adc_lut(x: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m, n_codes) direct squared distances of every row's m
    subvectors to every code of its subspace: the ADC lookup table of a
    query set, and the argmin input of encoding."""
    x = np.asarray(x, dtype=np.float64)
    books = np.asarray(books, dtype=np.float64)
    m, n_codes, dsub = books.shape
    lut = np.empty((len(x), m, n_codes), dtype=np.float64)
    for j in range(m):
        sub = x[:, j * dsub:(j + 1) * dsub]
        lut[:, j, :] = ((sub[:, None, :] - books[j][None, :, :]) ** 2
                        ).sum(axis=2)
    return lut


def _subspace_codes(v: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) int64 code assignment, direct squared distance, first-min
    tie -> lowest code id (numpy argmin)."""
    return np.argmin(_adc_lut(v, books), axis=2)


def _adc(lut_q: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """ADC distances of coded rows to one query: the m LUT values added
    in subspace order 0..m-1 (bit-reproducible by the SQL oracles)."""
    dist = lut_q[0, codes[:, 0]]
    for j in range(1, codes.shape[1]):
        dist += lut_q[j, codes[:, j]]
    return dist


def _batch_codes(batch: pa.Table) -> np.ndarray:
    """(n, m) int64 view of a non-empty batch's ``codes`` column."""
    return _vec_view(batch["codes"]).astype(np.int64, copy=False)


def pq_encode(ds: "ray.data.Dataset", books: np.ndarray,
              id_col: str = "vec_id", vec_col: str = "embedding"
              ) -> "ray.data.Dataset":
    """(id, codes list<int64>[m]) per row — one broadcast of the (m,
    n_codes, dsub) codebook via ``ray.put``, streaming encode."""
    import ray

    ref = ray.put(np.asarray(books, dtype=np.float64))

    def enc(batch: pa.Table) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "codes": pa.array([], pa.list_(pa.int64()))})
        return pa.table({id_col: batch[id_col],
                         "codes": _list_column(_subspace_codes(
                             v, ray.get(ref)), pa.int64())})

    return ds.map_batches(enc, batch_format="pyarrow")


def pq_topk(encoded: "ray.data.Dataset", books: np.ndarray,
            queries: np.ndarray, query_ids: np.ndarray, k: int = 5,
            id_col: str = "vec_id") -> "ray.data.Dataset":
    """ADC top-k over PQ-encoded vectors: per query one exact (m x
    n_codes) subspace-distance LUT (computed once on the driver,
    broadcast), each encoded row costs m lookups + m-1 adds IN SUBSPACE
    ORDER (bit-reproducible).  The ``_scan_topk`` plan; ties: (dist asc,
    id asc) — exact ADC ties are common, identical codes give identical
    distances."""
    import ray

    ref = ray.put(_adc_lut(queries, books))

    def prepare(batch: pa.Table):
        lut, codes = ray.get(ref), _batch_codes(batch)
        return lambda qx: (None, _adc(lut[qx], codes))

    return _scan_topk(encoded, prepare, query_ids, k, id_col, "adc_dist",
                      ascending=True)


def pq_encode_ivf(ds: "ray.data.Dataset", books: np.ndarray,
                  centroids: np.ndarray, id_col: str = "vec_id",
                  vec_col: str = "embedding") -> "ray.data.Dataset":
    """IVF-PQ encode (the FAISS-IVFADC layout, from the published
    construction): ONE streaming pass emits each row's coarse bucket
    (nearest centroid by cosine, first-max tie -> lowest cent_id — the
    ``kmeans_assign`` contract) AND its PQ codes.  At corpus scale this
    pass is the index build: rows land hash-partitioned by bucket with
    an 8-byte payload instead of dim floats."""
    import ray

    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    ref = ray.put((np.asarray(books, dtype=np.float64), cn.T.copy()))

    def enc(batch: pa.Table) -> pa.Table:
        default_gc()
        v = vec_matrix(batch, vec_col)
        if not v.size:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int64()),
                             "codes": pa.array([], pa.list_(pa.int64()))})
        bb, cnT = ray.get(ref)
        bkt = np.argmax(_normalize(v) @ cnT, axis=1).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "bucket": pa.array(bkt, pa.int64()),
                         "codes": _list_column(_subspace_codes(v, bb),
                                               pa.int64())})

    return ds.map_batches(enc, batch_format="pyarrow")


def pq_topk_ivf(encoded: "ray.data.Dataset", books: np.ndarray,
                centroids: np.ndarray, queries: np.ndarray,
                query_ids: np.ndarray, k: int = 5, n_probe: int = 2,
                id_col: str = "vec_id") -> "ray.data.Dataset":
    """ADC top-k restricted to each query's ``n_probe`` nearest coarse
    buckets (probe order: cosine desc, cent_id asc on ties — stable
    argsort).  Same LUT / fixed-subspace-order accumulation / tie-break
    contract as ``pq_topk``; rows outside every probed bucket are never
    scored, which is the IVF cost cut."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    cn = _normalize(np.asarray(centroids, dtype=np.float64))
    probe = np.argsort(-(_normalize(q) @ cn.T), axis=1,
                       kind="stable")[:, :n_probe]
    ref = ray.put((_adc_lut(q, books), probe))

    def prepare(batch: pa.Table):
        (lut, pr), codes = ray.get(ref), _batch_codes(batch)
        bkt = batch["bucket"].to_numpy(zero_copy_only=False)

        def score(qx):
            rows = np.flatnonzero(np.isin(bkt, pr[qx]))
            return rows, _adc(lut[qx], codes[rows])
        return score

    return _scan_topk(encoded, prepare, query_ids, k, id_col, "adc_dist",
                      ascending=True)
