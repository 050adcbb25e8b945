"""kNN operators: gazetteer rescue for unresolved addresses (string
similarity) and generic point-kNN joins (SURVEY.md §2.4 net-new row).

Two physical plans, chosen by the size of the reference side:

- broadcast (small side fits memory): the gazetteer/points live in actor
  state (built once per actor from the deterministic spec, or shipped via
  ``ray.put``), each batch scores against it vectorized.  Exact, no
  shuffle — the default at any scale where the reference side is a
  lookup table.
- co-partitioned (both sides large): tag + union the two datasets, add a
  bucket key (postcode prefix / hex-cell prefix), ``groupby(bucket)``
  once, and score inside ``map_groups``.  Documented partitioning
  assumption: a query only needs candidates from its own bucket (ragged
  edges need neighbor-bucket duplication — ``expand`` replicates
  reference rows into adjacent buckets).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .config import CITY, POSTCODE, STATUS, STREET
from .gazetteer import GazetteerSpec, TrigramIndex, get_gazetteer
from .memo import CAPS, Memo
from .textkernels import normalize_street


class KnnRescuer:
    """map_batches actor: for rows with status == 'unmatched', attach the
    top-k gazetteer street suggestions by Jaro-Winkler + token-sort score,
    searched within the postcode-prefix bucket (falls back to global).

    Scoring is BATCHED (round-3 perf item): the whole batch's unique
    (street, postcode-prefix) queries and their prefiltered candidates
    become ONE (pairs x chars) kernel call each for Jaro-Winkler and
    token-sort (``textvec.jaro_winkler_pairs`` / ``lev_similarity_pairs``)
    instead of a per-(row, candidate) Python loop.  The candidate-set
    code matrices are built once per worker in ``__init__``.  The
    token-sort leg uses plain Levenshtein (vectorizable, and
    bit-replicable by the DuckDB oracle's built-in ``levenshtein``)
    instead of the scalar unrestricted Damerau-Levenshtein; this scorer
    is net-new (not reference semantics — the reference comparator
    kernels in compare.py are untouched).  A bucket larger than
    ``prefilter`` is cut to its ``prefilter`` names sharing the most
    trigrams with the query (``gazetteer.TrigramIndex``, one vote over
    the batch).  ``prefilter`` is a PERF knob, not semantics: with
    ``prefilter >= bucket size`` the top-k is exact over the bucket,
    which is the mode the content oracle checks.

    Output: three list columns ``knn_place_ids`` (list<int64>),
    ``knn_streets`` (list<string>) and ``knn_scores`` (list<double>),
    built as offset list columns: one int32 length per row plus flat
    values for the unmatched rows only, so matched rows make no Python
    object.  A row without suggestions holds an empty list, never a
    null.

    ``memo`` keeps the top-k per (street, pc-prefix) across batches (real
    corpora repeat unmatched addresses); by default capped at
    ``CAPS["knn"]`` keys."""

    def __init__(self, spec: GazetteerSpec | None = None, k: int = 3,
                 prefilter: int = 100, memo: Memo | None = None):
        from .textvec import codes_matrix
        self.k = k
        self.prefilter = prefilter
        gaz = get_gazetteer(spec or GazetteerSpec())
        streets = gaz.places[gaz.places.place_rank == 26]
        self.names = streets["name"].map(normalize_street).to_numpy()
        self.place_ids = streets["place_id"].to_numpy()
        self.street_names = streets["name"].to_numpy()
        # padded char-code matrices for the vectorized kernels: raw
        # normalized names + token-sorted forms (both static per worker)
        self.cand_codes, self.cand_lens = codes_matrix(list(self.names))
        toksorted = [" ".join(sorted(n.split())) for n in self.names]
        self.tok_codes, self.tok_lens = codes_matrix(toksorted)
        self.pc_prefix: dict[str, np.ndarray] = {}
        pref = streets["post_code"].astype(str).str[:2].to_numpy()
        for p in np.unique(pref):
            self.pc_prefix[p] = np.flatnonzero(pref == p)
        # trigram candidate pre-filter, so a bucket miss never
        # degenerates into a full-gazetteer scan
        self._trigram_index = TrigramIndex([(nm,) for nm in self.names])
        self.memo = Memo(CAPS["knn"]) if memo is None else memo

    def _candidates(self, qnorms: list[str], pc2s: list[str]
                    ) -> list[np.ndarray]:
        """Name indexes to score per query: its postcode-prefix bucket
        (every name when the prefix has none), cut to ``prefilter``
        names by one trigram vote over the queries whose bucket is
        larger — the names with votes, by (-votes, index), else the
        bucket's first names.  An empty query gets none."""
        none = np.empty(0, dtype=np.int64)
        everyone = np.arange(len(self.names))
        cands = [self.pc_prefix.get(pc2, everyone) if q else none
                 for q, pc2 in zip(qnorms, pc2s)]
        big = [i for i, c in enumerate(cands) if len(c) > self.prefilter]
        owners = [(qnorms[i],) for i in big]
        for u0, votes in self._trigram_index.votes(owners):
            for i, v in zip(big[u0:], votes):
                sub = v[cands[i]]
                hit = sub > 0
                if hit.any():
                    # buckets are ascending: a stable sort breaks ties
                    cands[i] = cands[i][hit][np.argsort(-sub[hit],
                                                        kind="stable")]
                cands[i] = cands[i][:self.prefilter]
        return cands

    def _score_batch(self, uniq: list[tuple[str, str]]) -> list[tuple]:
        """Top-k for each unique (street, pc2): one pairwise kernel call
        for the whole batch's (query x candidate) pairs."""
        from .textvec import (codes_matrix, jaro_winkler_pairs,
                              lev_similarity_pairs)
        qnorms = [normalize_street(street) for street, _ in uniq]
        cand_lists = self._candidates(qnorms, [pc2 for _, pc2 in uniq])
        counts = np.array([len(c) for c in cand_lists], dtype=np.int64)
        results: list[tuple] = [([], [], [])] * len(uniq)
        total = int(counts.sum())
        if total == 0:
            return results
        qc, ql = codes_matrix(qnorms)
        tq, tl = codes_matrix([" ".join(sorted(q.split())) for q in qnorms])
        rep = np.repeat(np.arange(len(uniq)), counts)
        cand = np.concatenate([c for c in cand_lists if len(c)])
        # bucket pairs by candidate length: kernel cost scales with the
        # PADDED width, and one 45-char outlier name would otherwise pad
        # every pair.  Sorted-token forms keep the original length (same
        # chars reordered), so one bucketing drives both legs.
        score = np.empty(len(rep), dtype=np.float64)
        clp = self.cand_lens[cand]
        for lo, hi in ((0, 16), (16, 24), (24, 32), (32, 1 << 30)):
            sel = np.flatnonzero((clp > lo) & (clp <= hi))
            if not len(sel):
                continue
            cs, qs = cand[sel], rep[sel]
            w = int(self.cand_lens[cs].max())
            qw = max(int(ql[qs].max()), 1)
            jw = jaro_winkler_pairs(qc[qs, :qw], ql[qs],
                                    self.cand_codes[cs, :w],
                                    self.cand_lens[cs])
            tok = lev_similarity_pairs(tq[qs, :qw], tl[qs],
                                       self.tok_codes[cs, :w],
                                       self.tok_lens[cs])
            score[sel] = 0.5 * jw + 0.5 * tok
        # ONE global (query, -score, idx) sort, then first-k per segment
        # (a per-query lexsort loop was ~25% of the stage)
        order = np.lexsort((cand, -score, rep))
        rep_s, cand_s, score_s = rep[order], cand[order], score[order]
        seg_start = np.r_[True, rep_s[1:] != rep_s[:-1]]
        pos_in_seg = np.arange(len(rep_s)) - np.maximum.accumulate(
            np.where(seg_start, np.arange(len(rep_s)), 0))
        topmask = pos_in_seg < self.k
        rep_t, cand_t, score_t = (rep_s[topmask], cand_s[topmask],
                                  score_s[topmask])
        bounds = np.r_[0, np.cumsum(np.bincount(rep_t,
                                                minlength=len(uniq)))]
        for ui in range(len(uniq)):
            s, e = int(bounds[ui]), int(bounds[ui + 1])
            if s == e:
                continue
            top = cand_t[s:e]
            results[ui] = (
                [int(self.place_ids[j]) for j in top],
                [str(self.street_names[j]) for j in top],
                [round(float(v), 4) for v in score_t[s:e]])
        return results

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pac
        n = len(batch)
        lens = np.zeros(n, dtype=np.int32)
        ids: list[int] = []
        names: list[str] = []
        scores: list[float] = []
        mask = pac.and_(pac.equal(batch[STATUS], "unmatched"),
                        pac.not_equal(batch[STREET], ""))
        todo = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
        if len(todo):
            idx = pa.array(todo)
            streets = batch[STREET].take(idx).to_numpy(zero_copy_only=False)
            pcs = batch[POSTCODE].take(idx).to_numpy(zero_copy_only=False)
            keys = [(st, str(pc)[:2]) for st, pc in zip(streets, pcs)]
            uniq = list(dict.fromkeys(keys))
            got = dict(zip(uniq, self.memo.get_many(uniq)))
            fresh = [kk for kk, hit in got.items() if hit is None]
            if fresh:
                scored = self._score_batch(fresh)
                got.update(zip(fresh, scored))
                self.memo.put_many(fresh, scored)
            # todo is ascending, so the flat values come out in row order
            for kk, loc in zip(keys, todo):
                hit = got[kk]
                lens[loc] = len(hit[0])
                ids += hit[0]
                names += hit[1]
                scores += hit[2]
        offsets = pa.array(np.r_[0, np.cumsum(lens)], pa.int32())

        def col(values, typ):
            return pa.ListArray.from_arrays(offsets, pa.array(values, typ))

        out = batch.append_column("knn_place_ids", col(ids, pa.int64()))
        out = out.append_column("knn_streets", col(names, pa.string()))
        return out.append_column("knn_scores", col(scores, pa.float64()))


def knn_points_broadcast(query_df: pd.DataFrame, ref_lat: np.ndarray,
                         ref_lon: np.ndarray, ref_ids: np.ndarray,
                         k: int = 3) -> pd.DataFrame:
    """Exact k nearest reference points per query row (haversine), fully
    vectorized: used inside map_batches with the reference arrays held in
    actor state / broadcast.  Returns one row per (query, neighbor) with
    rank 1..k — the layout the DuckDB oracle reproduces with a windowed
    cross join."""
    from .geom import haversine_km
    from .ops.similarity import _topk_rows
    qlat = query_df["lat"].to_numpy(dtype=np.float64)
    qlon = query_df["lon"].to_numpy(dtype=np.float64)
    ref_ids = np.asarray(ref_ids, dtype=np.int64)
    none = np.zeros(0, np.int64)
    parts = [pd.DataFrame({"_qi": none, "neighbor_id": none,
                           "dist_km": np.zeros(0), "rank": none})]
    # chunk queries so the (q × ref) matrix stays small
    chunk = max(1, int(4_000_000 // max(1, len(ref_lat))))
    for s in range(0, len(qlat), chunk):
        d = haversine_km(qlat[s:s + chunk, None], qlon[s:s + chunk, None],
                         ref_lat[None, :], ref_lon[None, :])
        row, col, rank = _topk_rows(d, ref_ids, k, ascending=True)
        parts.append(pd.DataFrame({"_qi": s + row,
                                   "neighbor_id": ref_ids[col],
                                   "dist_km": d[row, col], "rank": rank}))
    base = query_df.reset_index(drop=True)
    base["_qi"] = np.arange(len(base))
    return base.merge(pd.concat(parts, ignore_index=True),
                      on="_qi").drop(columns=["_qi"])


def knn_join_copartitioned(queries, refs, bucket_fn, score_fn, k: int = 3,
                           query_cols=None, ref_cols=None,
                           num_partitions: int | None = None,
                           neighbor_id_dtype=np.int64):
    """Generic both-sides-large kNN join over Ray Datasets.

    ``bucket_fn(df) -> Series`` assigns the co-partition key to either
    side; ``score_fn(q_df, ref_df) -> (scores, ids)`` scores a whole
    bucket at once — ``scores`` shaped (len(q_df), len(ref_df)) — so the
    kernel is one vectorized matrix op per bucket, never a per-row loop.
    One hash shuffle on the bucket key (partitioned ``grouped_map``, many
    buckets per task — not per-group materialization); top-k selection is
    ``ops.similarity._topk_rows``: (score desc, neighbor id asc), ties at
    the k-th place included.  Output rows carry ``query_cols`` (every
    query-side column when None) plus ``neighbor_id``, ``score`` and
    ``rank``; the reference side's columns never reach the output, nor
    do query columns whose names start with "_" (``score_fn`` still
    sees them).

    ``neighbor_id_dtype``: dtype of the ids ``score_fn`` returns (numpy
    dtype, or ``"string"`` for object ids).  Empty partitions emit a
    typed empty block with this dtype — without it an all-empty
    partition would pin neighbor_id to int64 and a string-id stream
    would mix block schemas.  Integer columns keep their dtype: the
    union of the two sides reaches ``per_partition`` with nullable ints,
    so ids past 2**53 stay exact."""
    import ray.data  # noqa: F401

    # Each side's tag records its own columns: the references' go under
    # the _REF prefix, so a query column is any union column outside it
    # (bar the tags), even where it is null on every row of a partition.
    def tag(side):
        def fn(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            bucket = bucket_fn(df)
            if side == "r":
                df.columns = [_REF + c for c in df.columns]
            df["_side"] = side
            df["_bucket"] = bucket
            return pa.Table.from_pandas(df, preserve_index=False)
        return fn

    q = queries.map_batches(tag("q"), batch_format="pyarrow")
    r = refs.map_batches(tag("r"), batch_format="pyarrow")
    both = q.union(r)

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        from .ops.similarity import _topk_rows
        # split the union once; each side's own integer columns have no
        # nulls, so they go back to exact numpy ints
        refc = [c for c in df.columns if c.startswith(_REF)]
        own = [c for c in df.columns
               if c not in refc and c not in ("_side", "_bucket")]
        is_q = df["_side"] == "q"
        q_all = _dense_ints(df.loc[is_q, own + ["_bucket"]])
        r_all = _dense_ints(df.loc[~is_q, refc + ["_bucket"]]).rename(
            columns={c: c[len(_REF):] for c in refc})
        qcols = [c for c in (query_cols if query_cols is not None else own)
                 if not str(c).startswith("_")]
        q_of = dict(list(q_all.groupby("_bucket", sort=False)))
        r_of = dict(list(r_all.groupby("_bucket", sort=False)))
        frames = []
        for b in df["_bucket"].unique():
            qs, rs = q_of.get(b), r_of.get(b)
            if qs is None or rs is None:
                continue
            # chunk the query side so the (q_chunk × ref) score matrix
            # stays ~32 MB even in a skewed mega-bucket — full-bucket
            # matrices go quadratic in memory exactly when skew hits
            chunk = max(1, 4_000_000 // max(1, len(rs)))
            for s0 in range(0, len(qs), chunk):
                qc = qs.iloc[s0:s0 + chunk]
                scores, ids = score_fn(qc, rs)
                scores = np.asarray(scores, dtype=np.float64)
                ids = np.asarray(ids)
                row, col, rank = _topk_rows(scores, ids, k, ascending=False)
                frame = qc.iloc[row][qcols].reset_index(drop=True)
                frame["neighbor_id"] = ids[col]
                frame["score"] = scores[row, col]
                frame["rank"] = rank
                frames.append(frame)
        if not frames:
            e = q_all.iloc[0:0][qcols].copy()
            # empty object columns would infer as Arrow null and break
            # the stream schema — pin them to string explicitly
            for c in qcols:
                if e[c].dtype == object:
                    e[c] = e[c].astype("string")
            if neighbor_id_dtype == "string":
                e["neighbor_id"] = pd.array([], dtype="string")
            else:
                e["neighbor_id"] = np.array([], dtype=neighbor_id_dtype)
            e["score"] = np.array([], dtype=np.float64)
            e["rank"] = np.array([], dtype=np.int64)
            return e
        return pd.concat(frames, ignore_index=True)

    from .shuffle import grouped_map
    return grouped_map(both, "_bucket", per_partition,
                       num_partitions=num_partitions, group_fn=False,
                       nullable_ints=True)


_REF = "_ref."     # prefix of the reference side's columns in the union


def _dense_ints(df: pd.DataFrame) -> pd.DataFrame:
    """Nullable integer columns with no nulls back to numpy ints."""
    return df.astype({c: t.numpy_dtype for c, t in df.dtypes.items()
                      if isinstance(t, pd.api.extensions.ExtensionDtype)
                      and t.kind in "iu" and not df[c].isna().any()})
