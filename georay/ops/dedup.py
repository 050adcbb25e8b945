"""Deduplication operators over a document Dataset (SURVEY.md mandate:
exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup).

Physical plans (the 100 TB story):

- exact: md5 content key per batch (map-side), then ONE hash shuffle —
  ``groupby(content_key).map_groups(first)``; survivors keep the minimum
  doc id (deterministic representative).
- MinHash-LSH: signatures are computed map-side (vectorized k-permutation
  min-hash over word shingles); each row emits its (band_id, band_hash)
  bucket keys; the only shuffle groups by bucket.  Candidate pairs are
  verified INSIDE the bucket group — never a cross-dataset join.
- SimHash: 64-bit signature map-side; bucket on 4 × 16-bit chunks (two
  signatures within Hamming distance ≤3 share ≥1 chunk — pigeonhole);
  verify Hamming distance in-group.
- n-gram Jaccard: MinHash-LSH buckets, verified by the exact shingle-set
  Jaccard in-group.
- embedding cosine: random-hyperplane LSH buckets map-side, exact cosine
  verify in-group (see ops/similarity.py for the search variant).

The MinHash, SimHash and n-gram verify is one pass per partition, not a
loop per bucket member: every candidate pair is enumerated at once as two
index arrays (``_bucket_pairs``) and scored in fixed chunks.
"""

from __future__ import annotations

import hashlib
import re
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from .._workergc import default_gc
from ..gazetteer import concat_ranges

_WORD = re.compile(r"\w+", re.U)

_MERSENNE = (1 << 61) - 1


def _shingle_ranges(texts: list, n: int, short_docs_whole: bool = True
                    ) -> tuple:
    """Every word n-gram shingle of every doc as a (start, len) RANGE of
    one concatenated token-stream buffer: a rolling shingle is a
    contiguous slice of its doc's ``" ".join(tokens)``, so no per-gram
    Python string is ever built (round-4: the per-gram join + md5 call
    was the dominant per-token cost of the minhash/dup-span family).

    Returns ``(buf uint8, starts int64, lens int64, counts int64)`` with
    ``counts[d]`` = shingles of doc d.  ``short_docs_whole``: docs with
    0 < tokens < n emit one whole-doc shingle (minhash convention) or
    none (dup-span convention)."""
    parts: list[bytes] = []
    starts_l: list[np.ndarray] = []
    lens_l: list[np.ndarray] = []
    counts = np.zeros(len(texts), dtype=np.int64)
    base = 0
    for di, t in enumerate(texts):
        toks = [w.lower().encode("utf-8") for w in _WORD.findall(t or "")]
        m = len(toks)
        if m == 0 or (m < n and not short_docs_whole):
            continue
        joined = b" ".join(toks)
        tl = np.fromiter((len(x) for x in toks), np.int64, count=m)
        off = np.zeros(m, np.int64)
        np.cumsum(tl[:-1] + 1, out=off[1:])
        if m < n:
            st = np.array([base], np.int64)
            ln = np.array([len(joined)], np.int64)
        else:
            cnt = m - n + 1
            st = off[:cnt] + base
            ln = off[n - 1:] + tl[n - 1:] - off[:cnt]
        parts.append(joined)
        starts_l.append(st)
        lens_l.append(ln)
        counts[di] = len(st)
        base += len(joined)
    if not parts:
        return (np.zeros(0, np.uint8), np.zeros(0, np.int64),
                np.zeros(0, np.int64), counts)
    buf = np.frombuffer(b"".join(parts), dtype=np.uint8)
    return buf, np.concatenate(starts_l), np.concatenate(lens_l), counts


def _shingle_hashes(text: str, n: int = 3) -> np.ndarray:
    """64-bit hashes of word n-gram shingles: little-endian first 8 md5
    digest bytes — deterministic across processes (unlike Python's str
    hash) AND equal to DuckDB's ``md5_number_upper``, so the LSH oracles
    can replicate signatures value-for-value in SQL."""
    from .md5vec import md5_u64_le_ranges
    buf, st, ln, _ = _shingle_ranges([text], n)
    return md5_u64_le_ranges(buf, st, ln)


# per-worker-process cache: the hasher's permutation coefficients are
# built once per (k, seed, shingle_n) per worker, not per batch
# (state-once-per-worker rule, cascade.py rationale)
_MINHASHER_CACHE: dict = {}


def get_minhasher(k: int = 64, seed: int = 1234,
                  shingle_n: int = 3) -> "MinHasher":
    key = (k, seed, shingle_n)
    h = _MINHASHER_CACHE.get(key)
    if h is None:
        h = MinHasher(k=k, seed=seed, shingle_n=shingle_n)
        _MINHASHER_CACHE[key] = h
    return h


def _id_type(series: pd.Series) -> pa.DataType:
    """Arrow type for an id column coming out of a pandas partition."""
    if series.dtype == object:
        return pa.string()
    return pa.from_numpy_dtype(series.dtype)


def _pairs_table(id_a, id_b, id_t: pa.DataType, extra_name: str, extra,
                 extra_t: pa.DataType) -> pa.Table:
    """Typed (id_a, id_b, <extra>) table — explicit types so empty
    partitions keep the stream schema stable (no null-typed blocks)."""
    return pa.table({"id_a": pa.array(id_a, id_t),
                     "id_b": pa.array(id_b, id_t),
                     extra_name: pa.array(extra, extra_t)})


_MIX = np.uint64(0x9E3779B97F4A7C15)
_PAIR_CHUNK = 2048   # candidate pairs scored per gather


def _band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """int64 LSH bucket key of every (band, doc), band-major: a
    multiplicative mix of the band's signature chunk (a 64-bit collision
    merely merges two buckets; the in-group verify keeps the pair set
    right).  uint64 ARRAY arithmetic wraps silently, a scalar warns."""
    n = len(sig)
    r = sig.shape[1] // bands
    chunks = sig[:, :bands * r].reshape(n, bands, r)
    h = np.repeat(np.arange(1, bands + 1, dtype=np.uint64)[:, None] * _MIX,
                  n, axis=1)
    for j in range(r):
        h = (h ^ chunks[:, :, j].T) * _MIX
    return h.ravel().astype(np.int64)


def _bucket_runs(ids: np.ndarray, bkt: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """A partition's bucket rows sorted by (bucket, id), repeated
    (bucket, id) rows dropped: ``(rows, sizes)``, the input positions of
    the kept rows in that order and the size of each bucket run."""
    order = np.lexsort((ids, bkt))
    ids, bkt = ids[order], bkt[order]
    new_bkt = np.ones(len(bkt), bool)
    new_bkt[1:] = bkt[1:] != bkt[:-1]
    keep = new_bkt.copy()
    keep[1:] |= ids[1:] != ids[:-1]
    return order[keep], np.diff(np.r_[np.flatnonzero(new_bkt[keep]),
                                      int(keep.sum())])


def _bucket_pairs(ids: np.ndarray, bkt: np.ndarray, cap: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate pair of a partition's buckets at once, as input
    positions ``(left, right)``.  A row at offset r of a bucket of m
    rows pairs with the m-1-r rows after it; in a bucket over ``cap``
    rows only the hub (the minimum id) pairs, with all m-1 others.  The
    order is bucket, then left row, then right row — the order of a
    nested loop over each bucket."""
    rows, sizes = _bucket_runs(ids, bkt)
    pos = np.arange(len(rows))
    m = np.repeat(sizes, sizes)
    off = pos - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cnt = np.where(m > cap, np.where(off == 0, m - 1, 0), m - 1 - off)
    return np.repeat(rows, cnt), rows[concat_ranges(pos + 1, cnt)]


def _score(left: np.ndarray, right: np.ndarray, fn, dtype) -> np.ndarray:
    """``fn(left, right)`` in fixed chunks: small gathered operands."""
    out = np.empty(len(left), dtype)
    for lo in range(0, len(left), _PAIR_CHUNK):
        hi = lo + _PAIR_CHUNK
        out[lo:hi] = fn(left[lo:hi], right[lo:hi])
    return out


def _verify_minhash(df: pd.DataFrame, id_col: str, k: int,
                    threshold: float, max_bucket: int) -> pa.Table:
    """``minhash_lsh_pairs`` verify: share of equal signature slots."""
    ids = df[id_col].to_numpy()
    left, right = _bucket_pairs(ids, df["bucket"].to_numpy(), max_bucket)
    sigs = np.frombuffer(b"".join(df["minhash"].to_numpy()),
                         dtype=np.uint64).reshape(-1, k)
    est = _score(left, right,
                 lambda a, b: (sigs[a] == sigs[b]).sum(1) / k, np.float64)
    hit = est >= threshold
    return _pairs_table(ids[left[hit]], ids[right[hit]],
                        _id_type(df[id_col]), "est_jaccard", est[hit],
                        pa.float64())


def _verify_simhash(df: pd.DataFrame, id_col: str, max_hamming: int,
                    max_bucket: int) -> pa.Table:
    """``simhash_pairs`` verify: Hamming distance of the signatures."""
    ids = df[id_col].to_numpy()
    left, right = _bucket_pairs(ids, df["bucket"].to_numpy(), max_bucket)
    vals = df["simhash"].to_numpy().astype(np.uint64)
    ham = _score(left, right, lambda a, b: _popcount64(vals[a] ^ vals[b]),
                 np.int64)
    hit = ham <= max_hamming
    return _pairs_table(ids[left[hit]], ids[right[hit]],
                        _id_type(df[id_col]), "hamming", ham[hit],
                        pa.int64())


def _verify_ngram(df: pd.DataFrame, id_col: str, threshold: float,
                  max_bucket: int) -> pa.Table:
    """``ngram_jaccard_pairs`` verify: exact shingle-set Jaccard, each
    row's set built once per partition."""
    ids = df[id_col].to_numpy()
    left, right = _bucket_pairs(ids, df["bucket"].to_numpy(), max_bucket)
    sh = df["shingles"].to_numpy()
    sets = {i: set(sh[i].tolist())
            for i in np.unique(np.r_[left, right]).tolist()}
    jac = []
    for i, j in zip(left.tolist(), right.tolist()):
        inter = len(sets[i] & sets[j])
        union = len(sets[i]) + len(sets[j]) - inter
        jac.append(inter / union if union else 0.0)
    jac = np.array(jac, dtype=np.float64)
    hit = jac >= threshold
    return _pairs_table(ids[left[hit]], ids[right[hit]],
                        _id_type(df[id_col]), "jaccard",
                        [round(x, 6) for x in jac[hit].tolist()],
                        pa.float64())


class MinHasher:
    """k-permutation MinHash over word shingles; state (the permutation
    coefficients) built once per actor."""

    def __init__(self, k: int = 64, seed: int = 1234, shingle_n: int = 3):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=k, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=k, dtype=np.uint64)
        self.k = k
        self.shingle_n = shingle_n

    def signature(self, text: str) -> np.ndarray:
        h = _shingle_hashes(text, self.shingle_n)
        if len(h) == 0:
            return np.zeros(self.k, dtype=np.uint64)
        # (a*h + b) mod p, min over shingles — vectorized k × n
        v = (self.a[:, None] * h[None, :] + self.b[:, None]) % _MERSENNE
        return v.min(axis=1)

    def signatures_from_hashes(self, h: np.ndarray, counts: np.ndarray
                               ) -> np.ndarray:
        """(n_docs, k) signatures from pre-hashed shingles (concatenated
        per doc, ``counts[d]`` shingles each): the per-doc min over
        (a*h + b) mod p computed as ONE ``minimum.reduceat`` per chunk —
        identical arithmetic (and bit output) to ``signature`` per row.
        Docs with zero shingles get the all-zeros signature.  Chunked so
        the (k, shingles) work matrix stays malloc-arena-sized (fresh
        huge mmaps page-fault expensively on this host)."""
        ndocs = len(counts)
        sig = np.zeros((ndocs, self.k), dtype=np.uint64)
        nz = np.flatnonzero(counts)
        if not len(nz):
            return sig
        ends = np.cumsum(counts[nz])
        seg_starts = ends - counts[nz]
        per_chunk = max(1, (1 << 19) // self.k)   # ~8k shingles/chunk
        i = 0
        while i < len(nz):
            j = i
            tot = 0
            while j < len(nz) and tot < per_chunk:
                tot += int(counts[nz[j]])
                j += 1
            lo, hi = int(seg_starts[i]), int(ends[j - 1])
            hh = h[lo:hi]
            v = (self.a[:, None] * hh[None, :]
                 + self.b[:, None]) % _MERSENNE
            segs = (seg_starts[i:j] - lo).astype(np.int64)
            sig[nz[i:j]] = np.minimum.reduceat(v, segs, axis=1).T
            i = j
        return sig

    def signatures_batch(self, texts) -> np.ndarray:
        """(n_docs, k) uint64 signatures for a whole batch (``texts``: a
        list or an object array of ``str``, None read as ""): shingle
        ranges -> one vectorized md5 pass -> reduceat mins."""
        from .md5vec import md5_u64_le_ranges
        buf, st, ln, counts = _shingle_ranges(texts, self.shingle_n)
        return self.signatures_from_hashes(
            md5_u64_le_ranges(buf, st, ln), counts)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.signatures_batch(
            batch["text"].to_numpy(zero_copy_only=False))
        arr = pa.array([s.astype("int64").tolist() for s in sigs],
                       pa.list_(pa.int64()))
        return batch.append_column("minhash", arr)


def exact_duplicates(ds: "ray.data.Dataset", id_col: str = "doc_id",
                     text_col: str = "text") -> "ray.data.Dataset":
    """One row per document that is NOT the keeper of its content group:
    (doc_id, keeper_id, content_key).  Hash-partition + per-group-min."""
    def add_key(batch: pa.Table) -> pa.Table:
        default_gc()
        from .md5vec import md5_hex
        keys = md5_hex([(t or "").encode("utf-8")
                        for t in batch[text_col].to_pylist()])
        return pa.table({id_col: batch[id_col],
                         "content_key": pa.array(keys, pa.string())})

    keyed = ds.map_batches(add_key, batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(id_col, kind="mergesort")
        keeper = df.groupby("content_key")[id_col].transform("min")
        rest = df[df[id_col] != keeper]
        id_t = _id_type(df[id_col])
        return pa.table({id_col: pa.array(rest[id_col].tolist(), id_t),
                         "keeper_id": pa.array(keeper[rest.index].tolist(),
                                               id_t),
                         "content_key": pa.array(
                             rest["content_key"].tolist(), pa.string())})

    from ..shuffle import grouped_map
    return grouped_map(keyed, "content_key", per_partition, group_fn=False)


def minhash_lsh_pairs(ds: "ray.data.Dataset", bands: int = 16, k: int = 64,
                      threshold: float = 0.5, shingle_n: int = 3,
                      id_col: str = "doc_id", text_col: str = "text",
                      max_bucket: int = 64) -> "ray.data.Dataset":
    """Near-duplicate pairs (id_a < id_b, est_jaccard >= threshold) via
    banded MinHash-LSH; one shuffle on the band bucket key.

    Skew guard: a bucket larger than ``max_bucket`` (mass-duplicated
    content — template boilerplate) switches from all-pairs to hub-and-
    spoke — every member is compared only against the bucket's minimum
    id.  Output stays linear in the bucket size and duplicate groups
    remain connected through the hub, at the cost of not enumerating
    every intra-group pair (explicit cap, not a silent one)."""
    def to_buckets(batch: pa.Table) -> pa.Table:
        """One output row per (doc, band): the band key + the signature
        as a 512-byte binary (k little-endian uint64) — far cheaper
        through the shuffle and the pandas boundary than list<int64>."""
        default_gc()
        hasher = get_minhasher(k=k, shingle_n=shingle_n)
        sig = hasher.signatures_batch(
            batch[text_col].to_numpy(zero_copy_only=False))
        ids_np = batch[id_col].to_numpy(zero_copy_only=False)
        sig_bytes = [s.tobytes() for s in sig]
        return pa.table({id_col: pa.array(np.tile(ids_np, bands)),
                         "bucket": pa.array(_band_keys(sig, bands)),
                         "minhash": pa.array(sig_bytes * bands,
                                             pa.binary())})

    buckets = ds.map_batches(to_buckets, batch_format="pyarrow")
    from ..shuffle import grouped_map
    pairs = grouped_map(buckets, "bucket", partial(
        _verify_minhash, id_col=id_col, k=k, threshold=threshold,
        max_bucket=max_bucket), group_fn=False)
    # same pair surfaces from several bands -> one-pass partitioned
    # distinct (values identical per pair)
    from ..shuffle import distinct_on
    return distinct_on(pairs, ["id_a", "id_b"])


def simhash64(text: str) -> np.uint64:
    """64-bit SimHash over word hashes (published Charikar construction).

    TEST ORACLE ONLY: the transparent scalar definition the vectorized
    ``simhash64_batch`` is pinned against in tests — no production stage
    calls this per-row loop."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for w in _WORD.findall((text or "").lower()):
        h = np.uint64(int.from_bytes(hashlib.md5(w.encode()).digest()[:8],
                                     "little"))
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits == 1, 1, -1)
    out = np.uint64(0)
    for b in range(64):
        if acc[b] > 0:
            out |= np.uint64(1) << np.uint64(b)
    return out


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """Vectorized ``simhash64`` over a batch: dedup the batch VOCABULARY
    and hash each distinct word once (round-3 perf item — the scalar
    version re-md5s every word occurrence of every row), then accumulate
    the per-row ±1 bit sums with one ``add.reduceat`` over the
    concatenated word-index runs.  Exact parity with ``simhash64`` per
    row (occurrence counts preserved; pinned by tests)."""
    n = len(texts)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    vocab: dict[str, int] = {}
    idx_rows: list[list[int]] = []
    for t in texts:
        idx_rows.append([vocab.setdefault(w, len(vocab))
                         for w in _WORD.findall((t or "").lower())])
    out = np.zeros(n, dtype=np.uint64)
    if not vocab:
        return out
    from .md5vec import md5_u64_le
    hashes = md5_u64_le([w.encode() for w in vocab])
    shifts = np.arange(64, dtype=np.uint64)
    bits_pm = (((hashes[:, None] >> shifts[None, :]) & np.uint64(1))
               .astype(np.int32) * 2 - 1)                 # (V, 64) ±1
    counts = np.fromiter((len(r) for r in idx_rows), dtype=np.int64,
                         count=n)
    nz = np.flatnonzero(counts)
    if not len(nz):
        return out
    flat = np.concatenate([idx_rows[i] for i in nz]).astype(np.int64)
    # per-row segment sums via one contiguous cumsum + boundary diffs,
    # in (bit, token) layout: both axis-0 cumsum and axis-0 reduceat on
    # the (token, bit) layout stride cache-hostile (measured 10-20x
    # slower); along the last axis the scan is sequential memory.
    ends = np.cumsum(counts[nz])
    starts = ends - counts[nz]
    contrib = np.ascontiguousarray(bits_pm.T)[:, flat]     # (64, total)
    # int32 in AND out: numpy's mixed-dtype cumsum (int32 data, int64
    # accumulator) takes a buffered path measured 14x slower; +-1 sums
    # over a batch's tokens can't overflow int32
    cs = np.cumsum(contrib, axis=1, dtype=np.int32)
    acc = cs[:, ends - 1]                                  # (64, len(nz))
    m = starts > 0
    acc[:, m] -= cs[:, starts[m] - 1]
    bits = (acc > 0).astype(np.uint64).T                   # (len(nz), 64)
    out[nz] = (bits << shifts[None, :]).sum(axis=1)
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (bitwise Hamming weight)."""
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    x = np.ascontiguousarray(x, dtype=np.uint64)
    return np.unpackbits(x.view(np.uint8).reshape(len(x), 8),
                         axis=1).sum(axis=1).astype(np.int64)


def simhash_pairs(ds: "ray.data.Dataset", max_hamming: int = 3,
                  id_col: str = "doc_id", text_col: str = "text",
                  max_bucket: int = 512) -> "ray.data.Dataset":
    """Near-dup pairs with Hamming(simhash) <= max_hamming; bucketed on
    the 4 16-bit chunks (pigeonhole guarantee for <=3 bit flips).
    Mega-buckets fall back to hub-and-spoke (see minhash_lsh_pairs)."""
    def to_buckets(batch: pa.Table) -> pa.Table:
        default_gc()
        texts = batch[text_col].to_pylist()
        n = len(texts)
        s = simhash64_batch(texts)
        ids_np = batch[id_col].to_numpy(zero_copy_only=False)
        bkts = np.empty(4 * n, dtype=np.int64)
        for c in range(4):   # int64 bucket key: chunk value | chunk id
            bkts[c * n:(c + 1) * n] = (
                ((s >> np.uint64(16 * c)) & np.uint64(0xFFFF))
                .astype(np.int64) | np.int64(c << 16))
        return pa.table({id_col: pa.array(np.tile(ids_np, 4)),
                         "bucket": pa.array(bkts),
                         "simhash": pa.array(
                             np.tile(s.astype(np.int64), 4))})

    buckets = ds.map_batches(to_buckets, batch_format="pyarrow")
    from ..shuffle import grouped_map
    pairs = grouped_map(buckets, "bucket", partial(
        _verify_simhash, id_col=id_col, max_hamming=max_hamming,
        max_bucket=max_bucket), group_fn=False)
    from ..shuffle import distinct_on
    return distinct_on(pairs, ["id_a", "id_b"])


def ngram_jaccard_pairs(ds: "ray.data.Dataset", threshold: float = 0.6,
                        shingle_n: int = 3, bands: int = 16, k: int = 64,
                        id_col: str = "doc_id", text_col: str = "text"
                        ) -> "ray.data.Dataset":
    """EXACT n-gram Jaccard >= threshold pairs; candidates from MinHash-LSH
    buckets (recall limited by LSH — documented), verified by exact
    shingle-set Jaccard inside the group; a bucket over 256 rows
    falls back to hub-and-spoke (see minhash_lsh_pairs)."""
    def to_buckets(batch: pa.Table) -> pa.Table:
        default_gc()
        from .md5vec import md5_u64_le_ranges
        hasher = get_minhasher(k=k, shingle_n=shingle_n)
        texts = batch[text_col].to_pylist()
        n = len(texts)
        buf, st, ln, counts = _shingle_ranges(texts, shingle_n)
        hashes = md5_u64_le_ranges(buf, st, ln)
        sig = hasher.signatures_from_hashes(hashes, counts)
        bounds = np.r_[0, np.cumsum(counts)]
        shingles = [np.unique(hashes[bounds[i]:bounds[i + 1]]).tolist()
                    for i in range(n)]
        ids_np = batch[id_col].to_numpy(zero_copy_only=False)
        # uint64: md5-based shingle hashes use the full 64-bit range
        return pa.table({id_col: pa.array(np.tile(ids_np, bands)),
                         "bucket": pa.array(_band_keys(sig, bands)),
                         "shingles": pa.array(shingles * bands,
                                              pa.list_(pa.uint64()))})

    buckets = ds.map_batches(to_buckets, batch_format="pyarrow")
    from ..shuffle import grouped_map
    pairs = grouped_map(buckets, "bucket", partial(
        _verify_ngram, id_col=id_col, threshold=threshold, max_bucket=256),
        group_fn=False)
    from ..shuffle import distinct_on
    return distinct_on(pairs, ["id_a", "id_b"])


def embedding_dup_pairs(ds: "ray.data.Dataset", threshold: float = 0.95,
                        n_planes: int = 12, seed: int = 99,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        max_bucket: int = 4096) -> "ray.data.Dataset":
    """Near-duplicate pairs by cosine >= threshold: random-hyperplane LSH
    bucket map-side, exact cosine verify in-group.

    Skew guard (same hub-and-spoke plan as minhash_lsh_pairs): a bucket
    beyond ``max_bucket`` rows (mass-duplicated vectors) compares every
    member only against the bucket's minimum id instead of forming the
    O(n²) in-group cosine matrix — output stays linear in bucket size and
    duplicate groups remain connected through the hub."""
    def to_buckets(batch: pa.Table) -> pa.Table:
        default_gc()
        from .similarity import vec_matrix
        vecs = vec_matrix(batch, vec_col)
        dim = vecs.shape[1] if vecs.ndim == 2 else 1
        ck = ("planes", dim, n_planes, seed)
        planes = _MINHASHER_CACHE.get(ck)
        if planes is None:
            planes = np.random.default_rng(seed).standard_normal(
                (dim, n_planes))
            _MINHASHER_CACHE[ck] = planes
        signs = (vecs @ planes) > 0
        code = signs @ (1 << np.arange(n_planes))
        return pa.table({id_col: batch[id_col],
                         "bucket": pa.array(code.astype(np.int64)),
                         vec_col: batch[vec_col]})

    buckets = ds.map_batches(to_buckets, batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        """Per bucket: one ``vn @ vn.T`` (BLAS block shape sets the
        cosine bits, so the buckets are not batched together)."""
        ids_all = df[id_col].to_numpy()
        rows, sizes = _bucket_runs(ids_all, df["bucket"].to_numpy())
        ids_all, vecs = ids_all[rows], df[vec_col].to_numpy()[rows]
        ends = np.cumsum(sizes)
        out = []
        for gi in np.flatnonzero(sizes >= 2):
            s, e = int(ends[gi] - sizes[gi]), int(ends[gi])
            v = np.stack(vecs[s:e]).astype(np.float64)
            vn = v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True),
                                1e-12)
            ids = ids_all[s:e]
            if e - s > max_bucket:   # hub-and-spoke for mega-buckets
                sim = vn[1:] @ vn[0]
                for off in np.flatnonzero(sim >= threshold):
                    out.append((ids[0], ids[1 + off],
                                round(float(sim[off]), 6)))
            else:
                sim = vn @ vn.T
                ii, jj = np.where(np.triu(sim, 1) >= threshold)
                for i, j in zip(ii, jj):
                    out.append((ids[i], ids[j], round(float(sim[i, j]), 6)))
        a, b, cos = zip(*out) if out else ((), (), ())
        return _pairs_table(a, b, _id_type(df[id_col]), "cosine", cos,
                            pa.float64())

    from ..shuffle import grouped_map
    return grouped_map(buckets, "bucket", per_partition, group_fn=False)


def connected_components(pairs: "ray.data.Dataset", id_a: str = "id_a",
                         id_b: str = "id_b", max_iters: int = 12,
                         num_partitions: int | None = None) -> "ray.data.Dataset":
    """Duplicate-CLUSTER labels from a near-dup pair list: (node, comp)
    for every node appearing in ``pairs``, where ``comp`` is the minimum
    node id reachable through the pair graph — the canonical
    keep-one-per-cluster step that follows MinHash/SimHash/embedding
    pair generation in a training-data dedup pipeline.

    Plan (Ray-Data-first iterative min-label propagation with pointer
    doubling): edges are doubled (u->v, v->u) once; each round is two
    ``grouped_map`` shuffles over the node key — (1) labels
    co-partitioned with edge SOURCES so every edge emits its source's
    current label at its target, (2) a min-combine per target node.
    On top of the graph edges, every round adds one SHORTCUT edge per
    node from its current label to itself (label values are node ids,
    so they route to a live label row): the node then also receives
    label(label(node)), which doubles the length of resolved label
    chains each round — convergence in O(log diameter) rounds instead
    of O(diameter).  That matters beyond pathology: eps-neighbor
    graphs from spatial DBSCAN are CHAINS (streets along a road), not
    the near-cliques of near-dup buckets, and plain propagation on
    them needs diameter rounds (silently wrong labels once max_iters
    truncates).  The label set is materialized per round (iterative
    algorithms need a per-round barrier) and the loop early-stops on a
    round with zero label changes.  All shuffles move only the
    PAIR-GRAPH nodes (a small fraction of the corpus), never the
    documents.

    Node ids must be integers (the synthetic corpus and every pair op
    here use int64 doc ids)."""
    import ray.data

    from ..shuffle import adaptive_partitions, distinct_on, grouped_map
    if num_partitions is None:
        num_partitions = adaptive_partitions()

    def to_edges(batch: pa.Table) -> pa.Table:
        default_gc()
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": pa.array(np.r_[a, b], pa.int64()),
                         "dst": pa.array(np.r_[b, a], pa.int64()),
                         "label": pa.array(np.zeros(2 * len(a)), pa.int64()),
                         "is_edge": pa.array(np.ones(2 * len(a), np.int8),
                                             pa.int8())})

    edges = pairs.map_batches(to_edges, batch_format="pyarrow")
    edges = edges.materialize()    # reused every round — never re-derived
    if edges.count() == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "comp": pa.array([], pa.int64())}))
    if edges.num_blocks() > 2 * num_partitions:
        # upstream composition (e.g. DBSCAN's flag joins) can leave
        # hundreds of tiny blocks; every round pays per-block shuffle
        # overhead, so bound it once up front
        edges = edges.repartition(num_partitions).materialize()

    def to_nodes(batch: pa.Table) -> pa.Table:
        n = batch["key"]
        return pa.table({"key": n, "dst": pa.array([0] * len(n), pa.int64()),
                         "label": n, "is_edge": pa.array([0] * len(n),
                                                         pa.int8())})

    def bound_blocks(ds):
        # grouped_map preserves its INPUT's block count (Ray sort keeps
        # block granularity), so per-round unions would compound tiny
        # blocks and per-block shuffle overhead grows round over round;
        # one cheap repartition of the label set caps it
        m = ds.materialize()
        if m.num_blocks() > 4 * num_partitions:
            m = m.repartition(num_partitions).materialize()
        return m

    labels = bound_blocks(
        distinct_on(edges.map_batches(to_nodes, batch_format="pyarrow"),
                    ["key"], num_partitions=num_partitions))

    def propagate(df: pd.DataFrame) -> pa.Table:
        lab = df[df["is_edge"] == 0]
        ed = df[df["is_edge"] == 1]
        src_label = ed["key"].map(
            pd.Series(lab["label"].values, index=lab["key"].values))
        return pa.table({
            "node": pa.array(np.r_[ed["dst"].to_numpy(np.int64),
                                   lab["key"].to_numpy(np.int64)],
                             pa.int64()),
            "cand": pa.array(np.r_[src_label.to_numpy(np.int64),
                                   lab["label"].to_numpy(np.int64)],
                             pa.int64()),
            "is_self": pa.array(np.r_[np.zeros(len(ed), np.int8),
                                      np.ones(len(lab), np.int8)],
                                pa.int8())})

    def combine(df: pd.DataFrame) -> pa.Table:
        new = df.groupby("node", sort=True)["cand"].min()
        old = df[df["is_self"] == 1].set_index("node")["cand"]
        changed = (new < old.reindex(new.index)).fillna(True)
        return pa.table({
            "key": pa.array(new.index.to_numpy(np.int64), pa.int64()),
            "dst": pa.array(np.zeros(len(new), np.int64), pa.int64()),
            "label": pa.array(new.to_numpy(np.int64), pa.int64()),
            "is_edge": pa.array(np.zeros(len(new), np.int8), pa.int8()),
            "changed": pa.array(changed.to_numpy(np.int64), pa.int64())})

    def shortcut(batch: pa.Table) -> pa.Table:
        # pointer doubling: an edge (key=label(n), dst=n) delivers
        # label(label(n)) to n next round — label values are node ids,
        # so the edge routes to a partition holding a live label row
        import pyarrow.compute as pc
        keep = pc.invert(pc.equal(batch["key"], batch["label"]))
        node = batch["key"].filter(keep)
        lab = batch["label"].filter(keep)
        return pa.table({"key": lab, "dst": node,
                         "label": pa.array(np.zeros(len(node)), pa.int64()),
                         "is_edge": pa.array(np.ones(len(node), np.int8),
                                             pa.int8())})

    for _ in range(max_iters):
        lab_clean = (labels.drop_columns(["changed"])
                     if "changed" in labels.schema().names else labels)
        both = edges.union(
            lab_clean,
            lab_clean.map_batches(shortcut, batch_format="pyarrow"))
        msgs = grouped_map(both, "key", propagate, group_fn=False,
                           num_partitions=num_partitions)
        labels = bound_blocks(grouped_map(msgs, "node", combine,
                                          group_fn=False,
                                          num_partitions=num_partitions))
        if labels.sum("changed") == 0:
            break

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["key"], "comp": batch["label"]})

    return labels.map_batches(finish, batch_format="pyarrow")


def keep_canonical(docs: "ray.data.Dataset", components: "ray.data.Dataset",
                   id_col: str = "doc_id", plan: str = "auto",
                   max_broadcast_bytes: int = 256 << 20
                   ) -> "ray.data.Dataset":
    """End-to-end near-dedup: keep each duplicate cluster's minimum-id
    document plus every unclustered document.  ``components`` is
    ``connected_components`` output ((node, comp)); the DROP set is the
    nodes with node != comp.

    Two physical plans (round 5 — the anti-join is no longer just a
    documented assumption):

    - ``"broadcast"``: the drop ids are collected once and shipped via
      ``ray.put``; the corpus-side pass is one broadcast-filter
      ``map_batches`` with NO shuffle of the documents.  Right whenever
      the near-duplicate set fits the object store (the common case —
      it is dup-count-sized, tiny vs the corpus).
    - ``"anti_join"``: co-partitioned anti-join on ``id_col`` (the
      rel_anti_join plan): the drop-id stream is unioned with the
      document stream (drop rows padded to the document schema with
      nulls) and ONE hash shuffle co-locates each id's rows; each
      partition drops locally.  The documents move through the shuffle
      once — the honest corpus-linear cost when the drop set itself is
      too big to broadcast.

    ``plan="auto"`` counts the drop rows (a metadata-cheap aggregate,
    no driver materialization of ids) and broadcasts iff the id array
    fits ``max_broadcast_bytes``."""
    import ray

    drop_tbl = components.map_batches(
        lambda b: b.filter(pa.compute.not_equal(b["node"], b["comp"])),
        batch_format="pyarrow").select_columns(["node"])

    if plan == "auto":
        plan = ("broadcast" if drop_tbl.count() * 8 <= max_broadcast_bytes
                else "anti_join")

    if plan == "anti_join":
        return _keep_canonical_anti_join(docs, drop_tbl, id_col)

    pdf = drop_tbl.to_pandas()   # all-empty datasets lose their schema
    drop_ids = (np.sort(np.asarray(pdf["node"], dtype=np.int64))
                if "node" in pdf.columns else np.empty(0, np.int64))
    drop_ref = ray.put(drop_ids)

    def keep(batch: pa.Table) -> pa.Table:
        default_gc()
        drop = ray.get(drop_ref)
        if len(drop) == 0:
            return batch
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(drop, ids)
        hit = (pos < len(drop)) & (drop[np.minimum(pos, len(drop) - 1)]
                                   == ids)
        return batch.filter(pa.array(~hit))

    return docs.map_batches(keep, batch_format="pyarrow")


def _keep_canonical_anti_join(docs: "ray.data.Dataset",
                              drop_tbl: "ray.data.Dataset",
                              id_col: str) -> "ray.data.Dataset":
    """Co-partitioned anti-join: drop rows are padded to the document
    schema (null payload + ``_side=1``), unioned with the documents
    (``_side=0``), hash-shuffled once on ``id_col``, and each partition
    filters locally."""
    schema = docs.schema().base_schema
    id_type = schema.field(id_col).type
    payload = [f for f in schema if f.name != id_col]

    def tag_docs(batch: pa.Table) -> pa.Table:
        default_gc()
        return batch.append_column(
            "_side", pa.array(np.zeros(batch.num_rows, np.int8)))

    def tag_drop(batch: pa.Table) -> pa.Table:
        default_gc()
        n = batch.num_rows
        cols = {}
        for f in schema:
            if f.name == id_col:
                cols[f.name] = pa.compute.cast(batch["node"], id_type)
            else:
                cols[f.name] = pa.nulls(n, f.type)
        cols["_side"] = pa.array(np.ones(n, np.int8))
        return pa.table(cols)

    tagged = (docs.map_batches(tag_docs, batch_format="pyarrow")
              .union(drop_tbl.map_batches(tag_drop,
                                          batch_format="pyarrow")))

    def anti(df) -> pa.Table:
        drop = set(df.loc[df["_side"] == 1, id_col])
        keep = df[(df["_side"] == 0) & ~df[id_col].isin(drop)]
        return pa.Table.from_pandas(
            keep.drop(columns=["_side"]), schema=schema,
            preserve_index=False)

    from ..shuffle import grouped_map
    return grouped_map(tagged, id_col, anti, group_fn=False,
                       out_schema=schema)


def duplicate_spans(ds: "ray.data.Dataset", n: int = 16,
                    id_col: str = "doc_id", text_col: str = "text",
                    sample_hex: int = 16,
                    num_partitions: int | None = None,
                    digest_impl: str = "vec") -> "ray.data.Dataset":
    """Exact substring (duplicate n-gram span) detection, the
    suffix-array-style dedup signal from the published exact-substring
    dedup literature, expressed shuffle-wise: per-doc map emits one
    (gram_md5, id, n_occ) row per DISTINCT n-gram per doc (map-side
    combine), one hash shuffle co-partitions grams, and each partition
    reports grams seen in >= 2 distinct documents as
    (gram_md5, n_docs, n_occ, min_id).

    Scale: the shuffle is inherently token-stream-sized — that is the
    cost of EXACT substring dedup.  ``sample_hex`` < 16 keeps only grams
    whose first md5 hex digit is < sample_hex (a deterministic
    1/(16/sample_hex) anchor sample, the standard sampled-anchor
    mitigation; both the engine and the SQL oracle apply the same rule).
    """
    def emit(batch: pa.Table) -> pa.Table:
        default_gc()
        from .md5vec import md5_digests_ranges
        texts = batch[text_col].to_pylist()
        id_t = batch[id_col].type
        empty = pa.table({"gram_md5": pa.array([], pa.string()),
                          id_col: pa.array([], id_t),
                          "n_occ": pa.array([], pa.int64())})
        # grams as ranges of the token-stream buffer (no per-gram join),
        # docs under n tokens emit nothing (dup-span convention)
        buf, st, ln, counts = _shingle_ranges(texts, n,
                                              short_docs_whole=False)
        if not len(st):
            return empty
        if digest_impl == "hashlib":
            # per-gram hashlib over buffer slices: the reference
            # implementation the vectorized path is A/B'd against
            # (scripts/bench_dup_spans.py) — bit-identical outputs
            import hashlib as _hl
            bb = buf.tobytes()
            dig = np.empty((len(st), 16), dtype=np.uint8)
            for i in range(len(st)):
                o = int(st[i])
                dig[i] = np.frombuffer(
                    _hl.md5(bb[o:o + int(ln[i])]).digest(), np.uint8)
        else:
            dig = md5_digests_ranges(buf, st, ln)    # (total, 16)
        keep = (dig[:, 0] >> 4) < sample_hex         # first hex digit
        if not keep.any():
            return empty
        di = np.repeat(np.arange(len(texts), dtype=np.int64),
                       counts)[keep]
        dig = np.ascontiguousarray(dig[keep])
        u = dig.view("<u8").reshape(-1, 2)           # (m, 2) digest words
        # vectorized per-(doc, gram) occurrence count: lexsort + run ends
        order = np.lexsort((u[:, 1], u[:, 0], di))
        di_s = di[order]
        u_s = u[order]
        new = np.r_[True, (di_s[1:] != di_s[:-1])
                    | (u_s[1:, 0] != u_s[:-1, 0])
                    | (u_s[1:, 1] != u_s[:-1, 1])]
        starts = np.flatnonzero(new)
        occ = np.diff(np.r_[starts, len(di_s)])
        rep = order[starts]                          # one row per group
        hex_all = dig[rep].tobytes().hex()
        grams_out = [hex_all[i * 32:(i + 1) * 32] for i in range(len(rep))]
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return pa.table({"gram_md5": pa.array(grams_out, pa.string()),
                         id_col: pa.array(ids[di_s[starts]], id_t),
                         "n_occ": pa.array(occ.astype(np.int64))})

    from ..shuffle import grouped_map
    parts = ds.map_batches(emit, batch_format="pyarrow")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("gram_md5").agg(
            n_docs=(id_col, "nunique"), n_occ=("n_occ", "sum"),
            min_id=(id_col, "min")).reset_index()
        agg = agg[agg["n_docs"] > 1]
        return pa.table({
            "gram_md5": pa.array(agg["gram_md5"], pa.string()),
            "n_docs": pa.array(agg["n_docs"].to_numpy(np.int64)),
            "n_occ": pa.array(agg["n_occ"].to_numpy(np.int64)),
            "min_id": pa.array(agg["min_id"].to_numpy(np.int64))})

    return grouped_map(parts, "gram_md5", per_partition,
                       num_partitions=num_partitions, group_fn=False)
