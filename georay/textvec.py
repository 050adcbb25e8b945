"""Vectorized string-similarity kernels over (query, candidate) PAIRS
held as padded character-code matrices: the scorer of ``KnnRescuer``.

Motivation (round-3 perf item): ``KnnRescuer`` scored each
(row x candidate) pair with pure-Python scalar calls — the textbook
place for a batch kernel.  The candidate set (gazetteer street names)
is STATIC per actor, so its code matrix is built once in ``__init__``;
a batch's pairs index row subsets and score with numpy ops only.

Parity contract (property-tested in tests/test_textvec.py):

- ``jaro_winkler_pairs`` returns EXACTLY ``textkernels.jaro_winkler(q, c)``
  for every pair.
- ``lev_similarity_pairs`` returns EXACTLY ``1 - lev(q, c) / max(len)``
  for plain Levenshtein ``lev`` (no transpositions), the distance
  DuckDB's built-in ``levenshtein`` replays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["codes_matrix", "jaro_winkler_pairs", "lev_similarity_pairs"]


def codes_matrix(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(codes, lens): (k, L) uint8 code matrix padded with 0 (NUL never
    appears in real names) + per-row lengths.  Built ONCE per candidate
    set; queries index row subsets.  The kernels' callers pass
    ``normalize_street`` output ([A-Z ] only); a code point above 255
    raises ValueError (never silently truncated)."""
    k = len(strings)
    lens = np.fromiter(map(len, strings), dtype=np.int64, count=k)
    try:
        flat = np.frombuffer("".join(strings).encode("latin-1"), np.uint8)
    except UnicodeEncodeError as e:
        raise ValueError(f"codes_matrix holds code points up to 255 only: "
                         f"{e.object[e.start]!r}") from None
    codes = np.zeros((k, max(int(lens.max(initial=0)), 1)), dtype=np.uint8)
    row = np.repeat(np.arange(k), lens)
    codes[row, np.arange(len(flat)) - (np.cumsum(lens) - lens)[row]] = flat
    return codes, lens


def jaro_winkler_pairs(qcodes: np.ndarray, qlens: np.ndarray,
                       ccodes: np.ndarray, clens: np.ndarray,
                       prefix_weight: float = 0.1) -> np.ndarray:
    """Jaro-Winkler for P (query, candidate) PAIRS in one pass — exact
    parity with ``textkernels.jaro_winkler`` per pair.  All four inputs
    are per-pair: padded code matrices (P, Mq) / (P, L) + lengths.  The
    greedy-match loop runs over query character POSITIONS (max query
    length, < ~40 for street names), each iteration vectorized across
    every pair — this is what makes a whole batch's rescue scoring one
    kernel call instead of P Python calls.

    Pairs are processed sorted by descending query length so iteration
    ``i`` touches only the still-active prefix of rows (mean query
    length, not max, drives the cost)."""
    P, Mq = qcodes.shape
    L = ccodes.shape[1]
    qlens = qlens.astype(np.int64)
    clens = clens.astype(np.int64)
    out = np.zeros(P, dtype=np.float64)
    if P == 0:
        return out
    order = np.argsort(-qlens, kind="stable")
    qcodes, qlens = qcodes[order], qlens[order]
    ccodes, clens = ccodes[order], clens[order]
    win = np.maximum(np.maximum(qlens, clens) // 2 - 1, 0)
    pos = np.arange(L)[None, :]
    cvalid = pos < clens[:, None]
    used = np.zeros((P, L), dtype=bool)
    qmatch = np.zeros((P, Mq), dtype=bool)
    neg_ql = -qlens   # ascending, for searchsorted active-count lookups
    for i in range(Mq):
        # rows with qlens > i form the sorted prefix
        n_act = int(np.searchsorted(neg_ql, -i, side="right"))
        if n_act == 0:
            break
        qa_i = qcodes[:n_act, i]
        # window: |pos - i| <= win, clipped to the candidate's length
        inwin = (np.abs(pos - i) <= win[:n_act, None]) & cvalid[:n_act]
        elig = ((ccodes[:n_act] == qa_i[:, None]) & ~used[:n_act] & inwin)
        any_row = elig.any(axis=1)
        if not any_row.any():
            continue
        first = elig.argmax(axis=1)
        rows = np.flatnonzero(any_row)
        used[rows, first[rows]] = True
        qmatch[rows, i] = True

    mc = used.sum(axis=1)
    has = mc > 0
    jaro = np.zeros(P, dtype=np.float64)
    if has.any():
        # compact matched chars to the front via cumsum slots + one
        # scatter per side (a stable 2D argsort here cost more than the
        # whole match loop)
        # slot-within-row from the (sorted) nonzero row ids alone — a 2D
        # cumsum per side cost more than the whole match loop
        maxmc = int(mc.max())

        def _compact(flags: np.ndarray, codes: np.ndarray) -> np.ndarray:
            seq = np.zeros((P, maxmc), dtype=np.uint32)
            rr, cc = np.nonzero(flags)
            counts = np.bincount(rr, minlength=P)
            offs = np.repeat(np.r_[0, np.cumsum(counts[:-1])], counts)
            seq[rr, np.arange(len(rr)) - offs] = codes[rr, cc]
            return seq

        qseq = _compact(qmatch, qcodes)
        cseq = _compact(used, ccodes)
        slot = np.arange(maxmc)[None, :] < mc[:, None]
        half_t = ((qseq != cseq) & slot).sum(axis=1) // 2
        mcf = mc.astype(np.float64)
        jaro = np.where(
            has,
            (mcf / np.maximum(qlens, 1) + mcf / np.maximum(clens, 1)
             + (mcf - half_t) / np.maximum(mcf, 1)) / 3.0,
            0.0)

    pl = min(4, Mq, L)
    if pl > 0:
        eq = (ccodes[:, :pl] == qcodes[:, :pl])
        eq &= (pos[:, :pl] < clens[:, None]) & (pos[:, :pl] < qlens[:, None])
        prefix = eq.cumprod(axis=1).sum(axis=1)
    else:
        prefix = np.zeros(P, dtype=np.int64)
    out = jaro + prefix * prefix_weight * (1.0 - jaro)
    # scalar-kernel edge cases: s1 == s2 -> 1.0 (incl. both empty);
    # exactly one empty -> 0.0
    both_empty = (qlens == 0) & (clens == 0)
    out[both_empty] = 1.0
    out[(qlens == 0) ^ (clens == 0)] = 0.0
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


def lev_similarity_pairs(qcodes: np.ndarray, qlens: np.ndarray,
                         ccodes: np.ndarray, clens: np.ndarray
                         ) -> np.ndarray:
    """1 - Levenshtein/max(len) for P pairs, with
    ``levenshtein_similarity``'s edge rule (both empty -> 0.0): the
    kNN-rescue token-sort leg.  Plain Levenshtein (no transpositions) so
    the DuckDB oracle reproduces every distance exactly with its
    built-in ``levenshtein`` — the final ``1 - d/max`` division is one
    IEEE op on identical integers on both sides.

    Vectorized over pairs AND positions: the loop runs over query
    characters only, and the insertion recurrence (left-neighbour
    dependency) collapses to a prefix-min via
    ``minimum.accumulate(t - j) + j``.  Pairs are sorted by descending
    query length so iteration ``i`` computes only the still-active
    prefix of rows (their finished rows stay frozen in the full
    buffer), and the DP runs in int16 — distances are bounded by the
    padded string widths, and the per-iteration memory traffic is what
    this kernel's cost is made of."""
    P, Mq = qcodes.shape
    L = ccodes.shape[1]
    qlens = qlens.astype(np.int64)
    clens = clens.astype(np.int64)
    if P == 0:
        return np.zeros(0, dtype=np.float64)
    if L == 0 or Mq == 0:
        d = np.where(qlens == 0, clens, qlens).astype(np.float64)
        sim = 1.0 - d / np.maximum(np.maximum(qlens, clens), 1)
        sim[(qlens == 0) & (clens == 0)] = 0.0
        return sim

    order = np.argsort(-qlens, kind="stable")
    qcodes, qlens_s = qcodes[order], qlens[order]
    ccodes_s, clens_s = ccodes[order], clens[order]
    j_idx = np.arange(L + 1, dtype=np.int16)[None, :]
    prev = np.broadcast_to(j_idx, (P, L + 1)).astype(np.int16).copy()
    maxm = int(qlens_s.max())
    neg_ql = -qlens_s
    for i in range(1, maxm + 1):
        n = int(np.searchsorted(neg_ql, -i, side="right"))  # qlens >= i
        if n == 0:
            break
        qa_i = qcodes[:n, i - 1][:, None]
        cost = (ccodes_s[:n] != qa_i).astype(np.int16)
        t = np.empty((n, L + 1), dtype=np.int16)
        t[:, 0] = i
        t[:, 1:] = np.minimum(prev[:n, :-1] + cost, prev[:n, 1:] + 1)
        prev[:n] = np.minimum.accumulate(t - j_idx, axis=1) + j_idx
    d = prev[np.arange(P), np.minimum(clens_s, L)].astype(np.float64)
    denom = np.maximum(np.maximum(qlens_s, clens_s), 1).astype(np.float64)
    sim = 1.0 - d / denom
    sim[(qlens_s == 0) & (clens_s == 0)] = 0.0
    unsorted = np.empty_like(sim)
    unsorted[order] = sim
    return unsorted
