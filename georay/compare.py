"""The comparator kernel: street / city / house-number / postcode similarity
and the keep-best / reject selection logic.

Semantics are reproduced function-for-function from the reference
(/root/reference/check_result_utils.py):

- ``house_number_compare``  :56-97   (1 / 0.8 range / 0.5 digits-only / 0)
- ``postcode_compare``      :103-141 (1 / 0.1 missing / 0.5 2-char / 0.3 1-char / 0)
- ``street_similarity``     :258-416 (bilingual split, 12-way max of
  levenshtein, inclusion, fingerprint-levenshtein; ``dontwatchthis``
  sentinel pairs contribute 0, so only actual split parts are paired)
- ``city_compare``          :428-459
- ``keep_bests``            :463-554 (``ignore_mismatch_keep_bests``:
  street-field priority with short-circuit, elimination rule :532,
  top-1 per address, mismatch/tail reject labels)

All scalar comparators are memoized — inside a batch the same
(input street × candidate street) pair recurs across cascade steps, so the
cache is the main speedup over the reference's row-wise ``apply``.
These functions run inside ``map_batches`` batch fns only.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np
import pandas as pd

from .config import (ADDR_KEY, C_SIM_CITY, C_SIM_HOUSENBR, C_SIM_POSTCODE,
                     C_SIM_STREET, C_SIM_STREET_WHICH, M_REJECT_REASON,
                     SIMILARITY_THRESHOLD)
from .textkernels import (fingerprint, inclusion_test, levenshtein_similarity,
                          normalize_street, remove_accents)

# street-word regexes stripped before levenshtein / fingerprint scoring
# (check_result_utils.py:250-254); NOT stripped for the inclusion test
# (:396-400).
_STREET_REMOVES = [
    re.compile(r"\([A-Z.]+\)"),
    re.compile(r"\b(AVENUE|RUE|CHAUSSEE|BOULEVARD|PLACE)\b"),
    re.compile(r"(STRAAT|LAAN|STEENWEG|WEG)\b"),
]
_WS_RE = re.compile(r" [ ]+")
_NON_DIGIT_SPLIT = re.compile(r"[^0-9]")
_NON_DIGIT = re.compile(r"[^0-9]")
_PC_PREFIX = re.compile(r"^[A-Z]-?")
_COMMA = re.compile(r",")


@lru_cache(maxsize=1 << 16)
def _strip_street_words(s: str) -> str:
    for rx in _STREET_REMOVES:
        s = rx.sub("", s)
    return _WS_RE.sub(" ", s.strip())


@lru_cache(maxsize=1 << 16)
def _street_parts(raw: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a raw street on "," / " - " (bilingual 'Avenue Louise -
    Louizalaan'), then clean each part (upper, deaccent, alpha-only,
    squeeze) and fingerprint it (check_result_utils.py:361-379)."""
    parts = _COMMA.sub(" - ", raw or "").split(" - ")
    clean = tuple(normalize_street(p) for p in parts)
    fps = tuple(fingerprint(c) for c in clean)
    return clean, fps


def _lev_or_one(a: str, b: str) -> float:
    # _street_compare: both empty -> 1, else compare (check_result_utils.py:306)
    if a == "" and b == "":
        return 1.0
    return levenshtein_similarity(a, b)


def _inc_or_one(a: str, b: str) -> float:
    if a == "" and b == "":
        return 1.0
    return float(inclusion_test(a, b))


@lru_cache(maxsize=1 << 16)
def street_similarity(street_a: str, street_b: str) -> float:
    """Max over all (part_a × part_b) pairs of {levenshtein sim with
    street-words stripped, inclusion test (unstripped), levenshtein sim of
    stripped fingerprints} — the reference's 12-way max
    (check_result_utils.py:317-416).  Early-exits at 1.0.

    Fast path: identical inputs always score 1.0 (any part paired with
    itself has levenshtein similarity 1, or both-empty -> 1), skipping
    the full pair matrix — the dominant case for exact candidates."""
    if street_a == street_b:
        return 1.0
    parts_a, fps_a = _street_parts(street_a)
    parts_b, fps_b = _street_parts(street_b)
    best = 0.0
    for ai, pa in enumerate(parts_a):
        sa = _strip_street_words(pa)
        fa = _strip_street_words(fps_a[ai])
        for bi, pb in enumerate(parts_b):
            s = _lev_or_one(sa, _strip_street_words(pb))
            if s > best:
                best = s
            if best >= 1.0:
                return 1.0
            s = _inc_or_one(pa, pb)
            if s > best:
                best = s
            s = _lev_or_one(fa, _strip_street_words(fps_b[bi]))
            if s > best:
                best = s
            if best >= 1.0:
                return 1.0
    return best


@lru_cache(maxsize=1 << 16)
def _city_norm(s: str) -> str:
    up = remove_accents((s or "").upper()) or ""
    return _WS_RE.sub(" ", up.strip())


@lru_cache(maxsize=1 << 16)
def city_similarity(city_a: str, city_b: str) -> float:
    """Upper, deaccent, squeeze, levenshtein (check_result_utils.py:428-459)."""
    return levenshtein_similarity(_city_norm(city_a), _city_norm(city_b))


@lru_cache(maxsize=1 << 16)
def house_number_similarity(n1: str, n2: str) -> float:
    """1 exact / 0.8 range overlap ('10' vs '10-12') / 0.5 digits-equal /
    0 — rule order as check_result_utils.py:56-97."""
    n1 = (n1 or "").strip()
    n2 = (n2 or "").strip()
    if n1 == n2 and len(n1) > 0:
        return 1.0
    p1 = _NON_DIGIT_SPLIT.split(n1)
    p2 = _NON_DIGIT_SPLIT.split(n2)
    if len(p2) > 1 and p1[0] == p2[1] and len(p2[1]) > 0:
        return 0.8
    if len(p1) > 1 and p1[1] == p2[0] and len(p1[1]) > 0:
        return 0.8
    if (_NON_DIGIT.sub("", n1) == _NON_DIGIT.sub("", n2)
            and len(n1) > 0 and len(n2) > 0):
        return 0.5
    return 0.0


@lru_cache(maxsize=1 << 16)
def postcode_similarity(s1: str, s2: str) -> float:
    """1 / 0.1 one-empty / 0.5 2-char prefix / 0.3 1-char prefix / 0,
    after stripping a '^[A-Z]-?' country prefix
    (check_result_utils.py:103-141)."""
    s1 = _PC_PREFIX.sub("", s1 or "")
    s2 = _PC_PREFIX.sub("", s2 or "")
    if s1 == s2:
        return 1.0
    if len(s1) == 0 or len(s2) == 0:
        return 0.1
    if s1[:2] == s2[:2]:
        return 0.5
    if s1[:1] == s2[:1]:
        return 0.3
    return 0.0


def _str_values(s: pd.Series) -> np.ndarray:
    """One column as an object array of ``str`` (the ``fillna("")
    .astype(str)`` contract); all-``str`` columns skip the conversion."""
    v = s.to_numpy(dtype=object)
    if all(type(x) is str for x in v):
        return v
    return s.fillna("").astype(str).to_numpy(dtype=object)


def _map_pairs(av: np.ndarray, bv: np.ndarray, fn) -> np.ndarray:
    n = len(av)
    if n > 64:
        # candidate explosion repeats the same (candidate, input) string
        # pair many times per batch: compute fn once per DISTINCT pair
        # (C-level factorize hashing) instead of a Python call — even a
        # cached call pays tuple-hash + dict probe per row
        ca, ua = pd.factorize(av)
        cb, ub = pd.factorize(bv)
        width = len(ub)
        pair = ca.astype(np.int64) * width + cb
        pc_, pu = pd.factorize(pair)
        vals = np.fromiter(
            (fn(ua[p // width], ub[p % width]) for p in pu),
            dtype=np.float64, count=len(pu))
        return vals[pc_]
    return np.fromiter((fn(x, y) for x, y in zip(av, bv)),
                       dtype=np.float64, count=n)


def _ascending_key(v: np.ndarray) -> np.ndarray:
    """Sort key ordering like pandas' ``sort_values`` (NA last): numeric
    values as they are, anything else by its rank among the sorted
    distinct values."""
    if v.dtype.kind in "biuf":
        return v
    codes, uniq = pd.factorize(v, sort=True)
    return np.where(codes < 0, len(uniq), codes)


def _with_columns(df: pd.DataFrame, cols: dict[str, np.ndarray]
                  ) -> pd.DataFrame:
    """``df`` plus ``cols`` in one column-wise concat (no per-column
    inserts); a column ``df`` already has is replaced where it stands."""
    new = pd.DataFrame(cols, index=df.index)
    old = [c for c in cols if c in df.columns]
    if not old:
        return pd.concat([df, new], axis=1)
    order = list(df.columns) + [c for c in cols if c not in df.columns]
    return pd.concat([df.drop(columns=old), new], axis=1)[order]


def keep_bests(df: pd.DataFrame,
               street_cols_a: list[str],
               housenbr_col_a: str, postcode_col_a: str, city_col_a: str,
               street_col_b: str, housenbr_col_b: str,
               postcode_col_b: str, city_col_b: str,
               secondary_sort_col: str,
               max_res: int = 1,
               threshold: float = SIMILARITY_THRESHOLD,
               ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Validate candidate rows against the input address and keep the best
    ``max_res`` per address — flat-column port of
    ``ignore_mismatch_keep_bests`` (check_result_utils.py:463-554).

    Returns ``(keep, reject)``; rejects carry ``m_reject_reason`` of
    ``"mismatch"`` (failed the elimination rule :532) or ``"tail"``
    (valid but not first).  Adds the ``c_sim_*`` score columns to both.
    ``keep`` is in (addr_key, street score desc, house-number score
    desc, ``secondary_sort_col``) order; ``reject`` holds the mismatches
    in input order, then the tail in that sort order.  Scores, the
    elimination mask, the sort and the per-address rank are numpy
    arrays over row positions; the scores join ``df`` in one concat and
    each output is ONE ``take`` of it (index labels are carried, never
    looked up).
    """
    if df.shape[0] == 0:
        return df, df

    street_b = _str_values(df[street_col_b])
    sim_street = np.full(len(df), -1.0)
    sim_which = np.full(len(df), "", dtype=object)
    # street compared against a priority list of candidate fields,
    # short-circuiting per row once >= threshold (check_result_utils.py:513-519)
    for col in street_cols_a:
        mask = sim_street < threshold
        if not mask.any():
            break
        if col not in df.columns:
            continue
        sim_street[mask] = _map_pairs(_str_values(df[col])[mask],
                                      street_b[mask], street_similarity)
        sim_which[mask] = col

    scores = {
        C_SIM_STREET: sim_street,
        C_SIM_STREET_WHICH: sim_which,
        C_SIM_HOUSENBR: _map_pairs(_str_values(df[housenbr_col_a]),
                                   _str_values(df[housenbr_col_b]),
                                   house_number_similarity),
        C_SIM_POSTCODE: _map_pairs(_str_values(df[postcode_col_a]),
                                   _str_values(df[postcode_col_b]),
                                   postcode_similarity),
        C_SIM_CITY: _map_pairs(_str_values(df[city_col_a]),
                               _str_values(df[city_col_b]),
                               city_similarity),
    }

    # elimination rule (check_result_utils.py:532)
    eliminate = (((scores[C_SIM_POSTCODE] < 0.1)
                  & (scores[C_SIM_CITY] < threshold))
                 | (sim_street < threshold))

    valid = np.flatnonzero(~eliminate)
    # addr_key as factorize(sort=True) codes: the order of sorting the
    # strings themselves at integer-compare cost; np.lexsort is stable,
    # so ties keep input order exactly as a mergesort would
    akc, _ = pd.factorize(df[ADDR_KEY].to_numpy()[valid], sort=True)
    perm = np.lexsort((
        _ascending_key(df[secondary_sort_col].to_numpy()[valid]),
        -scores[C_SIM_HOUSENBR][valid], -sim_street[valid], akc))
    order = valid[perm]
    akc = akc[perm]
    # rank within the address = position - the address's first position
    first = np.ones(len(akc), dtype=bool)
    first[1:] = akc[1:] != akc[:-1]
    at = np.arange(len(akc))
    top = at - np.maximum.accumulate(np.where(first, at, 0)) < max_res

    scored = _with_columns(df, scores)
    mismatch = np.flatnonzero(eliminate)
    tail = order[~top]
    reject = scored.take(np.concatenate([mismatch, tail]))
    reject[M_REJECT_REASON] = np.repeat(
        np.array(["mismatch", "tail"], dtype=object),
        [len(mismatch), len(tail)])
    return scored.take(order[top]), reject
