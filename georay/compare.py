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

from .config import (C_SIM_CITY, C_SIM_HOUSENBR, C_SIM_POSTCODE,
                     C_SIM_STREET, C_SIM_STREET_WHICH, SIMILARITY_THRESHOLD)
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


def _str_values(values) -> np.ndarray:
    """A column (Series or array) as an object array of ``str`` (the
    ``fillna("").astype(str)`` contract); all-``str`` columns skip the
    conversion."""
    v = np.asarray(values, dtype=object)
    if all(type(x) is str for x in v):
        return v
    v = np.where(pd.isna(v), "", v)
    return np.array([x if type(x) is str else str(x) for x in v],
                    dtype=object)


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


def keep_bests(group: np.ndarray, street_a: list[tuple[str, np.ndarray]],
               housenbr_a: np.ndarray, postcode_a: np.ndarray,
               city_a: np.ndarray, street_b: np.ndarray,
               housenbr_b: np.ndarray, postcode_b: np.ndarray,
               city_b: np.ndarray, secondary: np.ndarray,
               max_res: int = 1, threshold: float = SIMILARITY_THRESHOLD,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Validate candidate rows against the input address and keep the best
    ``max_res`` per ``group`` (the address) — array port of
    ``ignore_mismatch_keep_bests`` (check_result_utils.py:463-554).

    Every input is one array per row: ``group`` the address of each row,
    the ``*_a`` / ``*_b`` the candidate / input strings (object arrays of
    ``str``), ``street_a`` the (name, values) candidate street fields in
    priority order, ``secondary`` the last sort key.  Returns ``(keep,
    mismatch, tail, scores)``: row positions of the kept rows in (group,
    street score desc, house-number score desc, secondary) order, of the
    rows failing the elimination rule :532 in input order, and of the
    valid but not first rows in the keep order; ``scores`` holds the
    ``c_sim_*`` arrays over all rows.  Ties keep input order (stable
    sort).
    """
    n = len(group)
    sim_street = np.full(n, -1.0)
    sim_which = np.full(n, "", dtype=object)
    # street compared against a priority list of candidate fields,
    # short-circuiting per row once >= threshold (check_result_utils.py:513-519)
    for name, values in street_a:
        mask = sim_street < threshold
        if not mask.any():
            break
        sim_street[mask] = _map_pairs(values[mask], street_b[mask],
                                      street_similarity)
        sim_which[mask] = name

    sim_hn = _map_pairs(housenbr_a, housenbr_b, house_number_similarity)
    scores = {
        C_SIM_STREET: sim_street,
        C_SIM_STREET_WHICH: sim_which,
        C_SIM_HOUSENBR: sim_hn,
        C_SIM_POSTCODE: _map_pairs(postcode_a, postcode_b,
                                   postcode_similarity),
        C_SIM_CITY: _map_pairs(city_a, city_b, city_similarity),
    }

    # elimination rule (check_result_utils.py:532)
    eliminate = (((scores[C_SIM_POSTCODE] < 0.1)
                  & (scores[C_SIM_CITY] < threshold))
                 | (sim_street < threshold))

    valid = np.flatnonzero(~eliminate)
    order = valid[np.lexsort((_ascending_key(secondary[valid]),
                              -sim_hn[valid], -sim_street[valid],
                              group[valid]))]
    g = group[order]
    # rank within the group = position - the group's first position
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    at = np.arange(len(g))
    top = at - np.maximum.accumulate(np.where(first, at, 0)) < max_res
    return order[top], np.flatnonzero(eliminate), order[~top], scores
