"""Pure string kernels: accent folding, Damerau-Levenshtein, inclusion test,
fingerprint, Jaro-Winkler, street-name normalization.

Semantics pinned to the reference (/root/reference/check_result_utils.py):
``remove_accents`` :31-50, ``levenshtein_similarity`` :147-168 (jellyfish's
unrestricted Damerau-Levenshtein, re-implemented from the published
algorithm), ``inclusion_test`` :180-205, ``fingerprint`` :212-240.
Jaro-Winkler is net-new (fuzzy gazetteer verification, kNN rescue scoring),
from the published formula.  All are plain functions — used inside
``map_batches`` batch fns, never per-row over a Dataset.
"""

from __future__ import annotations

import re
import unicodedata
from functools import lru_cache

__all__ = [
    "remove_accents", "damerau_levenshtein", "levenshtein_similarity",
    "inclusion_test", "fingerprint", "jaro_winkler",
    "normalize_street",
]


def remove_accents(s: str | None) -> str | None:
    """NFKD-normalize and strip combining marks (check_result_utils.py:31-50)."""
    if s is None:
        return None
    nfkd = unicodedata.normalize("NFKD", s)
    return "".join(c for c in nfkd if not unicodedata.combining(c))


def damerau_levenshtein(a: str, b: str) -> int:
    """Unrestricted Damerau-Levenshtein edit distance (adjacent transposition
    counted once, allowing edits between transposed chars), the textbook
    algorithm with a last-occurrence table — matches jellyfish's
    ``damerau_levenshtein_distance`` used at check_result_utils.py:168.
    """
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la

    maxdist = la + lb
    da: dict[str, int] = {}
    # (la+2) x (lb+2) score matrix with sentinel row/col
    d = [[0] * (lb + 2) for _ in range(la + 2)]
    d[0][0] = maxdist
    for i in range(la + 1):
        d[i + 1][0] = maxdist
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[0][j + 1] = maxdist
        d[1][j + 1] = j

    for i in range(1, la + 1):
        db = 0
        ai = a[i - 1]
        for j in range(1, lb + 1):
            bj = b[j - 1]
            k = da.get(bj, 0)
            l = db
            if ai == bj:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,              # substitution
                d[i + 1][j] + 1,             # insertion
                d[i][j + 1] + 1,             # deletion
                d[k][l] + (i - k - 1) + 1 + (j - l - 1),  # transposition
            )
        da[ai] = i
    return d[la + 1][lb + 1]


@lru_cache(maxsize=1 << 17)
def levenshtein_similarity(str1: str, str2: str) -> float:
    """1 - DL(a,b)/max(len); 0.0 when both empty
    (check_result_utils.py:147-168)."""
    if len(str1) == 0 and len(str2) == 0:
        return 0.0
    if str1 == str2:
        return 1.0
    return 1.0 - damerau_levenshtein(str1, str2) / max(len(str1), len(str2))


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def inclusion_test(s1: str, s2: str) -> int:
    """1 iff common prefix and common suffix are both non-empty and together
    cover the shorter string — "Avenue C Berten" ⊂ "Avenue Clovis Berten"
    (check_result_utils.py:180-205)."""
    l_pref = _common_prefix_len(s1, s2)
    l_suf = _common_prefix_len(s1[::-1], s2[::-1])
    return 1 if l_pref > 0 and l_suf > 0 and l_pref + l_suf >= min(len(s1), len(s2)) else 0


_NON_UPPER_RE = re.compile(r"[^A-Z]")
_WS_RE = re.compile(r"[ ]+")


def fingerprint(s: str) -> str:
    """Keep A-Z runs, split, sort unique tokens, rejoin:
    "RUE DU BAS DU VILLAGE" -> "BAS DU RUE VILLAGE"
    (check_result_utils.py:212-240; input assumed uppercased+deaccented)."""
    cleaned = _NON_UPPER_RE.sub(" ", s).strip()
    toks = sorted(set(_WS_RE.split(cleaned))) if cleaned else sorted({""})
    # splitting "" yields [""] in the reference too (set of [""] -> "")
    if cleaned == "":
        return ""
    return " ".join(toks)


_NON_ALPHA_SP_RE = re.compile(r"[^A-Z ]+")


@lru_cache(maxsize=1 << 17)
def normalize_street(s: str | None) -> str:
    """Uppercase, deaccent, collapse non-letters to spaces, squeeze spaces —
    the cleanup applied to each street split-cell at
    check_result_utils.py:370-371."""
    if s is None:
        return ""
    up = remove_accents(s.upper()) or ""
    up = _NON_ALPHA_SP_RE.sub(" ", up)
    return _WS_RE.sub(" ", up).strip()


@lru_cache(maxsize=1 << 17)
def jaro_winkler(s1: str, s2: str, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity (published formula; net-new for the kNN
    gazetteer join — SURVEY.md §2.4).  Memoized: candidate-set scoring
    re-compares the same (query, name) pairs across batches."""
    if s1 == s2:
        return 1.0
    l1, l2 = len(s1), len(s2)
    if l1 == 0 or l2 == 0:
        return 0.0
    match_window = max(l1, l2) // 2 - 1
    if match_window < 0:
        match_window = 0
    flags1 = [False] * l1
    flags2 = [False] * l2
    matches = 0
    for i, c in enumerate(s1):
        lo = max(0, i - match_window)
        hi = min(l2, i + match_window + 1)
        for j in range(lo, hi):
            if not flags2[j] and s2[j] == c:
                flags1[i] = True
                flags2[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(l1):
        if flags1[i]:
            while not flags2[j]:
                j += 1
            if s1[i] != s2[j]:
                transpositions += 1
            j += 1
    transpositions //= 2
    jaro = (matches / l1 + matches / l2 + (matches - transpositions) / matches) / 3.0
    prefix = 0
    for i in range(min(4, l1, l2)):
        if s1[i] == s2[i]:
            prefix += 1
        else:
            break
    return jaro + prefix * prefix_weight * (1.0 - jaro)

