"""Parity tests: the vectorized pair kernels must return EXACTLY what
their scalar reference implementations return (textvec.py docstring
contract), plus KnnRescuer behavior checks on the batched scorer."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.textkernels import jaro_winkler
from georay.textvec import (codes_matrix, jaro_winkler_pairs,
                            lev_similarity_pairs)

ALPHA = st.text(alphabet="abcdef -", max_size=14)


def _levenshtein(a: str, b: str) -> int:
    """Scalar plain Levenshtein (no transpositions): the reference the
    pair kernel is checked against."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (ca != cb), prev[j] + 1,
                           cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def _lev_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 0.0   # levenshtein_similarity edge rule
    return 1.0 - _levenshtein(a, b) / max(len(a), len(b))


def _pairs(pairs):
    qc, ql = codes_matrix([p[0] for p in pairs])
    cc, cl = codes_matrix([p[1] for p in pairs])
    return qc, ql, cc, cl


@given(st.lists(st.tuples(ALPHA, ALPHA), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_pair_kernels_match_scalars(pairs):
    jw = jaro_winkler_pairs(*_pairs(pairs))
    lev = lev_similarity_pairs(*_pairs(pairs))
    for i, (q, c) in enumerate(pairs):
        assert jw[i] == jaro_winkler(q, c)
        assert lev[i] == _lev_similarity(q, c)


def test_lev_known_values():
    cases = {("ab", "ba"): 2,           # no transpositions: two edits
             ("ca", "abc"): 3,
             ("kitten", "sitting"): 3,
             ("", "abc"): 3,
             ("abc", ""): 3,
             ("flaw", "lawn"): 2}
    pairs = list(cases)
    got = lev_similarity_pairs(*_pairs(pairs))
    for (q, c), d, sim in zip(pairs, cases.values(), got):
        assert _levenshtein(q, c) == d
        assert sim == 1.0 - d / max(len(q), len(c))
    assert lev_similarity_pairs(*_pairs([("", "")]))[0] == 0.0


def test_codes_matrix_uint8_rejects_non_ascii():
    codes, lens = codes_matrix(["RUE", "", "ÉTÉ"])   # Latin-1 fits
    assert codes.dtype == np.uint8 and lens.tolist() == [3, 0, 3]
    assert codes[2].tolist() == [0xC9, ord("T"), 0xC9]
    with pytest.raises(ValueError):
        codes_matrix(["łódź"])   # ł = U+0142 > 255


def _rescue_batch(streets, pcs):
    n = len(streets)
    return pa.table({
        "status": pa.array(["unmatched"] * n),
        "street_name": pa.array(streets),
        "post_code": pa.array(pcs),
        "city_name": pa.array([""] * n)})


def test_knn_rescuer_batched_scoring():
    from georay.gazetteer import GazetteerSpec
    from georay.knn import KnnRescuer
    r = KnnRescuer(GazetteerSpec(), k=3)
    names = r.street_names
    rng = np.random.default_rng(5)
    picks = rng.integers(0, len(names), 50)
    streets = []
    for p in picks:
        s = str(names[p])
        i = max(1, len(s) // 2)
        streets.append(s[:i] + s[i + 1:])     # one deleted char
    # absent postcode prefix -> global candidate fallback (the bucket
    # path would legitimately exclude streets from other postcodes)
    pcs = ["0000"] * len(streets)
    assert "00" not in r.pc_prefix
    out = r(_rescue_batch(streets, pcs))
    ids = out["knn_place_ids"].to_pylist()
    scores = out["knn_scores"].to_pylist()
    sugg = out["knn_streets"].to_pylist()
    assert all(len(x) <= 3 for x in ids)
    assert all(list(s) == sorted(s, reverse=True) for s in scores)
    # a one-char deletion should usually resolve to the original street
    hits = sum(1 for i, p in enumerate(picks)
               if sugg[i] and sugg[i][0] == str(names[p]))
    assert hits >= 40
    # deterministic: same batch twice -> same suggestions (memo path)
    out2 = r(_rescue_batch(streets, pcs))
    assert out2["knn_place_ids"].to_pylist() == ids
    # matched/empty-street rows get empty suggestion lists
    t = pa.table({"status": pa.array(["match", "unmatched"]),
                  "street_name": pa.array(["Rue de la Gare", ""]),
                  "post_code": pa.array(["1000", "1000"]),
                  "city_name": pa.array(["", ""])})
    o = r(t)
    assert o["knn_place_ids"].to_pylist() == [[], []]


KNN_COLS = ("knn_place_ids", "knn_streets", "knn_scores")
KNN_TYPES = (pa.list_(pa.int64()), pa.list_(pa.string()),
             pa.list_(pa.float64()))
FONSNY = ([100001, 100051, 100101], ["Avenue Fonsny"] * 3, [0.9538] * 3)
LOUISE = ([100000, 100050, 100100], ["Rue de Louise"] * 3, [0.9538] * 3)
HAUTE = ([100005, 100105, 100205], ["Hautelaan"] * 3, [0.9333] * 3)
NONE = ([], [], [])


def _mixed_batch():
    """matched, not_address and empty-street rows among unmatched ones;
    one unmatched key ("Avenue Fonsy", "10") on three rows; a null
    postcode falls back to the global candidate set."""
    return pa.table({
        "status": pa.array(["match", "not_address", "unmatched",
                            "unmatched", "match", "unmatched", "unmatched",
                            "unmatched", "unmatched"]),
        "street_name": pa.array(["Avenue Fonsny", "", "", "Avenue Fonsy",
                                 "Rue de Louise", "Avenue Fonsy",
                                 "Rue de Luise", "Avenue Fonsy",
                                 "Hautelan"]),
        "post_code": pa.array(["1000", "", "1000", "1000", "1000", "1000",
                               "0000", "1000", None], pa.string()),
        "city_name": pa.array([""] * 9)})


MIXED_WANT = [NONE, NONE, NONE, FONSNY, NONE, FONSNY, LOUISE, FONSNY, HAUTE]


def _knn_rows(out):
    for c, t in zip(KNN_COLS, KNN_TYPES):
        assert out.schema.field(c).type == t
        assert out[c].null_count == 0
    return list(zip(*(out[c].to_pylist() for c in KNN_COLS)))


def test_knn_rescuer_list_columns():
    from georay.gazetteer import GazetteerSpec
    from georay.knn import KnnRescuer
    r = KnnRescuer(GazetteerSpec(), k=3)
    want = [tuple(x) for x in MIXED_WANT]
    assert _knn_rows(r(_mixed_batch())) == want
    assert _knn_rows(r(_mixed_batch())) == want      # memo hits
    # no unmatched rows at all
    t = _mixed_batch().slice(0, 2)
    out = r(t)
    assert out.column_names == t.column_names + list(KNN_COLS)
    assert _knn_rows(out) == [NONE, NONE]
    assert _knn_rows(r(t.slice(0, 0))) == []


def test_knn_rescuer_memo_full_scores_once_per_batch():
    """Past the memo's cap, a batch's fresh keys are still scored in one
    call, and a key on three rows is not scored again per row."""
    from georay.gazetteer import GazetteerSpec
    from georay.knn import KnnRescuer
    r = KnnRescuer(GazetteerSpec(), k=3)
    r.memo.data.update({("filler", str(i)): NONE for i in range(1 << 16)})
    calls = []
    score = r._score_batch
    r._score_batch = lambda uniq: calls.append(list(uniq)) or score(uniq)
    for _ in range(2):
        calls.clear()
        assert _knn_rows(r(_mixed_batch())) == [tuple(x) for x in MIXED_WANT]
        assert len(calls) == 1 and len(calls[0]) == 3
    assert len(r.memo) == 1 << 16
    assert r.memo.refused == 6


def test_knn_rescuer_prefilter_cut_at_vote_ties():
    """prefilter=5 cuts every bucket below: the 5th place falls inside a
    run of names with equal trigram votes (decided by name index), and a
    query sharing no trigram takes its bucket's first 5 names."""
    from georay.gazetteer import GazetteerSpec
    from georay.knn import KnnRescuer
    r = KnnRescuer(GazetteerSpec(), k=3, prefilter=5)
    t = pa.table({
        "status": pa.array(["unmatched"] * 6),
        "street_name": pa.array(["Kerkstrat", "Rue de la Gare", "Hautelan",
                                 "Rue de Luise", "Rue", "Qqq"]),
        "post_code": pa.array(["1000", "1000", None, "0000", "1000", "1000"],
                              pa.string()),
        "city_name": pa.array([""] * 6)})
    want = [
        ([100043, 100143, 100012], ["Genkstraat", "Genkstraat", "Garestraat"],
         [0.7153, 0.7153, 0.6892]),
        ([100020, 100070, 100000],
         ["Rue de Flandre", "Rue de Flandre", "Rue de Louise"],
         [0.7071, 0.7071, 0.6835]),
        HAUTE,
        LOUISE,
        ([100030, 100000, 100040],
         ["Rue de Uccle", "Rue de Louise", "Rue de Leuven"],
         [0.5375, 0.5256, 0.5256]),
        ([100000, 100001, 100002],
         ["Rue de Louise", "Avenue Fonsny", "Royalesteenweg"],
         [0.0, 0.0, 0.0])]
    assert _knn_rows(r(t)) == [tuple(x) for x in want]
