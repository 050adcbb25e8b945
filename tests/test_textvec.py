"""Parity tests: the vectorized string kernels must return EXACTLY what
their scalar reference implementations return (textvec.py docstring
contract), plus KnnRescuer behavior checks on the batched scorer."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.textkernels import jaro_winkler
from georay.textvec import (codes_matrix, jaro_winkler_pairs,
                            jaro_winkler_vec, osa_distance,
                            osa_similarity_pairs, osa_similarity_vec)

ALPHA = st.text(alphabet="abcdef -", max_size=14)


@given(st.lists(ALPHA, min_size=1, max_size=20), ALPHA)
@settings(max_examples=200, deadline=None)
def test_jw_vec_matches_scalar(cands, q):
    codes, lens = codes_matrix(cands)
    vec = jaro_winkler_vec(q, codes, lens)
    for i, c in enumerate(cands):
        assert vec[i] == pytest.approx(jaro_winkler(q, c), abs=1e-12)


@given(st.lists(ALPHA, min_size=1, max_size=20), ALPHA)
@settings(max_examples=200, deadline=None)
def test_osa_vec_matches_scalar(cands, q):
    codes, lens = codes_matrix(cands)
    vec = osa_similarity_vec(q, codes, lens)
    for i, c in enumerate(cands):
        if not q and not c:
            ref = 1.0
        else:
            ref = 1.0 - osa_distance(q, c) / max(len(q), len(c))
        assert vec[i] == pytest.approx(ref, abs=1e-12)


@given(st.lists(st.tuples(ALPHA, ALPHA), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_pair_kernels_match_scalars(pairs):
    qs = [p[0] for p in pairs]
    cs = [p[1] for p in pairs]
    qc, ql = codes_matrix(qs)
    cc, cl = codes_matrix(cs)
    jw = jaro_winkler_pairs(qc, ql, cc, cl)
    osa = osa_similarity_pairs(qc, ql, cc, cl)
    for i, (q, c) in enumerate(pairs):
        assert jw[i] == pytest.approx(jaro_winkler(q, c), abs=1e-12)
        if not q and not c:
            ref = 0.0   # levenshtein_similarity edge rule
        else:
            ref = 1.0 - osa_distance(q, c) / max(len(q), len(c))
        assert osa[i] == pytest.approx(ref, abs=1e-12)


def test_osa_known_values():
    # classic OSA cases incl. adjacent transposition
    assert osa_distance("ca", "abc") == 3   # OSA (unrestricted DL gives 2)
    assert osa_distance("ab", "ba") == 1
    assert osa_distance("kitten", "sitting") == 3
    assert osa_distance("", "abc") == 3


def test_codes_matrix_uint8_rejects_non_ascii():
    with pytest.raises(ValueError):
        codes_matrix(["łódź"], dtype=np.uint8)   # ł = U+0142 > 255


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


def test_knn_rescuer_memo_full_scores_solo():
    from georay.gazetteer import GazetteerSpec
    from georay.knn import KnnRescuer
    r = KnnRescuer(GazetteerSpec(), k=3)
    r._memo.update({("filler", str(i)): NONE for i in range(1 << 16)})
    assert _knn_rows(r(_mixed_batch())) == [tuple(x) for x in MIXED_WANT]
    assert len(r._memo) == 1 << 16
