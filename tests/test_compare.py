"""Comparator semantics pinned to the reference truth tables
(check_result_utils.py; FIXTURES.md §5)."""

import numpy as np
import pandas as pd
import pytest

from georay import compare
from georay.compare import (SIMILARITY_THRESHOLD, _str_values,
                            city_similarity, house_number_similarity,
                            postcode_similarity, street_similarity)
from georay.config import (ADDR_KEY, C_SIM_STREET, C_SIM_STREET_WHICH,
                           M_REJECT_REASON)


def keep_bests_frame(df, street_cols_a, housenbr_col_a, postcode_col_a,
                     city_col_a, street_col_b, housenbr_col_b,
                     postcode_col_b, city_col_b, secondary_sort_col,
                     max_res=1, threshold=SIMILARITY_THRESHOLD):
    """``compare.keep_bests`` over a candidate frame, grouped by
    addr_key → (keep, reject) frames: the score columns join ``df``
    (a column already there is replaced where it stands), each output
    is one ``take`` of it, rejects carry ``m_reject_reason``."""
    if df.shape[0] == 0:
        return df, df
    col = lambda c: _str_values(df[c])
    group, _ = pd.factorize(df[ADDR_KEY].to_numpy(), sort=True)
    keep, mismatch, tail, scores = compare.keep_bests(
        group, [(c, col(c)) for c in street_cols_a if c in df.columns],
        col(housenbr_col_a), col(postcode_col_a), col(city_col_a),
        col(street_col_b), col(housenbr_col_b), col(postcode_col_b),
        col(city_col_b), df[secondary_sort_col].to_numpy(),
        max_res=max_res, threshold=threshold)
    scored = df.copy()
    for name, values in scores.items():
        scored[name] = values
    reject = scored.take(np.concatenate([mismatch, tail]))
    reject[M_REJECT_REASON] = np.repeat(
        np.array(["mismatch", "tail"], dtype=object),
        [len(mismatch), len(tail)])
    return scored.take(keep), reject


def test_house_number_compare_cases():
    # check_result_utils.py:56-97
    assert house_number_similarity("10", "10") == 1.0
    assert house_number_similarity("", "") == 0.0            # empty-equal -> 0
    # range rule matches chunk1-of-one vs chunk2-of-other (code at :90-93;
    # the reference docstring example "10 vs 10-12" contradicts its own code)
    assert house_number_similarity("10-12", "12") == 0.8
    assert house_number_similarity("12", "10-12") == 0.8
    assert house_number_similarity("10", "10-12") == 0.0
    assert house_number_similarity("10a", "10 B") == 0.5     # digits-only equal
    assert house_number_similarity("10A", "10") == 0.5
    assert house_number_similarity("10", "11") == 0.0
    assert house_number_similarity("10", "") == 0.0
    # "30 bt 2" splits to [30,'','',2] -> digits 302 vs 30 -> 0
    assert house_number_similarity("30 bt 2", "30") == 0.0


def test_postcode_compare_cases():
    # check_result_utils.py:103-141
    assert postcode_similarity("1060", "1060") == 1.0
    assert postcode_similarity("B-1060", "1060") == 1.0      # country prefix strip
    assert postcode_similarity("1060", "") == 0.1
    assert postcode_similarity("", "") == 1.0                # both empty are equal
    assert postcode_similarity("1060", "1080") == 0.5        # first 2 chars
    assert postcode_similarity("1060", "1360") == 0.3        # first char
    assert postcode_similarity("1060", "4000") == 0.0


def test_street_similarity_exact_and_bilingual():
    assert street_similarity("Avenue Louise", "Avenue Louise") == 1.0
    # bilingual split: either side of " - " may match
    assert street_similarity("Avenue Louise - Louizalaan", "Avenue Louise") == 1.0
    assert street_similarity("Louizalaan", "Avenue Louise - Louizalaan") == 1.0
    # comma behaves like " - " (check_result_utils.py:361)
    assert street_similarity("Bruxelles, Avenue Louise", "Avenue Louise") == 1.0


def test_street_similarity_inclusion_and_fingerprint():
    # inclusion: "Avenue C Berten" ⊂ "Avenue Clovis Berten"
    assert street_similarity("Avenue C Berten", "Avenue Clovis Berten") == 1.0
    # fingerprint: word order insensitive
    assert street_similarity("Rue du Village Bas", "Bas du Village Rue") == 1.0
    # street words stripped: "Avenue Fonsny" vs "Fonsny" match via removal
    assert street_similarity("Avenue Fonsny", "Fonsny") == 1.0
    # both empty -> 1 (nostreet step relies on this)
    assert street_similarity("", "") == 1.0
    assert street_similarity("Avenue Louise", "Place Stephanie") < 0.5


def test_city_similarity():
    assert city_similarity("Bruxelles", "BRUXELLES") == 1.0
    assert city_similarity("Liège", "Liege") == 1.0
    assert city_similarity("", "") == 0.0   # levenshtein_similarity("","") = 0
    assert city_similarity("Gent", "Genk") == pytest.approx(0.75)


def _mkdf(rows):
    return pd.DataFrame(rows)


def test_keep_bests_elimination_and_tail():
    # two candidates for addr 1 (good first), one mismatching for addr 2
    df = _mkdf([
        {ADDR_KEY: "1", "cand_street": "Avenue Fonsny", "cand_hn": "20",
         "cand_pc": "1060", "cand_city": "Saint-Gilles", "in_street": "Avenue Fonsny",
         "in_hn": "20", "in_pc": "1060", "in_city": "Saint-Gilles", "ord": 0},
        {ADDR_KEY: "1", "cand_street": "Avenue Fonsny", "cand_hn": "22",
         "cand_pc": "1060", "cand_city": "Saint-Gilles", "in_street": "Avenue Fonsny",
         "in_hn": "20", "in_pc": "1060", "in_city": "Saint-Gilles", "ord": 1},
        {ADDR_KEY: "2", "cand_street": "Totally Different", "cand_hn": "1",
         "cand_pc": "9999", "cand_city": "Elsewhere", "in_street": "Avenue Louise",
         "in_hn": "1", "in_pc": "1050", "in_city": "Bruxelles", "ord": 0},
    ])
    keep, reject = keep_bests_frame(
        df, street_cols_a=["cand_street"], housenbr_col_a="cand_hn",
        postcode_col_a="cand_pc", city_col_a="cand_city",
        street_col_b="in_street", housenbr_col_b="in_hn",
        postcode_col_b="in_pc", city_col_b="in_city",
        secondary_sort_col="ord")
    assert list(keep[ADDR_KEY]) == ["1"]
    assert keep.iloc[0]["cand_hn"] == "20"   # exact house number wins
    reasons = reject.set_index("ord")[M_REJECT_REASON].to_dict()
    assert reject[reject[ADDR_KEY] == "1"][M_REJECT_REASON].iloc[0] == "tail"
    assert reject[reject[ADDR_KEY] == "2"][M_REJECT_REASON].iloc[0] == "mismatch"


def test_keep_bests_street_priority_short_circuit():
    # first street field already >= threshold -> sim_street_which records it
    df = _mkdf([
        {ADDR_KEY: "1", "s1": "Avenue Fonsny", "s2": "ignored", "hn": "20",
         "pc": "1060", "city": "X", "in_s": "Avenue Fonsny", "in_hn": "20",
         "in_pc": "1060", "in_city": "X", "ord": 0},
    ])
    keep, _ = keep_bests_frame(
        df, street_cols_a=["s1", "s2"], housenbr_col_a="hn",
        postcode_col_a="pc", city_col_a="city", street_col_b="in_s",
        housenbr_col_b="in_hn", postcode_col_b="in_pc", city_col_b="in_city",
        secondary_sort_col="ord")
    assert keep.iloc[0][C_SIM_STREET_WHICH] == "s1"
    assert keep.iloc[0][C_SIM_STREET] == 1.0


def test_keep_bests_postcode_city_rescue():
    # elimination rule: (pc < 0.1 AND city < 0.5) OR street < 0.5
    # street ok + pc empty (0.1) -> NOT eliminated even if city differs
    df = _mkdf([
        {ADDR_KEY: "1", "cs": "Avenue Fonsny", "hn": "", "pc": "",
         "city": "Elsewhere", "in_s": "Avenue Fonsny", "in_hn": "",
         "in_pc": "1060", "in_city": "Saint-Gilles", "ord": 0},
    ])
    keep, reject = keep_bests_frame(
        df, street_cols_a=["cs"], housenbr_col_a="hn", postcode_col_a="pc",
        city_col_a="city", street_col_b="in_s", housenbr_col_b="in_hn",
        postcode_col_b="in_pc", city_col_b="in_city", secondary_sort_col="ord")
    assert len(keep) == 1 and len(reject) == 0


# ---------------------------------------------------------------------------
# property tests (SURVEY §5(d)): range, symmetry of the comparator kernel

from hypothesis import given, settings
from hypothesis import strategies as st

_text = st.text(alphabet="abcdefghij AÉè-,'0123456789", max_size=24)
_hn = st.text(alphabet="0123456789abAB -/", max_size=8)


@settings(max_examples=150, deadline=None)
@given(_text, _text)
def test_street_similarity_range_and_symmetry(a, b):
    s = street_similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == street_similarity(b, a)


@settings(max_examples=150, deadline=None)
@given(_text, _text)
def test_city_similarity_range_and_symmetry(a, b):
    s = city_similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == city_similarity(b, a)


@settings(max_examples=150, deadline=None)
@given(_hn, _hn)
def test_house_number_similarity_range_and_symmetry(a, b):
    s = house_number_similarity(a, b)
    assert s in (0.0, 0.5, 0.8, 1.0)
    assert s == house_number_similarity(b, a)


@settings(max_examples=150, deadline=None)
@given(_text, _text)
def test_postcode_similarity_range(a, b):
    s = postcode_similarity(a, b)
    assert s in (0.0, 0.1, 0.3, 0.5, 1.0)


@settings(max_examples=80, deadline=None)
@given(_text)
def test_self_similarity_is_one(a):
    # any street equals itself (both-empty included — fast path)
    assert street_similarity(a, a) == 1.0
    # city: reference levenshtein_similarity returns 0.0 when BOTH are
    # empty (check_result_utils.py:147-168) — self-sim holds otherwise
    if a.strip():
        assert city_similarity(a, a) == 1.0


# ---------------------------------------------------------------------------
# keep_bests against the whole-frame pandas implementation it replaced,
# through the frame view above

from georay.config import (C_SIM_CITY, C_SIM_HOUSENBR, C_SIM_POSTCODE)


def _ref_map_pairs(a, b, fn):
    av = a.fillna("").astype(str).to_numpy()
    bv = b.fillna("").astype(str).to_numpy()
    return np.fromiter((fn(x, y) for x, y in zip(av, bv)),
                       dtype=np.float64, count=len(av))


def _ref_keep_bests(df, street_cols_a, housenbr_col_a, postcode_col_a,
                    city_col_a, street_col_b, housenbr_col_b,
                    postcode_col_b, city_col_b, secondary_sort_col,
                    max_res=1, threshold=SIMILARITY_THRESHOLD):
    if df.shape[0] == 0:
        return df, df
    df = df.copy()
    street_b = df[street_col_b].fillna("").astype(str)
    sim_street = np.full(len(df), -1.0)
    sim_which = np.full(len(df), "", dtype=object)
    for col in street_cols_a:
        mask = sim_street < threshold
        if not mask.any():
            break
        if col not in df.columns:
            continue
        sub = _ref_map_pairs(df.loc[mask, col], street_b[mask],
                             street_similarity)
        sim_street[mask] = sub
        sim_which[mask] = col
    df[C_SIM_STREET] = sim_street
    df[C_SIM_STREET_WHICH] = sim_which
    df[C_SIM_HOUSENBR] = _ref_map_pairs(df[housenbr_col_a],
                                        df[housenbr_col_b],
                                        house_number_similarity)
    df[C_SIM_POSTCODE] = _ref_map_pairs(df[postcode_col_a],
                                        df[postcode_col_b],
                                        postcode_similarity)
    df[C_SIM_CITY] = _ref_map_pairs(df[city_col_a], df[city_col_b],
                                    city_similarity)
    eliminate = (((df[C_SIM_POSTCODE] < 0.1) & (df[C_SIM_CITY] < threshold))
                 | (df[C_SIM_STREET] < threshold))
    rejected = df[eliminate].copy()
    rejected[M_REJECT_REASON] = "mismatch"
    result = df[~eliminate].copy()
    result["_akc"], _ = pd.factorize(result[ADDR_KEY].to_numpy(),
                                     sort=True)
    result = result.sort_values(
        ["_akc", C_SIM_STREET, C_SIM_HOUSENBR, secondary_sort_col],
        ascending=[True, False, False, True], kind="mergesort")
    head = result.groupby("_akc", sort=False).head(max_res)
    result = result.drop(columns=["_akc"])
    head = head.drop(columns=["_akc"])
    tail = result[~result.index.isin(head.index)].copy()
    tail[M_REJECT_REASON] = "tail"
    return head, pd.concat([rejected, tail])


_STREETS = ["Avenue Louise", "Louizalaan", "Avenue Louise - Louizalaan",
            "Rue Neuve", "Nieuwstraat", "", None]
_HNS = ["1", "10", "10-12", "12", "2a", "", None]
_PCS = ["1000", "1050", "B-1050", "1060", "", None]
_CITIES = ["Bruxelles", "BRUXELLES", "Brussel", "Ixelles", "", None]


@st.composite
def _candidate_frames(draw):
    n = draw(st.integers(0, 14))
    pick = lambda xs: draw(st.lists(st.sampled_from(xs), min_size=n,
                                    max_size=n))
    data = {
        "extra_int": list(range(n)),
        ADDR_KEY: pick(["a", "b", "10", "9", "a"]),
        "s1": pick(_STREETS), "s2": pick(_STREETS),
        "hn": pick(_HNS), "pc": pick(_PCS), "city": pick(_CITIES),
        "in_s": pick(_STREETS[:4]), "in_hn": pick(_HNS),
        "in_pc": pick(_PCS), "in_city": pick(_CITIES),
        "ord": pick([0, 1, 1, 2]),
        "ord_f": pick([0.0, 1.0, float("nan")]),
        "ord_s": pick(["x", "y", None]),
        "flag": pick([True, False]),
    }
    if draw(st.booleans()):   # a score column already present
        data[C_SIM_CITY] = pick([0.25, float("nan")])
    df = pd.DataFrame(data)
    labels = draw(st.permutations(range(100, 100 + n)))
    df.index = pd.Index(list(labels), dtype=np.int64)
    kw = dict(
        street_cols_a=draw(st.lists(st.sampled_from(["s1", "s2", "s_absent"]),
                                    min_size=1, max_size=3)),
        housenbr_col_a="hn", postcode_col_a="pc", city_col_a="city",
        street_col_b="in_s", housenbr_col_b="in_hn", postcode_col_b="in_pc",
        city_col_b="in_city",
        secondary_sort_col=draw(st.sampled_from(["ord", "ord_f", "ord_s",
                                                  ADDR_KEY])),
        max_res=draw(st.sampled_from([1, 2])),
        threshold=draw(st.sampled_from([SIMILARITY_THRESHOLD, 0.0, 1.5])))
    return df, kw


def _assert_same_split(df, kw):
    keep, reject = keep_bests_frame(df, **kw)
    ref_keep, ref_reject = _ref_keep_bests(df, **kw)
    for got, ref in ((keep, ref_keep), (reject, ref_reject)):
        assert list(got.index) == list(ref.index)
        assert list(got.columns) == list(ref.columns)
        pd.testing.assert_frame_equal(got, ref)
    return keep, reject


@settings(max_examples=300, deadline=None)
@given(_candidate_frames())
def test_keep_bests_matches_pandas_reference(case):
    df, kw = case
    _assert_same_split(df, kw)


def _tied_frame(n=6):
    # every sort key tied, two addresses interleaved
    return pd.DataFrame({
        ADDR_KEY: ["b", "a"] * (n // 2),
        "s1": ["Avenue Louise"] * n, "s2": ["Rue Neuve"] * n,
        "hn": ["10"] * n, "pc": ["1050"] * n, "city": ["Ixelles"] * n,
        "in_s": ["Avenue Louise"] * n, "in_hn": ["10"] * n,
        "in_pc": ["1050"] * n, "in_city": ["Ixelles"] * n,
        "ord": [0] * n,
    }, index=[7, 3, 11, 5, 2, 9][:n])


_TIED_KW = dict(housenbr_col_a="hn", postcode_col_a="pc", city_col_a="city",
                street_col_b="in_s", housenbr_col_b="in_hn",
                postcode_col_b="in_pc", city_col_b="in_city")


@pytest.mark.parametrize("max_res", [1, 2])
@pytest.mark.parametrize("secondary", ["ord", ADDR_KEY])
def test_keep_bests_full_ties_keep_input_order(max_res, secondary):
    keep, reject = _assert_same_split(
        _tied_frame(), dict(street_cols_a=["s_absent", "s1", "s2"],
                            secondary_sort_col=secondary, max_res=max_res,
                            **_TIED_KW))
    # no row eliminated; ties resolved by input order within each address
    assert list(keep.index) == ([3, 7] if max_res == 1 else [3, 5, 7, 11])
    assert set(reject[M_REJECT_REASON]) == {"tail"}
    # the short-circuit stops at the first street field that passes
    assert set(keep[C_SIM_STREET_WHICH]) == {"s1"}


def test_keep_bests_all_rows_eliminated():
    df = _tied_frame()
    df["in_s"] = "Rue Neuve"
    df["in_city"] = "Liège"
    df["in_pc"] = "4000"
    keep, reject = _assert_same_split(
        df, dict(street_cols_a=["s1"], secondary_sort_col="ord", **_TIED_KW))
    assert keep.shape[0] == 0 and reject.shape[0] == len(df)
    assert set(reject[M_REJECT_REASON]) == {"mismatch"}
