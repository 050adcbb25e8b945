"""Golden parity of the cascade's full result rows across its config
matrix: every ``RESULT_SCHEMA`` column of ``process_addresses_df`` over
one fixed address set, under the default config and with each branch
flag flipped one at a time.  The digests were recorded from the pandas
cascade the index-array cascade replaced; a digest per column names the
column that moved."""

import hashlib
import json

import pandas as pd
import pytest

from georay import compare
from georay.cascade import RESULT_COLUMNS, process_addresses_df
from georay.config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, POSTCODE,
                           STREET, PipelineConfig)
from georay.corpus import make_addresses
from georay.gazetteer import GazetteerSpec, get_gazetteer
from georay.parser import AddressParser

SPEC = GazetteerSpec()

FLIPS = {
    "default": {},
    "check_results": {"check_results": False},
    "check_with_transformed": {"check_with_transformed": False},
    "photon_check_results": {"photon_check_results": False},
    "osm_structured": {"osm_structured": True},
    "with_cleansed_number_on_26": {"with_cleansed_number_on_26": False},
    "use_osm_parent": {"use_osm_parent": False},
    "with_extra_house_number": {"with_extra_house_number": False},
    "with_candidate_json": {"with_candidate_json": True},
    "memo_off": {"with_cascade_memo": False, "with_worker_memos": False},
    # default config, street similarity by case-insensitive equality: no
    # synthetic address otherwise reaches a street mismatch, so this is
    # the flip that drives the parent-place rescue
    "strict_street": {},
}


def _strict_street(a: str, b: str) -> float:
    return 1.0 if a.lower() == b.lower() else 0.0


def golden_addresses() -> pd.DataFrame:
    """Every truth class of the synthetic corpus, in-batch repeats under
    other keys, empty fields, unicode, Dutch-only roads given in French
    (parent rescue under ``strict_street``) and a box number (low-rank
    retry)."""
    gaz = get_gazetteer(SPEC)
    addrs = make_addresses(160, spec=SPEC, seed=5)
    assert addrs["truth_class"].nunique() == 10
    addrs = addrs.drop(columns=["truth_class", "truth_street_place_id"])
    places = gaz.places
    st = places[places.place_rank == 26].iloc[3]
    nl_only = places[(places.place_rank == 26) & (places.name_fr != "")
                     & (places.street_name == places.name_nl)]
    extra = [
        ("e0", "", "", "", "", ""),
        ("e1", st["name"], "", "", "", ""),
        ("e2", "", "", st["post_code"], "", "Belgium"),
        ("e3", st["name"], "4 bt 2", st["post_code"], st["post_name"],
         "Belgium"),
        ("e4", st["name"].upper() + " é", "6", st["post_code"],
         "Ünïcödé", "België"),
        ("e5", "Straße 北京 ✓", "7", "1000", "Zürich", "Belgium"),
        *((f"n{i}", s["name_fr"], "4", s["post_code"], s["post_name"],
           "Belgium") for i, (_, s) in enumerate(nl_only.head(3).iterrows())),
        ("e7", st["name"] + ", " + st["name"], "8", "", st["post_name"], ""),
    ]
    extra = pd.DataFrame(extra, columns=[ADDR_KEY, STREET, HOUSENBR,
                                         POSTCODE, CITY, COUNTRY])
    repeats = addrs.iloc[::7].copy()
    repeats[ADDR_KEY] = "r" + repeats[ADDR_KEY]
    return pd.concat([addrs, extra, repeats], ignore_index=True)


def column_digests(out: pd.DataFrame) -> dict[str, str]:
    return {c: hashlib.sha256(json.dumps(out[c].tolist(), default=str)
                              .encode()).hexdigest()[:8]
            for c in RESULT_COLUMNS}


def run_flip(flip: str) -> pd.DataFrame:
    """The flip's cascade rows; the caller resets the cascade memo and,
    for ``strict_street``, the comparator."""
    gaz = get_gazetteer(SPEC)
    cfg = PipelineConfig(**FLIPS[flip])
    parser = AddressParser()
    parser.memo_enabled = cfg.with_worker_memos
    return process_addresses_df(golden_addresses(), gaz, parser, cfg)


# rows and the per-column digests (RESULT_COLUMNS order) of each flip
GOLDEN = {
    "check_results": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "fe73a917 18408779 ffcb0479 c5cfe855 c5cfe855 c5cfe855 c5cfe855 "
        "ffcb0479 ffcb0479")),
    "check_with_transformed": (718, (
        "8e267918 e49bf791 a3ac7f12 ba3a593e 1fd4f4d4 a49b0976 3e07b0e3 "
        "fd81e974 7e6078fa 59c66255 290d4ae6 4490cc3d 124f8b00 b4ec6b72 "
        "1747ed1a b0403dc0 27f2070c 0592b128 65679452 2d8ec407 7844baa2 "
        "00564ec3 15d8f0bc 0b9f5360 fd21de45 4a2f06a3 70284b58 4c2ca8c2 "
        "1f0acd6b afe827b0 fd21de45 e09d899d c629ce6f 18bbfe63 aef5a488 "
        "5d5aa05d fd21de45")),
    "default": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "fe73a917 18408779 ffcb0479 48992414 0ffe00ff 48992414 279a68e1 "
        "ff2bd968 ffcb0479")),
    "memo_off": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "fe73a917 18408779 ffcb0479 48992414 0ffe00ff 48992414 279a68e1 "
        "ff2bd968 ffcb0479")),
    "osm_structured": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "5b73d48e 2780aefe cfcc065d dc4f8cdf 7706d375 46942cbb 9dccce30 "
        "8e6325d2 0f1e74f5 5f7e2b04 1bfc1430 afe940b2 9a08b98f 5178d8a4 "
        "816af237 e1e963cc 9d9e574e ffcb0479 32013998 fbc72c7b 384341c6 "
        "fe73a917 18408779 ffcb0479 48992414 0ffe00ff 307bac7e 279a68e1 "
        "ff2bd968 ffcb0479")),
    "photon_check_results": (722, (
        "013c6f78 3e3489f3 13c28f59 3e31425f 7fd306d0 74f1d1db cf4b9536 "
        "5134edc9 f78d74eb 1d1d48f5 192c08ec 91b5e064 f0100358 53ed9972 "
        "ce8bd022 dbdef2b2 7746c638 733d6172 26d80011 46e81c5b 7edabb65 "
        "733d6172 759c0224 abb55a83 748d171e f5c2035a b6b92a67 32d34cfa "
        "0e85c093 d6b74d3f 748d171e 9f447908 d86adfab 9f447908 cd38b281 "
        "b7678896 748d171e")),
    "strict_street": (771, (
        "b0f4c875 9b7858e6 3d12256b cbed18f4 f934b07b 23d04933 cc455ec7 "
        "d3f51226 d740ee45 983f300b 83c17d5d d2f80f84 9cf3c233 44b287c6 "
        "c0b456c9 b2981b78 4055fb34 50a42548 d017b023 8deac0cb c7ac5552 "
        "50a42548 67e4ca4d 28615b43 608512e5 133f3458 89e61fd7 eee93d66 "
        "f0901d90 6bd267c3 608512e5 cc0031cd 5355223e 4aaf329d d1599ed3 "
        "3deb9101 608512e5")),
    "use_osm_parent": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "fe73a917 18408779 ffcb0479 48992414 0ffe00ff 48992414 279a68e1 "
        "ff2bd968 ffcb0479")),
    "with_candidate_json": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "fe73a917 18408779 ffcb0479 48992414 0ffe00ff 48992414 279a68e1 "
        "ff2bd968 dfe34d83")),
    "with_cleansed_number_on_26": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 7963275a cfcc065d 7ef260c4 4ceb836d 46942cbb 0d19c685 "
        "f3c2eec3 ba46953f 30af08d9 816af237 afe940b2 9a08b98f cdaf2bb6 "
        "816af237 e1e963cc 9d9e574e ffcb0479 164ac397 fb4b0a1e e8a9c35e "
        "fe73a917 18408779 ffcb0479 48992414 32917e0a 48992414 279a68e1 "
        "ff2bd968 ffcb0479")),
    "with_extra_house_number": (710, (
        "1fe2681c 1f5465a2 cb154bff 051f7f75 1d6ba25e cef66f72 9ace3742 "
        "65d33478 58fedfa0 cfcc065d 45102c50 281d3163 46942cbb dc03c961 "
        "8e6325d2 ba46953f 5f7e2b04 816af237 afe940b2 9a08b98f 5e3ca15a "
        "816af237 e1e963cc 9d9e574e ffcb0479 0473cb8a 53bed7a2 0a307f3a "
        "ffcb0479 ffcb0479 ffcb0479 48992414 0ffe00ff 48992414 279a68e1 "
        "ff2bd968 ffcb0479")),
}


@pytest.mark.parametrize("flip", sorted(FLIPS))
def test_result_columns_match_golden(flip, monkeypatch):
    monkeypatch.setattr(get_gazetteer(SPEC), "_cascade_memo", {},
                        raising=False)
    if flip == "strict_street":
        monkeypatch.setattr(compare, "street_similarity", _strict_street)
    out = run_flip(flip)
    rows, digests = GOLDEN[flip]
    assert len(out) == rows
    got = column_digests(out)
    want = dict(zip(RESULT_COLUMNS, digests.split()))
    assert [c for c in RESULT_COLUMNS if got[c] != want[c]] == []
