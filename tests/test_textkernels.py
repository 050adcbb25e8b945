"""Kernel unit tests pinned to hand-computed values from the reference
formulas (FIXTURES.md §5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.textkernels import (damerau_levenshtein, fingerprint,
                                inclusion_test, jaro_winkler,
                                levenshtein_similarity, normalize_street,
                                remove_accents)


def test_remove_accents():
    assert remove_accents("chaussée") == "chaussee"
    assert remove_accents("Liège") == "Liege"
    assert remove_accents("ÉÈÀÇÖ") == "EEACO"
    assert remove_accents(None) is None
    assert remove_accents("") == ""


def test_damerau_levenshtein_known_values():
    assert damerau_levenshtein("", "") == 0
    assert damerau_levenshtein("abc", "abc") == 0
    assert damerau_levenshtein("abc", "") == 3
    assert damerau_levenshtein("", "xy") == 2
    assert damerau_levenshtein("kitten", "sitting") == 3
    # adjacent transposition counts 1 (Damerau)
    assert damerau_levenshtein("ca", "ac") == 1
    assert damerau_levenshtein("abcd", "acbd") == 1
    # unrestricted DL: "ca" -> "abc" is 2 (jellyfish semantics)
    assert damerau_levenshtein("ca", "abc") == 2


@given(st.text(max_size=12), st.text(max_size=12))
@settings(max_examples=200, deadline=None)
def test_dl_symmetry_and_bounds(a, b):
    d = damerau_levenshtein(a, b)
    assert d == damerau_levenshtein(b, a)
    assert d <= max(len(a), len(b))
    assert d >= abs(len(a) - len(b))


def test_levenshtein_similarity_reference_formula():
    # check_result_utils.py:147-168
    assert levenshtein_similarity("", "") == 0.0
    assert levenshtein_similarity("ABC", "ABC") == 1.0
    assert levenshtein_similarity("ABC", "") == 0.0
    assert levenshtein_similarity("ABCD", "ABCX") == pytest.approx(0.75)


def test_inclusion_test_reference_example():
    # check_result_utils.py:180-205
    assert inclusion_test("Avenue C Berten", "Avenue Clovis Berten") == 1
    assert inclusion_test("Avenue Clovis Berten", "Avenue C Berten") == 1
    assert inclusion_test("abc", "xyz") == 0
    assert inclusion_test("", "abc") == 0
    # prefix+suffix must cover the shorter string
    assert inclusion_test("aXb", "aYb") == 0


def test_fingerprint_reference_example():
    # check_result_utils.py:212-240
    assert fingerprint("RUE DU BAS DU VILLAGE") == "BAS DU RUE VILLAGE"
    assert fingerprint("") == ""
    assert fingerprint("AVENUE LOUISE 32") == "AVENUE LOUISE"


def test_normalize_street():
    assert normalize_street("Avenue   Louise, 32") == "AVENUE LOUISE"
    assert normalize_street("chaussée d'Ixelles") == "CHAUSSEE D IXELLES"
    assert normalize_street(None) == ""


def test_jaro_winkler_known():
    assert jaro_winkler("MARTHA", "MARHTA") == pytest.approx(0.9611, abs=1e-3)
    assert jaro_winkler("DIXON", "DICKSONX") == pytest.approx(0.8133, abs=1e-3)
    assert jaro_winkler("", "X") == 0.0
    assert jaro_winkler("same", "same") == 1.0


@given(st.text(alphabet="ABCDEF ", max_size=15),
       st.text(alphabet="ABCDEF ", max_size=15))
@settings(max_examples=150, deadline=None)
def test_scores_in_unit_range(a, b):
    for fn in (levenshtein_similarity, jaro_winkler):
        s = fn(a, b)
        assert 0.0 <= s <= 1.0


@given(st.text(max_size=20))
@settings(max_examples=100, deadline=None)
def test_deaccent_idempotent(s):
    once = remove_accents(s)
    assert remove_accents(once) == once
