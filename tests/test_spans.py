"""``explode_spans`` edge cases: the Arrow address pre-filter must keep
exactly the rows of the exact Python rule (kind == "text", a comma, and
a Unicode-aware ``\\b[0-9]{4}\\b`` run).  Expected rows are literals,
or, in the property test, the literal scalar rule row for row."""

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from georay.gazetteer import parse_free_text
from georay.spans import _ADDR_HINT, SPAN_TYPE, explode_spans

ADDR = "Rue Haute 12, 1000 Bruxelles"


def _span(kind, text, offset=0):
    return {"kind": kind, "text": text, "offset": offset,
            "media_ref": None if kind == "text" else "img://x"}


def _docs():
    return pa.table({
        "doc_id": pa.array(["d0", None, "d2", "d3"], pa.string()),
        "spans": pa.array([
            [_span("image", ADDR, 0),         # non-text kinds that look
             _span("caption", ADDR, 1),       # like an address
             _span("text", None, 2),          # null text
             _span(None, ADDR, 3),            # null kind
             _span("text", ADDR, 4),          # the one address
             _span("text", "Rue Haute 12, 100 Bruxelles", 5),
             _span("text", "Rue Haute 12, 10000 Bruxelles", 6),
             _span("text", "Rue Haute 12, é1000 Bruxelles", 7),
             _span("text", "Rue Haute 12, 1000é Bruxelles", 8),
             _span("text", "1000 Bruxelles", 9),   # no comma
             _span("text", "", 10)],
            [_span("text", "Avenue Louise 5, 1050 Ixelles, Belgium")],
            [],                               # a document with no spans
            None,
        ], pa.list_(SPAN_TYPE)),
    })


EXPECTED = [
    # doc_id, span_idx, kind, is_address, addr_key, street, housenumber,
    # postcode, city, country
    ("d0", 0, "image", False, "d0_s0", "", "", "", "", ""),
    ("d0", 1, "caption", False, "d0_s1", "", "", "", "", ""),
    ("d0", 2, "text", False, "d0_s2", "", "", "", "", ""),
    ("d0", 3, None, False, "d0_s3", "", "", "", "", ""),
    ("d0", 4, "text", True, "d0_s4", "Rue Haute", "12", "1000",
     "Bruxelles", ""),
    ("d0", 5, "text", False, "d0_s5", "", "", "", "", ""),
    ("d0", 6, "text", False, "d0_s6", "", "", "", "", ""),
    ("d0", 7, "text", False, "d0_s7", "", "", "", "", ""),
    ("d0", 8, "text", False, "d0_s8", "", "", "", "", ""),
    ("d0", 9, "text", False, "d0_s9", "", "", "", "", ""),
    ("d0", 10, "text", False, "d0_s10", "", "", "", "", ""),
    (None, 0, "text", True, "None_s0", "Avenue Louise", "5", "1050",
     "Ixelles", "Belgium"),
]

COLUMNS = ["doc_id", "span_idx", "kind", "is_address", "addr_key",
           "street_name", "house_number", "post_code", "post_name",
           "country_name"]


def test_explode_spans_edge_cases():
    docs = _docs()
    out = explode_spans(docs)
    assert out.schema == pa.schema([
        ("doc_id", pa.string()), ("span_idx", pa.int32()),
        ("kind", pa.string()), ("text", pa.string()),
        ("media_ref", pa.string()), ("offset", pa.int32()),
        ("is_address", pa.bool_()), ("addr_key", pa.string()),
        ("street_name", pa.string()), ("house_number", pa.string()),
        ("post_code", pa.string()), ("post_name", pa.string()),
        ("country_name", pa.string())])
    got = [tuple(r.values()) for r in out.select(COLUMNS).to_pylist()]
    assert got == EXPECTED
    # span payloads pass through untouched, in order, nulls included
    spans = [s for doc in docs["spans"].to_pylist() for s in doc or []]
    assert out.select(["kind", "text", "media_ref", "offset"]).to_pylist() \
        == [{k: s[k] for k in ("kind", "text", "media_ref", "offset")}
            for s in spans]


def test_explode_spans_empty_batch():
    out = explode_spans(_docs().slice(2, 2))   # no spans at all
    assert out.num_rows == 0
    assert out.column_names[:2] == ["doc_id", "span_idx"]


# Address-shaped texts (street, separator, number run, tail) and free
# fragment soups, so accented letters and non-Latin digits land right
# next to 3-, 4- and 5-digit runs ("é1000", "1000é", "١٠٠٠1000"), with
# and without commas.
RUN = st.sampled_from(["1000", "1050", "100", "10000", "é1000", "1000é",
                       "١٠٠٠", "١٠٠٠1000", "1000٤", "_1000", "1000b"])
SHAPED = st.tuples(
    st.sampled_from(["Rue Haute 12", "12 Avenue Louise", "Neuvestraat",
                     "Chaussée Clovis 7", "", "é"]),
    st.sampled_from([", ", ",", " ", ""]), RUN,
    st.sampled_from([" Bruxelles", "", ", Belgium", "é", " 12b",
                     " Liège, België"])).map("".join)
FRAGMENT = st.sampled_from([
    "Rue Haute 12", "Bruxelles", "Belgium", "1000", "1050", "100",
    "10000", "é", "ü", "١٠٠٠", "٤", "_", "x", "12b", ","])
SOUP = st.lists(
    st.tuples(FRAGMENT, st.sampled_from(["", " ", ", ", ","])),
    max_size=6).map(lambda parts: "".join(f + sep for f, sep in parts))
TEXT = st.one_of(st.none(), SHAPED, SHAPED, SOUP)
KIND = st.sampled_from(["text"] * 5 + ["image", "caption", None])


@st.composite
def _span_batches(draw):
    """Documents whose spans draw from a small pool of (kind, text), so
    the same text repeats within a batch."""
    pool = draw(st.lists(st.tuples(KIND, TEXT), min_size=1, max_size=12))
    pick = st.sampled_from(pool)
    docs = draw(st.lists(st.lists(pick, max_size=6), min_size=1,
                         max_size=6))
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
        "spans": pa.array([[_span(k, t, j) for j, (k, t) in enumerate(d)]
                           for d in docs], pa.list_(SPAN_TYPE))})


PARSED = {"street_name": "street", "house_number": "housenumber",
          "post_code": "postcode", "post_name": "city",
          "country_name": "country"}


@given(_span_batches())
@settings(max_examples=300, deadline=None)
def test_explode_spans_matches_scalar_rule(docs):
    out = explode_spans(docs)
    spans = [s for doc in docs["spans"].to_pylist() for s in doc]
    want_addr = [s["kind"] == "text" and s["text"] is not None
                 and "," in s["text"]
                 and _ADDR_HINT.search(s["text"]) is not None
                 for s in spans]
    assert out["is_address"].to_pylist() == want_addr
    for col, part in PARSED.items():
        assert out[col].to_pylist() == [
            parse_free_text(s["text"])[part] if a else ""
            for s, a in zip(spans, want_addr)], col
