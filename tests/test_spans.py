"""``explode_spans`` edge cases: the Arrow address pre-filter must keep
exactly the rows of the exact Python rule (kind == "text", a comma, and
a Unicode-aware ``\\b[0-9]{4}\\b`` run).  Expected rows are literals."""

import pyarrow as pa

from georay.spans import SPAN_TYPE, explode_spans

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
