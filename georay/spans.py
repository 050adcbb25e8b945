"""Interleaved-document span handling: extract address-bearing spans and
re-assemble geocoded documents preserving span-sequence equality.

Input table shape (BASELINE.json input_hint):
``(doc_id: string, spans: list<struct<kind, text, media_ref, offset>>)``.

- ``explode_spans`` — zero-copy-ish Arrow explode (``list_flatten`` +
  ``list_parent_indices``) emitting one row per span with its ordinal
  and its ``{doc_id}_s{ordinal}`` addr_key (``binary_join_element_wise``).
  Address detection is an Arrow pre-filter over the whole batch (kind is
  "text" and the text holds a ","; then, on those rows only,
  ``_ADDR_HINT`` under RE2).  It never drops a row the exact Python
  ``_ADDR_HINT`` keeps, and on ASCII text, where RE2's ASCII ``\b`` and
  Python's Unicode-aware one agree, it is exact; so only the non-ASCII
  candidates re-check the Python pattern (``explode_spans`` spells out
  the argument).  The kept texts are dictionary-encoded and
  ``parse_free_text`` runs once per distinct text in the batch; each
  parsed column is built over the dictionary and gathered to the rows
  with one ``take``.
- ``reassemble_batch`` — ``groupby(doc_id).map_groups`` group fn that
  rebuilds the span list ordered by span ordinal with geocode results
  attached alongside; the per-row invariant (kind, text, media_ref,
  order) is preserved bit-for-bit.

The explode/re-attach pattern follows SURVEY.md §2.4: candidates never
leave the batch, the only shuffle is the final ``groupby(doc_id)``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, POSTCODE, STATUS,
                     STREET)
from .gazetteer import parse_free_text

_ADDR_HINT = re.compile(r"\b[0-9]{4}\b")

SPAN_TYPE = pa.struct([("kind", pa.string()), ("text", pa.string()),
                       ("media_ref", pa.string()), ("offset", pa.int32())])

GEO_TYPE = pa.struct([("status", pa.string()), ("lat", pa.float64()),
                      ("lon", pa.float64()), ("place_id", pa.int64()),
                      ("method", pa.string()), ("hex_cell", pa.int64())])


def explode_spans(batch: pa.Table) -> pa.Table:
    """documents batch -> one row per span, with parsed address fields for
    address-bearing text spans (is_address=True).

    A span is an address when ``kind == "text"``, its text holds a ","
    and the Python ``_ADDR_HINT`` matches it.  The Arrow pre-filter runs
    the same rule with RE2, whose ``\b`` knows only ASCII word
    characters.  On ASCII text the two ``\b`` agree, so the pre-filter
    is exact there.  On any text a Python match implies an RE2 match:
    Python's word characters include every ASCII one, so a boundary for
    Python is a boundary for RE2.  The pre-filter therefore only
    over-selects, and only on non-ASCII text ("é1000" passes RE2); those
    candidates alone re-check the Python pattern.  Each distinct kept
    text is parsed once per batch."""
    flat = pc.list_flatten(batch["spans"])
    parent = pc.list_parent_indices(batch["spans"])
    doc_ids = pc.take(batch["doc_id"], parent)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if isinstance(doc_ids, pa.ChunkedArray):
        doc_ids = doc_ids.combine_chunks()
    kind = flat.field("kind")
    text = flat.field("text")
    n = len(flat)

    # span ordinal within document (parent indices are sorted)
    par = parent.to_numpy(zero_copy_only=False)
    if n:
        starts = np.flatnonzero(np.r_[True, par[1:] != par[:-1]])
        span_idx = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    else:
        span_idx = np.array([], dtype=np.int64)

    # RE2 reads only the text spans that hold a comma; its hits are
    # exact on ASCII text, so only the others re-check the Python rule
    rows = np.flatnonzero(pc.fill_null(pc.and_kleene(
        pc.equal(kind, "text"), pc.match_substring(text, ",")),
        False).to_numpy(zero_copy_only=False))
    texts = text.take(rows)
    hint = pc.match_substring_regex(texts, _ADDR_HINT.pattern).to_numpy(
        zero_copy_only=False)
    wide = np.flatnonzero(hint & ~pc.string_is_ascii(texts).to_numpy(
        zero_copy_only=False))
    hint[wide] = [_ADDR_HINT.search(t) is not None for t in
                  texts.take(wide).to_numpy(zero_copy_only=False)]
    rows = rows[hint]
    texts = texts.filter(pa.array(hint))
    enc = texts.dictionary_encode()
    parsed = [parse_free_text(t) for t in
              enc.dictionary.to_numpy(zero_copy_only=False)]
    is_addr = np.zeros(n, dtype=bool)
    is_addr[rows] = True
    # non-address rows gather the trailing "" of each parsed column
    slot = np.full(n, len(parsed), dtype=np.int32)
    slot[rows] = enc.indices.to_numpy()
    slot = pa.array(slot)

    def parsed_col(part):
        return pa.array([p[part] for p in parsed] + [""],
                        pa.string()).take(slot)

    key = pc.binary_join_element_wise(
        doc_ids.cast(pa.string()), pa.array(span_idx).cast(pa.string()),
        "_s", null_handling="replace", null_replacement="None")
    return pa.table({
        "doc_id": doc_ids,
        "span_idx": pa.array(span_idx, pa.int32()),
        "kind": kind, "text": text, "media_ref": flat.field("media_ref"),
        "offset": flat.field("offset"),
        "is_address": pa.array(is_addr),
        ADDR_KEY: key,
        STREET: parsed_col("street"),
        HOUSENBR: parsed_col("housenumber"),
        POSTCODE: parsed_col("postcode"),
        CITY: parsed_col("city"),
        COUNTRY: parsed_col("country"),
    })


def reassemble_partition(df: pd.DataFrame) -> pd.DataFrame:
    """Partition fn for ``grouped_map(ds, "doc_id", ..., group_fn=False)``:
    rebuild each document's ordered span list + a parallel geocode
    annotation list (north-rule invariant: output spans == input spans on
    kind/text/media_ref/order)."""
    has_hex = "hex_cell" in df.columns
    doc_ids, span_lists, geo_lists = [], [], []
    for doc_id, g in df.groupby("doc_id", sort=False):
        g = g.sort_values("span_idx", kind="mergesort")
        spans = [{"kind": k, "text": t, "media_ref": m, "offset": int(o)}
                 for k, t, m, o in zip(g["kind"], g["text"], g["media_ref"],
                                       g["offset"])]
        geo = []
        for is_addr, status, lat, lon, pid, method, hexc in zip(
                g["is_address"], g[STATUS], g["o_lat"], g["o_lon"],
                g["m_place_id"], g["m_method"],
                g["hex_cell"] if has_hex else [-1] * len(g)):
            if bool(is_addr):
                geo.append({"status": status or "",
                            "lat": float(lat) if pd.notna(lat) else float("nan"),
                            "lon": float(lon) if pd.notna(lon) else float("nan"),
                            "place_id": int(pid) if pd.notna(pid) else -1,
                            "method": method or "",
                            "hex_cell": int(hexc) if pd.notna(hexc) else -1})
            else:
                geo.append({"status": "not_address", "lat": float("nan"),
                            "lon": float("nan"), "place_id": -1,
                            "method": "", "hex_cell": -1})
        doc_ids.append(doc_id)
        span_lists.append(spans)
        geo_lists.append(geo)
    return pd.DataFrame({"doc_id": doc_ids, "spans": span_lists,
                         "geocodes": geo_lists})
