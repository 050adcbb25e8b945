"""The clean-and-retry geocoding cascade, batch-local.

This is the engine's core operator: the whole 10-step cascade of
/root/reference/utils.py:1195-1279 (``process_addresses``) executes inside
ONE stateless ``map_batches`` task per batch — anti-joins between steps
are boolean masks, candidate explode + re-attach never leave the batch
(SURVEY.md §2.4: no shuffle needed), and the gazetteer/parser state is
built once per worker process (``worker_component``).

Step internals mirror ``transform_and_process`` (utils.py:589-688),
``process_osm`` (utils.py:303-441), ``osm_parse_and_split``
(utils.py:443-539), ``add_addr_out_columns`` (utils.py:543-579),
``retry_with_low_place_rank`` (utils.py:225-299), and ``match_parent``
(check_result_utils.py:560-644).

The cascade runs once per representative (a distinct five-field tuple
of the batch's memo misses) and carries representatives through the
steps as int64 index arrays, never as frames: a step sees the indices
still unmatched, its candidate rows are the sent rows' indices repeated
over their candidates with columns taken from the per-place candidate
table, and the ``RESULT_SCHEMA`` table is built once, typed, at the end
(probe-then-gather over index arrays, as the memo hit path does).
pandas appears only in the adapter of a registered transformer.

Deviation from the reference (documented): ``output.other`` joins the
leftover address values in SORTED order — the reference joins a Python
set (utils.py:568-574), whose order is hash-randomized across processes;
sorting makes distributed runs deterministic.  The street comparator
splits on " - " and takes a max, so scores are unaffected.
"""

from __future__ import annotations

import re
from bisect import bisect_right

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._workergc import cascade_gc
from .compare import _str_values, keep_bests
from .config import (ADDR_KEY, C_SIM_CITY, C_SIM_HOUSENBR, C_SIM_POSTCODE,
                     C_SIM_STREET, C_SIM_STREET_WHICH, CITY, CMP_FIELDS,
                     COUNTRY, DROP_ADDR_ITEMS, HOUSENBR, INPUT_FIELDS,
                     M_CLEANSED_HN, M_CMP_CITY, M_CMP_HOUSENBR,
                     M_CMP_POSTCODE, M_CMP_STREET, M_DIST_TO_MATCH,
                     M_METHOD, M_OSM_ORDER,
                     M_PLACE_ID, M_PLACE_RANK, M_REJECT_REASON,
                     M_TRANSFORMED, O_CITY, O_COUNTRY, O_DISPLAY,
                     O_HOUSENBR, O_IN_HOUSENBR, O_LAT, O_LON, O_LPOST_HN,
                     O_LPOST_UNIT, O_OTHER, O_POSTCODE, O_STREET, POSTCODE,
                     STATUS, STREET, PipelineConfig)
from .gazetteer import GazetteerSpec, concat_ranges, get_gazetteer
from .geom import haversine_km
from .memo import Memo, world_memo
from .parser import AddressParser
from .transforms import (AddressRows, apply_transformers,
                         assemble_full_address, factorize, first_per_group)

_COLLAPSE_STREET = ["road", "pedestrian", "footway", "cycleway", "path",
                    "address27", "construction", "hamlet", "park", "square"]
_COLLAPSE_CITY = ["town", "village", "city_district", "county", "city"]

# fixed output schema (SURVEY.md §1.4: fixed Arrow schema, open-ended tail
# collapsed into o_other)
RESULT_COLUMNS: dict[str, object] = {
    ADDR_KEY: "", STREET: "", HOUSENBR: "", POSTCODE: "", CITY: "",
    COUNTRY: "", STATUS: "", M_METHOD: "", M_TRANSFORMED: "",
    M_OSM_ORDER: -1, M_PLACE_RANK: -1, M_PLACE_ID: -1,
    M_REJECT_REASON: "", M_DIST_TO_MATCH: np.nan, M_CLEANSED_HN: False,
    **{c: "" for c in CMP_FIELDS},
    O_STREET: "", O_HOUSENBR: "", O_POSTCODE: "", O_CITY: "", O_COUNTRY: "",
    O_OTHER: "", O_DISPLAY: "", O_LAT: np.nan, O_LON: np.nan,
    O_IN_HOUSENBR: "", O_LPOST_HN: "", O_LPOST_UNIT: "",
    C_SIM_STREET: np.nan, C_SIM_HOUSENBR: np.nan, C_SIM_POSTCODE: np.nan,
    C_SIM_CITY: np.nan, C_SIM_STREET_WHICH: "",
    "candidate_json": "",
}

# numpy dtype of the non-string result columns
_NP_TYPE = {**dict.fromkeys([M_DIST_TO_MATCH, O_LAT, O_LON, C_SIM_STREET,
                             C_SIM_HOUSENBR, C_SIM_POSTCODE, C_SIM_CITY],
                            np.float64),
            **dict.fromkeys([M_OSM_ORDER, M_PLACE_RANK, M_PLACE_ID],
                            np.int64),
            M_CLEANSED_HN: np.bool_}


def _result_type(col: str) -> pa.DataType:
    return (pa.from_numpy_dtype(_NP_TYPE[col]) if col in _NP_TYPE
            else pa.string())


# canonical Arrow schema of the cascade's result rows (RESULT_COLUMNS
# order): the result table is built in it
RESULT_SCHEMA = pa.schema([(c, _result_type(c)) for c in RESULT_COLUMNS])


_CAND_COLS = [M_TRANSFORMED, M_OSM_ORDER, "n_place_id", "n_place_rank",
              "n_lat", "n_lon", "n_display_name", "n_category",
              "n_namedetails", O_STREET, O_CITY, O_HOUSENBR, O_COUNTRY,
              O_POSTCODE, O_OTHER, O_DISPLAY, O_LAT, O_LON]


def _coalesce(address: dict, keys: list[str]) -> str | None:
    for k in keys:
        v = address.get(k)
        if v is not None and v == v:
            return v
    return None


def _place_columns(gazetteer) -> dict:
    """The candidate columns of every gazetteer place, derived once per
    gazetteer (kept in its ``memos``) from its Nominatim-shaped record
    (osm_parse_and_split + add_addr_out_columns, utils.py:443-579).  A
    virtual building's address is its street's plus the house number,
    which it picks as o_housenumber, so it takes its street's other o_*
    columns (no address value of a place is left over for o_other to
    hold); its display name is ``bld_prefix`` + house number +
    ``bld_suffix``."""
    cols = gazetteer.memos.get("candidate_columns")
    if cols is not None:
        return cols
    g = gazetteer.columns
    out: dict[str, list] = {k: [] for k in (
        O_STREET, O_CITY, O_COUNTRY, O_POSTCODE, O_OTHER, "n_namedetails",
        "display", "bld_prefix", "bld_suffix")}
    for row in range(len(g["place_id"])):
        r = gazetteer.result(row, namedetails=True)
        address = r["address"]
        o_street = _coalesce(address, _COLLAPSE_STREET)
        o_city = _coalesce(address, _COLLAPSE_CITY)
        picked = {o_street, o_city, address.get("house_number"),
                  address.get("country"), address.get("postcode")}
        other = sorted({v for k, v in address.items()
                        if k not in DROP_ADDR_ITEMS and v is not None
                        and v not in picked})
        out[O_STREET].append(o_street)
        out[O_CITY].append(o_city)
        out[O_COUNTRY].append(address.get("country"))
        out[O_POSTCODE].append(address.get("postcode"))
        out[O_OTHER].append(" - ".join(other))
        # namedetails only kept for highways (utils.py:513-514)
        out["n_namedetails"].append(
            " - ".join(r["namedetails"].values())
            if r["category"] == "highway" else "")
        out["display"].append(r["display_name"])
        head, tail = g["disp_head"][row], g["disp_tail"][row]
        out["bld_prefix"].append(head + ", " if head else "")
        out["bld_suffix"].append(", " + tail if tail else "")
    cols = {k: np.array(v, dtype=object) for k, v in out.items()}
    gazetteer.memos["candidate_columns"] = cols
    return cols


def _explode_candidates(labels: list[str], parts: list[tuple], gazetteer,
                        cfg: PipelineConfig) -> tuple[np.ndarray, dict]:
    """Candidate rows of a batch's unique queries: ``labels[i]`` is the
    transformed address of the component tuple ``parts[i]``.  One
    ``Gazetteer.search_many`` call looks them all up; the rows are a
    ``take`` from the per-place candidate columns, with virtual
    buildings derived vectorized (id, coordinates, display name,
    house number).  Returns (query index of each row, candidate columns
    by name).  ``candidate_json`` (the raw geocoder record, the
    long-mode full-fidelity tail the fixed o_* schema otherwise
    collapses — reference long mode returns every Nominatim field,
    nominatimwrapper.py:632-648) is built only when
    ``cfg.with_candidate_json`` is on."""
    wj = cfg.with_candidate_json
    names = (["candidate_json"] if wj else []) + _CAND_COLS
    q, row, hn = gazetteer.search_many(parts, limit=cfg.max_results)
    g, pcols = gazetteer.columns, _place_columns(gazetteer)
    bld = hn >= 0
    b_row, b_hn = row[bld], hn[bld]
    hn_s = np.array([str(h) for h in b_hn.tolist()], dtype=object)
    place_id = g["place_id"][row]
    place_id[bld] = place_id[bld] * 1000 + b_hn
    rank = g["place_rank"][row]
    rank[bld] = 30
    dlat = 0.00005 * (b_hn - g["hn_lo"][b_row])
    lat, lon = g["lat"][row], g["lon"][row]
    lat[bld] += dlat
    lon[bld] += dlat
    category = g["category"][row]
    category[bld] = "building"
    display = pcols["display"][row]
    display[bld] = (pcols["bld_prefix"][b_row] + hn_s
                    + pcols["bld_suffix"][b_row])
    o_hn = np.full(len(q), None, dtype=object)
    o_hn[bld] = hn_s
    namedetails = (np.where(bld, "", pcols["n_namedetails"][row])
                   if cfg.check_results
                   else np.full(len(q), "", dtype=object))
    data = {
        M_TRANSFORMED: np.array(labels, dtype=object)[q],
        M_OSM_ORDER: np.arange(len(q)) - np.searchsorted(q, q),
        "n_place_id": place_id, "n_place_rank": rank,
        "n_lat": lat, "n_lon": lon,
        "n_display_name": display, "n_category": category,
        "n_namedetails": namedetails,
        O_STREET: pcols[O_STREET][row], O_CITY: pcols[O_CITY][row],
        O_HOUSENBR: o_hn, O_COUNTRY: pcols[O_COUNTRY][row],
        O_POSTCODE: pcols[O_POSTCODE][row], O_OTHER: pcols[O_OTHER][row],
        O_DISPLAY: display, O_LAT: lat, O_LON: lon,
    }
    if wj:
        import json
        data["candidate_json"] = np.array([
            json.dumps(gazetteer.result(r, h, cfg.check_results),
                       sort_keys=True, default=str)
            for r, h in zip(row.tolist(), hn.tolist())], dtype=object)
    return q, {k: data[k] for k in names}


# A step's candidate rows are a dict of equal-length column arrays: the
# representative index under ``_REP``, the rest under their result
# column names (plus ``n_namedetails``, compared but not kept).
_REP = "rep"
# candidate columns of _explode_candidates the rows do not carry
_NOT_CARRIED = ("n_lat", "n_lon", "n_display_name", "n_category")
# candidate columns that hold None where a place has no value
_NULLABLE = (O_STREET, O_CITY, O_HOUSENBR, O_COUNTRY, O_POSTCODE)
# compare-time echo column <- sent field
_CMP_SRC = dict(zip(CMP_FIELDS, (STREET, HOUSENBR, POSTCODE, CITY)))
_DIGITS_ONLY = re.compile(r"^[0-9]*$")
_LEADING_DIGITS = re.compile(r"^([0-9]+)")


def _no_rows() -> dict:
    return {_REP: np.empty(0, np.int64)}


def _take(rows: dict, pos) -> dict:
    return {k: v[pos] for k, v in rows.items()}


def _nrows(rows: dict) -> int:
    return len(rows[_REP])


def _default(col: str, n: int) -> np.ndarray:
    return np.full(n, RESULT_COLUMNS[col], dtype=_NP_TYPE.get(col, object))


def _stack(parts: list[dict]) -> dict:
    """Row sets as one, in order; a result column some set lacks takes
    its ``RESULT_COLUMNS`` default there."""
    parts = [p for p in parts if _nrows(p)]
    out = {_REP: np.concatenate([p[_REP] for p in parts]
                                if parts else [np.empty(0, np.int64)])}
    for col in _STORE_SCHEMA.names:
        if any(col in p for p in parts):
            out[col] = np.concatenate([p[col] if col in p
                                       else _default(col, _nrows(p))
                                       for p in parts])
    return out


def _keep_bests(rows: dict, street_a: list, threshold: float):
    """``keep_bests`` of candidate rows against their sent address."""
    return keep_bests(
        rows[_REP], street_a, rows[O_HOUSENBR], rows[O_POSTCODE],
        rows[O_CITY], rows[M_CMP_STREET], rows[M_CMP_HOUSENBR],
        rows[M_CMP_POSTCODE], rows[M_CMP_CITY], rows[M_OSM_ORDER],
        threshold=threshold)


def _match_parent(keep: dict, reject: dict, gazetteer,
                  cfg: PipelineConfig) -> tuple[dict, dict]:
    """Parent-place rescue for mismatch rejects of unmatched addresses
    (check_result_utils.py:560-644): street (highway) parents only, alt
    names exploded and re-validated."""
    cand = np.flatnonzero((reject[M_REJECT_REASON] == "mismatch")
                          & ~np.isin(reject[_REP], keep[_REP]))
    pids = reject[M_PLACE_ID][cand].tolist()
    alts_of: dict[int, list] = {}
    for pid in dict.fromkeys(pids):       # one details pass per place
        parent_id = gazetteer.details(pid).get("parent_place_id", 0)
        if not parent_id:
            continue
        pdet = gazetteer.details(parent_id)
        if pdet.get("category") == "highway":
            alts_of[pid] = list(pdet.get("names", {}).values())
    src = np.repeat(cand, [len(alts_of.get(p, ())) for p in pids])
    alt = np.array([a for p in pids for a in alts_of.get(p, ())],
                   dtype=object)
    # alt equal to street name adds nothing (check_result_utils.py:617)
    ok = alt != reject[O_STREET][src]
    if not ok.any():
        return keep, reject
    alts = _take(reject, src[ok])
    del alts[M_REJECT_REASON]
    kept, _, _, scores = _keep_bests(alts, [("n_alt_name", alt[ok])],
                                     cfg.similarity_threshold)
    if not len(kept):
        return keep, reject
    alts.update(scores)
    rescued = _take(alts, kept)
    # drop the rescued (address, place) rejects: one rescue per address,
    # in address order
    rep, pid = rescued[_REP], rescued[M_PLACE_ID]
    at = np.minimum(np.searchsorted(rep, reject[_REP]), len(rep) - 1)
    saved = (rep[at] == reject[_REP]) & (pid[at] == reject[M_PLACE_ID])
    return (_stack([keep, rescued]), _take(reject, np.flatnonzero(~saved)))


def _process_osm(sent: AddressRows, labels: np.ndarray, gazetteer,
                 cfg: PipelineConfig, check_results: bool
                 ) -> tuple[dict, dict]:
    """Geocode + explode + validate-or-head(1) (utils.py:303-441) →
    (kept rows, rejected rows)."""
    if cfg.osm_structured:
        # get_osm_struct branch of process_osm (utils.py:352-375): the
        # five components go to the geocoder as they are, once per
        # distinct component tuple
        tuples = list(zip(*(sent.fields[f].tolist() for f in INPUT_FIELDS)))
        code, first = factorize(tuples)
        parts = [tuples[i] for i in first.tolist()]
    else:
        code, first = factorize(labels.tolist())
        parts = [gazetteer.parse_parts(q, use_cache=cfg.with_worker_memos)
                 for q in labels[first].tolist()]
    q, cands = _explode_candidates(labels[first].tolist(), parts, gazetteer,
                                   cfg)
    # every sent row followed by its query's candidates (the inner merge
    # on the transformed address)
    counts = np.bincount(q, minlength=len(first))
    n_of = counts[code]
    at = np.repeat(np.arange(len(sent)), n_of)
    if not len(at):
        return _no_rows(), _no_rows()
    cand = concat_ranges(np.cumsum(counts)[code] - n_of, n_of)
    for c in _NULLABLE:
        cands[c] = _str_values(cands[c])
    osm = {k: v[cand] for k, v in cands.items() if k not in _NOT_CARRIED}
    osm.update({_REP: sent.idx[at], M_CLEANSED_HN: np.zeros(len(at), bool),
                M_PLACE_ID: osm.pop("n_place_id"),
                M_PLACE_RANK: osm.pop("n_place_rank")})
    osm.update((k, sent.fields[f][at]) for k, f in _CMP_SRC.items())
    if not check_results:
        keep = first_per_group(osm[_REP])
        tail = np.ones(len(at), bool)
        tail[keep] = False
        reject = _take(osm, tail)
        reject[M_REJECT_REASON] = np.full(int(tail.sum()), "tail",
                                          dtype=object)
        return _take(osm, keep), reject
    keep, mismatch, tail, scores = _keep_bests(
        osm, [(c, osm[c]) for c in (O_STREET, O_OTHER, "n_namedetails")],
        cfg.similarity_threshold)
    osm.update(scores)
    reject = _take(osm, np.concatenate([mismatch, tail]))
    reject[M_REJECT_REASON] = np.repeat(
        np.array(["mismatch", "tail"], dtype=object),
        [len(mismatch), len(tail)])
    keep = _take(osm, keep)
    if cfg.use_osm_parent:
        keep, reject = _match_parent(keep, reject, gazetteer, cfg)
    return keep, reject


def _retry_low_place_rank(keep: dict, sent: AddressRows, gazetteer,
                          cfg: PipelineConfig, check_results: bool) -> dict:
    """Strip the house number to leading digits and re-geocode results with
    place_rank < 30; keep retries that reach rank 30
    (utils.py:225-299)."""
    low = np.isin(sent.idx, keep[_REP][keep[M_PLACE_RANK] < 30])
    retry = sent.take(np.flatnonzero(low))
    pos = [i for i, h in enumerate(retry.fields[HOUSENBR].tolist())
           if not _DIGITS_ONLY.match(h)]
    if not pos:
        return keep
    retry = retry.take(pos)
    retry.fields[HOUSENBR] = np.array(
        [m.group(1) if (m := _LEADING_DIGITS.match(h)) else ""
         for h in retry.fields[HOUSENBR].tolist()], dtype=object)
    again, _ = _process_osm(retry, assemble_full_address(retry.fields),
                            gazetteer, cfg, check_results)
    if not _nrows(again):
        return keep
    again = _take(again, again[M_PLACE_RANK] == 30)
    again[M_CLEANSED_HN][:] = True
    return _stack([_take(keep, ~np.isin(keep[_REP], again[_REP])), again])


def _transform_and_process(todo: AddressRows, transformers: list[str],
                           gazetteer, parser, cfg: PipelineConfig
                           ) -> tuple[dict, dict]:
    """One cascade step (utils.py:589-688) → (matched rows, rejected
    rows).  Each row echoes the exact four strings the comparator saw
    (``CMP_FIELDS``; the cleansed-hn retry's digits-only house number
    included), which make every cascade method SQL-scorable downstream
    (the adjudication / selection oracles read them as snapshot params).
    The reference's step counters are derived from these rows
    afterwards (``stepstats``)."""
    if not len(todo):
        return _no_rows(), _no_rows()
    sent = apply_transformers(todo, transformers, parser, gazetteer, cfg)
    if not len(sent):
        return _no_rows(), _no_rows()
    labels = assemble_full_address(sent.fields)
    if not cfg.check_with_transformed:
        # validate against the step's input, not the transformed fields
        sent = AddressRows(sent.idx, todo.take(
            np.searchsorted(todo.idx, sent.idx)).fields)
    keep, reject = _process_osm(sent, labels, gazetteer, cfg,
                                cfg.check_results)
    if cfg.with_cleansed_number_on_26 and _nrows(keep):
        keep = _retry_low_place_rank(keep, sent, gazetteer, cfg,
                                     cfg.check_results)
    return keep, reject


def _parse_or_none(parser, text: str):
    try:
        return parser.parse(text)
    except Exception:
        return None


def _extra_house_number(fields: dict, rep: np.ndarray, parser,
                        memo: Memo) -> dict:
    """libpostal house-number extraction for matched rows
    (utils.py:783-846): o_in_house_number = input housenumber,
    o_lpost_house_number / o_lpost_unit from parsing
    'street hn, pc city' through the parser ``memo``."""
    hn = fields[HOUSENBR][rep]
    texts = [f"{s} {h}, {p} {c}".strip()
             for s, h, p, c in zip(fields[STREET][rep].tolist(), hn.tolist(),
                                   fields[POSTCODE][rep].tolist(),
                                   fields[CITY][rep].tolist())]
    try:
        parsed = memo.map(parser.parse, texts)
    except Exception:
        # a text the parser fails on labels its own row only
        parsed = [_parse_or_none(parser, t) for t in texts]
    err = "error during Libpostal processing"  # utils.py:806-807
    out = [(err, err) if pairs is None else
           (";".join(v for v, l in pairs if l == "house_number"),
            ";".join(v for v, l in pairs if l == "unit"))
           for pairs in parsed]
    lpost = np.array(out, dtype=object).reshape(len(out), 2)
    return {O_IN_HOUSENBR: hn, O_LPOST_HN: lpost[:, 0],
            O_LPOST_UNIT: lpost[:, 1]}


def _result_table(fields: dict, matches: list[dict], rejects: list[dict],
                  gazetteer, parser, cfg: PipelineConfig
                  ) -> tuple[pa.Table, np.ndarray]:
    """The ``_STORE_SCHEMA`` rows of the representatives, built once from
    typed arrays, grouped by representative in order: its match, then
    its rejects in step order, then an 'unmatched' stub when it has no
    match (utils.py:1263-1279) → (table, row count per representative).
    Input columns are the originals (utils.py:1271), one take."""
    n = len(fields[STREET])
    match, reject = _stack(matches), _stack(rejects)
    if cfg.with_extra_house_number and _nrows(match):
        match.update(_extra_house_number(
            fields, match[_REP], parser,
            world_memo(gazetteer.memos, "parser", cfg)))
    if O_LAT in reject:
        # reject → distance to that address's match (utils.py:1080-1093)
        m_lat, m_lon = np.full(n, np.nan), np.full(n, np.nan)
        if O_LAT in match:
            m_lat[match[_REP]] = match[O_LAT]
            m_lon[match[_REP]] = match[O_LON]
        r = reject[_REP]
        ok = ~np.isnan(m_lat[r]) & ~np.isnan(reject[O_LAT])
        d = np.full(len(r), np.nan)
        if ok.any():
            d[ok] = np.round(haversine_km(
                reject[O_LAT][ok], reject[O_LON][ok], m_lat[r][ok],
                m_lon[r][ok]), 3)
        reject[M_DIST_TO_MATCH] = d
    unmatched = np.ones(n, bool)
    unmatched[match[_REP]] = False
    stub = {_REP: np.flatnonzero(unmatched)}
    for rows, status in ((match, "match"), (reject, "reject"),
                         (stub, "unmatched")):
        rows[STATUS] = np.full(_nrows(rows), status, dtype=object)
    rows = _stack([match, reject, stub])
    order = np.argsort(rows[_REP], kind="stable")
    rep = rows[_REP][order]
    cols = []
    for f in _STORE_SCHEMA:
        v = (fields[f.name][rep] if f.name in fields
             else rows[f.name][order] if f.name in rows
             else _default(f.name, len(rep)))
        if v.dtype == np.float64:         # NaN is null, over a 0.0 slot
            nan = np.isnan(v)
            cols.append(pa.array(np.where(nan, 0.0, v), f.type, mask=nan)
                        if nan.any() else pa.array(v, f.type))
        else:
            a = pa.array(v, f.type)
            cols.append(pc.fill_null(a, "") if a.null_count else a)
    return (pa.Table.from_arrays(cols, schema=_STORE_SCHEMA),
            np.bincount(rep, minlength=n))


# a failed step labels its rows "error on <method>: <exception type>"
ERROR_ON = "error on "


def _run_cascade(fields: dict[str, np.ndarray], gazetteer, parser,
                 cfg: PipelineConfig) -> tuple[pa.Table, np.ndarray]:
    """The cascade over representative rows → (their result rows grouped
    by representative in order, row count per representative).

    ``fields`` holds the five input fields, one object array of ``str``
    each, one row per representative.  The representative index keys
    every row through the steps: a step sees the indices still
    unmatched (the anti-join between steps is a mask), its row sets are
    index arrays plus the candidate columns, and the result table is
    built once at the end (``_result_table``)."""
    todo = AddressRows(np.arange(len(fields[STREET])), fields)
    matches, rejects = [], []
    for transformers in cfg.cascade:
        method = "+".join(transformers)
        try:
            keep, reject = _transform_and_process(
                todo, transformers, gazetteer, parser, cfg)
        except Exception as exc:  # step failure labels, never kills (utils.py:1255-1261)
            keep, reject = {_REP: todo.idx}, _no_rows()
            method = f"{ERROR_ON}{method}: {type(exc).__name__}"
        keep[M_METHOD] = np.full(_nrows(keep), method, dtype=object)
        matches.append(keep)
        if cfg.with_rejected and _nrows(reject):
            reject[M_METHOD] = np.full(_nrows(reject), method, dtype=object)
            rejects.append(reject)
        todo = todo.take(np.flatnonzero(~np.isin(todo.idx, keep[_REP])))
        if not len(todo):
            break
    return _result_table(fields, matches, rejects, gazetteer, parser, cfg)


_STORE_SCHEMA = pa.schema([f for f in RESULT_SCHEMA if f.name != ADDR_KEY])


class _ResultStore:
    """Per-worker FULL-CASCADE memo for one config, columnar and
    append-only.

    The cascade is a deterministic function of the five input fields
    (street, housenumber, postcode, city, country) — addr_key only labels
    rows — and real corpora repeat addresses heavily (the bench corpus is
    83% repeats), so the cascade runs once per UNIQUE tuple per worker.
    Its finalized rows (``RESULT_SCHEMA`` minus addr_key) live in Arrow
    chunks, one per append; the key ``k`` with ``s = slot[k]`` owns the
    rows ``start[s] : start[s] + length[s]`` of their concatenation, all
    in one chunk.  A batch probes the key index (a ``Memo`` of key ->
    slot, capped at ``cap`` keys; keys past the cap are still computed
    and served batch-locally, just not kept) in one pass, then every hit
    is served by a single ``take`` on ``table``: no per-row frames or
    per-key arrays (the probe-then-gather layout of vectorized hash
    tables, VLDB 2023).  One key is served by ``rows``, a zero-copy slice
    of its chunk: for a single probe the scalar plan beats the gather."""

    # appended chunks kept apart at most: each costs some KB of Arrow
    # metadata, so a stream of single misses with no batch take between
    # them is combined every MAX_CHUNKS appends
    MAX_CHUNKS = 64

    def __init__(self, cap: int):
        self.index = Memo(cap)
        self.start = np.zeros(0, np.int64)
        self.length = np.zeros(0, np.int64)
        self.chunks: list[pa.Table] = []
        self.offsets: list[int] = []      # first row of each chunk
        self.num_rows = 0

    def append(self, keys: list[str], rows: pa.Table,
               counts: np.ndarray) -> int:
        """Keep the leading representatives that fit under the cap (their
        rows are the head of ``rows``, ``counts`` rows each) as a new
        chunk; returns how many were kept."""
        base = len(self.index)
        k = self.index.put_many(keys, range(base, base + len(keys)))
        if k == 0:
            return 0
        ends = self.num_rows + np.cumsum(counts[:k])
        self.start = np.r_[self.start, ends - counts[:k]]
        self.length = np.r_[self.length, counts[:k]]
        self.offsets.append(self.num_rows)
        self.chunks.append(rows.slice(0, int(ends[-1]) - self.num_rows))
        self.num_rows = int(ends[-1])
        if len(self.chunks) > self.MAX_CHUNKS:
            self._combine()
        return k

    def _combine(self) -> None:
        self.chunks = [pa.concat_tables(self.chunks).combine_chunks()]
        self.offsets = [0]

    @property
    def table(self) -> pa.Table:
        """Every stored row as one contiguous chunk, for a multi-row
        ``take`` (Arrow concatenates a chunked table before each take,
        so the chunks are combined once here and stay combined)."""
        if not self.chunks:
            return _STORE_SCHEMA.empty_table()
        if len(self.chunks) > 1:
            self._combine()
        return self.chunks[0]

    def rows(self, s: int) -> pa.Table:
        """The rows of slot ``s``: a zero-copy slice of its chunk."""
        start = int(self.start[s])
        c = bisect_right(self.offsets, start) - 1
        return self.chunks[c].slice(start - self.offsets[c],
                                    int(self.length[s]))


def _memo_key(fields) -> str:
    """The ``_memo_keys`` key of one row's five field strings, built in
    Python: the same byte-length prefixes (UTF-8), the same separator."""
    return ":".join(f"{len(v.encode())}:{v}" for v in fields)


def _memo_keys(inputs: pa.Table) -> list[str]:
    """Injective string key per row, in one vectorized pass: each of the
    five fields is prefixed by its byte length ("len:field:len:field…"),
    so no field content — the separator or NUL included — can move a
    field boundary."""
    parts = []
    for c in INPUT_FIELDS:
        parts += [pc.binary_length(inputs[c]).cast(pa.string()), inputs[c]]
    return pc.binary_join_element_wise(*parts, ":").to_numpy(
        zero_copy_only=False).tolist()


def _field_arrays(tbl: pa.Table) -> dict[str, np.ndarray]:
    """The five input fields of ``tbl`` as object arrays of ``str``."""
    return {f: tbl[f].to_numpy() for f in INPUT_FIELDS}


def _memo_results(inputs: pa.Table, keys: list[str], slot: np.ndarray,
                  store: _ResultStore, gazetteer, parser,
                  cfg: PipelineConfig) -> tuple[pa.Table, np.ndarray]:
    """Result rows of every input row through the memo, given each row's
    key and its probed ``slot`` (-1 for a miss) → (rows grouped by input
    row in input order, row count per input row).  Hits are taken from
    the store before anything is appended; the misses run the cascade
    once per unique tuple, are served from that batch-local result, and
    are appended (past the cap they are not kept).  A representative
    with a step-failure row is never appended: the failure says nothing
    about the address, so the next batch retries it, as with the memo
    off."""
    n = inputs.num_rows
    hit = slot >= 0
    begin = np.empty(n, np.int64)
    lens = np.empty(n, np.int64)
    parts = []
    if hit.any():
        s = slot[hit]
        begin[hit], lens[hit] = store.start[s], store.length[s]
        parts.append(store.table.take(concat_ranges(begin[hit], lens[hit])))
    if not hit.all():
        miss = np.flatnonzero(~hit)
        rep_of, first = factorize([keys[i] for i in miss.tolist()])
        rep_rows = miss[first]
        local, counts = _run_cascade(
            _field_arrays(inputs.take(rep_rows)), gazetteer, parser, cfg)
        local_start = np.cumsum(counts) - counts
        ok, good = np.arange(len(counts)), local
        failed = pc.starts_with(local[M_METHOD], ERROR_ON)
        if pc.any(failed).as_py():
            ok = np.setdiff1d(ok, np.repeat(ok, counts)[failed.to_numpy()])
            good = local.take(concat_ranges(local_start[ok], counts[ok]))
        store.append([keys[i] for i in rep_rows[ok].tolist()], good,
                     counts[ok])
        begin[miss], lens[miss] = local_start[rep_of], counts[rep_of]
        parts.append(local.take(concat_ranges(begin[miss], lens[miss])))
    if len(parts) < 2:
        return (parts[0] if parts else _STORE_SCHEMA.empty_table()), lens
    # hits first, then batch-local rows: interleave back into row order
    flag = np.repeat(hit, lens)
    n_hit = parts[0].num_rows
    pos = np.where(flag, np.cumsum(flag) - 1, n_hit + np.cumsum(~flag) - 1)
    return pa.concat_tables(parts).take(pos), lens


def _geocode_table(inputs: pa.Table, gazetteer, parser, cfg: PipelineConfig
                   ) -> tuple[pa.Table, np.ndarray]:
    """Cascade over normalized Arrow inputs (addr_key + the five input
    fields, non-null strings) → (``RESULT_SCHEMA`` table, input row of
    each output row).  Output rows are grouped by input row, in input
    order.  With the memo off every row is its own representative and
    the store is never probed.  With it on, every row is probed once;
    a one-row input (a REST ``/geocode`` request) takes the scalar
    route: its key is built in Python and a hit is served as the
    store's slice with addr_key repeated over it, while a miss, like
    any batch, goes on to ``_memo_results`` with its probe."""
    n = inputs.num_rows
    if not cfg.with_cascade_memo:
        res, lens = _run_cascade(_field_arrays(inputs), gazetteer, parser,
                                 cfg)
    else:
        store = world_memo(gazetteer.memos, "store", cfg, _ResultStore)
        keys = ([_memo_key([inputs[f][0].as_py() for f in INPUT_FIELDS])]
                if n == 1 else _memo_keys(inputs))
        slot = np.array(store.index.get_many(keys, -1), np.int64)
        if n == 1 and slot[0] >= 0:
            rows = store.rows(int(slot[0]))
            return (rows.add_column(0, RESULT_SCHEMA.field(ADDR_KEY),
                                    pa.repeat(inputs[ADDR_KEY][0],
                                              rows.num_rows)),
                    np.zeros(rows.num_rows, np.int64))
        res, lens = _memo_results(inputs, keys, slot, store, gazetteer,
                                  parser, cfg)
    src = np.repeat(np.arange(n), lens)
    return res.add_column(0, RESULT_SCHEMA.field(ADDR_KEY),
                          inputs[ADDR_KEY].take(src)), src


def _as_str(col) -> pa.ChunkedArray:
    """One input column as non-null strings — the ``fillna("")
    .astype(str)`` contract of the reference's pandas frames, except that
    integers keep their digits (pandas would make a nullable int column
    float: ``4`` → ``"4.0"``, and round values past 2^53)."""
    if col.type == pa.string() and not col.null_count:
        return col
    if (pa.types.is_string(col.type) or pa.types.is_large_string(col.type)
            or pa.types.is_integer(col.type)):
        col = col.cast(pa.string())
        return pc.fill_null(col, "") if col.null_count else col
    return pa.chunked_array([pa.array(
        col.to_pandas().fillna("").astype(str), pa.string())])


def process_addresses_df(tbl: pa.Table, gazetteer, parser,
                         cfg: PipelineConfig) -> pa.Table:
    """Full cascade over one Arrow batch of addresses → fixed-schema rows,
    one per match/reject plus 'unmatched' stubs (utils.py:1195-1279),
    grouped by input row in input order.  The row count alone picks the
    memo route (``_geocode_table``): one row (``api.geocode_one``) takes
    the scalar route, more (``api.batch_geocode``, the Ray batch fns)
    the batch route; both reach the same store by the same key.

    Columns other than addr_key and the five input fields pass through,
    each output row carrying the values of its OWN input row (positional
    re-attach: a repeated addr_key cannot cross rows)."""
    base_cols = [ADDR_KEY] + INPUT_FIELDS
    inputs = pa.table({c: _as_str(tbl[c]) for c in base_cols})
    res, src = _geocode_table(inputs, gazetteer, parser, cfg)
    extra = [c for c in tbl.schema.names if c not in base_cols]
    if extra:
        passthrough = tbl.select(extra).take(src)
        for f, col in zip(passthrough.schema, passthrough.columns):
            res = res.append_column(f, col)
    return res


class CascadeGeocoder:
    """Batch callable for the flat-address cascade: gazetteer + parser
    built once per instance (``get_gazetteer`` is process-cached), the
    full cascade applied per batch (SURVEY.md §2.3).  The batch fns
    below keep one instance per worker process."""

    def __init__(self, spec: GazetteerSpec | None = None,
                 cfg: PipelineConfig | None = None):
        self.spec = spec or GazetteerSpec()
        self.cfg = cfg or PipelineConfig()
        self.gazetteer = get_gazetteer(self.spec)
        self.parser = AddressParser()

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Arrow in, Arrow out; passthrough columns follow their input
        row."""
        return process_addresses_df(batch, self.gazetteer, self.parser,
                                    self.cfg)


# Per-worker-process component cache: Ray task workers are long-lived
# and reused across tasks and dataset executions, so a module-level
# cache amortizes the gazetteer/parser/memo state like an actor pool
# WITHOUT fixed pool sizing, per-execution actor spawn cost (process
# fork + imports + index build), or CPU reservation — the scheduler
# stays elastic.  For a ~30 MB deterministic index, cached tasks
# measured strictly faster than an actor pool (bench.py history).
_PROCESS_COMPONENT_CACHE: dict = {}


def worker_component(key, build):
    """The component cached under ``key`` in this worker process, made
    by ``build()`` on first use.  Also enters cascade GC mode (a no-op
    when already in it): the cascade allocates millions of short-lived
    objects per batch, so the resident state is frozen out of the GC
    scan set — see ``_workergc`` for the protocol."""
    comp = _PROCESS_COMPONENT_CACHE.get(key)
    if comp is None:
        comp = _PROCESS_COMPONENT_CACHE[key] = build()
    cascade_gc()
    return comp


def _worker_cascade(cls, spec: GazetteerSpec | None,
                    cfg: PipelineConfig | None):
    """A batch fn calling this worker process's ``cls(spec, cfg)``."""
    spec = spec or GazetteerSpec()
    cfg = cfg or PipelineConfig()
    key = (cls.__name__, spec, repr(cfg))
    return lambda batch: worker_component(
        key, lambda: cls(spec=spec, cfg=cfg))(batch)


def span_cascade_fn(spec: GazetteerSpec | None = None,
                    cfg: PipelineConfig | None = None):
    """Picklable stateless-task batch fn for the document-span cascade."""
    return _worker_cascade(SpanCascadeGeocoder, spec, cfg)


def address_cascade_fn(spec: GazetteerSpec | None = None,
                       cfg: PipelineConfig | None = None):
    """Picklable stateless-task batch fn for the flat-address cascade."""
    return _worker_cascade(CascadeGeocoder, spec, cfg)


class SpanCascadeGeocoder(CascadeGeocoder):
    """Cascade over exploded document spans: only rows with
    ``is_address == True`` enter the cascade; other spans pass through with
    status='not_address' so the downstream re-assembly sees every span
    (the span-sequence invariant)."""

    PASSTHROUGH = ["doc_id", "span_idx", "kind", "text", "media_ref",
                   "offset", "is_address"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Arrow-native split: address rows (≈30% of spans) go through
        the cascade with the passthrough columns re-attached by position;
        the heavy ``text`` column never leaves Arrow."""
        mask = batch["is_address"]
        addr_tbl = batch.filter(mask)
        rest_tbl = batch.filter(pc.invert(mask))
        parts = []
        if addr_tbl.num_rows > 0:
            parts.append(process_addresses_df(
                addr_tbl.select(self.PASSTHROUGH + [ADDR_KEY] + INPUT_FIELDS),
                self.gazetteer, self.parser, self.cfg))
        if rest_tbl.num_rows > 0 or not parts:
            n = rest_tbl.num_rows
            cols = {}
            for col, default in RESULT_COLUMNS.items():
                if col == ADDR_KEY:
                    cols[col] = rest_tbl[ADDR_KEY]
                elif col == STATUS:
                    cols[col] = pa.repeat(pa.scalar("not_address"), n)
                else:
                    cols[col] = pa.repeat(
                        pa.scalar(default, _result_type(col)), n)
            for c in self.PASSTHROUGH:
                cols[c] = rest_tbl[c]
            parts.append(pa.table(cols))
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)
