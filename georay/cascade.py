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

Deviation from the reference (documented): ``output.other`` joins the
leftover address values in SORTED order — the reference joins a Python
set (utils.py:568-574), whose order is hash-randomized across processes;
sorting makes distributed runs deterministic.  The street comparator
splits on " - " and takes a max, so scores are unaffected.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._workergc import cascade_gc
from .compare import _str_values, keep_bests
from .config import (ADDR_KEY, C_SIM_CITY, C_SIM_HOUSENBR, C_SIM_POSTCODE,
                     C_SIM_STREET, C_SIM_STREET_WHICH, CITY, CMP_FIELDS,
                     COUNTRY, DROP_ADDR_ITEMS, HOUSENBR, INPUT_FIELDS,
                     M_CLEANSED_HN, M_DIST_TO_MATCH, M_METHOD, M_OSM_ORDER,
                     M_PLACE_ID, M_PLACE_RANK, M_REJECT_REASON,
                     M_TRANSFORMED, O_CITY, O_COUNTRY, O_DISPLAY,
                     O_HOUSENBR, O_IN_HOUSENBR, O_LAT, O_LON, O_LPOST_HN,
                     O_LPOST_UNIT, O_OTHER, O_POSTCODE, O_STREET, POSTCODE,
                     STATUS, STREET, PipelineConfig)
from .gazetteer import GazetteerSpec, concat_ranges, get_gazetteer
from .geom import haversine_km
from .parser import AddressParser
from .transforms import apply_transformers, assemble_full_address

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

_FLOAT_COLS = {M_DIST_TO_MATCH, O_LAT, O_LON, C_SIM_STREET, C_SIM_HOUSENBR,
               C_SIM_POSTCODE, C_SIM_CITY}
_INT_COLS = {M_OSM_ORDER, M_PLACE_RANK, M_PLACE_ID}
_BOOL_COLS = {M_CLEANSED_HN}


def _result_type(col: str) -> pa.DataType:
    if col in _FLOAT_COLS:
        return pa.float64()
    if col in _INT_COLS:
        return pa.int64()
    if col in _BOOL_COLS:
        return pa.bool_()
    return pa.string()


# canonical Arrow schema of the finalized cascade frame (RESULT_COLUMNS
# order) — conversions to/from pandas at the batch boundary go through
# this instead of per-column type inference
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
    gazetteer from its Nominatim-shaped record (osm_parse_and_split +
    add_addr_out_columns, utils.py:443-579).  A virtual building's
    address is its street's plus the house number, which it picks as
    o_housenumber, so it takes its street's other o_* columns (no
    address value of a place is left over for o_other to hold); its
    display name is ``bld_prefix`` + house number + ``bld_suffix``."""
    cols = getattr(gazetteer, "_candidate_columns", None)
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
    gazetteer._candidate_columns = cols
    return cols


def _explode_candidates(labels: list[str], parts: list[tuple], gazetteer,
                        cfg: PipelineConfig) -> pd.DataFrame:
    """Candidate rows of a batch's unique queries: ``labels[i]`` is the
    transformed address of the component tuple ``parts[i]``.  One
    ``Gazetteer.search_many`` call looks them all up; the rows are a
    ``take`` from the per-place candidate columns, with virtual
    buildings derived vectorized (id, coordinates, display name,
    house number).  ``candidate_json`` (the raw geocoder record, the
    long-mode full-fidelity tail the fixed o_* schema otherwise
    collapses — reference long mode returns every Nominatim field,
    nominatimwrapper.py:632-648) is built only when
    ``cfg.with_candidate_json`` is on."""
    wj = cfg.with_candidate_json
    names = (["candidate_json"] if wj else []) + _CAND_COLS
    q, row, hn = gazetteer.search_many(parts, limit=cfg.max_results)
    if not len(q):
        return pd.DataFrame(columns=names)
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
        O_DISPLAY: display.copy(), O_LAT: lat.copy(), O_LON: lon.copy(),
    }
    if wj:
        import json
        data["candidate_json"] = np.array([
            json.dumps(gazetteer.result(r, h, cfg.check_results),
                       sort_keys=True, default=str)
            for r, h in zip(row.tolist(), hn.tolist())], dtype=object)
    # every array is this call's own: no copy into the frame
    return pd.DataFrame({k: data[k] for k in names}, copy=False)


def _match_parent(results: pd.DataFrame, rejects: pd.DataFrame, gazetteer,
                  cfg: PipelineConfig) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Parent-place rescue for mismatch rejects of unmatched addresses
    (check_result_utils.py:560-644): street (highway) parents only, alt
    names exploded and re-validated."""
    if rejects.shape[0] == 0:
        return results, rejects
    cand = rejects[(rejects[M_REJECT_REASON] == "mismatch")
                   & (~rejects[ADDR_KEY].isin(results[ADDR_KEY]))]
    if cand.shape[0] == 0:
        return results, rejects
    # one details pass per UNIQUE place_id (round-3: was a per-row
    # iterrows loop with 2 point lookups each), then a vectorized
    # merge-explode of the highway parents' alt names
    alt_map_rows = []
    for pid in pd.unique(cand["n_place_id"]):
        det = gazetteer.details(pid)
        parent_id = det.get("parent_place_id", 0)
        if not parent_id:
            continue
        pdet = gazetteer.details(parent_id)
        if pdet.get("category") != "highway":
            continue
        for lang, alt in pdet.get("names", {}).items():
            alt_map_rows.append((pid, alt))
    if not alt_map_rows:
        return results, rejects
    alt_map = pd.DataFrame(alt_map_rows, columns=["n_place_id",
                                                  "n_alt_name"])
    alts = (cand.drop(columns=[M_REJECT_REASON])
            .reset_index(names="_src_index")
            .merge(alt_map, on="n_place_id", how="inner"))
    # alt equal to street name adds nothing (check_result_utils.py:617)
    alts = alts[alts["n_alt_name"] != alts[O_STREET]]
    if alts.shape[0] == 0:
        return results, rejects
    keep, _ = keep_bests(
        alts, street_cols_a=["n_alt_name"], housenbr_col_a=O_HOUSENBR,
        postcode_col_a=O_POSTCODE, city_col_a=O_CITY,
        street_col_b=STREET, housenbr_col_b=HOUSENBR,
        postcode_col_b=POSTCODE, city_col_b=CITY,
        secondary_sort_col=M_OSM_ORDER, threshold=cfg.similarity_threshold)
    if keep.shape[0] == 0:
        return results, rejects
    keep = keep.drop(columns=["n_alt_name", "_src_index"])
    results = pd.concat([results, keep], sort=False)
    saved = set(zip(keep[ADDR_KEY], keep["n_place_id"]))
    mask = [(k, p) in saved for k, p in
            zip(rejects[ADDR_KEY], rejects["n_place_id"])]
    rejects = rejects[~np.array(mask)]
    return results, rejects


def _process_osm(sent: pd.DataFrame, gazetteer, cfg: PipelineConfig,
                 check_results: bool) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Geocode + explode + validate-or-head(1) (utils.py:303-441)."""
    empty = pd.DataFrame(columns=list(sent.columns) + [M_REJECT_REASON])
    if sent.shape[0] == 0:
        return empty, empty
    if cfg.osm_structured:
        # get_osm_struct branch of process_osm (utils.py:352-375): the
        # five components go to the geocoder as they are, deduplicated
        # on the transformed-address string that keys them back
        uniq = sent.drop_duplicates(subset=[M_TRANSFORMED])
        labels = uniq[M_TRANSFORMED].tolist()
        parts = list(zip(*(uniq[c].tolist() for c in INPUT_FIELDS)))
    else:
        labels = sent[M_TRANSFORMED].drop_duplicates().tolist()
        parts = [gazetteer.parse_parts(q, use_cache=cfg.with_worker_memos)
                 for q in labels]
    cands = _explode_candidates(labels, parts, gazetteer, cfg)
    osm = sent.merge(cands, on=M_TRANSFORMED)
    if osm.shape[0] == 0:
        return empty, empty
    if check_results:
        keep, reject = keep_bests(
            osm, street_cols_a=[O_STREET, O_OTHER, "n_namedetails"],
            housenbr_col_a=O_HOUSENBR, postcode_col_a=O_POSTCODE,
            city_col_a=O_CITY, street_col_b=STREET,
            housenbr_col_b=HOUSENBR, postcode_col_b=POSTCODE,
            city_col_b=CITY, secondary_sort_col=M_OSM_ORDER,
            threshold=cfg.similarity_threshold)
        if cfg.use_osm_parent:
            keep, reject = _match_parent(keep, reject, gazetteer, cfg)
    else:
        keep = osm.groupby(ADDR_KEY, sort=False).head(1).copy()
        reject = osm[~osm.index.isin(keep.index)].copy()
        reject[M_REJECT_REASON] = "tail"
    return keep, reject


def _retry_low_place_rank(results: pd.DataFrame, sent: pd.DataFrame,
                          gazetteer, cfg: PipelineConfig,
                          check_results: bool) -> pd.DataFrame:
    """Strip the house number to leading digits and re-geocode results with
    place_rank < 30; keep retries that reach rank 30
    (utils.py:225-299)."""
    low = results[results["n_place_rank"] < 30]
    if low.shape[0] == 0:
        return results
    retry = low[[ADDR_KEY]].merge(sent, on=ADDR_KEY)
    hn = retry[HOUSENBR].fillna("").astype(str)
    retry = retry[~hn.str.match(r"^[0-9]*$")]
    if retry.shape[0] == 0:
        return results
    retry = retry.copy()
    retry[HOUSENBR] = (retry[HOUSENBR].fillna("").astype(str)
                       .str.extract(r"^([0-9]+)")[0].fillna(""))
    retry[M_TRANSFORMED] = assemble_full_address(retry)
    keep, _ = _process_osm(retry, gazetteer, cfg, check_results)
    if keep.shape[0] == 0:
        return results
    keep = keep[keep["n_place_rank"] == 30].copy()
    if keep.shape[0] == 0:
        return results
    keep[M_CLEANSED_HN] = True
    return pd.concat([results[~results[ADDR_KEY].isin(keep[ADDR_KEY])], keep],
                     sort=False)


def _transform_and_process(chunk: pd.DataFrame, transformers: list[str],
                           gazetteer, parser, cfg: PipelineConfig
                           ) -> tuple[pd.DataFrame, pd.DataFrame, dict]:
    """One cascade step (utils.py:589-688)."""
    method = "+".join(transformers)
    stats = {"method": method, "todo": int(chunk.shape[0]), "sent": 0,
             "match": 0, "match_26": 0, "reject_rec": 0, "reject_addr": 0,
             "reject_mism": 0}
    empty = pd.DataFrame(columns=[ADDR_KEY])
    if chunk.shape[0] == 0:
        return empty, empty, stats
    transformed = apply_transformers(chunk, transformers, parser, gazetteer, cfg)
    if transformed.shape[0] == 0:
        return empty, empty, stats
    transformed = transformed.copy()
    transformed[M_TRANSFORMED] = assemble_full_address(transformed)
    if cfg.check_with_transformed:
        sent = transformed
    else:
        sent = transformed[[M_TRANSFORMED, ADDR_KEY]].merge(
            chunk, on=ADDR_KEY)
    stats["sent"] = int(sent.shape[0])
    results, rejected = _process_osm(sent, gazetteer, cfg, cfg.check_results)
    if cfg.with_cleansed_number_on_26 and results.shape[0] > 0:
        results = _retry_low_place_rank(results, sent, gazetteer, cfg,
                                        cfg.check_results)
    results = results.copy()
    results[M_METHOD] = method
    rejected = rejected.copy()
    rejected[M_METHOD] = method
    # compare-time echo: freeze the exact four strings the comparator
    # saw on every candidate row BEFORE _run_cascade restores the
    # original input columns — rows from the cleansed-hn retry carry
    # the digits-only house number they were actually re-scored with.
    # These make every cascade method SQL-scorable downstream (the
    # adjudication / selection oracles read them as snapshot params).
    for fr in (results, rejected):
        if fr.shape[0] == 0:
            continue
        for cmp_col, src in zip(CMP_FIELDS,
                                (STREET, HOUSENBR, POSTCODE, CITY)):
            fr[cmp_col] = (fr[src].fillna("").astype(str)
                           if src in fr.columns else "")
    stats["match"] = int(results.shape[0])
    # full reference step-stats parity (utils.py:678-686): cleansed-hn
    # match count, distinct rejected addresses, distinct mismatches
    stats["match_26"] = (
        int(sum(x is True or x == 1 for x in results[M_CLEANSED_HN]
                if x == x and x is not None))
        if M_CLEANSED_HN in results.columns else 0)
    stats["reject_rec"] = int(rejected.shape[0])
    stats["reject_addr"] = (int(rejected[ADDR_KEY].nunique())
                            if rejected.shape[0] else 0)
    stats["reject_mism"] = (
        int(rejected.loc[rejected[M_REJECT_REASON] == "mismatch",
                         ADDR_KEY].nunique())
        if rejected.shape[0] and M_REJECT_REASON in rejected.columns else 0)
    return results, rejected, stats


def _extra_house_number(df: pd.DataFrame, parser) -> pd.DataFrame:
    """libpostal house-number extraction for matched rows
    (utils.py:783-846): o_in_house_number = input housenumber,
    o_lpost_house_number / o_lpost_unit from parsing
    'street hn, pc city'."""
    if df.shape[0] == 0:
        return df
    df = df.copy()
    df[O_IN_HOUSENBR] = df[HOUSENBR].fillna("").astype(str)
    full = (df[STREET].fillna("").astype(str) + " "
            + df[HOUSENBR].fillna("").astype(str) + ", "
            + df[POSTCODE].fillna("").astype(str) + " "
            + df[CITY].fillna("").astype(str)).str.strip()

    def _hn(s):
        try:
            pairs = parser.parse(s)
            return (";".join(v for v, l in pairs if l == "house_number"),
                    ";".join(v for v, l in pairs if l == "unit"))
        except Exception:
            err = "error during Libpostal processing"  # utils.py:806-807
            return (err, err)

    vals = [_hn(s) for s in full]
    df[O_LPOST_HN] = [v[0] for v in vals]
    df[O_LPOST_UNIT] = [v[1] for v in vals]
    return df


def _finalize(df: pd.DataFrame) -> pd.DataFrame:
    """Project to the fixed result schema with stable dtypes.

    Built as a dict of typed numpy arrays then ONE DataFrame
    construction: the previous column-by-column insert ran three full
    passes per string column (astype(object) + where + fillna/astype)
    plus block-manager consolidation per insert — pure memory traffic,
    which is what caps multi-worker scaling on a shared socket."""
    n = len(df)
    data: dict = {}
    for col, default in RESULT_COLUMNS.items():
        if col in df.columns:
            v = df[col]
            if col in _FLOAT_COLS:
                data[col] = pd.to_numeric(v, errors="coerce").to_numpy(
                    dtype=np.float64, na_value=np.nan)
            elif col in _INT_COLS:
                if pd.api.types.is_integer_dtype(v):
                    # already exact — no float64 round-trip (ids above
                    # 2^53 would silently corrupt)
                    data[col] = v.to_numpy(dtype=np.int64)
                elif pd.api.types.is_float_dtype(v):
                    # exactness already bounded by the float64 source
                    data[col] = v.to_numpy(dtype=np.float64,
                                           na_value=-1.0).astype(np.int64)
                else:
                    try:  # object column of python ints / NA: exact via
                        # the nullable Int64 extension array
                        ia = pd.array(v.to_numpy(dtype=object,
                                                 na_value=None),
                                      dtype="Int64")
                        data[col] = ia.to_numpy(dtype=np.int64,
                                                na_value=-1)
                    except (ValueError, TypeError):
                        data[col] = pd.to_numeric(
                            v, errors="coerce").to_numpy(
                            dtype=np.float64, na_value=-1.0
                        ).astype(np.int64)
            elif col in _BOOL_COLS:
                a = v.to_numpy(dtype=object, na_value=False)
                data[col] = np.fromiter((bool(x) for x in a), dtype=bool,
                                        count=n)
            else:
                a = v.to_numpy(dtype=object, na_value="")
                if not all(type(x) is str for x in a):
                    a = np.array([x if type(x) is str
                                  else ("" if x is None else str(x))
                                  for x in a], dtype=object)
                data[col] = a
        else:
            if col in _FLOAT_COLS:
                data[col] = np.full(n, np.float64(default))
            elif col in _INT_COLS:
                data[col] = np.full(n, np.int64(default))
            elif col in _BOOL_COLS:
                data[col] = np.full(n, bool(default))
            else:
                data[col] = np.full(n, str(default), dtype=object)
    return pd.DataFrame(data, index=df.index)


def _run_cascade(inputs: pd.DataFrame, gazetteer, parser,
                 cfg: PipelineConfig,
                 stats_out: list | None = None) -> pd.DataFrame:
    """The cascade proper over a NORMALIZED input frame (str-typed base
    columns) → fixed-schema finalized frame.  Factored out so the
    per-worker result memo can run it on unique-address representatives
    only (see process_addresses_df)."""
    import time as _time
    base_cols = [ADDR_KEY] + INPUT_FIELDS
    chunk = inputs
    matches = []
    rejects = []
    for step_idx, transformers in enumerate(cfg.cascade):
        t0 = _time.perf_counter()
        try:
            res, rej, _stats = _transform_and_process(
                chunk, transformers, gazetteer, parser, cfg)
        except Exception as exc:  # step failure labels, never kills (utils.py:1255-1261)
            res = chunk[[ADDR_KEY]].copy()
            res[M_METHOD] = "error on " + "+".join(transformers) + f": {type(exc).__name__}"
            rej = pd.DataFrame(columns=[ADDR_KEY])
            _stats = {"method": "+".join(transformers),
                      "todo": int(chunk.shape[0]), "sent": 0,
                      "match": int(res.shape[0]), "match_26": 0,
                      "reject_rec": 0, "reject_addr": 0, "reject_mism": 0}
        if stats_out is not None:
            _stats["step"] = step_idx
            _stats["seconds"] = round(_time.perf_counter() - t0, 6)
            stats_out.append(_stats)
        if res.shape[0] > 0:
            matches.append(res)
        if rej.shape[0] > 0 and cfg.with_rejected:
            rejects.append(rej)
        matched_keys = res[ADDR_KEY] if res.shape[0] else pd.Series([], dtype=object)
        chunk = chunk[~chunk[ADDR_KEY].isin(matched_keys)]
        if chunk.shape[0] == 0:
            break

    match_df = (pd.concat(matches, sort=False).drop_duplicates(
        subset=[ADDR_KEY]) if matches else pd.DataFrame(columns=[ADDR_KEY]))
    rej_df = (pd.concat(rejects, sort=False) if rejects
              else pd.DataFrame(columns=[ADDR_KEY]))

    # restore original input columns (utils.py:1271)
    match_df = match_df.drop(columns=[c for c in INPUT_FIELDS
                                      if c in match_df.columns])
    match_df = match_df.merge(inputs[base_cols], on=ADDR_KEY, how="left")
    if cfg.with_extra_house_number and match_df.shape[0] > 0:
        match_df = _extra_house_number(match_df, parser)

    # reject → distance to that address's match (utils.py:1080-1093)
    if rej_df.shape[0] > 0 and "n_lat" in rej_df.columns and "n_lat" in match_df.columns:
        m = match_df[[ADDR_KEY, "n_lat", "n_lon"]].rename(
            columns={"n_lat": "_mlat", "n_lon": "_mlon"})
        rej_df = rej_df.merge(m, on=ADDR_KEY, how="left")
        ok = rej_df["_mlat"].notna() & rej_df["n_lat"].notna()
        d = np.full(len(rej_df), np.nan)
        if ok.any():
            d[ok.to_numpy()] = np.round(haversine_km(
                rej_df.loc[ok, "n_lat"], rej_df.loc[ok, "n_lon"],
                rej_df.loc[ok, "_mlat"], rej_df.loc[ok, "_mlon"]), 3)
        rej_df[M_DIST_TO_MATCH] = d

    match_df[M_PLACE_ID] = match_df.get("n_place_id", pd.Series(dtype=float))
    match_df[M_PLACE_RANK] = match_df.get("n_place_rank", pd.Series(dtype=float))
    match_df[STATUS] = "match"
    if rej_df.shape[0] > 0:
        rej_df[M_PLACE_ID] = rej_df.get("n_place_id", pd.Series(dtype=float))
        rej_df[M_PLACE_RANK] = rej_df.get("n_place_rank", pd.Series(dtype=float))
        rej_df[STATUS] = "reject"
        rej_df = rej_df.drop(columns=[c for c in INPUT_FIELDS
                                      if c in rej_df.columns])
        rej_df = rej_df.merge(inputs[base_cols], on=ADDR_KEY, how="left")

    unmatched = inputs[~inputs[ADDR_KEY].isin(match_df[ADDR_KEY])].copy()
    unmatched[STATUS] = "unmatched"

    parts = [p for p in (match_df, rej_df, unmatched) if p.shape[0] > 0]
    if not parts:
        return _finalize(pd.DataFrame(columns=base_cols))
    return _finalize(pd.concat(parts, sort=False, ignore_index=True))


# Most distinct address tuples one worker keeps per config; keys past
# the cap are still computed and served batch-locally, just not kept.
_MEMO_MAX_KEYS = 1 << 15

_STORE_SCHEMA = pa.schema([f for f in RESULT_SCHEMA if f.name != ADDR_KEY])


class _ResultStore:
    """Per-worker FULL-CASCADE memo for one config, columnar and
    append-only.

    The cascade is a deterministic function of the five input fields
    (street, housenumber, postcode, city, country) — addr_key only labels
    rows — and real corpora repeat addresses heavily (the bench corpus is
    83% repeats), so the cascade runs once per UNIQUE tuple per worker.
    Its finalized rows (``RESULT_SCHEMA`` minus addr_key) live in ONE
    Arrow table; the key ``k`` with ``s = slot[k]`` owns the rows
    ``start[s] : start[s] + length[s]``.  A batch probes the key index in
    one pass, then every hit is served by a single ``take`` on the table:
    no per-row frames or per-key arrays (the probe-then-gather layout of
    vectorized hash tables, VLDB 2023)."""

    def __init__(self):
        self.slot: dict[str, int] = {}
        self.start = np.zeros(0, np.int64)
        self.length = np.zeros(0, np.int64)
        self.table = _STORE_SCHEMA.empty_table()

    def append(self, keys: list[str], rows: pa.Table,
               counts: np.ndarray) -> int:
        """Keep the leading representatives that fit under the cap (their
        rows are the head of ``rows``, ``counts`` rows each); returns how
        many were kept.  The table is re-combined so every probe takes
        from one contiguous chunk and never pins the caller's batch."""
        k = max(0, min(len(keys), _MEMO_MAX_KEYS - len(self.slot)))
        if k == 0:
            return 0
        base = len(self.slot)
        self.slot.update(zip(keys[:k], range(base, base + k)))
        ends = self.table.num_rows + np.cumsum(counts[:k])
        self.start = np.r_[self.start, ends - counts[:k]]
        self.length = np.r_[self.length, counts[:k]]
        self.table = pa.concat_tables(
            [self.table, rows.slice(0, int(counts[:k].sum()))]
        ).combine_chunks()
        return k


def _result_store(gazetteer, cfg: PipelineConfig) -> _ResultStore:
    stores = getattr(gazetteer, "_cascade_memo", None)
    if stores is None:
        stores = gazetteer._cascade_memo = {}
    ckey = repr(cfg)
    store = stores.get(ckey)
    if store is None:
        store = stores[ckey] = _ResultStore()
    return store


def _memo_keys(inputs: pa.Table) -> list[str]:
    """Injective string key per row, in one vectorized pass: each of the
    five fields is prefixed by its byte length ("len:field:len:field…"),
    so no field content — the separator or NUL included — can move a
    field boundary."""
    parts = []
    for c in INPUT_FIELDS:
        parts += [pc.binary_length(inputs[c]).cast(pa.string()), inputs[c]]
    return pc.binary_join_element_wise(*parts, ":").to_pylist()


def _run_representatives(reps: pa.Table, gazetteer, parser,
                         cfg: PipelineConfig, stats_out: list | None
                         ) -> tuple[pa.Table, np.ndarray]:
    """``_run_cascade`` once over the representative rows under SYNTHETIC
    keys ``r0, r1, …`` → (their result rows grouped by representative in
    order, row count per representative).  Synthetic keys keep one
    output group per representative even when a caller reuses one
    addr_key for different tuples; they must be plain printable strings
    (pandas' string hashtable truncates at an embedded NUL)."""
    df = reps.to_pandas(use_threads=False)
    df[ADDR_KEY] = [f"r{j}" for j in range(len(df))]
    out = _run_cascade(df, gazetteer, parser, cfg, stats_out)
    tbl = pa.Table.from_pandas(out[list(RESULT_COLUMNS)],
                               schema=RESULT_SCHEMA, preserve_index=False)
    rep = pc.utf8_slice_codeunits(tbl[ADDR_KEY], 1).cast(
        pa.int64()).to_numpy()
    order = np.argsort(rep, kind="stable")
    return (tbl.drop_columns([ADDR_KEY]).take(order),
            np.bincount(rep, minlength=len(df)))


def _memo_results(inputs: pa.Table, store: _ResultStore, gazetteer, parser,
                  cfg: PipelineConfig) -> tuple[pa.Table, np.ndarray]:
    """Result rows of every input row through the memo → (rows grouped
    by input row in input order, row count per input row).  Hits are
    served from the store; the misses run the cascade once per unique
    tuple and are appended (or served batch-locally past the cap).
    A representative with a step-failure row is served batch-locally
    and never appended: the failure says nothing about the address, so
    the next batch retries it, as with the memo off."""
    n = inputs.num_rows
    keys = _memo_keys(inputs)
    slot = np.fromiter(map(store.slot.get, keys, repeat(-1, n)), np.int64, n)
    rep_of = np.full(n, -1, np.int64)
    first: dict[str, int] = {}
    rep_rows = []
    for i in np.flatnonzero(slot < 0).tolist():
        j = first.setdefault(keys[i], len(rep_rows))
        if j == len(rep_rows):
            rep_rows.append(i)
        rep_of[i] = j
    if rep_rows:
        local, counts = _run_representatives(
            inputs.select(INPUT_FIELDS).take(rep_rows), gazetteer, parser,
            cfg, None)
        local_start = np.cumsum(counts) - counts
        ok, good = np.arange(len(counts)), local
        failed = pc.starts_with(local[M_METHOD], "error on ")
        if pc.any(failed).as_py():
            ok = np.setdiff1d(ok, np.repeat(ok, counts)[failed.to_numpy()])
            good = local.take(concat_ranges(local_start[ok], counts[ok]))
        kept = store.append([keys[rep_rows[j]] for j in ok], good,
                            counts[ok])
        new_slot = np.full(len(counts), -1, np.int64)
        new_slot[ok[:kept]] = len(store.slot) - kept + np.arange(kept)
        miss = rep_of >= 0
        slot[miss] = new_slot[rep_of[miss]]

    hit = slot >= 0
    begin = np.empty(n, np.int64)
    lens = np.empty(n, np.int64)
    parts = []
    if hit.any():
        s = slot[hit]
        begin[hit], lens[hit] = store.start[s], store.length[s]
        parts.append(store.table.take(concat_ranges(begin[hit], lens[hit])))
    if not hit.all():
        r = rep_of[~hit]
        begin[~hit], lens[~hit] = local_start[r], counts[r]
        parts.append(local.take(concat_ranges(begin[~hit], lens[~hit])))
    if len(parts) < 2:
        return (parts[0] if parts else _STORE_SCHEMA.empty_table()), lens
    # hits first, then batch-local rows: interleave back into row order
    flag = np.repeat(hit, lens)
    n_hit = parts[0].num_rows
    pos = np.where(flag, np.cumsum(flag) - 1, n_hit + np.cumsum(~flag) - 1)
    return pa.concat_tables(parts).take(pos), lens


def _geocode_table(inputs: pa.Table, gazetteer, parser, cfg: PipelineConfig,
                   stats_out: list | None = None
                   ) -> tuple[pa.Table, np.ndarray]:
    """Cascade over normalized Arrow inputs (addr_key + the five input
    fields, non-null strings) → (``RESULT_SCHEMA`` table, input row of
    each output row).  Output rows are grouped by input row, in input
    order.  With the memo off, or for a ``stats_out`` pass, every row is
    its own representative and nothing is kept."""
    if cfg.with_cascade_memo and stats_out is None:
        res, lens = _memo_results(inputs, _result_store(gazetteer, cfg),
                                  gazetteer, parser, cfg)
    else:
        res, lens = _run_representatives(inputs.select(INPUT_FIELDS),
                                         gazetteer, parser, cfg, stats_out)
    src = np.repeat(np.arange(inputs.num_rows), lens)
    return res.add_column(0, RESULT_SCHEMA.field(ADDR_KEY),
                          inputs[ADDR_KEY].take(src)), src


def _as_str(col) -> pa.ChunkedArray:
    """One input column as non-null strings — the ``fillna("")
    .astype(str)`` contract of the pandas entry point."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        col = col.cast(pa.string())
        return pc.fill_null(col, "") if col.null_count else col
    return pa.chunked_array([pa.array(
        col.to_pandas().fillna("").astype(str), pa.string())])


def process_addresses_df(df, gazetteer, parser, cfg: PipelineConfig,
                         stats_out: list | None = None):
    """Full cascade over one batch of addresses → fixed-schema rows, one
    per match/reject plus 'unmatched' stubs (utils.py:1195-1279), grouped
    by input row in input order.

    ``df`` is a pandas frame or an Arrow table; the result has the same
    kind.  Columns other than addr_key and the five input fields pass
    through, each output row carrying the values of its OWN input row
    (positional re-attach: a repeated addr_key cannot cross rows).

    ``stats_out`` (optional list) receives one dict per executed cascade
    step: {step, method, todo, sent, match, reject_rec, seconds} — the
    reference's ``timestats``/step-stats analogue (base.py:275-301,
    utils.py:678-686), surfaced instead of discarded.  Stats passes
    bypass the result memo so counters reflect the real cascade."""
    base_cols = [ADDR_KEY] + INPUT_FIELDS
    arrow = isinstance(df, pa.Table)
    if arrow:
        inputs = pa.table({c: _as_str(df[c]) for c in base_cols})
        extra = [c for c in df.column_names if c not in base_cols]
    else:
        inputs = pa.table({c: pa.array(_str_values(df[c]), pa.string())
                           for c in base_cols})
        extra = [c for c in df.columns if c not in base_cols]
    res, src = _geocode_table(inputs, gazetteer, parser, cfg, stats_out)
    if arrow:
        if not extra:
            return res
        passthrough = df.select(extra).take(src)
        for f, col in zip(passthrough.schema, passthrough.columns):
            res = res.append_column(f, col)
        return res
    # small frames: Arrow's thread-pool hand-offs (a context switch per
    # column block) cost more than the conversion itself
    out = res.to_pandas(use_threads=False)
    if extra:
        out = pd.concat([out, df[extra].iloc[src].reset_index(drop=True)],
                        axis=1)
    return out


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
        self.parser.memo_enabled = self.cfg.with_worker_memos

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Arrow in, Arrow out: only representative rows of memo misses
        enter pandas; passthrough columns follow their input row."""
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
    """A no-argument getter of this worker process's ``cls(spec, cfg)``."""
    spec = spec or GazetteerSpec()
    cfg = cfg or PipelineConfig()
    key = (cls.__name__, spec, repr(cfg))
    return lambda: worker_component(key, lambda: cls(spec=spec, cfg=cfg))


def span_cascade_fn(spec: GazetteerSpec | None = None,
                    cfg: PipelineConfig | None = None):
    """Picklable stateless-task batch fn for the document-span cascade."""
    get_worker = _worker_cascade(SpanCascadeGeocoder, spec, cfg)
    return lambda batch: get_worker()(batch)


def address_cascade_fn(spec: GazetteerSpec | None = None,
                       cfg: PipelineConfig | None = None):
    """Picklable stateless-task batch fn for the flat-address cascade."""
    get_worker = _worker_cascade(CascadeGeocoder, spec, cfg)
    return lambda batch: get_worker()(batch)


STEP_STATS_SCHEMA = pa.schema([
    ("step", pa.int64()), ("method", pa.string()), ("todo", pa.int64()),
    ("sent", pa.int64()), ("match", pa.int64()), ("match_26", pa.int64()),
    ("reject_rec", pa.int64()), ("reject_addr", pa.int64()),
    ("reject_mism", pa.int64()), ("seconds", pa.float64())])


def step_stats_fn(spec: GazetteerSpec | None = None,
                  cfg: PipelineConfig | None = None,
                  spans: bool = False):
    """Stateless-task batch fn for a dedicated stats pass: runs the full
    cascade per batch and emits ONE ROW PER CASCADE STEP with the
    reference's timestats/step-stats counters (base.py:275-301 reset per
    request; utils.py:678-686 todo/sent/match/reject) instead of the
    geocode rows.  Aggregate with ``pipeline.step_stats``."""
    get_worker = _worker_cascade(CascadeGeocoder, spec, cfg)

    def fn(batch: pa.Table) -> pa.Table:
        worker = get_worker()
        if spans:
            from .spans import explode_spans
            batch = explode_spans(batch)
            batch = batch.filter(batch["is_address"])
        stats: list[dict] = []
        if batch.num_rows:
            process_addresses_df(batch.select([ADDR_KEY] + INPUT_FIELDS),
                                 worker.gazetteer, worker.parser, worker.cfg,
                                 stats_out=stats)
        return pa.Table.from_pylist(
            [{k: s.get(k) for k in STEP_STATS_SCHEMA.names} for s in stats],
            schema=STEP_STATS_SCHEMA)

    return fn


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
