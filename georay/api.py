"""Driver API mirroring the reference's REST surface (SURVEY.md §2.1):
``geocode_one`` (POST /geocode), ``batch_geocode`` (POST /batchGeocode),
``health_check`` (GET /health) — argument validation, output modes,
fastmode, camelCase nested-JSON shaping.

The REST protocol itself is out of scope (no network in the engine);
these functions are the *semantics* behind the endpoints
(nominatimwrapper.py:504-921), runnable in-process or as the driver of a
Ray Data pipeline for large payloads.
"""

from __future__ import annotations

import os
import re

import pyarrow as pa
import pyarrow.compute as pc
from pyarrow import csv as pacsv

from .cascade import process_addresses_df
from .config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, INPUT_FIELDS,
                     POSTCODE, STATUS, STREET, PipelineConfig)
from .gazetteer import GazetteerSpec, get_gazetteer
from .geom import haversine_km
from .parser import AddressParser
from .transforms import clean_addr_in

MODES = ("coordinates", "short", "long")

# flat column -> (namespace, camelCase leaf) for the nested JSON shape
# (multiindex_to_dict utils.py:174-218 + to_camel_case utils.py:76-103)
_NESTED_MAP = {
    ADDR_KEY: ("input", "referenceKey"),
    STREET: ("input", "streetName"),
    HOUSENBR: ("input", "houseNumber"),
    POSTCODE: ("input", "postCode"),
    CITY: ("input", "postName"),
    COUNTRY: ("input", "countryName"),
    "m_method": ("metadata", "method"),
    "m_transformed_address": ("metadata", "transformedAddress"),
    "m_osm_order": ("metadata", "osmOrder"),
    "m_place_rank": ("metadata", "placeRank"),
    "m_place_id": ("metadata", "placeId"),
    "m_reject_reason": ("metadata", "rejectReason"),
    "m_distance_to_match": ("metadata", "distanceToMatch"),
    "m_match_on_cleansed_house_number": ("metadata", "matchOnCleansedHouseNumber"),
    "o_street_name": ("output", "streetName"),
    "o_house_number": ("output", "houseNumber"),
    "o_post_code": ("output", "postCode"),
    "o_post_name": ("output", "postName"),
    "o_country_name": ("output", "countryName"),
    "o_other": ("output", "other"),
    "o_display_name": ("output", "displayName"),
    "o_lat": ("output", "lat"),
    "o_lon": ("output", "lon"),
    "o_in_house_number": ("output", "inHouseNumber"),
    "o_lpost_house_number": ("output", "libpostalHouseNumber"),
    "o_lpost_unit": ("output", "libpostalUnit"),
    "candidate_json": ("metadata", "candidateJson"),
    "c_sim_street": ("check", "simStreet"),
    "c_sim_street_which": ("check", "simStreetWhich"),
    "c_sim_house_number": ("check", "simHouseNumber"),
    "c_sim_post_code": ("check", "simPostCode"),
    "c_sim_city": ("check", "simCity"),
    "hex_cell": ("spatial", "hexCell"),
    "quad_cell": ("spatial", "quadCell"),
    "square_cell": ("spatial", "squareCell"),
    "pip_ok": ("spatial", "pipOk"),
}

_MODE_KEEP = {
    # per-mode projections (nominatimwrapper.py:632-648, 820-837)
    "coordinates": {("output", "lat"), ("output", "lon"),
                    ("input", "referenceKey")},
    "short": None,   # short drops check + nominatim details; we keep
                     # input/metadata/output (see docstring)
    "long": None,
}

# type casts at the boundary (nominatimwrapper.py:813-817)
_CASTS = {"m_place_id": int, "m_place_rank": int, "o_lat": float,
          "o_lon": float, "m_distance_to_match": float}

# (column, namespace, leaf) of every leaf each mode keeps, in
# _NESTED_MAP order: coordinates keeps its three leaves, short drops
# the check namespace
_MODE_LEAVES = {
    mode: [(col, ns, leaf) for col, (ns, leaf) in _NESTED_MAP.items()
           if (mode != "coordinates" or (ns, leaf) in _MODE_KEEP[mode])
           and (mode != "short" or ns != "check")]
    for mode in MODES}

_INPUT_SCHEMA = pa.schema([(c, pa.string())
                           for c in [ADDR_KEY] + INPUT_FIELDS])


def to_camel_case(key: str) -> str:
    """snake_case -> camelCase (utils.py:76-103)."""
    return re.sub(r"_([a-z0-9])", lambda m: m.group(1).upper(), key)


def _nested_rows(tbl: pa.Table, leaves: list[tuple[str, str, str]]
                 ) -> list[dict]:
    """Pack every row of ``tbl``, whose columns are the ``leaves``'
    columns in order, into the nested camelCase JSON shape, skipping
    null/empty leaves (multiindex_to_dict semantics: utils.py:218 drops
    NaN and ''), one column at a time: each column converts to Python
    once and fills its leaf in every row."""
    rows: list[dict] = [{} for _ in range(tbl.num_rows)]
    for (col, ns, leaf), values in zip(leaves, tbl.columns):
        cast = _CASTS.get(col)
        for out, v in zip(rows, values.to_pylist()):
            # None, "" or NaN (the only value != itself)
            if v is None or v == "" or v != v:
                continue
            out.setdefault(ns, {})[leaf] = cast(v) if cast else v
    return rows


def validate_geocode_args(mode: str) -> None:
    """Pre-flight arg validation (nominatimwrapper.py:549-603)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


FULL_ADDRESS = "full_address"


def resolve_input_fields(data: dict, check_result: bool,
                         osm_structured: bool = False) -> dict:
    """fullAddress free-text input mode with the reference's
    mutual-exclusion validation (nominatimwrapper.py:571-586): the
    free-text address cannot be combined with any structured field, with
    structuredOsm, or with checkResult; when accepted, the whole string
    becomes the street field ('' elsewhere) and the cascade's
    transformers take it from there (get_init_df, utils.py:902-911)."""
    if FULL_ADDRESS not in data:
        return data
    forbidden = sorted(f for f in INPUT_FIELDS if f in data)
    if forbidden:
        raise ValueError("field 'full_address' cannot be used together "
                         "with fields " + ";".join(forbidden))
    if osm_structured:
        raise ValueError("field 'full_address' cannot be used together "
                         "with 'osm_structured=True'")
    if check_result:
        raise ValueError("field 'full_address' cannot be used together "
                         "with 'check_result=True'")
    out = {k: v for k, v in data.items() if k != FULL_ADDRESS}
    for f in INPUT_FIELDS:
        out[f] = ""
    out[STREET] = str(data[FULL_ADDRESS] or "")
    return out


# a pure rule engine, memoized through the gazetteer's parser memo
_PARSER = AddressParser()


def _world(spec: GazetteerSpec | None):
    return get_gazetteer(spec or GazetteerSpec()), _PARSER


def _long_mode_cfg(cfg: PipelineConfig, mode: str) -> PipelineConfig:
    """Long mode always carries the full candidate tail (the reference
    long mode returns every Nominatim field) — enforced even when the
    caller passes an explicit cfg."""
    if mode == "long" and not cfg.with_candidate_json:
        import dataclasses
        cfg = dataclasses.replace(cfg, with_candidate_json=True)
    return cfg


def _fast_path(data: dict, gaz, parser, with_rejected: bool,
               extra_house_number: bool, mode: str = "short") -> dict | None:
    """FASTMODE: one direct geocoder call, collapse-format the first
    result, low-rank retry on cleansed house number
    (process_address_fast, utils.py:963-1076).  Long mode attaches the
    raw candidate record (candidateJson) like the cascade path."""
    addr_in = clean_addr_in(
        f"{data.get(STREET, '')}, {data.get(HOUSENBR, '')}, "
        f"{data.get(POSTCODE, '')} {data.get(CITY, '')}, "
        f"{data.get(COUNTRY, '')}")
    results = gaz.search(addr_in, limit=50, namedetails=False)
    if not results:
        return None

    def fmt(rec: dict, order: int) -> dict:
        addr = rec.get("address", {})
        m = {"metadata": {"method": "fast", "placeId": int(rec["place_id"]),
                          "placeRank": int(rec["place_rank"]),
                          "osmOrder": order},
             "output": {"lat": float(rec["lat"]), "lon": float(rec["lon"]),
                        "displayName": rec.get("display_name", "")}}
        if mode == "long":
            import json as _json
            m["metadata"]["candidateJson"] = _json.dumps(
                rec, sort_keys=True, default=str)
        for out_key, in_keys in (("streetName", ["road", "pedestrian"]),
                                 ("postName", ["town", "village", "city"]),
                                 ("houseNumber", ["house_number"]),
                                 ("countryName", ["country"]),
                                 ("postCode", ["postcode"])):
            for k in in_keys:
                if k in addr:
                    m["output"][out_key] = addr[k]
                    break
        return m

    first = fmt(results[0], 0)
    hn = str(data.get(HOUSENBR, "") or "")
    if first["metadata"]["placeRank"] < 30:
        mm = re.match(r"^([0-9]+)", hn)
        if mm and mm.group(1) != hn:
            retry = dict(data)
            retry[HOUSENBR] = mm.group(1)
            res2 = _fast_path(retry, gaz, parser, with_rejected=False,
                              extra_house_number=False, mode=mode)
            if res2 and res2["match"][0]["metadata"]["placeRank"] == 30:
                res2["match"][0]["metadata"]["cleansedHouseNumber"] = mm.group(1)
                res2["match"][0]["metadata"]["matchOnCleansedHouseNumber"] = True
                return res2
    first["metadata"]["transformedAddress"] = addr_in
    first["input"] = {"referenceKey": str(data.get(ADDR_KEY, "-1")),
                      "streetName": data.get(STREET, ""),
                      "houseNumber": hn,
                      "postCode": data.get(POSTCODE, ""),
                      "postName": data.get(CITY, ""),
                      "countryName": data.get(COUNTRY, "")}
    if extra_house_number:
        pairs = parser.parse(f"{data.get(STREET, '')} {hn}, "
                             f"{data.get(POSTCODE, '')} {data.get(CITY, '')}")
        first["output"]["inHouseNumber"] = hn
        first["output"]["libpostalHouseNumber"] = ";".join(
            v for v, l in pairs if l == "house_number")
    out = {"match": [first], "rejected": []}
    if with_rejected:
        for order, rec in enumerate(results[1:], start=1):
            r = fmt(rec, order)
            r["metadata"]["rejectReason"] = "tail"
            r["metadata"]["distanceToMatch"] = round(float(haversine_km(
                [rec["lat"]], [rec["lon"]],
                [results[0]["lat"]], [results[0]["lon"]])[0]), 3)
            out["rejected"].append(r)
    return out


def geocode_one(data: dict, mode: str = "short", with_rejected: bool = True,
                check_result: bool = True, extra_house_number: bool = True,
                fastmode: bool = False,
                spec: GazetteerSpec | None = None,
                cfg: PipelineConfig | None = None) -> dict:
    """Single-address geocode (POST /geocode semantics,
    nominatimwrapper.py:504-668 + process_address utils.py:1100-1192):
    fastmode tries a direct call first; otherwise the full cascade runs
    on a 1-row batch.  Accepts ``full_address`` free-text input with the
    reference's mutual-exclusion rules (see resolve_input_fields)."""
    validate_geocode_args(mode)
    data = resolve_input_fields(
        data, check_result,
        osm_structured=bool(cfg and cfg.osm_structured))
    gaz, parser = _world(spec)
    if fastmode and not check_result:
        fast = _fast_path(data, gaz, parser, with_rejected,
                          extra_house_number, mode=mode)
        if fast is not None:
            return fast
    row = {ADDR_KEY: str(data.get(ADDR_KEY) or "-1")}
    for f in INPUT_FIELDS:
        row[f] = str(data.get(f, "") or "")
    cfg = cfg or PipelineConfig(check_results=check_result,
                                with_extra_house_number=extra_house_number)
    cfg = _long_mode_cfg(cfg, mode)
    res = process_addresses_df(
        pa.Table.from_pylist([row], schema=_INPUT_SCHEMA), gaz, parser, cfg)
    return _format_results(res, mode, with_rejected)


def _format_results(res: pa.Table, mode: str,
                    with_rejected: bool) -> dict:
    """Cascade rows → {"match": [...], "rejected": [...]} in the nested
    shape: status filtered in Arrow, only the mode's columns converted."""
    present = set(res.schema.names)
    leaves = [lf for lf in _MODE_LEAVES[mode] if lf[0] in present]
    cols = res.select([col for col, _, _ in leaves])

    def nested(status: str) -> list[dict]:
        return _nested_rows(cols.filter(pc.equal(res[STATUS], status)),
                            leaves)

    return {"match": nested("match"),
            "rejected": nested("reject") if with_rejected else []}


def batch_geocode(payload: list[dict], mode: str = "short",
                  with_rejected: bool = False, check_result: bool = True,
                  extra_house_number: bool = True,
                  spec: GazetteerSpec | None = None,
                  cfg: PipelineConfig | None = None) -> dict:
    """Batch geocode (POST /batchGeocode semantics,
    nominatimwrapper.py:709-855): mandatory-field check, duplicate-key
    rejection, cascade, per-mode projection.  For payloads beyond memory
    use ``pipeline.geocode_addresses`` on a Dataset instead."""
    validate_geocode_args(mode)
    if not payload:
        raise ValueError("empty payload")
    payload = [resolve_input_fields(
        p, check_result, osm_structured=bool(cfg and cfg.osm_structured))
        for p in payload]
    keys = [str(p.get(ADDR_KEY, "")) for p in payload]
    if any(not k for k in keys):
        raise ValueError("missing mandatory field addr_key")
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate addr_key values in payload")
    rows = []
    for p in payload:
        row = {ADDR_KEY: str(p.get(ADDR_KEY))}
        for f in INPUT_FIELDS:
            row[f] = str(p.get(f, "") or "")
        rows.append(row)
    gaz, parser = _world(spec)
    cfg = cfg or PipelineConfig(check_results=check_result,
                                with_extra_house_number=extra_house_number)
    cfg = _long_mode_cfg(cfg, mode)
    res = process_addresses_df(
        pa.Table.from_pylist(rows, schema=_INPUT_SCHEMA), gaz, parser, cfg)
    return _format_results(res, mode, with_rejected)


def _csv_as_strings(streams) -> pacsv.ConvertOptions:
    """Convert options typing every header column of ``streams`` (binary
    files, each closed once its header is read) as string.  The types
    must be fixed before the parse: inferred types cannot be cast back
    (``'001'`` parses as 1 and returns as ``'1'``)."""
    names: dict[str, None] = {}
    for stream in streams:
        with stream, pacsv.open_csv(stream, read_options=pacsv.ReadOptions(
                use_threads=False)) as head:
            names.update(dict.fromkeys(head.schema.names))
    return pacsv.ConvertOptions(
        column_types={n: pa.string() for n in names},
        strings_can_be_null=False)


def batch_geocode_csv(csv_source, mode: str = "short",
                      with_rejected: bool = False,
                      check_result: bool = True,
                      extra_house_number: bool = True,
                      spec: GazetteerSpec | None = None,
                      cfg: PipelineConfig | None = None) -> dict:
    """CSV batch source — a CSV form of the /batchGeocode payload (the
    reference endpoint, nominatimwrapper.py:709-769, takes a JSON list
    of all-string dicts): Arrow-native ``pyarrow.csv`` parse with every
    column typed string before the parse, so ``'001'`` stays ``'001'``,
    then the identical mandatory-field / duplicate-key validation via
    ``batch_geocode``.  ``csv_source`` is a filesystem path or raw
    ``bytes``.  For beyond-memory CSVs use ``csv_dataset`` +
    ``pipeline.geocode_addresses`` (streaming)."""
    import io

    def src():
        return (io.BytesIO(csv_source) if isinstance(csv_source, bytes)
                else pa.input_stream(csv_source))

    tbl = pacsv.read_csv(
        src(), convert_options=_csv_as_strings([src()]),
        read_options=pacsv.ReadOptions(use_threads=False))
    return batch_geocode(tbl.to_pylist(), mode=mode,
                         with_rejected=with_rejected,
                         check_result=check_result,
                         extra_house_number=extra_house_number,
                         spec=spec, cfg=cfg)


def _csv_files(path) -> tuple[list[str], "pafs.FileSystem"]:
    """The files ``path`` names, with their one filesystem.  ``path`` is
    a file, a directory (searched recursively; entries whose path below
    it starts with ``.`` or ``_`` are skipped, Ray's rule) or a list of
    either, each a local path or a URI such as ``s3://bucket/key``."""
    from pyarrow import fs as pafs

    fs, files = None, []
    for p in [path] if isinstance(path, (str, os.PathLike)) else path:
        p = os.fspath(p)
        if "://" in p:
            p_fs, root = pafs.FileSystem.from_uri(p)
        else:
            p_fs, root = pafs.LocalFileSystem(), os.path.abspath(p)
        fs = fs or p_fs
        if p_fs.type_name != fs.type_name:
            raise ValueError(f"csv_dataset: {p!r} is not on the "
                             f"{fs.type_name} filesystem of the other paths")
        if fs.get_file_info(root).type != pafs.FileType.Directory:
            files.append(root)
            continue
        found = fs.get_file_info(pafs.FileSelector(root, recursive=True))
        files += sorted(
            f.path for f in found if f.type == pafs.FileType.File
            and not f.path[len(root):].lstrip("/").startswith((".", "_")))
    return files, fs


def csv_dataset(path) -> "ray.data.Dataset":
    """Streaming CSV source for the Dataset pipeline: every column as
    string (the CSV contract, leading zeros kept), blocks stream with
    backpressure — feed the result to ``pipeline.geocode_addresses`` for
    beyond-memory files.  ``path`` is a CSV file, a directory of them or
    a list of either, local or a URI (see ``_csv_files``).  The file
    list is resolved once: every file's header is read to type its
    columns, and Ray reads exactly those files."""
    import ray.data

    files, fs = _csv_files(path)
    return ray.data.read_csv(
        files, filesystem=fs,
        convert_options=_csv_as_strings(fs.open_input_stream(f)
                                        for f in files))


def json_dataset(path: str) -> "ray.data.Dataset":
    """Streaming JSON-lines source (the dict-payload contract of
    /batchGeocode as a file format): every field coerced to string,
    blocks stream with backpressure — symmetric with ``csv_dataset``.
    JSON numbers become their string form (``1050`` → ``"1050"``,
    ``1.0`` → ``"1"``), so a value whose leading zeros matter — a
    postcode such as ``"0840"``, a house number, a key — must be sent as
    a JSON string."""
    import ray.data

    def to_str(batch: pa.Table) -> pa.Table:
        return pa.table({c: batch[c].cast(pa.string())
                         for c in batch.column_names})

    return ray.data.read_json(path).map_batches(
        to_str, batch_format="pyarrow")


def health_check(spec: GazetteerSpec | None = None) -> dict:
    """UP/DEGRADED/DOWN probes with a known city
    (nominatimwrapper.py:859-921; config.py:125-126 uses Bruxelles)."""
    gaz, parser = _world(spec)
    status = {}
    try:
        r = gaz.search("1000 Bruxelles, Belgium")
        status["gazetteer"] = "UP" if r and "Bruxelles" in (
            r[0]["address"].get("city", "") + r[0]["address"].get("town", "")
            + r[0]["address"].get("village", "")) else "DEGRADED"
    except Exception:
        status["gazetteer"] = "DOWN"
    try:
        pairs = parser.parse("Avenue Fonsny 20, 1060 Bruxelles")
        status["parser"] = "UP" if any(l == "road" for _, l in pairs) else "DEGRADED"
    except Exception:
        status["parser"] = "DOWN"
    try:
        f = gaz.fuzzy("Avenue Louise, 1000 Bruxelles")
        status["fuzzy"] = "UP" if f.get("features") is not None else "DEGRADED"
    except Exception:
        status["fuzzy"] = "DOWN"
    overall = ("UP" if all(v == "UP" for v in status.values())
               else "DOWN" if any(v == "DOWN" for v in status.values())
               else "DEGRADED")
    return {"status": overall, "services": status}
