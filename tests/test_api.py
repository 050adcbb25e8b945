"""REST-semantics parity tests: /geocode, /batchGeocode, /health behaviors
(SURVEY.md §2.1; API contract nominatimwrapper.py:339-453)."""

import pytest

from georay.api import (batch_geocode, geocode_one, health_check,
                        to_camel_case)
from georay.gazetteer import GazetteerSpec, get_gazetteer

SPEC = GazetteerSpec()


@pytest.fixture(scope="module")
def street():
    gaz = get_gazetteer(SPEC)
    return gaz.places[gaz.places.place_rank == 26].iloc[0]


def _payload(st, key="1"):
    return {"addr_key": key, "street_name": st["name"], "house_number": "4",
            "post_code": st["post_code"], "post_name": st["post_name"],
            "country_name": "Belgium"}


def test_to_camel_case():
    # utils.py:76-103
    assert to_camel_case("street_name") == "streetName"
    assert to_camel_case("match_on_cleansed_house_number") == \
        "matchOnCleansedHouseNumber"
    assert to_camel_case("lat") == "lat"


def test_geocode_one_nested_shape(street):
    res = geocode_one(_payload(street), mode="long")
    assert len(res["match"]) == 1
    m = res["match"][0]
    assert m["input"]["streetName"] == street["name"]
    assert m["metadata"]["method"] == "orig"
    assert isinstance(m["metadata"]["placeId"], int)
    assert isinstance(m["output"]["lat"], float)
    assert m["output"]["houseNumber"] == "4"
    # empty leaves are dropped (utils.py:218)
    assert "rejectReason" not in m["metadata"]


def test_geocode_modes(street):
    coords = geocode_one(_payload(street), mode="coordinates")
    m = coords["match"][0]
    assert set(m.keys()) <= {"input", "output"}
    assert set(m["output"].keys()) == {"lat", "lon"}
    short = geocode_one(_payload(street), mode="short")
    assert "check" not in short["match"][0]
    long_ = geocode_one(_payload(street), mode="long")
    assert "check" in long_["match"][0]
    with pytest.raises(ValueError):
        geocode_one(_payload(street), mode="bogus")


def test_fastmode_direct_hit(street):
    res = geocode_one(_payload(street), fastmode=True, check_result=False)
    m = res["match"][0]
    assert m["metadata"]["method"] == "fast"
    assert m["metadata"]["placeRank"] == 30
    assert m["metadata"]["osmOrder"] == 0


def test_fastmode_cleansed_retry(street):
    p = _payload(street)
    p["house_number"] = "4 bt 2"
    res = geocode_one(p, fastmode=True, check_result=False)
    m = res["match"][0]
    assert m["metadata"]["placeRank"] == 30
    assert m["metadata"].get("matchOnCleansedHouseNumber") is True


def test_batch_geocode_dup_key_rejected(street):
    with pytest.raises(ValueError, match="duplicate"):
        batch_geocode([_payload(street, "1"), _payload(street, "1")])
    with pytest.raises(ValueError, match="mandatory"):
        batch_geocode([{"street_name": "x"}])


def test_batch_geocode_end_to_end(street):
    gaz = get_gazetteer(SPEC)
    s2 = gaz.places[gaz.places.place_rank == 26].iloc[1]
    res = batch_geocode([_payload(street, "1"), _payload(s2, "2")],
                        with_rejected=True)
    keys = sorted(m["input"]["referenceKey"] for m in res["match"])
    assert keys == ["1", "2"]


def test_health_check():
    h = health_check(SPEC)
    assert h["status"] == "UP"
    assert set(h["services"]) == {"gazetteer", "parser", "fuzzy"}


def test_full_address_only(street):
    # free-text input mode (nominatimwrapper.py:571-586): the whole
    # string lands in the street field and the cascade resolves it
    full = (f"{street['name']} 4, {street['post_code']} "
            f"{street['post_name']}, Belgium")
    res = geocode_one({"addr_key": "fa1", "full_address": full},
                      check_result=False)
    assert len(res["match"]) == 1
    m = res["match"][0]
    assert isinstance(m["metadata"]["placeId"], int)
    assert m["input"]["streetName"] == full  # street carries the raw text


def test_full_address_mutual_exclusion(street):
    full = f"{street['name']} 4, {street['post_code']} {street['post_name']}"
    with pytest.raises(ValueError, match="full_address"):
        geocode_one({"addr_key": "1", "full_address": full,
                     "street_name": street["name"]}, check_result=False)
    with pytest.raises(ValueError, match="check_result"):
        geocode_one({"addr_key": "1", "full_address": full},
                    check_result=True)
    from georay.config import PipelineConfig
    with pytest.raises(ValueError, match="osm_structured"):
        geocode_one({"addr_key": "1", "full_address": full},
                    check_result=False,
                    cfg=PipelineConfig(osm_structured=True,
                                       check_results=False))


def test_full_address_structured_parity(street):
    # the two input forms must resolve to the same place
    full = (f"{street['name']} 4, {street['post_code']} "
            f"{street['post_name']}, Belgium")
    via_full = geocode_one({"addr_key": "p1", "full_address": full},
                           check_result=False)
    via_fields = geocode_one(_payload(street), check_result=False)
    assert via_full["match"][0]["metadata"]["placeId"] == \
        via_fields["match"][0]["metadata"]["placeId"]


def test_batch_full_address(street):
    full = (f"{street['name']} 4, {street['post_code']} "
            f"{street['post_name']}, Belgium")
    res = batch_geocode([{"addr_key": "b1", "full_address": full}],
                        check_result=False)
    assert len(res["match"]) == 1


def test_long_mode_candidate_json(street):
    import json
    res = geocode_one(_payload(street), mode="long")
    m = res["match"][0]
    raw = json.loads(m["metadata"]["candidateJson"])
    # full-fidelity tail: the raw geocoder record round-trips
    assert raw["place_id"] == m["metadata"]["placeId"]
    assert raw["address"]["postcode"] == street["post_code"]
    assert "display_name" in raw and "place_rank" in raw
    # short mode carries no candidate tail
    short = geocode_one(_payload(street), mode="short")
    assert "candidateJson" not in short["match"][0].get("metadata", {})


def test_batch_geocode_csv_parity(street, tmp_path):
    # CSV source == dict source row for row (the reference's
    # /batchGeocode file-upload path, nominatimwrapper.py:709-769)
    import csv as _csv

    from georay.api import batch_geocode_csv

    p1 = _payload(street, "1")
    path = tmp_path / "batch.csv"
    with open(path, "w", newline="") as f:
        w = _csv.DictWriter(f, fieldnames=list(p1))
        w.writeheader()
        w.writerow(p1)
    res_csv = batch_geocode_csv(str(path), with_rejected=True)
    res_dict = batch_geocode([p1], with_rejected=True)
    assert res_csv == res_dict
    # bytes input behaves like a path
    res_bytes = batch_geocode_csv(open(path, "rb").read(),
                                  with_rejected=True)
    assert res_bytes == res_dict


def test_batch_geocode_csv_dup_key(street, tmp_path):
    import csv as _csv

    from georay.api import batch_geocode_csv

    p1 = _payload(street, "1")
    path = tmp_path / "dup.csv"
    with open(path, "w", newline="") as f:
        w = _csv.DictWriter(f, fieldnames=list(p1))
        w.writeheader()
        w.writerow(p1)
        w.writerow(p1)
    with pytest.raises(ValueError, match="duplicate"):
        batch_geocode_csv(str(path))


def test_csv_dataset_streaming_source(street, tmp_path, ray_session):
    # streaming CSV -> Dataset -> full pipeline parity on keys
    import csv as _csv

    from georay.api import csv_dataset
    from georay.config import PipelineConfig
    from georay.pipeline import geocode_addresses

    p1 = _payload(street, "1")
    path = tmp_path / "stream.csv"
    with open(path, "w", newline="") as f:
        w = _csv.DictWriter(f, fieldnames=list(p1))
        w.writeheader()
        w.writerow(p1)
    ds = csv_dataset(str(path))
    assert ds.schema().types[0] == __import__("pyarrow").string()
    out = geocode_addresses(ds, SPEC, PipelineConfig()).to_pandas()
    # cascade output carries one row per surviving candidate; every
    # row must trace back to the single CSV input key
    assert set(out["addr_key"]) == {"1"} and len(out) >= 1


def test_json_dataset_streaming_source(street, tmp_path, ray_session):
    import json as _json

    from georay.api import json_dataset
    from georay.config import PipelineConfig
    from georay.pipeline import geocode_addresses

    p1 = _payload(street, "1")
    path = tmp_path / "stream.json"
    with open(path, "w") as f:
        f.write(_json.dumps(p1) + "\n")
    ds = json_dataset(str(path))
    out = geocode_addresses(ds, SPEC, PipelineConfig()).to_pandas()
    assert set(out["addr_key"]) == {"1"} and len(out) >= 1


def test_json_dataset_matches_in_process_cascade(street, tmp_path,
                                                 ray_session):
    # JSONL through Ray gives the rows the in-process cascade gives for
    # the same payload as an all-string Arrow table
    import json as _json

    import pyarrow as pa

    from georay.api import json_dataset
    from georay.cascade import process_addresses_df
    from georay.config import PipelineConfig
    from georay.parser import AddressParser
    from georay.pipeline import geocode_addresses

    payload = [
        dict(_payload(street, "001"), house_number="04"),
        dict(_payload(street, "002"), post_code="0" + street["post_code"]),
        dict(_payload(street, "003"), house_number="", post_code=""),
        dict(_payload(street, "004"), country_name="België"),
        dict(_payload(street, "005"), street_name="Rue de l'Église 北"),
        dict(_payload(street, 'a,"b"'),
             street_name=street["name"] + ', "bis"'),
        {k: "" for k in _payload(street)} | {"addr_key": "007"},
    ]
    path = tmp_path / "batch.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for p in payload:
            f.write(_json.dumps(p, ensure_ascii=False) + "\n")
    cols = ["addr_key", "status", "m_method", "m_place_id", "o_lat",
            "o_lon"]

    def rows(df):
        return sorted(map(tuple, df[cols].astype(str).to_numpy().tolist()))

    got = geocode_addresses(json_dataset(str(path)), SPEC, PipelineConfig(),
                            with_tiles=False).to_pandas()
    want = process_addresses_df(
        pa.Table.from_pylist(payload), get_gazetteer(SPEC), AddressParser(),
        PipelineConfig()).to_pandas()
    assert {r[1] for r in rows(want)} >= {"match", "unmatched"}
    assert rows(got) == rows(want)


# ---------------------------------------------------------------------------
# string contract across input surfaces

def _write_csv(path, rows):
    import csv as _csv
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


def test_batch_geocode_csv_keeps_leading_zeros(street, tmp_path):
    # every CSV column is typed string BEFORE the parse: inferring ints
    # and casting back turned "001" into "1" and "04" into "4"
    from georay.api import batch_geocode_csv

    p = dict(_payload(street, "001"), house_number="04")
    path = tmp_path / "zeros.csv"
    _write_csv(path, [p])
    for src in (str(path), path.read_bytes()):
        res = batch_geocode_csv(src, with_rejected=True)
        assert res["match"], res
        inp = res["match"][0]["input"]
        assert inp["referenceKey"] == "001"
        assert inp["houseNumber"] == "04"
        assert res == batch_geocode([p], with_rejected=True)


def test_csv_dataset_keeps_leading_zeros(street, tmp_path, ray_session):
    from georay.api import csv_dataset

    rows = [dict(_payload(street, "001"), house_number="04",
                 post_code="0840"),
            dict(_payload(street, "002"), house_number="", post_code="")]
    path = tmp_path / "zeros.csv"
    _write_csv(path, rows)
    got = csv_dataset(str(path)).take_all()
    assert [{k: r[k] for k in rows[0]} for r in got] == rows
    # a directory of files reads the same way
    (tmp_path / "dir").mkdir()
    _write_csv(tmp_path / "dir" / "a.csv", rows[:1])
    _write_csv(tmp_path / "dir" / "b.csv", rows[1:])
    got = csv_dataset(str(tmp_path / "dir")).take_all()
    assert sorted(r["addr_key"] for r in got) == ["001", "002"]
    assert {r["house_number"] for r in got} == {"04", ""}


def test_csv_dataset_types_every_file_it_reads(street, tmp_path, ray_session):
    # the files whose headers are typed and the files Ray reads are one
    # list: a nested file with another suffix is read with leading zeros
    # kept, Ray-hidden entries are read by neither, and a file:// URI or
    # a list of paths resolves the same way
    from georay.api import csv_dataset

    rows = [dict(_payload(street, "001"), house_number="04"),
            dict(_payload(street, "002"), post_code="0840")]
    d = tmp_path / "dir"
    (d / "sub").mkdir(parents=True)
    _write_csv(d / "a.csv", rows[:1])
    _write_csv(d / "sub" / "b.data", rows[1:])
    (d / "_SUCCESS").write_bytes(b"")
    (d / ".part.csv.crc").write_bytes(b"\x00\x01")
    for src in (str(d), d.as_uri(), [str(d / "a.csv"), d / "sub"]):
        got = sorted(csv_dataset(src).take_all(), key=lambda r: r["addr_key"])
        assert [{k: r[k] for k in rows[0]} for r in got] == rows, src


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_REAL = get_gazetteer(SPEC).places.query("place_rank == 26").head(6)
_ODD = st.text(alphabet="0aéß北 ,\"'-;", max_size=8)


@st.composite
def _payloads(draw):
    n = draw(st.integers(1, 4))
    keys = draw(st.lists(st.text(alphabet="0123,\"é ", min_size=1,
                                 max_size=4), min_size=n, max_size=n,
                         unique=True))
    rows = []
    for key in keys:
        st_row = _REAL.iloc[draw(st.integers(0, len(_REAL) - 1))]
        real = draw(st.booleans())
        rows.append({
            "addr_key": key,
            "street_name": st_row["name"] if real else draw(_ODD),
            "house_number": draw(st.sampled_from(["04", "4", "", "0012",
                                                  "4, bt 2"])),
            "post_code": (draw(st.sampled_from([st_row["post_code"],
                                                "0" + st_row["post_code"],
                                                ""])) if real
                          else draw(_ODD)),
            "post_name": st_row["post_name"] if real else draw(_ODD),
            "country_name": draw(st.sampled_from(["Belgium", "België", ""])),
        })
    return rows


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_payloads())
def test_input_surfaces_give_identical_output(payload):
    # dict payload, CSV path and CSV bytes: same strings in, same answer
    import tempfile

    from georay.api import batch_geocode_csv

    want = batch_geocode(payload, with_rejected=True)
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/batch.csv"
        _write_csv(path, payload)
        assert batch_geocode_csv(path, with_rejected=True) == want
        with open(path, "rb") as f:
            assert batch_geocode_csv(f.read(), with_rejected=True) == want


# ---------------------------------------------------------------------------
# the Arrow formatter against the pandas to_dict("records") one it replaced

import math

import pandas as pd
import pyarrow as pa

from georay import api


def _ref_row_to_nested(row, mode):
    out = {}
    for col, (ns, leaf) in api._NESTED_MAP.items():
        if col not in row:
            continue
        v = row[col]
        if (v is None or (isinstance(v, float) and math.isnan(v))
                or (isinstance(v, str) and v == "")):
            continue
        if mode == "coordinates" and \
                (ns, leaf) not in api._MODE_KEEP["coordinates"]:
            continue
        if mode == "short" and ns == "check":
            continue
        if col in ("m_place_id", "m_place_rank"):
            v = int(v)
        elif col in ("o_lat", "o_lon", "m_distance_to_match"):
            v = float(v)
        out.setdefault(ns, {})[leaf] = v
    return out


def _ref_format_results(res, mode, with_rejected):
    match = [_ref_row_to_nested(r, mode)
             for r in res[res["status"] == "match"].to_dict("records")]
    rejected = []
    if with_rejected:
        rejected = [_ref_row_to_nested(r, mode)
                    for r in res[res["status"] == "reject"].to_dict("records")]
    return {"match": match, "rejected": rejected}


@pytest.fixture(scope="module")
def cascade_rows():
    """Long-mode cascade output of a 50-address batch (matches, rejects,
    unmatched, a cleansed house number), plus rows with nulls, NaNs and
    -1 sentinels written in."""
    from georay.cascade import RESULT_SCHEMA, process_addresses_df
    from georay.config import PipelineConfig
    from georay.parser import AddressParser

    streets = get_gazetteer(SPEC).places.query("place_rank == 26")
    rows = []
    for i in range(50):
        s = streets.iloc[i % 20]
        rows.append({"addr_key": f"k{i}",
                     "street_name": s["name"] if i % 7 else f"Nowhere {i}",
                     "house_number": ["4", "4 bt 2", "", "9999"][i % 4],
                     "post_code": s["post_code"], "post_name": s["post_name"],
                     "country_name": "Belgium"})
    tbl = process_addresses_df(
        pa.Table.from_pylist(rows), get_gazetteer(SPEC), AddressParser(),
        PipelineConfig(with_candidate_json=True))
    assert tbl.num_rows >= 50
    recs = tbl.to_pylist()
    match = [r for r in recs if r["status"] == "match"]
    match[0].update(o_lat=None, m_place_rank=None, o_street_name=None,
                    m_match_on_cleansed_house_number=None)
    match[1].update(o_lon=float("nan"), m_place_id=-1, m_osm_order=-1)
    return pa.Table.from_pylist(recs, schema=RESULT_SCHEMA)


def test_cascade_rows_cover_the_edge_values(cascade_rows):
    df = cascade_rows.to_pandas()
    shown = df[df["status"].isin(["match", "reject"])]
    assert (df["status"] == "reject").sum() > 0
    assert shown["m_distance_to_match"].isna().any()
    assert shown["o_lat"].isna().any() and shown["o_lon"].isna().any()
    assert (shown["m_place_id"] == -1).any()
    assert (shown["m_match_on_cleansed_house_number"] == False).any()  # noqa: E712
    assert (shown["m_match_on_cleansed_house_number"] == True).any()  # noqa: E712
    assert (shown["candidate_json"] != "").any()


@pytest.mark.parametrize("mode", api.MODES)
@pytest.mark.parametrize("with_rejected", [True, False])
def test_format_results_matches_pandas_reference(cascade_rows, mode,
                                                 with_rejected):
    got = api._format_results(cascade_rows, mode, with_rejected)
    want = _ref_format_results(cascade_rows.to_pandas(), mode, with_rejected)
    assert got == want
    # same leaves in the same order, same Python types
    assert repr(got) == repr(want)
    # a one-row table takes the same path as the 50-row batch
    one = cascade_rows.slice(0, 1)
    assert api._format_results(one, mode, with_rejected) == \
        _ref_format_results(one.to_pandas(), mode, with_rejected)


def test_memo_hits_build_no_dataframe(street, monkeypatch):
    # a memo hit stays in Arrow from payload to nested dicts
    one = _payload(street, "guard")
    batch = [_payload(street, f"guard{i}") for i in range(3)]
    geocode_one(one)
    batch_geocode(batch, with_rejected=True)
    built = []
    init = pd.DataFrame.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pd.DataFrame, "__init__", counting_init)
    assert geocode_one(one)["match"]
    assert batch_geocode(batch, with_rejected=True)["match"]
    assert built == []


def test_benchmark_trace_hooks_attach_and_count(monkeypatch):
    """The benchmark's traced replay (perfbench/spantrace.py) wraps georay
    names and reads the memo-hit share as 1 - step0 rows / address rows:
    every address, a memo hit included, passes ``process_addresses_df``,
    and only the misses reach the cascade's first step."""
    import os

    from georay.config import INPUT_FIELDS
    from georay.corpus import make_addresses
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench"))
    from spantrace import Tracer, install_georay_layers

    from georay import api
    monkeypatch.setattr(get_gazetteer(SPEC), "memos", {})
    pool = [{f: str(r[f]) for f in INPUT_FIELDS} for r in make_addresses(
        4, spec=SPEC, seed=23).to_dict("records")]
    assert len({tuple(p.values()) for p in pool}) == 4
    geocode_one({"addr_key": "w", **pool[0]}, spec=SPEC)
    originals = (api.process_addresses_df, api.geocode_one)
    tracer = Tracer()
    install_georay_layers(tracer)
    try:
        assert api.geocode_one({"addr_key": "hit", **pool[0]},
                               spec=SPEC)["match"]
        api.geocode_one({"addr_key": "miss", **pool[1]}, spec=SPEC)
        api.batch_geocode([{"addr_key": f"b{i}", **pool[i]}
                           for i in (0, 2, 3)], spec=SPEC)
    finally:
        tracer.restore()
    assert (api.process_addresses_df, api.geocode_one) == originals
    assert tracer.counts["api.requests"] == 3
    assert tracer.counts["cascade.addr_rows"] == 5
    assert tracer.counts["transforms.step0.rows"] == 3
    assert tracer.counts["parser.calls"] > 0
