"""Cascade semantics tests: transformer steps, changed-only filter,
keep-best labeling, low-rank retry, parent rescue, method labels
(SURVEY.md §3.1 traced behaviors).  Pure batch-local — no Ray needed."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from georay import cascade, compare
from georay.cascade import _ResultStore, process_addresses_df
from georay.config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, INPUT_FIELDS,
                           M_REJECT_REASON, POSTCODE, STREET,
                           PipelineConfig)
from georay.corpus import make_addresses
from georay.gazetteer import GazetteerSpec, get_gazetteer
from georay.memo import CAPS, world_memo
from georay.parser import AddressParser
from georay.stepstats import outcome_counters, outcome_counts
from georay.transforms import (AddressRows, apply_transformers,
                               clean_addr_in)

from cascade_frames import geocode_frame


@pytest.fixture(scope="module")
def world():
    spec = GazetteerSpec()
    return spec, get_gazetteer(spec), AddressParser(), PipelineConfig()


def _addr(key, street, hn, pc, city, country="Belgium"):
    return {ADDR_KEY: key, STREET: street, HOUSENBR: hn, POSTCODE: pc,
            CITY: city, COUNTRY: country}


def _rows(*addrs):
    """A cascade step's input rows: representatives 0..n-1."""
    return AddressRows(np.arange(len(addrs)), {
        f: np.array([a[f] for a in addrs], dtype=object)
        for f in INPUT_FIELDS})


def _run(world, rows):
    spec, gaz, parser, cfg = world
    return geocode_frame(pd.DataFrame(rows), gaz, parser, cfg)


def test_clean_addr_in():
    # utils.py:107-131 examples
    assert clean_addr_in("Avenue Fonsny, , , , ") == "Avenue Fonsny"
    assert clean_addr_in("Avenue Fonsny, , 1060, , ") == "Avenue Fonsny, 1060"
    assert clean_addr_in(", , x") == "x"


def test_changed_only_filter(world):
    spec, gaz, parser, cfg = world
    rows = _rows(_addr("1", "Avenue Fonsny", "20", "1060", "Bruxelles"))
    # nonum blanks the housenumber -> changed -> kept
    out = apply_transformers(rows, ["nonum"], parser, gaz, cfg)
    assert len(out) == 1 and out.fields[HOUSENBR][0] == ""
    # nonum on an already-empty housenumber -> unchanged -> dropped
    rows2 = _rows(_addr("1", "Avenue Fonsny", "", "1060", "Bruxelles"))
    out2 = apply_transformers(rows2, ["nonum"], parser, gaz, cfg)
    assert len(out2) == 0
    # orig passes everything through
    assert len(apply_transformers(rows, ["orig"], parser, gaz, cfg)) == 1


def test_clean_address_matches_at_orig(world):
    spec, gaz, parser, cfg = world
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    out = _run(world, [_addr("k1", st["name"], "4", st["post_code"],
                             st["post_name"])])
    m = out[out.status == "match"]
    assert len(m) == 1
    assert m.iloc[0]["m_method"] == "orig"
    assert m.iloc[0]["m_place_rank"] == 30       # building-level
    assert m.iloc[0]["o_house_number"] == "4"
    assert m.iloc[0]["c_sim_street"] >= 0.5
    # original input restored on the output row (utils.py:1271)
    assert m.iloc[0][STREET] == st["name"]


def test_box_number_triggers_cleansed_retry(world):
    spec, gaz, parser, cfg = world
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    out = _run(world, [_addr("k1", st["name"], "4 bt 2", st["post_code"],
                             st["post_name"])])
    m = out[out.status == "match"]
    assert len(m) == 1
    # "4 bt 2" can't hit a building directly; retry with leading digits does
    assert m.iloc[0]["m_place_rank"] == 30
    assert bool(m.iloc[0]["m_match_on_cleansed_house_number"]) is True


def test_street_only_match_is_rank_26(world):
    spec, gaz, parser, cfg = world
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    out = _run(world, [_addr("k1", st["name"], "", st["post_code"],
                             st["post_name"])])
    m = out[out.status == "match"]
    assert len(m) == 1 and m.iloc[0]["m_place_rank"] == 26


def test_nostreet_final_fallback(world):
    spec, gaz, parser, cfg = world
    city = gaz.places[gaz.places.place_rank == 16].iloc[0]
    # valid postcode, hopeless street -> ends at nostreet with a city match
    out = _run(world, [_addr("k1", "Zzzz Qqqq Xyzzy", "99", city["post_code"],
                             city["post_name"])])
    m = out[out.status == "match"]
    assert len(m) == 1
    assert m.iloc[0]["m_method"] == "nostreet"
    assert m.iloc[0]["m_place_rank"] == 16


def test_garbage_is_unmatched(world):
    out = _run(world, [_addr("k1", "Qwxyz Zzyzx", "1", "123", "Atlantis")])
    assert (out.status == "unmatched").all()


def test_misspelling_recovered_by_photon_step(world):
    spec, gaz, parser, cfg = world
    streets = gaz.places[(gaz.places.place_rank == 26)
                         & (gaz.places.name.str.len() >= 12)]
    st = streets.iloc[0]
    name = st["name"]
    mis = name[:4] + name[5:]          # drop 5th char
    out = _run(world, [_addr("k1", mis, "4", st["post_code"], st["post_name"])])
    m = out[out.status == "match"]
    assert len(m) == 1
    assert "photon" in m.iloc[0]["m_method"]


def test_parent_rescue_on_dutch_only_road(world, monkeypatch):
    spec, gaz, parser, _ = world
    # variant-9 streets: road reported NL-only but name_fr exists
    cand = gaz.places[(gaz.places.place_rank == 26)
                      & (gaz.places.name_fr != "")
                      & (gaz.places.street_name == gaz.places.name_nl)]
    assert len(cand) > 0, "synthetic world must contain NL-only-road streets"
    st = cand.iloc[0]
    # street similarity as case-insensitive equality: the French name
    # then fails the comparator against the building's Dutch road, so
    # only the parent-place alt-name rescue (check_result_utils.py:
    # 560-644) can keep the building
    monkeypatch.setattr(compare, "street_similarity",
                        lambda a, b: float(a.lower() == b.lower()))
    mismatches = []
    rescue = cascade._match_parent

    def spy(keep, reject, *args):
        mismatches.append(int((reject[M_REJECT_REASON] == "mismatch").sum()))
        return rescue(keep, reject, *args)

    monkeypatch.setattr(cascade, "_match_parent", spy)
    match = {}
    for use_parent in (True, False):
        monkeypatch.setattr(gaz, "memos", {})
        mismatches.clear()
        out = geocode_frame(
            pd.DataFrame([_addr("k1", st["name_fr"], "4", st["post_code"],
                                st["post_name"])]),
            gaz, parser, PipelineConfig(use_osm_parent=use_parent))
        m = out[out.status == "match"]
        assert len(m) == 1
        match[use_parent] = m.iloc[0]
        # the rescue ran on a mismatch reject, and only with the flag
        assert (max(mismatches, default=0) >= 1) == use_parent
    # the building whose road is the Dutch name, at orig
    assert match[True]["m_method"] == "orig"
    assert match[True]["m_place_rank"] == 30
    assert match[True]["o_street_name"] == st["name_nl"]
    # without the rescue the address falls through to the city
    assert match[False]["m_method"] == "nostreet"
    assert match[False]["m_place_rank"] == 16


def test_rejects_have_distance_to_match(world):
    spec, gaz, parser, cfg = world
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    out = _run(world, [_addr("k1", st["name"], "", st["post_code"],
                             st["post_name"])])
    rej = out[out.status == "reject"]
    if len(rej):  # same-name streets in the hot city produce tail rejects
        assert (rej["m_reject_reason"].isin(["tail", "mismatch"])).all()
        assert rej["m_distance_to_match"].notna().all()


def test_full_batch_every_class_resolves(world):
    spec, gaz, parser, cfg = world
    addrs = make_addresses(120, spec=spec, seed=11)
    out = geocode_frame(
        addrs.drop(columns=["truth_class", "truth_street_place_id"]),
        gaz, parser, cfg)
    m = out[out.status == "match"]
    # one match max per address; >=90% match rate on the synthetic mix
    assert m[ADDR_KEY].is_unique
    assert len(m) >= 0.9 * 120
    # all input keys accounted for
    assert set(out[ADDR_KEY]) == set(addrs[ADDR_KEY])
    # extra house number columns populated for matches
    assert (m["o_in_house_number"] == m[HOUSENBR]).all()


def test_osm_structured_mode(world):
    spec, gaz, parser, _ = world
    from georay.config import PipelineConfig
    cfg = PipelineConfig(osm_structured=True)
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    out = geocode_frame(
        pd.DataFrame([_addr("k1", st["name"], "4", st["post_code"],
                            st["post_name"])]), gaz, parser, cfg)
    m = out[out.status == "match"]
    assert len(m) == 1 and m.iloc[0]["m_place_rank"] == 30
    assert m.iloc[0]["m_method"] == "orig"


def test_nozip_nocountry_transformers(world):
    spec, gaz, parser, cfg = world
    rows = _rows(_addr("1", "Avenue Fonsny", "20", "1060", "Bruxelles"))
    out = apply_transformers(rows, ["nozip"], parser, gaz, cfg)
    assert len(out) == 1 and out.fields[POSTCODE][0] == ""
    out2 = apply_transformers(rows, ["nocountry"], parser, gaz, cfg)
    assert len(out2) == 1 and out2.fields[COUNTRY][0] == ""


def test_cascade_memo_cold_warm_identical():
    """The per-worker result memo must be invisible in outputs: a batch
    processed cold (memo empty), then again warm (all hits), and with
    the memo disabled, yields identical rows."""
    import pandas as pd

    from georay.config import ADDR_KEY, PipelineConfig
    from georay.gazetteer import GazetteerSpec, get_gazetteer
    from georay.parser import AddressParser

    gaz = get_gazetteer(GazetteerSpec())
    # fresh memo namespace for this test's config
    parser = AddressParser()
    st = gaz.places[gaz.places.place_rank == 26].head(4)
    rows = []
    for i, (_, s) in enumerate(st.iterrows()):
        for rep in range(2):   # in-batch duplicates too
            rows.append({ADDR_KEY: f"m{i}_{rep}", "street_name": s["name"],
                         "house_number": "4", "post_code": s["post_code"],
                         "post_name": s["post_name"],
                         "country_name": "Belgium"})
    df = pd.DataFrame(rows)
    cfg_memo = PipelineConfig(with_cascade_memo=True)
    cfg_plain = PipelineConfig(with_cascade_memo=False)

    def canon(out):
        return (out.sort_values([ADDR_KEY, "status", "m_place_id"])
                .reset_index(drop=True)
                .sort_index(axis=1))

    cold = canon(geocode_frame(df, gaz, parser, cfg_memo))
    warm = canon(geocode_frame(df, gaz, parser, cfg_memo))
    plain = canon(geocode_frame(df, gaz, parser, cfg_plain))
    pd.testing.assert_frame_equal(cold, warm)
    pd.testing.assert_frame_equal(cold, plain)


def test_cascade_memo_duplicate_addr_key_different_tuples():
    """A batch may (illegitimately but non-fatally) reuse one addr_key
    for different address tuples — the memo path must produce the same
    rows as the plain path, not crash (synthetic representative keys)."""
    import pandas as pd

    from georay.config import ADDR_KEY, PipelineConfig
    from georay.gazetteer import GazetteerSpec, get_gazetteer
    from georay.parser import AddressParser

    gaz = get_gazetteer(GazetteerSpec())
    parser = AddressParser()
    st = gaz.places[gaz.places.place_rank == 26].head(2)
    rows = []
    for _, s in st.iterrows():   # SAME addr_key, two different streets
        rows.append({ADDR_KEY: "same_key", "street_name": s["name"],
                     "house_number": "4", "post_code": s["post_code"],
                     "post_name": s["post_name"],
                     "country_name": "Belgium"})
    df = pd.DataFrame(rows)

    # memo path: each row resolves via its own tuple (the plain path's
    # key-based joins fan out on duplicated keys — the REST layer
    # rejects them; this path must stay sane, not crash)
    out = geocode_frame(df, gaz, parser,
                               PipelineConfig(with_cascade_memo=True))
    matches = out[out["status"] == "match"]
    assert len(matches) == 2               # one per distinct tuple
    assert set(matches["street_name"]) == set(st["name"])
    assert (out[ADDR_KEY] == "same_key").all()


def test_worker_memos_off_identical():
    """with_worker_memos=False (cache-neutral scaling mode) must yield
    byte-identical cascade output: every per-address component memo
    (photon candidates, parser memo, free-text parse cache) is a pure
    memoization, so disabling them changes cost only."""
    import pandas as pd

    from georay.config import ADDR_KEY, PipelineConfig
    from georay.gazetteer import GazetteerSpec, get_gazetteer
    from georay.parser import AddressParser

    gaz = get_gazetteer(GazetteerSpec())
    parser = AddressParser()
    st = gaz.places[gaz.places.place_rank == 26].head(5)
    rows = []
    for i, (_, s) in enumerate(st.iterrows()):
        rows.append({ADDR_KEY: f"w{i}", "street_name": s["name"],
                     "house_number": "4", "post_code": s["post_code"],
                     "post_name": s["post_name"],
                     "country_name": "Belgium"})
        rows.append({ADDR_KEY: f"w{i}t", "street_name": s["name"][:-1] + "x",
                     "house_number": "999", "post_code": s["post_code"],
                     "post_name": s["post_name"],
                     "country_name": "Belgium"})  # typo path: fuzzy probes
    df = pd.DataFrame(rows)
    on = PipelineConfig(with_cascade_memo=False, with_worker_memos=True)
    off = PipelineConfig(with_cascade_memo=False, with_worker_memos=False)

    def canon(out):
        return (out.sort_values([ADDR_KEY, "status", "m_place_id"])
                .reset_index(drop=True)
                .sort_index(axis=1))

    a = canon(geocode_frame(df, gaz, parser, on))
    # run the memo-on path TWICE so caches are warm, then compare off
    a2 = canon(geocode_frame(df, gaz, parser, on))
    b = canon(geocode_frame(df, gaz, AddressParser(), off))
    pd.testing.assert_frame_equal(a, a2)
    pd.testing.assert_frame_equal(a, b)


def _tables_identical(a, b):
    """Every column equal, null masks and NaN positions included."""
    import pyarrow as pa
    import pyarrow.compute as pc
    assert a.schema == b.schema
    for name in a.column_names:
        x, y = a[name].combine_chunks(), b[name].combine_chunks()
        assert pc.is_null(x).equals(pc.is_null(y)), name
        if pa.types.is_floating(x.type):
            assert pc.is_nan(x).equals(pc.is_nan(y)), name
            x = pc.if_else(pc.is_nan(x), 0.0, x)
            y = pc.if_else(pc.is_nan(y), 0.0, y)
        assert x.equals(y), name


def test_passthrough_follows_its_row_on_repeated_addr_key(world):
    """A flat batch that repeats one addr_key for two different addresses
    keeps each row's passthrough columns with that row's results."""
    import pyarrow as pa

    from georay.cascade import CascadeGeocoder
    spec, gaz, _, _ = world
    st = gaz.places[gaz.places.place_rank == 26].head(2)
    rows = [dict(_addr("same_key", s["name"], "4", s["post_code"],
                       s["post_name"]), row_tag=f"row{i}")
            for i, (_, s) in enumerate(st.iterrows())]
    tag_of = {r[STREET]: r["row_tag"] for r in rows}
    batch = pa.Table.from_pylist(rows)
    for memo in (True, False):
        out = CascadeGeocoder(spec, PipelineConfig(with_cascade_memo=memo))(
            batch)
        streets = out[STREET].to_pylist()
        assert set(streets) == set(tag_of)
        assert out["row_tag"].to_pylist() == [tag_of[s] for s in streets]


def test_memo_key_is_injective(world, monkeypatch):
    """Tuples whose fields join to the same string under a separator
    (":" or NUL) get separate memo entries and their own results."""
    spec, gaz, parser, _ = world
    s = gaz.places[gaz.places.place_rank == 26].iloc[0]
    rows = []
    for sep in (":", "\0"):
        # (x + sep + y, z) and (x, y + sep + z) join to the same string
        rows.append(_addr(f"a{ord(sep)}", s["name"] + sep + "4", "",
                          s["post_code"], s["post_name"]))
        rows.append(_addr(f"b{ord(sep)}", s["name"], "4" + sep,
                          s["post_code"], s["post_name"]))
    df = pd.DataFrame(rows)
    monkeypatch.setattr(gaz, "memos", {})
    cfg = PipelineConfig()
    on = geocode_frame(df, gaz, parser, cfg)
    assert len(world_memo(gaz.memos, "store", cfg, _ResultStore).index) \
        == len(rows)
    warm = geocode_frame(df, gaz, parser, cfg)
    off = geocode_frame(df, gaz, parser,
                               PipelineConfig(with_cascade_memo=False))
    pd.testing.assert_frame_equal(on, off)
    pd.testing.assert_frame_equal(warm, off)
    own = df.set_index(ADDR_KEY)
    for key, street, hn in zip(on[ADDR_KEY], on[STREET], on[HOUSENBR]):
        assert (street, hn) == (own.at[key, STREET], own.at[key, HOUSENBR])


def test_span_path_identical_in_every_memo_state(world, monkeypatch):
    """The span path's Arrow output does not depend on the memo: cold,
    warm, off and over its cap give the same table, row order, null
    masks and NaNs included."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from georay import cascade
    from georay.cascade import SpanCascadeGeocoder
    from georay.corpus import make_documents
    from georay.spans import explode_spans
    spec, gaz, _, _ = world
    docs, _ = make_documents(40, spec=spec, seed=11)
    spans = explode_spans(docs)
    addr = spans.filter(spans["is_address"])
    tuples = list(zip(*(addr[c].to_pylist() for c in
                        (STREET, HOUSENBR, POSTCODE, CITY, COUNTRY))))
    assert len(set(tuples)) < len(tuples)       # in-batch repeats
    assert addr.num_rows < spans.num_rows        # not_address spans
    not_addr = spans.filter(pc.invert(spans["is_address"]))
    batches = {"full": spans,
               "one_address": pa.concat_tables([addr.slice(0, 1),
                                                not_addr.slice(0, 3)]),
               "no_address": not_addr}

    def geocode(batch, memo):
        return SpanCascadeGeocoder(
            spec, PipelineConfig(with_cascade_memo=memo))(batch)

    for name, batch in batches.items():
        off = geocode(batch, False)
        assert off.num_rows >= batch.num_rows, name
        monkeypatch.setattr(gaz, "memos", {})
        _tables_identical(geocode(batch, True), off)      # cold
        _tables_identical(geocode(batch, True), off)      # warm
        monkeypatch.setattr(gaz, "memos", {})
        monkeypatch.setitem(CAPS, "store", 3)
        _tables_identical(geocode(batch, True), off)      # overflow, cold
        _tables_identical(geocode(batch, True), off)      # overflow, warm
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# step failures: labelled, counted, and never kept by the memo

def _boom(fail_calls):
    """A registered transformer that raises on its first ``fail_calls``
    calls and passes rows through unchanged afterwards."""
    calls = []

    def fn(df, parser, gazetteer, cfg):
        calls.append(len(df))
        if len(calls) <= fail_calls:
            raise RuntimeError("transient")
        return df

    return fn


def _unresolvable(n):
    return [_addr(f"u{i}", f"Zzz Qqq Nowhere {i}", "999", "9999",
                  "Nulleville") for i in range(n)]


def test_step_failure_labels_counts_and_stops_rows(world, monkeypatch):
    from georay.transforms import TRANSFORMER_REGISTRY
    spec, gaz, parser, _ = world
    seen = []
    monkeypatch.setitem(TRANSFORMER_REGISTRY, "boom", _boom(1 << 30))
    monkeypatch.setitem(TRANSFORMER_REGISTRY, "spy",
                        lambda df, *a: seen.append(len(df)) or df)
    cfg = PipelineConfig(cascade=[["orig"], ["boom"], ["spy"]],
                         with_cascade_memo=False)
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    rows = [_addr("ok", st["name"], "4", st["post_code"],
                  st["post_name"])] + _unresolvable(2)
    out = geocode_frame(pd.DataFrame(rows), gaz, parser, cfg)
    # the failed rows are labelled and reported as matches, as in the
    # reference (utils.py:1255-1261)
    by_key = out[out.status == "match"].set_index(ADDR_KEY)["m_method"]
    assert by_key.to_dict() == {"ok": "orig",
                                "u0": "error on boom: RuntimeError",
                                "u1": "error on boom: RuntimeError"}
    assert seen == []                 # later steps never see those rows
    stats = outcome_counters(
        [outcome_counts(pa.Table.from_pandas(out))], cfg)["step_stats"]
    assert [s["method"] for s in stats] == ["orig", "boom"]
    failed = stats[1]
    assert failed["todo"] == 2
    assert failed["errors"] == failed["match"] == failed["todo"]
    assert stats[0]["errors"] == 0


def test_memo_does_not_keep_step_failures(world, monkeypatch):
    """A failure that would not happen again is served from the memo for
    the rest of the worker's life unless the memo refuses to keep it."""
    from georay.config import DEFAULT_CASCADE
    from georay.transforms import TRANSFORMER_REGISTRY
    spec, gaz, parser, _ = world
    monkeypatch.setattr(gaz, "memos", {})
    monkeypatch.setitem(TRANSFORMER_REGISTRY, "boom", _boom(1))
    steps = [list(s) for s in DEFAULT_CASCADE]
    steps.insert(1, ["boom"])
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    df = pd.DataFrame([_addr("ok", st["name"], "4", st["post_code"],
                             st["post_name"])] + _unresolvable(2))
    on = PipelineConfig(cascade=steps)
    first = geocode_frame(df, gaz, parser, on)
    methods = first[first.status == "match"].set_index(ADDR_KEY)["m_method"]
    assert methods.to_dict() == {"ok": "orig",
                                 "u0": "error on boom: RuntimeError",
                                 "u1": "error on boom: RuntimeError"}
    store = world_memo(gaz.memos, "store", on, _ResultStore).index
    assert len(store) == 1                       # only the clean row kept
    second = geocode_frame(df, gaz, parser, on)
    off = geocode_frame(df, gaz, parser,
                               PipelineConfig(cascade=steps,
                                              with_cascade_memo=False))
    assert not off["m_method"].str.startswith("error on").any()
    pd.testing.assert_frame_equal(second, off)
    # the recovered answers are kept and served from the memo from now on
    assert len(store) == 3
    pd.testing.assert_frame_equal(geocode_frame(df, gaz, parser, on),
                                  off)


def test_memo_off_parses_again_in_every_batch(world, monkeypatch):
    """with_worker_memos=False: a later batch with the same addresses
    pays the same parses as the first (no libpostal memo of its own)."""
    spec, gaz, _, _ = world
    calls = []
    real = AddressParser.parse
    monkeypatch.setattr(AddressParser, "parse",
                        lambda self, text: calls.append(text)
                        or real(self, text))
    cfg = PipelineConfig(with_cascade_memo=False, with_worker_memos=False)
    parser = AddressParser()
    df = pd.DataFrame(_unresolvable(2))
    per_batch = []
    for _ in range(2):
        calls.clear()
        geocode_frame(df, gaz, parser, cfg)
        per_batch.append(len(calls))
    assert per_batch[0] > 0
    assert per_batch[1] == per_batch[0]


def test_nullable_integer_house_numbers_keep_their_digits(world):
    """An int64 house-number column (nulls and values past 2^53
    included) geocodes like the same numbers given as strings."""
    import pyarrow as pa
    spec, gaz, parser, cfg = world
    st = gaz.places[gaz.places.place_rank == 26].iloc[0]
    hns = [4, None, 12, 2 ** 53 + 1]
    rows = [_addr(f"k{i}", st["name"], "" if hn is None else str(hn),
                  st["post_code"], st["post_name"])
            for i, hn in enumerate(hns)]
    as_str = pa.Table.from_pylist(rows)
    at = as_str.schema.get_field_index(HOUSENBR)
    as_int = as_str.set_column(at, HOUSENBR, pa.array(hns, pa.int64()))
    want = process_addresses_df(as_str, gaz, parser, cfg)
    got = process_addresses_df(as_int, gaz, parser, cfg)
    assert got[HOUSENBR].to_pylist()[-1] == "9007199254740993"
    assert got.equals(want)


def test_osm_structured_rows_do_not_borrow_candidates(world):
    """osm_structured looks up each distinct component tuple: a tuple
    whose transformed address equals another row's gets its own
    candidates, so its rows do not depend on the rest of the batch."""
    spec, gaz, parser, _ = world
    cfg = PipelineConfig(osm_structured=True, with_cascade_memo=False)
    x, y = (c for _, c in gaz.places[gaz.places.place_rank == 16]
            .head(2).iterrows())
    # a: x's postcode with y's name; b: the same text in the city field,
    # so both assemble to "<x pc> <y name>, Belgium"
    a = _addr("a", "", "", x["post_code"], y["post_name"])
    b = _addr("b", "", "", "", f"{x['post_code']} {y['post_name']}")
    alone = geocode_frame(pd.DataFrame([b]), gaz, parser, cfg)
    both = geocode_frame(pd.DataFrame([a, b]), gaz, parser, cfg)
    match = both[both.status == "match"].set_index(ADDR_KEY)["m_place_id"]
    assert match.to_dict() == {"a": x["place_id"], "b": y["place_id"]}
    pd.testing.assert_frame_equal(
        both[both[ADDR_KEY] == "b"].reset_index(drop=True), alone)
