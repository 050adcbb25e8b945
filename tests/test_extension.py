"""User-extension surface + sink packing: custom transformer registry
(SURVEY.md §2.9), struct sink (§1.4), table adapter."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from georay.config import HOUSENBR, INPUT_FIELDS, STREET, PipelineConfig
from georay.gazetteer import GazetteerSpec, get_gazetteer
from georay.parser import AddressParser
from georay.transforms import (TRANSFORMER_REGISTRY, AddressRows,
                               apply_transformers, register_transformer)

SPEC = GazetteerSpec()


def test_register_custom_transformer_in_cascade():
    # NOTE: the changed-only filter compares case-insensitively
    # (utils.py:774), so the custom step must make a real change
    def strip_marker(df, parser, gaz, cfg):
        df = df.copy()
        df[STREET] = df[STREET].str.replace(" ZZZ", "", regex=False)
        return df

    register_transformer("stripmarker", strip_marker)
    try:
        gaz = get_gazetteer(SPEC)
        st = gaz.places[gaz.places.place_rank == 26].iloc[0]
        df = pd.DataFrame([{"addr_key": "1", STREET: st["name"] + " ZZZ",
                            HOUSENBR: "4", "post_code": st["post_code"],
                            "post_name": st["post_name"],
                            "country_name": "Belgium"}])
        rows = AddressRows(np.arange(len(df)), {
            f: df[f].to_numpy(dtype=object) for f in INPUT_FIELDS})
        out = apply_transformers(rows, ["stripmarker"], AddressParser(), gaz,
                                 PipelineConfig())
        assert out.fields[STREET][0] == st["name"]
        # an upper-case-only transformer is filtered as unchanged
        register_transformer("uppercase",
                             lambda d, p, g, c: d.assign(
                                 **{STREET: d[STREET].str.upper()}))
        out2 = apply_transformers(rows, ["uppercase"], AddressParser(), gaz,
                                  PipelineConfig())
        assert len(out2) == 0
        # custom step also runs inside a full cascade config
        cfg = PipelineConfig()
        cfg.cascade.insert(1, ["stripmarker"])
        from georay.cascade import process_addresses_df
        res = process_addresses_df(df, gaz, AddressParser(), cfg)
        m = res[res.status == "match"]
        assert len(m) == 1 and m.iloc[0]["m_method"] == "stripmarker"
    finally:
        TRANSFORMER_REGISTRY.pop("stripmarker", None)
        TRANSFORMER_REGISTRY.pop("uppercase", None)


def test_registered_transformer_adapter_maps_rows_by_addr_key(monkeypatch):
    """The adapter maps a registered transformer's rows back by
    addr_key: reversed rows, a dropped row and a stray column give the
    same cascade rows as the order-preserving transformer; rows it left
    unchanged are filtered; an addr_key it was not given fails the
    step."""
    from georay.cascade import process_addresses_df
    gaz = get_gazetteer(SPEC)
    streets = gaz.places[gaz.places.place_rank == 26].head(4)
    df = pd.DataFrame([{"addr_key": f"k{i}", STREET: s["name"] + " ZZZ",
                        HOUSENBR: "4", "post_code": s["post_code"],
                        "post_name": s["post_name"],
                        "country_name": "Belgium"}
                       for i, (_, s) in enumerate(streets.iterrows())])

    def strip(d):                 # drops the first row, strips the marker
        d = d.iloc[1:].copy()
        d[STREET] = d[STREET].str.replace(" ZZZ", "", regex=False)
        return d

    search_many = gaz.search_many

    def run(fn):
        """Cascade rows, and the queries the gazetteer was sent."""
        monkeypatch.setitem(TRANSFORMER_REGISTRY, "custom", fn)
        sent = []

        def spy(parts, *args, **kwargs):
            sent.extend(parts)
            return search_many(parts, *args, **kwargs)

        monkeypatch.setattr(gaz, "search_many", spy)
        out = process_addresses_df(
            df, gaz, AddressParser(),
            PipelineConfig(cascade=[["custom"]], with_cascade_memo=False))
        return out, sent

    plain, sent_plain = run(lambda d, *a: strip(d))
    shuffled, sent_shuffled = run(
        lambda d, *a: strip(d).iloc[::-1].assign(stray=1.5))
    pd.testing.assert_frame_equal(plain, shuffled)
    assert len(sent_plain) == 3 and sorted(sent_plain) == sorted(sent_shuffled)
    matched = plain[plain.status == "match"]
    assert list(matched["addr_key"]) == ["k1", "k2", "k3"]
    assert set(matched["m_method"]) == {"custom"}
    assert list(matched[STREET]) == list(df[STREET][1:])   # inputs restored

    # an upper-cased street is no change (utils.py:774): nothing is sent
    upper, sent_upper = run(
        lambda d, *a: d.assign(**{STREET: d[STREET].str.upper()}))
    assert sent_upper == [] and set(upper.status) == {"unmatched"}

    stray, _ = run(lambda d, *a: d.assign(addr_key=d["addr_key"] + 100))
    assert set(stray["m_method"]) == {"error on custom: ValueError"}


def test_register_rejects_builtin_collision():
    with pytest.raises(ValueError):
        register_transformer("photon", lambda *a: None)
    with pytest.raises(ValueError):
        register_transformer("regex[init]", lambda *a: None)


def test_pack_nested_sink(ray_session, tmp_path):
    from georay.corpus import make_addresses
    from georay.pipeline import geocode_addresses, pack_nested
    from georay.tables import write_table

    addrs = make_addresses(20, spec=SPEC, seed=2).drop(
        columns=["truth_class", "truth_street_place_id"])
    ds = geocode_addresses(ray.data.from_pandas(addrs), spec=SPEC,
                           batch_size=32)
    nested = pack_nested(ds)
    schema = nested.schema()
    import pyarrow as pa
    by_name = dict(zip(schema.names, schema.types))
    assert pa.types.is_struct(by_name["input"])
    assert pa.types.is_struct(by_name["output"])
    assert pa.types.is_struct(by_name["spatial"])
    # round-trips through the table adapter (parquet in this sandbox)
    out_dir = str(tmp_path / "nested")
    write_table(nested, out_dir)
    back = ray.data.read_parquet(out_dir).to_pandas()
    assert len(back) == nested.count()
    row = back.iloc[0]
    assert "street_name" in row["input"]
    assert "lat" in row["output"]
