"""Per-step cascade counters (the reference's step stats,
utils.py:678-686) derived from the geocoded rows, and the checkpoint
lineage counters that carry them."""

import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from georay import compare
from georay.cascade import process_addresses_df
from georay.checkpoint import (Manifest, pipeline_counters, run_resumable,
                               status_counters)
from georay.config import ADDR_KEY, PipelineConfig
from georay.corpus import make_addresses
from georay.gazetteer import GazetteerSpec, get_gazetteer
from georay.parser import AddressParser
from georay.stepstats import outcome_counters, outcome_counts

SPEC = GazetteerSpec()
REJECTS = ("reject_rec", "reject_addr", "reject_mism")


def _addr_frame(n=6):
    gaz = get_gazetteer(SPEC)
    streets = gaz.places[gaz.places.place_rank == 26].head(n)
    rows = []
    for i, (_, st) in enumerate(streets.iterrows()):
        rows.append({ADDR_KEY: f"k{i}", "street_name": st["name"],
                     "house_number": "4", "post_code": st["post_code"],
                     "post_name": st["post_name"], "country_name": "Belgium"})
    # one unresolvable row exercises the deeper cascade steps
    rows.append({ADDR_KEY: "kx", "street_name": "Zzz Qqq Nowhere",
                 "house_number": "999", "post_code": "9999",
                 "post_name": "Nulleville", "country_name": "Belgium"})
    return pd.DataFrame(rows)


def _corpus_frame(n=120, seed=11):
    return make_addresses(n, spec=SPEC, seed=seed).drop(
        columns=["truth_class", "truth_street_place_id"])


def _geocode(df, cfg):
    return process_addresses_df(pa.Table.from_pandas(df),
                                get_gazetteer(SPEC), AddressParser(), cfg)


def _counters(rows: pa.Table, cfg) -> dict:
    return outcome_counters([outcome_counts(rows)], cfg)


@pytest.fixture
def fresh_memo(monkeypatch):
    monkeypatch.setattr(get_gazetteer(SPEC), "memos", {})


@pytest.fixture
def strict_street(monkeypatch):
    """Street similarity as case-insensitive equality: the synthetic
    corpus then reaches mismatch rejects (and the parent rescue)."""
    monkeypatch.setattr(compare, "street_similarity",
                        lambda a, b: float(a.lower() == b.lower()))


def test_derived_step_table(fresh_memo):
    cfg = PipelineConfig()
    out = _geocode(_addr_frame(), cfg)
    c = _counters(out, cfg)
    steps = c["step_stats"]
    # six streets match at orig, each with its same-name tail rejects;
    # the nowhere row runs every step and stays unmatched
    assert c["status"] == {"match": 6, "reject": 18, "unmatched": 1}
    assert c["match_by_method"] == {"orig": 6}
    assert [s["method"] for s in steps] == ["+".join(m) for m in cfg.cascade]
    assert steps[0] == {"step": 0, "method": "orig", "todo": 7, "match": 6,
                        "match_26": 0, "errors": 0, "reject_rec": 18,
                        "reject_addr": 6, "reject_mism": 0}
    for s in steps[1:]:
        assert s["todo"] == 1
        assert all(s[k] == 0 for k in ("match", "match_26", "errors")
                   + REJECTS)
    # the same counts straight from the rows
    df = out.to_pandas()
    rej = df[(df.status == "reject") & (df.m_method == "orig")]
    assert steps[0]["reject_rec"] == len(rej)
    assert steps[0]["reject_addr"] == rej[ADDR_KEY].nunique()
    # todo chain: step k+1 todo == step k todo - step k matches
    for prev, cur in zip(steps, steps[1:]):
        assert cur["todo"] == prev["todo"] - prev["match"]


def test_memo_on_twice_equals_memo_off(fresh_memo, strict_street):
    df = _corpus_frame()
    on = PipelineConfig()
    first = _counters(_geocode(df, on), on)
    second = _counters(_geocode(df, on), on)       # every row a memo hit
    off = PipelineConfig(with_cascade_memo=False)
    assert first == second == _counters(_geocode(df, off), off)
    steps = first["step_stats"]
    # the sample reaches every counter kind
    for k in ("match", "match_26", "reject_rec", "reject_addr",
              "reject_mism"):
        assert sum(s[k] for s in steps) > 0, k
    for s in steps:
        assert s["reject_mism"] <= s["reject_addr"] <= s["reject_rec"]
        assert s["match_26"] <= s["match"]
    assert steps[0]["todo"] == len(df)
    assert sum(s["match"] for s in steps) == first["status"]["match"]


def test_without_rejects_reject_counters_are_null(fresh_memo):
    df = _corpus_frame(60)
    full = _counters(_geocode(df, PipelineConfig()), PipelineConfig())
    cfg = PipelineConfig(with_rejected=False)
    bare = _counters(_geocode(df, cfg), cfg)
    assert "reject" not in bare["status"]
    assert len(bare["step_stats"]) == len(full["step_stats"])
    for b, f in zip(bare["step_stats"], full["step_stats"]):
        assert all(b[k] is None for k in REJECTS)
        assert {k: v for k, v in b.items() if k not in REJECTS} == \
            {k: v for k, v in f.items() if k not in REJECTS}


def test_shared_method_counts_under_first_step(fresh_memo):
    df = _addr_frame()
    cfg = PipelineConfig(cascade=[["orig"], ["nonum"], ["orig"]])
    steps = _counters(_geocode(df, cfg), cfg)["step_stats"]
    assert [s["match"] for s in steps] == [6, 0, 0]
    assert [s["todo"] for s in steps] == [7, 1, 1]
    # rows from a cascade other than ``cfg``'s are refused
    with pytest.raises(ValueError, match="nostreet"):
        _counters(_geocode(df, PipelineConfig(cascade=[["nostreet"]])),
                  cfg)


def test_step_stats_dataset_rollup(ray_session):
    """Through Ray on a multi-block dataset the table equals the
    in-process one, and its matches are the partition's match rows."""
    from georay.pipeline import geocode_addresses, step_stats
    df = _corpus_frame(80)
    cfg = PipelineConfig()
    ds = geocode_addresses(ray.data.from_pandas(df).repartition(3),
                           spec=SPEC, cfg=cfg, batch_size=32,
                           with_tiles=False).materialize()
    assert ds.num_blocks() > 1
    steps = step_stats(ds, cfg)
    assert steps == _counters(_geocode(df, cfg), cfg)["step_stats"]
    counters = pipeline_counters(ds, cfg)
    assert counters["step_stats"] == steps
    assert sum(s["match"] for s in steps) == counters["status"]["match"]
    assert steps[0]["method"] == "orig" and steps[0]["todo"] == len(df)


def test_pipeline_counters(ray_session, tmp_path):
    from georay.pipeline import geocode_addresses

    df = _addr_frame()

    def build():
        return geocode_addresses(ray.data.from_pandas(df), spec=SPEC,
                                 with_tiles=False)

    manifest = run_resumable([("p0", build)], str(tmp_path / "run"),
                             counters_fn=pipeline_counters)
    rec = manifest.records()[0]
    counters = rec["counters"]
    assert set(counters) == {"status", "match_by_method", "step_stats"}
    assert counters["status"].get("match", 0) >= len(df) - 2
    assert sum(counters["match_by_method"].values()) == \
        counters["status"].get("match", 0)


def test_manifest_step_stats_reconcile(ray_session, tmp_path):
    """Every lineage record carries the step table of the partition's
    own rows, which reconciles with its status counters and survives a
    manifest reload."""
    from georay.pipeline import geocode_addresses

    df = _addr_frame()
    cfg = PipelineConfig(with_rejected=False)

    def build():
        return geocode_addresses(ray.data.from_pandas(df), spec=SPEC,
                                 cfg=cfg, with_tiles=False)

    out_dir = str(tmp_path / "run")
    manifest = run_resumable([("p0", build)], out_dir,
                             counters_fn=lambda ds: pipeline_counters(ds, cfg))
    rec = manifest.records()[0]
    steps = rec["counters"]["step_stats"]
    assert [s["step"] for s in steps] == list(range(len(steps)))
    assert steps[0]["todo"] == len(df)
    assert sum(s["match"] for s in steps) == \
        rec["counters"]["status"].get("match", 0)
    # the record survives a manifest reload (resume path reads JSONL)
    assert Manifest(out_dir).records()[0]["counters"] == rec["counters"]


@pytest.mark.parametrize("counters_fn", [status_counters, pipeline_counters])
def test_failed_counter_pass_records_nothing(ray_session, tmp_path,
                                             monkeypatch, counters_fn):
    """A counter pass that fails leaves the partition without a record,
    so a resume runs it again; it is never recorded as empty."""
    rows = _geocode(_addr_frame(), PipelineConfig()).to_pandas()

    def build():
        return ray.data.from_pandas(rows)

    def broken(self, *args, **kwargs):
        raise RuntimeError("counter pass failed")

    out_dir = str(tmp_path / "run")
    with monkeypatch.context() as m:
        m.setattr(ray.data.Dataset, "map_batches", broken)
        with pytest.raises(RuntimeError, match="counter pass failed"):
            run_resumable([("p0", build)], out_dir, counters_fn=counters_fn)
    assert Manifest(out_dir).records() == []
    rec = run_resumable([("p0", build)], out_dir,
                        counters_fn=counters_fn).records()[0]
    status = rec["counters"].get("status", rec["counters"])
    assert status == {"match": 6, "reject": 18, "unmatched": 1}
