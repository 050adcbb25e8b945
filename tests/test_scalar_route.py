"""The scalar route of ``process_addresses_df``: a one-row input (a REST
``/geocode`` request) builds its memo key in Python, probes the result
store once and serves a hit as a slice of it; a miss goes on to the
batch route.  Both routes share one key rule, one probe count, one miss
path and one answer."""

import copy
import dataclasses

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georay import api, cascade
from georay.cascade import _memo_key, _memo_keys, _ResultStore
from georay.config import DEFAULT_CASCADE, INPUT_FIELDS, PipelineConfig
from georay.corpus import make_addresses
from georay.gazetteer import GazetteerSpec, get_gazetteer
from georay.memo import CAPS, world_memo
from georay.transforms import TRANSFORMER_REGISTRY

SPEC = GazetteerSpec()
CFG = PipelineConfig()

# multibyte UTF-8 (2, 3 and 4 bytes), the separator, digit runs and NUL
_FIELD = (st.text(alphabet=list("aZ09:\0 éß") + ["北", "京", "😀"],
                  max_size=6)
          | st.sampled_from(["", "3:4", "12", ":", "1:", "\0"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[_FIELD] * 5), min_size=1, max_size=8))
@example([("3:4", "", "", "", ""), ("3", "4", "", "", "")])
@example([("1:a", "", "", "", ""), ("1", "a", "", "", ""),
          ("", "1:a", "", "", "")])
@example([("é", "", "", "", ""), ("", "é", "", "", ""),
          ("12", "", "", "", ""), ("1", "2", "", "", "")])
@example([("a\0b", "", "", "", ""), ("a", "\0b", "", "", ""),
          ("😀", "北", "", "", ""), ("", "", "", "", "")])
def test_scalar_key_is_the_vectorized_key(rows):
    """The Python key of one row equals ``_memo_keys`` row for row, and
    distinct five-field tuples never share a key."""
    tbl = pa.table({f: pa.array([r[i] for r in rows], pa.string())
                    for i, f in enumerate(INPUT_FIELDS)})
    keys = _memo_keys(tbl)
    assert keys == [_memo_key(r) for r in rows]
    assert len(set(keys)) == len(set(rows))


@pytest.fixture
def world(monkeypatch):
    """An empty set of memos on the shared world."""
    gaz = get_gazetteer(SPEC)
    monkeypatch.setattr(gaz, "memos", {})
    return gaz


@pytest.fixture(scope="module")
def pool():
    rows = make_addresses(12, spec=SPEC, seed=31).to_dict("records")
    out = [{f: str(r[f]) for f in INPUT_FIELDS} for r in rows]
    assert len({tuple(p.values()) for p in out}) == len(out)
    return out


def _one(pool, i, key="k", **kw):
    return api.geocode_one({"addr_key": key, **pool[i]}, spec=SPEC, **kw)


def _batch(pool, idxs, tag="b", **kw):
    return api.batch_geocode([{"addr_key": f"{tag}{i}", **pool[i]}
                              for i in idxs], spec=SPEC, **kw)


def _store(gaz, cfg=CFG) -> _ResultStore:
    return world_memo(gaz.memos, "store", cfg, _ResultStore)


def test_every_route_probes_each_address_row_once(world, pool):
    """Hit singles, miss singles and batches: hits + misses is the
    number of address rows sent, and the misses are the first sights."""
    _batch(pool, [0, 1, 2])
    _one(pool, 0)
    _one(pool, 4)
    _one(pool, 4)
    _one(pool, 1)
    _batch(pool, [0, 1, 2, 3, 4, 5])
    index = _store(world).index
    assert index.hits + index.misses == 3 + 4 + 6
    assert index.misses == 3 + 1 + 2          # 0-2, then 4, then 3 and 5
    assert index.refused == 0 and len(index) == 6


def test_single_miss_past_the_cap_is_refused(world, pool, monkeypatch):
    monkeypatch.setitem(CAPS, "store", 2)
    off = dataclasses.replace(CFG, with_cascade_memo=False)
    for i in (0, 1):
        _one(pool, i)
    got = _one(pool, 2)
    index = _store(world).index
    assert (len(index), index.misses, index.refused) == (2, 3, 1)
    assert got == _one(pool, 2, cfg=off)
    assert _one(pool, 2) == got             # not kept: probed again
    assert (index.misses, index.refused) == (4, 2)


def _boom_once():
    calls = []

    def fn(df, parser, gazetteer, cfg):
        calls.append(len(df))
        if len(calls) == 1:
            raise RuntimeError("transient")
        return df

    return fn


def test_single_with_a_step_failure_is_answered_not_stored(world,
                                                           monkeypatch):
    """A failed step labels the row and the answer goes out, but the
    store keeps nothing: the next identical single runs the cascade
    again, and its clean answer is kept and served from then on."""
    monkeypatch.setitem(TRANSFORMER_REGISTRY, "boom", _boom_once())
    steps = [list(s) for s in DEFAULT_CASCADE]
    steps.insert(1, ["boom"])
    cfg = PipelineConfig(cascade=steps)
    runs = []
    real = cascade._run_cascade

    def spy(fields, *args):
        runs.append(len(fields["street_name"]))
        return real(fields, *args)

    monkeypatch.setattr(cascade, "_run_cascade", spy)
    addr = {"addr_key": "u", "street_name": "Zzz Qqq Nowhere",
            "house_number": "999", "post_code": "9999",
            "post_name": "Nulleville", "country_name": "Belgium"}
    first = api.geocode_one(addr, spec=SPEC, cfg=cfg)
    assert [m["metadata"]["method"] for m in first["match"]] == \
        ["error on boom: RuntimeError"]
    index = _store(world, cfg).index
    assert len(index) == 0 and runs == [1]
    second = api.geocode_one(addr, spec=SPEC, cfg=cfg)
    assert not any(m["metadata"]["method"].startswith("error on")
                   for m in second["match"])
    assert runs == [1, 1] and len(index) == 1
    assert api.geocode_one(addr, spec=SPEC, cfg=cfg) == second
    assert runs == [1, 1]
    assert (index.hits, index.misses) == (1, 2)


@pytest.mark.parametrize("max_chunks", [64, 2])
def test_chunked_appends_serve_the_rows_combined_ones_do(world, pool,
                                                         monkeypatch,
                                                         max_chunks):
    """Single misses append a chunk each; a later batch takes across
    them from the combined table and answers as the memo-off run does,
    as do hits served from a chunk before and after the combine."""
    monkeypatch.setattr(_ResultStore, "MAX_CHUNKS", max_chunks)
    off = dataclasses.replace(CFG, with_cascade_memo=False)
    singles = [_one(pool, i) for i in (6, 7, 8)]
    store = _store(world)
    assert len(store.chunks) == (3 if max_chunks == 64 else 1)
    assert [_one(pool, i) for i in (6, 7, 8)] == singles
    assert _batch(pool, [8, 6, 9, 7]) == _batch(pool, [8, 6, 9, 7], cfg=off)
    assert len(store.chunks) == 2          # combined, then 9 appended
    assert store.chunks[0].num_rows + store.chunks[1].num_rows \
        == store.num_rows
    assert [_one(pool, i) for i in (6, 7, 8)] == singles
    assert _one(pool, 9) == _one(pool, 9, cfg=off)


_CASES = [dict(mode=m) for m in api.MODES] + [
    dict(with_rejected=False), dict(mode="long", with_rejected=False),
    dict(check_result=False), dict(check_result=False, fastmode=True),
    dict(mode="coordinates", check_result=False, fastmode=True)]


@pytest.mark.parametrize("case", _CASES,
                         ids=lambda c: "-".join(f"{k}={v}"
                                                for k, v in c.items()))
def test_scalar_hit_answers_as_the_memo_off_run(world, pool, case):
    """A warm single (a memo hit on the scalar route) gives the answer
    the same request gets with the cascade memo off."""
    gaz = get_gazetteer(SPEC)
    streets = gaz.places[gaz.places.place_rank == 26]
    s = streets.iloc[0]
    extra = [{"street_name": s["name"], "house_number": "4 bt 2",
              "post_code": s["post_code"], "post_name": s["post_name"],
              "country_name": "Belgium"},
             {"street_name": "Zzz Qqq Nowhere", "house_number": "1",
              "post_code": "9999", "post_name": "Nulleville",
              "country_name": ""}]
    cfg = PipelineConfig(check_results=case.get("check_result", True))
    off = dataclasses.replace(cfg, with_cascade_memo=False)
    for addr in pool[:4] + extra:
        req = {"addr_key": "r", **addr}
        api.geocode_one(req, spec=SPEC, cfg=cfg, **case)       # warm
        warm = api.geocode_one(req, spec=SPEC, cfg=cfg, **case)
        assert warm == api.geocode_one(req, spec=SPEC, cfg=off, **case)
    if not case.get("fastmode"):
        assert _store(world, api._long_mode_cfg(
            cfg, case.get("mode", "short"))).index.hits >= 6


def test_a_mutated_answer_leaves_the_next_one_intact(world, pool):
    """Two answers for the same address share no dict: popping the key
    out of one (as a client may) does not reach the next."""
    _one(pool, 0)
    first = _one(pool, 0, key="a")
    kept = copy.deepcopy(first)
    for m in first["match"] + first["rejected"]:
        m["input"].pop("referenceKey")
        m.get("output", {}).clear()
    second = _one(pool, 0, key="a")
    assert second == kept
    assert second["match"][0]["input"]["referenceKey"] == "a"
