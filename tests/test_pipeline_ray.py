"""Ray Data pipeline integration tests: explode → cascade → tiles → knn →
reassemble, the span-sequence invariant, rollups, and checkpoint resume
(FIXTURES.md §6 golden-run behaviors)."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data

from georay.checkpoint import Manifest, run_resumable, status_counters
from georay.config import PipelineConfig
from georay.corpus import make_addresses, make_documents
from georay.gazetteer import GazetteerSpec
from georay.pipeline import (capped_map, capped_pieces, geocode_addresses,
                             geocode_documents, reassemble_documents,
                             synth_documents_dataset)
from georay.tiles import rollup_counts, rollup_counts_salted

from cascade_frames import geocode_frame

SPEC = GazetteerSpec()


@pytest.fixture(scope="module")
def span_results(ray_session):
    docs = synth_documents_dataset(120, spec=SPEC, parallelism=4)
    return geocode_documents(docs, spec=SPEC,
                             batch_size=256).materialize()


def test_geocode_documents_schema_and_rates(span_results):
    pdf = span_results.to_pandas()
    counts = pdf.status.value_counts().to_dict()
    assert counts.get("match", 0) > 0
    assert counts.get("not_address", 0) > 0
    m = pdf[pdf.status == "match"]
    # every match has coordinates, hex + quad + square cells and PIP pass
    assert m["o_lat"].notna().all()
    assert (m["hex_cell"] > 0).all()
    assert (m["quad_cell"] > 0).all()
    assert m["pip_ok"].all()
    # unmatched rows with a street got kNN suggestions
    um = pdf[(pdf.status == "unmatched") & (pdf.street_name != "")]
    if len(um):
        assert um["knn_streets"].map(len).gt(0).all()


def test_span_sequence_invariant(span_results):
    """Output span sequence equals input on (kind, text, media_ref, order)
    — the north-rule per-row invariant."""
    docs_tbl, _ = make_documents(120, spec=SPEC, seed=7)
    orig = {d: s for d, s in zip(docs_tbl["doc_id"].to_pylist(),
                                 docs_tbl["spans"].to_pylist())}
    out = reassemble_documents(span_results).to_pandas()
    assert len(out) == len(orig)
    for _, row in out.iterrows():
        exp = orig[row["doc_id"]]
        got = row["spans"]
        assert len(got) == len(exp)
        for g, e in zip(got, exp):
            assert (g["kind"], g["text"], g["media_ref"]) == \
                   (e["kind"], e["text"], e["media_ref"])
        assert len(row["geocodes"]) == len(got)


def test_rollup_counts_match_total(span_results):
    m = span_results.map_batches(
        lambda b: b.filter(pc.equal(b["status"], "match")),
        batch_format="pyarrow")
    plain = rollup_counts(m, "hex_cell").to_pandas()
    salted = rollup_counts_salted(m, "hex_cell").to_pandas()
    n_match = span_results.to_pandas().status.eq("match").sum()
    assert plain["n"].sum() == n_match
    # salted variant agrees cell-for-cell
    a = plain.sort_values("hex_cell").reset_index(drop=True)
    b = salted.sort_values("hex_cell").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_geocode_addresses_parity_with_batchlocal(ray_session):
    """The Ray path and a direct single-process cascade agree row-for-row
    (the notebook's cross-mode consistency assertion, SURVEY.md §5)."""
    from georay.gazetteer import get_gazetteer
    from georay.parser import AddressParser

    addrs = make_addresses(80, spec=SPEC, seed=3).drop(
        columns=["truth_class", "truth_street_place_id"])
    ds = ray.data.from_pandas(addrs).repartition(4)
    ray_out = geocode_addresses(ds, spec=SPEC, batch_size=16,
                                with_tiles=False).to_pandas()
    local_out = geocode_frame(addrs, get_gazetteer(SPEC), AddressParser(),
                              PipelineConfig())
    km = ray_out[ray_out.status == "match"].set_index("addr_key")
    lm = local_out[local_out.status == "match"].set_index("addr_key")
    assert set(km.index) == set(lm.index)
    for col in ["m_method", "m_place_id", "m_place_rank", "o_lat", "o_lon"]:
        pd.testing.assert_series_equal(
            km[col].sort_index(), lm[col].sort_index(), check_dtype=False,
            check_names=False)


def _first_operator(ds) -> str:
    """The name of the first operator in ``ds.stats()`` after it ran."""
    return re.search(r"Operator \d+ ([^:]+):", ds.stats()).group(1)


def test_geocode_plans_fuse_read_and_map(ray_session, tmp_path):
    """The read and the geocode batch fn run as ONE operator, so no block
    goes through the object store between a read task and a map task."""
    import pyarrow.parquet as pq

    docs, _ = make_documents(30, spec=SPEC, seed=11)
    addrs = make_addresses(30, spec=SPEC, seed=11).drop(
        columns=["truth_class", "truth_street_place_id"])
    (tmp_path / "docs").mkdir()
    (tmp_path / "addrs").mkdir()
    for i in range(2):
        pq.write_table(docs.slice(15 * i, 15),
                       tmp_path / "docs" / f"part{i}.parquet")
        pq.write_table(pa.Table.from_pandas(
            addrs.iloc[15 * i:15 * (i + 1)], preserve_index=False),
            tmp_path / "addrs" / f"part{i}.parquet")
    # One read task per file: Ray never fuses a map into a read that it
    # asked to split its blocks (more CPUs than files, "SplitBlocks(n)").
    def read(name):
        return ray.data.read_parquet(str(tmp_path / name),
                                     override_num_blocks=2)

    out = geocode_documents(read("docs"), spec=SPEC,
                            batch_size=8).materialize()
    assert out.count() > 0
    assert _first_operator(out).startswith("ReadParquet->MapBatches(")
    out = geocode_addresses(read("addrs"), spec=SPEC,
                            batch_size=8).materialize()
    assert out.count() > 0
    assert _first_operator(out).startswith("ReadParquet->MapBatches(")


def test_capped_map_keeps_bundling_for_split_reads(ray_session, tmp_path):
    """An unsplit read runs fused, each block cut into balanced capped
    calls; a read that Ray splits cannot be fused, so its small blocks
    are bundled back into calls of ``batch_size`` rows."""
    import pyarrow.parquet as pq

    for i in range(2):
        pq.write_table(pa.table({"x": list(range(40 * i, 40 * i + 40))}),
                       tmp_path / f"part{i}.parquet")

    def call_sizes(blocks):
        ds = ray.data.read_parquet(str(tmp_path), override_num_blocks=blocks)
        out = capped_map(ds, lambda b: pa.table({"n": [b.num_rows]}),
                         32).materialize()
        return _first_operator(out), sorted(out.to_pandas()["n"])

    assert call_sizes(2) == ("ReadParquet->MapBatches(<lambda>)", [20] * 4)
    op, sizes = call_sizes(8)
    assert op == "ReadParquet->SplitBlocks(4)"
    assert sum(sizes) == 80 and max(sizes) == 32


@pytest.mark.parametrize("blocks,plan", [(2, "ReadParquet->MapBatches("),
                                         (8, "ReadParquet->SplitBlocks(")])
def test_capped_map_survives_worker_death(ray_session, tmp_path, blocks,
                                          plan):
    """A worker that dies after the first yielded piece of its task is
    replaced and the task runs again: the pass gives the rows of an
    undisturbed pass, none labelled "error on", in the fused plan and in
    the split-read plan alike."""
    import os

    import pyarrow.parquet as pq

    from georay.cascade import ERROR_ON, address_cascade_fn

    addrs = make_addresses(80, spec=SPEC, seed=19).drop(
        columns=["truth_class", "truth_street_place_id"])
    for i in range(2):
        pq.write_table(pa.Table.from_pandas(
            addrs.iloc[40 * i:40 * (i + 1)], preserve_index=False),
            tmp_path / f"part{i}.parquet")
    casc = address_cascade_fn(SPEC, PipelineConfig())
    died = str(tmp_path / "died")

    def dying(batch, calls=[0]):
        # the second call of a task comes after its first piece was
        # yielded; exit there, once
        calls[0] += 1
        if calls[0] == 2 and not os.path.exists(died):
            open(died, "w").close()
            os._exit(1)
        return casc(batch)

    def run(fn):
        ds = ray.data.read_parquet(str(tmp_path), file_extensions=["parquet"],
                                   override_num_blocks=blocks)
        out = capped_map(ds, fn, 16).materialize()
        assert _first_operator(out).startswith(plan)
        return (out.to_pandas().sort_values(["addr_key", "status",
                                             "m_place_id"])
                .reset_index(drop=True))

    want = run(casc)
    got = run(dying)
    assert os.path.exists(died)
    assert not got["m_method"].str.startswith(ERROR_ON).any()
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("cap", [1, 7, 1024])
def test_capped_pieces_rule(cap):
    for n in (0, 1, cap - 1, cap, cap + 1, 5 * cap + 3):
        pieces = capped_pieces(n, cap)
        sizes = [stop - start for start, stop in pieces]
        assert len(pieces) == -(-n // cap)
        assert all(0 < s <= cap for s in sizes)
        assert not sizes or max(sizes) - min(sizes) <= 1
        bounds = [0] + [stop for _, stop in pieces]
        assert [start for start, _ in pieces] == bounds[:-1]
        assert bounds[-1] == n


def test_geocode_documents_cap_does_not_change_rows(ray_session):
    """One 40-doc block cut into 16-doc calls gives the rows of one call."""
    docs, _ = make_documents(40, spec=SPEC, seed=5)
    outs = [geocode_documents(ray.data.from_arrow(docs), spec=SPEC,
                              batch_size=bs).to_pandas()
            for bs in (16, 10_000)]
    cols = ["doc_id", "span_idx", "addr_key", "status", "m_method",
            "m_place_id", "o_lat", "o_lon", "hex_cell", "pip_ok"]
    a, b = (o[cols].sort_values(cols, kind="mergesort")
            .reset_index(drop=True) for o in outs)
    pd.testing.assert_frame_equal(a, b)


def test_geocode_zero_rows(ray_session):
    """An input filtered to zero rows gives zero rows and no schema, as
    the unfused plan did."""
    docs, _ = make_documents(20, spec=SPEC, seed=5)
    none = ray.data.from_arrow(docs).map_batches(
        lambda b: b.filter(pc.equal(b["doc_id"], "no-such-doc")),
        batch_format="pyarrow")
    out = geocode_documents(none, spec=SPEC, batch_size=16).materialize()
    assert out.count() == 0
    assert out.schema() is None
    addrs = make_addresses(20, spec=SPEC, seed=3).drop(
        columns=["truth_class", "truth_street_place_id"])
    none = ray.data.from_pandas(addrs).filter(lambda r: False)
    out = geocode_addresses(none, spec=SPEC, batch_size=16,
                            with_tiles=False).materialize()
    assert out.count() == 0
    assert out.schema() is None


def test_checkpoint_resume(ray_session, tmp_path):
    out_dir = str(tmp_path / "run1")
    calls = []

    def build(seed):
        def _b():
            calls.append(seed)
            docs = synth_documents_dataset(20, spec=SPEC, seed=seed,
                                           parallelism=2)
            return geocode_documents(docs, spec=SPEC, batch_size=128,
                                     with_knn_rescue=False)
        return _b

    shards = [("s0", build(0)), ("s1", build(1))]
    man = run_resumable(shards, out_dir, counters_fn=status_counters)
    assert len(man.records()) == 2
    assert all("match" in r["counters"] for r in man.records())
    n_calls = len(calls)
    # resume: nothing re-runs
    man2 = run_resumable(shards, out_dir, counters_fn=status_counters)
    assert len(calls) == n_calls
    assert len(man2.records()) == 2
    # output readable and partitioned
    ds = ray.data.read_parquet(out_dir + "/part=s0")
    assert ds.count() == man.records()[0]["rows"] or ds.count() > 0


def test_run_resumable_crash_idempotent(ray_session, tmp_path):
    """A shard killed mid-write leaves partial parquet files; resume must
    not double-count them (checkpoint.py writes to .tmp then renames)."""
    import os

    import pandas as pd

    import ray.data
    from georay.checkpoint import run_resumable

    out_dir = str(tmp_path / "run")
    df = pd.DataFrame({"status": ["match"] * 10, "x": range(10)})

    def build():
        return ray.data.from_pandas(df).repartition(2)

    # simulate a crash: stale partial files exist but no manifest record
    part_dir = os.path.join(out_dir, "part=p0")
    os.makedirs(part_dir, exist_ok=True)
    ray.data.from_pandas(df.head(4)).write_parquet(part_dir)
    stale_tmp = part_dir + ".tmp"
    os.makedirs(stale_tmp, exist_ok=True)
    ray.data.from_pandas(df.head(2)).write_parquet(stale_tmp)

    man = run_resumable([("p0", build)], out_dir)
    assert man.records()[0]["rows"] == 10  # not 14 / not 12
    assert not os.path.exists(stale_tmp)
    out = ray.data.read_parquet(part_dir)
    assert out.count() == 10


def test_run_resumable_uri_marker_protocol(ray_session, tmp_path):
    """file:// out_dir exercises the pyarrow.fs marker-file commit path
    (the object-store protocol: no rename — _COMMITTED marker + one
    manifest object per partition)."""
    import os

    import pandas as pd

    import ray.data
    from georay.checkpoint import Manifest, run_resumable, status_counters

    out_dir = "file://" + str(tmp_path / "urirun")
    local = str(tmp_path / "urirun")
    df = pd.DataFrame({"status": ["match"] * 8, "x": range(8)})
    calls = []

    def build():
        calls.append(1)
        return ray.data.from_pandas(df).repartition(2)

    man = run_resumable([("p0", build)], out_dir,
                        counters_fn=status_counters)
    assert man.records()[0]["rows"] == 8
    assert man.records()[0]["counters"] == {"match": 8}
    assert os.path.exists(os.path.join(local, "part=p0", "_COMMITTED"))
    assert os.path.exists(os.path.join(local, "_manifest", "p0.json"))
    # resume: builder not re-invoked, manifest re-read from objects
    n = len(calls)
    man2 = run_resumable([("p0", build)], out_dir)
    assert len(calls) == n
    assert Manifest(out_dir).is_done("p0")


def test_run_resumable_uri_crash_cases(ray_session, tmp_path):
    """URI commit crash matrix: (a) data without marker is deleted and
    rewritten; (b) marker without manifest record is adopted without
    rebuilding; (c) straggler files not in the marker list are never
    counted."""
    import json
    import os

    import pandas as pd

    import ray.data
    from georay.checkpoint import run_resumable

    local = str(tmp_path / "crash")
    out_dir = "file://" + local
    df = pd.DataFrame({"status": ["match"] * 6, "x": range(6)})

    # (a) crashed attempt: parquet files exist, no _COMMITTED marker
    part = os.path.join(local, "part=p0")
    ray.data.from_pandas(df.head(3)).write_parquet(part)
    built = []

    def build():
        built.append(1)
        return ray.data.from_pandas(df).repartition(2)

    man = run_resumable([("p0", build)], out_dir)
    assert built and man.records()[0]["rows"] == 6

    # (c) straggler object appears next to committed files: reads go
    # through the marker's file list, so the count stays 6
    ray.data.from_pandas(df.head(2)).write_parquet(part)
    marker = json.loads(open(os.path.join(part, "_COMMITTED")).read())
    man_c = run_resumable([("p1", build)], out_dir)  # unrelated shard
    got = ray.data.read_parquet(
        [os.path.join(part, f) for f in marker["files"]])
    assert got.count() == 6

    # (b) marker written but manifest record lost: adopt, don't rebuild
    os.remove(os.path.join(local, "_manifest", "p0.json"))
    n = len(built)
    man_b = run_resumable([("p0", build)], out_dir)
    assert len(built) == n  # not rebuilt
    assert man_b.records() and any(
        r["partition_id"] == "p0" and r["rows"] == 6
        for r in man_b.records())

    # (d) TRUNCATED marker (crash mid-marker-write on an incremental
    # filesystem): treated as uncommitted — partition deleted and
    # rebuilt, resume never wedges on JSONDecodeError
    with open(os.path.join(part, "_COMMITTED"), "w") as f:
        f.write('{"files": ["trunc')
    os.remove(os.path.join(local, "_manifest", "p0.json"))
    n = len(built)
    man_d = run_resumable([("p0", build)], out_dir)
    assert len(built) == n + 1  # rebuilt
    assert any(r["partition_id"] == "p0" and r["rows"] == 6
               for r in man_d.records())
    marker_d = json.loads(open(os.path.join(part, "_COMMITTED")).read())
    assert ray.data.read_parquet(
        [os.path.join(part, f) for f in marker_d["files"]]).count() == 6


def test_sessionize_gap_boundary(ray_session, tmp_path):
    """30-min rule is strict (> 1800 s): exactly 1800 stays in-session."""
    import pandas as pd

    import pyarrow.parquet as pq
    import pyarrow as pa
    from georay.entrylib import q_rel_sessionize

    base = pd.Timestamp("2025-01-01 00:00:00")
    df = pd.DataFrame({
        "user_id": [1, 1, 1, 2],
        "event_id": [1, 2, 3, 4],
        "ts": [base, base + pd.Timedelta(seconds=1800),       # same session
               base + pd.Timedelta(seconds=1800 + 1801),      # new session
               base],
    })
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   str(sf / "events.parquet"))
    out = q_rel_sessionize(str(sf)).to_pandas().sort_values(
        ["user_id", "session_idx"]).reset_index(drop=True)
    assert out.to_dict("list") == {
        "user_id": [1, 1, 2], "session_idx": [1, 2, 1],
        "n_events": [2, 1, 1]}
