"""End-to-end Ray Data pipeline builders (SURVEY.md §7.1 ``pipeline.py``).

Flagship flow (the reference's ``/batchGeocode`` re-expressed Ray-Data-
first, §3.1):

    read_parquet(documents)                        # prune at the read
      -> capped_map(whole)                         # fused INTO the read task
                                                   # (unless Ray splits it):
           explode_spans                           #   Arrow explode
           -> SpanCascadeGeocoder                  #   whole cascade
           -> annotator_fn                         #   cells + PIP + kNN
      -> write_parquet / groupby rollups / reassemble

Components are built once per worker process (``cascade.worker_component``).
Everything is lazy/streaming; no stage materializes the full dataset.
All builders take an existing Dataset or a path — they never call
``ray.init()``.
"""

from __future__ import annotations

import functools

import ray.data

from .cascade import address_cascade_fn, span_cascade_fn, worker_component
from .checkpoint import pipeline_counters
from .config import PipelineConfig
from .corpus import make_documents
from .gazetteer import GazetteerSpec
from .knn import KnnRescuer
from .memo import CAPS, Memo
from .spans import explode_spans, reassemble_partition
from .tiles import TileAnnotator


def synth_documents_dataset(n_docs: int, spec: GazetteerSpec | None = None,
                            seed: int = 7,
                            parallelism: int = 16) -> "ray.data.Dataset":
    """Deterministic interleaved-documents Dataset (the input_hint table),
    built driver-side once and converted; for larger sizes prefer
    ``write_synth_documents`` + ``read_parquet``."""
    docs, _ = make_documents(n_docs, spec=spec, seed=seed)
    return ray.data.from_arrow(docs).repartition(parallelism)


def annotator_fn(spec=None, hex_res: int = 9, quad_level: int = 18,
                 with_tiles: bool = True, with_knn: bool = True,
                 memos: bool = True):
    """Picklable stateless-task batch fn for the fused light annotation —
    tile assignment + PIP validation, then kNN rescue, in one Arrow pass —
    built once per worker process (``cascade.worker_component``).
    ``memos`` switches the kNN memo (the config's ``with_worker_memos``):
    off, its cap is 0."""
    key = ("annotator", spec, hex_res, quad_level, with_tiles, with_knn,
           memos)

    def build():
        return _chain(
            TileAnnotator(spec=spec, hex_res=hex_res, quad_level=quad_level)
            if with_tiles else None,
            KnnRescuer(spec=spec, memo=Memo(CAPS["knn"] if memos else 0))
            if with_knn else None)

    def fn(batch):
        return worker_component(key, build)(batch)

    return fn


def capped_pieces(n: int, cap: int) -> list[tuple[int, int]]:
    """``[start, stop)`` bounds of the ceil(n / cap) balanced pieces that
    cover ``[0, n)`` in order: each holds at most ``cap`` rows, and their
    sizes differ by at most one."""
    k = -(-n // cap)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def read_splits_blocks(ds: "ray.data.Dataset") -> bool:
    """Whether Ray will split the blocks of the read that ``ds`` maps
    over (``ReadParquet->SplitBlocks(n)`` in ``ds.stats()``): it does so
    when a read plans more tasks than it has files, e.g. a one-file read
    on a cluster of 8 CPUs.  Ray never fuses a map into such a read.
    Reads the plan with Ray's own rule (``SetReadParallelismRule``), as
    the executor will apply it on this cluster."""
    from ray.data._internal.logical.operators.map_operator import AbstractMap
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data._internal.logical.rules.set_read_parallelism import (
        compute_additional_split_factor)

    op = ds._logical_plan.dag
    while (isinstance(op, AbstractMap) and not isinstance(op, Read)
           and len(op.input_dependencies) == 1):
        op = op.input_dependencies[0]
    if not isinstance(op, Read):
        return False
    *_, k = compute_additional_split_factor(
        op._datasource_or_legacy_reader, op._parallelism, op._mem_size,
        ds.context.target_max_block_size)
    return bool(k and k > 1)


def capped_map(ds: "ray.data.Dataset", fn, batch_size: int
               ) -> "ray.data.Dataset":
    """``map_batches(fn)`` over whole blocks, with at most ``batch_size``
    rows per ``fn`` call.

    ``batch_size=None`` lets Ray fuse the map into the read task (Ray
    2.49 will not fuse a map that asks for a row count behind a read, so
    every block would take an extra object-store hop between two tasks).
    The generator keeps the per-call cap by yielding ``fn`` of each
    ``capped_pieces`` slice of the block.  Blocks smaller than the cap
    are passed whole, not joined with other blocks.

    A read that Ray splits (``read_splits_blocks``) cannot be fused, and
    its blocks are small by design (n / split factor rows), so there the
    map keeps Ray's ``batch_size`` bundling, which joins them back into
    calls of about ``batch_size`` rows."""
    if read_splits_blocks(ds):
        return ds.map_batches(fn, batch_format="pyarrow",
                              batch_size=batch_size)

    @functools.wraps(fn)
    def capped(block):
        for start, stop in capped_pieces(block.num_rows, batch_size):
            yield fn(block.slice(start, stop - start))

    return ds.map_batches(capped, batch_format="pyarrow", batch_size=None)


def geocode_documents(docs: "ray.data.Dataset",
                      spec: GazetteerSpec | None = None,
                      cfg: PipelineConfig | None = None,
                      batch_size: int = 1024,
                      with_knn_rescue: bool = True,
                      with_tiles: bool = True) -> "ray.data.Dataset":
    """documents -> span-level geocode results (one row per span ×
    match/reject, not_address spans passed through).

    Execution: ONE fused read + map task per read block (see
    ``capped_map``; a read that Ray splits is the exception): the read
    and the batch fn (explode -> cascade -> annotate) run in the same Ray
    task, with the components built once per worker process — elastic
    scheduling, no pool sizing.  Even "fused" Ray Data operators pay
    per-op rebatching (slice/concat of the 33-column Arrow batch at every
    boundary), measured at ~60% of total CPU for this chain; one fn
    doubles throughput.

    ``batch_size`` caps the DOCUMENT rows per cascade call: a read block
    of n docs is cut into ceil(n / batch_size) balanced pieces.  Blocks
    are not coalesced, so a block smaller than the cap is one smaller
    call.  The cascade has a fixed per-call cost (10 steps of frame
    machinery), so small blocks pay it more often: ``read_parquet`` reads
    one block per file, so three 1,000-doc shards make three calls of
    1,000 docs (~2,000 addresses each) under the default cap.  A read
    that Ray splits (more read tasks than files, e.g. one file on 8
    CPUs) cannot be fused; there Ray bundles its small blocks into calls
    of ``batch_size`` docs, as an unfused map always did."""
    return capped_map(docs, documents_fn(spec, cfg, with_knn_rescue,
                                         with_tiles), batch_size)


def documents_fn(spec: GazetteerSpec | None = None,
                 cfg: PipelineConfig | None = None,
                 with_knn_rescue: bool = True, with_tiles: bool = True):
    """The batch fn of ``geocode_documents``: explode -> cascade ->
    annotate, its components built once per worker process; ``cfg``
    alone switches their memos, the annotator's kNN memo included."""
    spec = spec or GazetteerSpec()
    cfg = cfg or PipelineConfig()
    ann = (annotator_fn(spec, cfg.hex_res, cfg.quad_level, with_tiles,
                        with_knn_rescue, cfg.with_worker_memos)
           if (with_tiles or with_knn_rescue) else None)
    return _chain(explode_spans, span_cascade_fn(spec, cfg), ann)


def _chain(*fns):
    """One batch fn applying ``fns`` in order, None skipped."""
    fns = [f for f in fns if f is not None]

    def whole(batch):
        for f in fns:
            batch = f(batch)
        return batch

    return whole


def geocode_addresses(addrs: "ray.data.Dataset",
                      spec: GazetteerSpec | None = None,
                      cfg: PipelineConfig | None = None,
                      batch_size: int = 1024,
                      with_tiles: bool = True) -> "ray.data.Dataset":
    """Flat address batch -> cascade results (the /batchGeocode parity
    path, nominatimwrapper.py:709-855), with the same fused read + map
    plan as ``geocode_documents``: ``batch_size`` caps the ADDRESS rows
    per cascade call, and blocks smaller than the cap are not coalesced
    unless Ray splits the read."""
    spec = spec or GazetteerSpec()
    cfg = cfg or PipelineConfig()
    ann = (annotator_fn(spec, cfg.hex_res, cfg.quad_level, True, False)
           if with_tiles else None)
    return capped_map(addrs, _chain(address_cascade_fn(spec, cfg), ann),
                      batch_size)


def step_stats(results: "ray.data.Dataset",
               cfg: PipelineConfig | None = None) -> list[dict]:
    """Per-step cascade counters of a geocoded Dataset written under
    ``cfg``: one record per step (todo / match / match_26 / errors /
    reject_rec / reject_addr / reject_mism, see
    ``stepstats.outcome_counters``), counted from its rows in one pass —
    the cascade does not run again."""
    return pipeline_counters(results, cfg)["step_stats"]


def reassemble_documents(span_results: "ray.data.Dataset"
                         ) -> "ray.data.Dataset":
    """Regroup span-level results into documents, preserving span order —
    the one required shuffle (groupby doc_id), SURVEY.md §7.3."""
    import pyarrow.compute as pc

    from .shuffle import grouped_map

    def keep_fn(batch):
        return batch.filter(pc.is_in(
            batch["status"],
            value_set=__import__("pyarrow").array(
                ["match", "unmatched", "not_address"])))
    keep = span_results.map_batches(keep_fn, batch_format="pyarrow")
    return grouped_map(keep, "doc_id", reassemble_partition,
                       group_fn=False)


_NAMESPACES = {
    # flat-internal -> struct-at-the-sink mapping (SURVEY.md §1.4)
    "input": ["addr_key", "street_name", "house_number", "post_code",
              "post_name", "country_name"],
    "metadata": ["m_method", "m_transformed_address", "m_osm_order",
                 "m_place_rank", "m_place_id", "m_reject_reason",
                 "m_distance_to_match",
                 "m_match_on_cleansed_house_number", "candidate_json"],
    "output": ["o_street_name", "o_house_number", "o_post_code",
               "o_post_name", "o_country_name", "o_other",
               "o_display_name", "o_lat", "o_lon", "o_in_house_number",
               "o_lpost_house_number", "o_lpost_unit"],
    "check": ["c_sim_street", "c_sim_street_which", "c_sim_house_number",
              "c_sim_post_code", "c_sim_city"],
    "spatial": ["hex_cell", "quad_cell", "square_cell", "pip_ok"],
}


def pack_nested(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Pack flat result columns into one struct column per namespace —
    the output-sink shape (flat internally, structs at the sink,
    SURVEY.md §1.4).  Leaf names drop the namespace prefix."""
    import pyarrow as pa

    def fn(batch: pa.Table) -> pa.Table:
        cols = {}
        consumed = set()
        for ns, flat_cols in _NAMESPACES.items():
            present = [c for c in flat_cols if c in batch.column_names]
            if not present:
                continue
            leaf = [c.split("_", 1)[1] if c.startswith(("m_", "o_", "c_"))
                    else c for c in present]
            arrays = [batch[c].combine_chunks() if isinstance(
                batch[c], pa.ChunkedArray) else batch[c] for c in present]
            cols[ns] = pa.StructArray.from_arrays(arrays, names=leaf)
            consumed.update(present)
        rest = [c for c in batch.column_names if c not in consumed]
        out = {c: batch[c] for c in rest}
        out.update(cols)
        return pa.table(out)

    return ds.map_batches(fn, batch_format="pyarrow")
