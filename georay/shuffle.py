"""Partitioned grouped execution: the engine's replacement for
``Dataset.groupby(key).map_groups(fn)``.

Ray Data's ``map_groups`` materializes work PER GROUP — with thousands of
small groups (LSH buckets, doc_ids) the per-group task/pandas overhead
dominates wall-clock by 10-100×.  The scalable plan — on one node or 256 —
is: deterministic hash of the key into P partitions, ONE shuffle on the
partition id, then a single task per partition that runs a vectorized
pandas ``groupby`` over all of its groups.

``grouped_map(ds, key, fn, num_partitions=P)`` guarantees fn sees every
row of each key group exactly once (co-partitioning by key hash), with
deterministic md5-based hashing (Python's ``hash()`` is process-seeded).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ._workergc import default_gc


def _hash_col(arr) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of one column (pandas
    hash_array uses a fixed key — stable across processes, unlike
    Python's seeded ``hash``)."""
    a = pd.array(arr) if not isinstance(arr, (pd.Series, np.ndarray)) else arr
    return pd.util.hash_array(np.asarray(a)).astype(np.uint64)


def _hash_mod_cols(cols: list, mod: int) -> np.ndarray:
    h = _hash_col(cols[0])
    for c in cols[1:]:
        h = h * np.uint64(1000003) + _hash_col(c)
    return (h % np.uint64(mod)).astype(np.int64)


# Arrow integer type -> pandas nullable dtype: a column null on some rows
# keeps its exact integer values instead of turning into float64
_NULLABLE_INTS = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
}


def adaptive_partitions(min_parts: int = 16, per_cpu: int = 3) -> int:
    """Reduce-partition count scaled to the CLUSTER, not a constant:
    ~``per_cpu`` reduce tasks per CPU (pipelining headroom without
    per-task overhead dominating), floored at ``min_parts``.  A fixed
    ``num_partitions=32`` is right at sf0.1 on one node but flatlines a
    256-node cluster at 32 reduce tasks — every grouped_map call site
    defaults to this helper and only overrides it when the count is
    semantic.  Results are partitioning-invariant: grouped_map fns are
    per-key-group functions (group_fn=True) or vectorized per-group
    aggregations (group_fn=False), so the partition count changes task
    granularity only, never values."""
    cpus = 0
    try:
        import ray
        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        cpus = 0
    if cpus <= 0:
        import os
        cpus = os.cpu_count() or 8
    return max(min_parts, cpus * per_cpu)


def grouped_map(ds: "ray.data.Dataset",
                key: str | list[str],
                fn: Callable[[pd.DataFrame], pd.DataFrame],
                num_partitions: int | None = None,
                group_fn: bool = True,
                out_schema: pa.Schema | None = None,
                schema_preserving: bool = False,
                nullable_ints: bool = False) -> "ray.data.Dataset":
    """Apply ``fn`` per key-group, executed partition-wise.

    - ``group_fn=True`` (default): ``fn`` receives ONE group's rows
      (``map_groups`` drop-in semantics).
    - ``group_fn=False``: ``fn`` receives a whole partition (many groups,
      co-partitioned by key) and handles grouping itself — cheapest when
      fn is already vectorized across groups.

    Schema stability (empty partitions must NOT produce a column-less /
    null-typed block — that forces the streaming executor to re-infer the
    stream schema per bundle): ``fn`` may return a ``pa.Table`` (passed
    through verbatim — build it with explicit types), or set
    ``out_schema`` to cast every pandas result, or set
    ``schema_preserving=True`` when fn keeps the input columns/types.

    ``num_partitions=None`` (default) resolves via
    ``adaptive_partitions()`` — scaled to cluster CPUs.

    ``nullable_ints=True`` hands ``fn`` integer columns as pandas
    nullable dtypes (``Int64`` …), so ids in a column that is null on
    some rows (say, the other side's columns of a union) stay exact past
    2**53 instead of turning into float64.
    """
    if num_partitions is None:
        num_partitions = adaptive_partitions()
    keys = [key] if isinstance(key, str) else list(key)

    def add_part(batch: pa.Table) -> pa.Table:
        default_gc()  # leave cascade GC mode on reused workers
        cols = [batch[k].to_numpy(zero_copy_only=False) for k in keys]
        return batch.append_column(
            "_part", pa.array(_hash_mod_cols(cols, num_partitions)))

    parted = ds.map_batches(add_part, batch_format="pyarrow")

    def per_partition(t: pa.Table) -> pa.Table:
        default_gc()  # leave cascade GC mode on reused workers
        in_schema = pa.schema([f for f in t.schema if f.name != "_part"])
        df = t.drop_columns(["_part"]).to_pandas(
            types_mapper=_NULLABLE_INTS.get if nullable_ints else None)
        if not group_fn:
            res = fn(df)
        else:
            outs = []
            for _, g in df.groupby(keys, sort=False):
                r = fn(g)
                if r is not None and len(r):
                    outs.append(r)
            if outs and all(isinstance(r, pa.Table) for r in outs):
                # verbatim Arrow pass-through: a pandas round-trip would
                # re-infer types and destroy the explicit schema
                return pa.concat_tables(outs)
            outs = [r.to_pandas() if isinstance(r, pa.Table) else r
                    for r in outs]
            res = (pd.concat(outs, ignore_index=True) if outs
                   else df.iloc[0:0])
        if isinstance(res, pa.Table):
            return res
        target = out_schema
        if target is None and schema_preserving:
            target = in_schema
        if target is None and group_fn and not len(res):
            target = in_schema  # empty default carries input dtypes
        return pa.Table.from_pandas(res, schema=target,
                                    preserve_index=False)

    return parted.groupby("_part").map_groups(per_partition,
                                              batch_format="pyarrow")


def distinct_on(ds: "ray.data.Dataset", keys: list[str],
                num_partitions: int | None = None) -> "ray.data.Dataset":
    """Distinct rows by key columns: per-batch local dedup (map-side
    combine), then partition-wise drop_duplicates — never a per-group
    shuffle, so millions of tiny groups cost one pass."""
    def local(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates(keys)
        return pa.Table.from_pandas(df, schema=batch.schema,
                                    preserve_index=False)

    pre = ds.map_batches(local, batch_format="pyarrow")
    return grouped_map(pre, keys,
                       lambda df: df.drop_duplicates(keys),
                       num_partitions=num_partitions, group_fn=False,
                       schema_preserving=True)
