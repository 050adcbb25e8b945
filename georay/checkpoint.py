"""Checkpointed, resumable runs: per-partition lineage + counters.

North-rule requirement (BASELINE.json): "every partition emits lineage
records and counters to a checkpoint store so runs resume mid-pipeline".
The reference has none of this (a crash loses the whole batch,
SURVEY.md §3.3).

Design: the job driver splits the input into shards (files or row
ranges).  Each shard runs as its own streaming Dataset pipeline and
writes one output partition directory; on completion a lineage record
(shard id, rows in/out, status counters, wall seconds, output path) is
appended to ``manifest.jsonl``.  On resume, completed shards are skipped
— output is idempotent at shard granularity, never one giant file.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

import ray.data

from .config import PipelineConfig
from .stepstats import outcome_counters, outcome_counts
from .tiles import rollup_counts_local


def _fs_for(out_dir: str):
    """Resolve ``out_dir`` to (filesystem, root_path, is_uri): plain paths
    stay on the POSIX fast path (atomic-rename commits); ``scheme://``
    URIs go through ``pyarrow.fs.FileSystem.from_uri`` (file://, s3://,
    gcs://, or any fsspec-registered scheme) and use the marker-file
    commit protocol — object stores have no atomic rename."""
    if "://" not in out_dir:
        return None, out_dir, False
    from pyarrow import fs as pafs
    fs, root = pafs.FileSystem.from_uri(out_dir)
    return fs, root, True


class Manifest:
    """Append-only lineage store for one run directory.

    Local paths: one ``manifest.jsonl`` (appended per partition).  URI
    out_dirs: appends don't exist on object stores, so each lineage
    record is ONE immutable object ``_manifest/<partition_id>.json`` —
    a single PUT is the commit (read-after-write visible on every major
    store), and ``records()`` lists the directory."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.fs, self.root, self.is_uri = _fs_for(out_dir)
        self._done: dict[str, dict] = {}
        if self.is_uri:
            from pyarrow import fs as pafs
            self._mandir = f"{self.root}/_manifest"
            self.fs.create_dir(self._mandir, recursive=True)
            sel = pafs.FileSelector(self._mandir, allow_not_found=True)
            for info in self.fs.get_file_info(sel):
                if not info.base_name.endswith(".json"):
                    continue
                with self.fs.open_input_stream(info.path) as f:
                    rec = json.loads(f.read().decode())
                self._done[rec["partition_id"]] = rec
            return
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, "manifest.jsonl")
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    line = line.strip()
                    if line:
                        rec = json.loads(line)
                        self._done[rec["partition_id"]] = rec

    def is_done(self, partition_id: str) -> bool:
        return partition_id in self._done

    def record(self, partition_id: str, **fields) -> None:
        rec = {"partition_id": partition_id, "ts": time.time(), **fields}
        if self.is_uri:
            payload = json.dumps(rec).encode()
            with self.fs.open_output_stream(
                    f"{self._mandir}/{partition_id}.json") as f:
                f.write(payload)
        else:
            with open(self.path, "a") as f:
                f.write(json.dumps(rec) + "\n")
        self._done[partition_id] = rec

    def records(self) -> list[dict]:
        return list(self._done.values())


def run_resumable(shards: list[tuple[str, Callable[[], "ray.data.Dataset"]]],
                  out_dir: str,
                  counters_fn: Callable[["ray.data.Dataset"], dict] | None = None,
                  write_fn: Callable[["ray.data.Dataset", str], None] | None = None
                  ) -> Manifest:
    """Run each (partition_id, dataset_builder) shard to its own parquet
    partition directory, skipping shards the manifest already marks done.

    ``counters_fn`` (optional) computes per-partition metric counters from
    the shard's output dataset (``status_counters``,
    ``pipeline_counters``) — stored in the lineage record.  If it
    raises, the error propagates and the partition gets no record, so a
    resume re-runs (local) or adopts (URI) it.

    ``write_fn`` (optional) writes a Dataset to a directory path —
    defaults to ``Dataset.write_parquet``; pass ``tables.write_table``
    to route output through the Lance-or-Parquet table adapter.

    Commit protocol by ``out_dir`` kind:

    - LOCAL path: write to ``part=<id>.tmp`` and atomically rename into
      place before recording the manifest — a shard killed mid-write
      leaves only a .tmp dir a resume deletes.
    - ``scheme://`` URI (s3://, gcs://, file://, ...): object stores
      have no atomic rename, so the commit is a MARKER FILE
      (``part=<id>/_COMMITTED`` listing the data files, written AFTER
      all data objects) + the single-PUT manifest record object.  On
      resume: no marker -> the partition's leftovers are deleted and it
      re-runs; marker but no manifest record (crash between the two) ->
      the committed data is adopted without rewriting; reads always go
      through the marker's explicit file list, so uncommitted stragglers
      are never double-counted.
    """
    import shutil
    fs, root, is_uri = _fs_for(out_dir)
    manifest = Manifest(out_dir)
    for partition_id, build in shards:
        if manifest.is_done(partition_id):
            continue
        t0 = time.time()
        if is_uri:
            out, rows = _commit_uri_partition(
                fs, out_dir, root, partition_id, build, write_fn)
            part_dir = f"{out_dir.rstrip('/')}/part={partition_id}"
        else:
            part_dir = os.path.join(out_dir, f"part={partition_id}")
            # crash idempotency: a shard killed mid-write must not leave
            # partial files that a resume would double-count — write to a
            # .tmp dir and rename into place before recording the manifest
            part_tmp = part_dir + ".tmp"
            for stale in (part_tmp, part_dir):
                if os.path.exists(stale):
                    shutil.rmtree(stale)
            ds = build()
            (write_fn or ray.data.Dataset.write_parquet)(ds, part_tmp)
            os.rename(part_tmp, part_dir)
            out = ray.data.read_parquet(part_dir)
            rows = out.count()
        counters = counters_fn(out) if counters_fn else {}
        manifest.record(partition_id, rows=rows,
                        seconds=round(time.time() - t0, 3),
                        path=part_dir, counters=counters)
    return manifest


_MARKER = "_COMMITTED"


def _committed_files(fs, part_path: str) -> list[str] | None:
    """Return the marker's data-file basenames, or None if uncommitted.

    A truncated/unreadable marker counts as UNCOMMITTED: on filesystems
    that materialize bytes incrementally (file://, NFS) a crash
    mid-marker-write leaves partial JSON — treating that as committed
    (or raising) would wedge every resume until manual cleanup; treating
    it as uncommitted deletes the partition and re-runs it, which the
    idempotent-shard contract already allows (round-4 advice)."""
    from pyarrow import fs as pafs
    info = fs.get_file_info(f"{part_path}/{_MARKER}")
    if info.type == pafs.FileType.NotFound:
        return None
    try:
        with fs.open_input_stream(info.path) as f:
            return json.loads(f.read().decode())["files"]
    except (ValueError, KeyError, OSError):
        return None


def _commit_uri_partition(fs, out_uri: str, root: str, partition_id: str,
                          build, write_fn):
    """Marker-file commit of one partition on a pyarrow filesystem; returns
    (committed Dataset, row count)."""
    from pyarrow import fs as pafs
    part_path = f"{root}/part={partition_id}"
    part_uri = f"{out_uri.rstrip('/')}/part={partition_id}"
    files = _committed_files(fs, part_path)
    if files is None:
        # uncommitted leftovers from a crashed attempt: delete, rewrite
        if fs.get_file_info(part_path).type != pafs.FileType.NotFound:
            fs.delete_dir(part_path)
        ds = build()
        if write_fn is not None:
            write_fn(ds, part_uri)
        else:
            ds.write_parquet(part_path, filesystem=fs)
        # the marker lists the partition's PARQUET files and the reader
        # below reads them back with read_parquet — a custom write_fn
        # that produces a nested or non-parquet layout can't round-trip
        # through this commit protocol, so fail loudly at commit time
        # instead of writing a marker whose file list can't be read
        # (round-4 advice); non-parquet adapters belong on LOCAL
        # out_dirs where the rename protocol never lists files
        sel = pafs.FileSelector(part_path)
        infos = fs.get_file_info(sel)
        if any(i.type == pafs.FileType.Directory for i in infos):
            raise ValueError(
                f"write_fn produced nested directories under {part_path}; "
                "URI out_dirs require a flat parquet-file layout "
                "(use a local out_dir for custom table adapters)")
        files = sorted(i.base_name for i in infos
                       if i.base_name != _MARKER)
        if not all(n.endswith(".parquet") for n in files):
            raise ValueError(
                f"write_fn produced non-parquet files under {part_path}: "
                f"{[n for n in files if not n.endswith('.parquet')][:3]}; "
                "URI out_dirs commit parquet layouts only")
        with fs.open_output_stream(f"{part_path}/{_MARKER}") as f:
            f.write(json.dumps({"files": files,
                                "ts": time.time()}).encode())
    # read ONLY the marker-listed files: stragglers from aborted attempts
    # (visible on list-after-delete-lagging stores) are never counted
    out = ray.data.read_parquet([f"{part_path}/{name}" for name in files],
                                filesystem=fs)
    return out, out.count()


def status_counters(ds: "ray.data.Dataset") -> dict:
    """Per-partition counters: rows per status label."""
    df = rollup_counts_local(ds, "status")
    return {str(k): int(v) for k, v in zip(df["status"], df["n"])}


def pipeline_counters(ds: "ray.data.Dataset",
                      cfg: PipelineConfig | None = None) -> dict:
    """Lineage counters of a geocode-output partition written under
    ``cfg`` (default ``PipelineConfig()``), from one counting pass over
    its rows: rows per status, match rows per ``m_method`` and the
    per-step cascade table (``stepstats.outcome_counters``)."""
    parts = ds.map_batches(outcome_counts, batch_format="pyarrow",
                           batch_size=None)
    return outcome_counters(
        list(parts.iter_batches(batch_size=None, batch_format="pyarrow")),
        cfg or PipelineConfig())
