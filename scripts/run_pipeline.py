"""Job driver for the flagship pipeline — the shape you'd hand to
``ray job submit`` on a real cluster (north rule: resumable runs with
per-partition lineage).

    python scripts/run_pipeline.py --input /tmp/georay_bench/sf0.1_60000 \
        --output /tmp/georay_run1 [--shards-per-partition 8] \
        [--num-cpus 32]

The input directory's parquet fragments are grouped into partitions;
each partition runs as its own streaming pipeline and writes one output
directory (through the ``tables.py`` Lance-or-Parquet adapter) plus a
lineage record (rows, wall seconds, and counters: rows per status,
matches per method and the per-cascade-step todo/match/errors/reject
table, counted from the partition's own output rows).  RESUME is the
default behavior: re-run the same command after a crash — or with a
different ``--num-cpus`` — and completed partitions are skipped, only
the remainder runs.  That is also the
cluster story: the same manifest protocol works when partitions are
farmed out to different nodes — local output dirs commit via an atomic
directory rename per partition, and ``scheme://`` output dirs (s3://,
gcs://, file://, any pyarrow.fs URI) commit via the marker-file
protocol (``_COMMITTED`` object + one immutable manifest object per
partition; see checkpoint.py).

Demo (two parallelism levels sharing one run directory):

    python scripts/run_pipeline.py --input ... --output /tmp/run \
        --num-cpus 8 --max-partitions 2     # start on 8 CPUs, stop early
    python scripts/run_pipeline.py --input ... --output /tmp/run \
        --num-cpus 32                        # finish the rest on 32 CPUs
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--output", required=True)
    ap.add_argument("--shards-per-partition", type=int, default=8)
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--spec-factor", type=float, default=1.5)
    ap.add_argument("--max-partitions", type=int, default=0,
                    help="stop after N not-yet-done partitions (demo / "
                         "drain control); 0 = run all")
    args = ap.parse_args()

    import ray
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import ray.data

    from georay import tables
    from georay.checkpoint import Manifest, pipeline_counters, run_resumable
    from georay.config import PipelineConfig
    from georay.gazetteer import GazetteerSpec
    from georay.pipeline import geocode_documents

    spec = GazetteerSpec().scaled(args.spec_factor)
    cfg = PipelineConfig()

    files = sorted(f for f in os.listdir(args.input)
                   if f.endswith(".parquet"))
    groups = [files[i:i + args.shards_per_partition]
              for i in range(0, len(files), args.shards_per_partition)]

    def reader(group):
        paths = [os.path.join(args.input, f) for f in group]
        return tables.read_documents(paths)

    def build(group):
        def _b():
            return geocode_documents(reader(group), spec=spec, cfg=cfg)
        return _b

    shards = [(f"p{gi:05d}", build(g)) for gi, g in enumerate(groups)]
    if args.max_partitions:
        done = Manifest(args.output)
        todo = [s for s in shards if not done.is_done(s[0])]
        keep = {s[0] for s in todo[:args.max_partitions]}
        shards = [s for s in shards if done.is_done(s[0]) or s[0] in keep]
    manifest = run_resumable(shards, args.output,
                             counters_fn=lambda ds: pipeline_counters(ds, cfg),
                             write_fn=tables.write_table)
    recs = manifest.records()
    total = {"partitions": len(recs),
             "rows": sum(r["rows"] for r in recs),
             "seconds": round(sum(r["seconds"] for r in recs), 2)}
    print(json.dumps(total))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
