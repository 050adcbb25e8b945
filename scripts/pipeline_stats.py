"""Observability for the flagship pipeline: per-operator Ray Data stats
plus the reference-style per-step cascade counters, both from ONE
geocode run with the cascade memo on.

    python scripts/pipeline_stats.py [--docs 30000] [--num-cpus 16]

Prints:
- ds.stats() for the geocode pipeline (per-operator wall/cpu/UDF time,
  rows and bytes per block — read this to find the bottleneck stage);
- the step table: todo/match/match_26/errors/reject_rec/reject_addr/
  reject_mism per cascade step (utils.py:678-686), counted from the
  run's output rows (``pipeline.step_stats``).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--docs", type=int, default=30000)
    ap.add_argument("--num-cpus", type=int, default=16)
    ap.add_argument("--spec-factor", type=float, default=1.5)
    args = ap.parse_args()

    from bench import _quiet_ray_data_logging
    _quiet_ray_data_logging()
    import ray
    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data

    from georay.config import PipelineConfig
    from georay.corpus import write_bench_corpus
    from georay.gazetteer import GazetteerSpec
    from georay.pipeline import geocode_documents, step_stats
    from georay.tiles import rollup_counts_local

    spec = GazetteerSpec().scaled(args.spec_factor)
    corpus = f"/tmp/georay_bench/stats_{args.docs}"
    write_bench_corpus(corpus, args.docs, spec=spec)

    cfg = PipelineConfig()
    res = geocode_documents(ray.data.read_parquet(corpus), spec=spec,
                            cfg=cfg).materialize()
    match = res.map_batches(
        lambda b: b.filter(pc.equal(b["status"], "match")),
        batch_format="pyarrow")
    rollup = rollup_counts_local(match, "hex_cell")
    print(f"== geocoded {args.docs} docs -> {int(rollup['n'].sum())} "
          "matches ==\n")
    print(res.stats())

    print("\n== per-step cascade counters (same run) ==")
    print(pd.DataFrame(step_stats(res, cfg)).to_string(index=False))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
