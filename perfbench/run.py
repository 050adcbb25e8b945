"""georay benchmark: four workloads on one host, end-to-end metrics with
tracing off, per-layer metrics from a traced in-process replay.

    python3 perfbench/run.py --workload docs_warm --seed 1 --seconds 10 --trace 0

Workloads: docs_warm, docs_cold, rest_requests, curation (see README.md).
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Inputs come from ``georay.corpus`` with ``--seed`` and
are cached under ``.perfbench_cache/`` in the checkout.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(1, ROOT)

import procfs  # noqa: E402

SOFT_CAP_S = 150      # SIGALRM: abort the workload, report, clean up
HARD_CAP_S = 170      # watchdog thread: report and exit no matter what

# Full-size and smoke-test sizes.  A "shard" is one parquet file of the
# corpus, built as georay.corpus.write_bench_corpus builds its shards:
# make_documents(shard_docs, seed=seed + shard), doc ids prefixed sNNNNN_.
SIZES = {
    "full": {"shard_docs": 1000, "docs_shards": 3,
             "cur_shards": 2, "vecs": 200_000, "pool": 2000,
             "rest_trace_requests": 300},
    "tiny": {"shard_docs": 100, "docs_shards": 2,
             "cur_shards": 1, "vecs": 4000, "pool": 300,
             "rest_trace_requests": 40},
}
# One Ray CPU: every pass runs on one worker process, so the per-worker
# memos that docs_warm measures are all warm after the set-up pass.  With
# one Ray CPU per host CPU, batches land on a different worker each pass
# and warm passes swing between the memo-hit and memo-miss times.
RAY_CPUS = 1
BATCH_DOCS = 1024          # geocode_documents batch_size, as bench.py
# Set-ups per run; setup_s reports their median.  A docs set-up takes
# 7-10 s, so two of them per run keep the manifest's 92 runs within the
# hour.
SETUPS = 2
REST_WARM_FRAC = 0.8       # share of the request pool sent before timing
REST_BATCH_EVERY = 20      # every 20th request is a batch_geocode ...
REST_BATCH_N = 50          # ... of 50 addresses
# Each cycle of 20 requests sends the same number of addresses not sent
# before (memo misses): one of its singles and one of its batch's 50; the
# rest repeat warm addresses.  Misses differ in cost by an order of
# magnitude (about one in twelve runs all ten cascade steps), so with
# more misses per cycle the median cycle follows how many deep misses a
# seed's pool holds; with two it follows the hit path.
REST_FRESH_SINGLES = (10,)
REST_FRESH_IN_BATCH = 1
# A cycle takes about 0.2 s of CPU, 20 ticks of /proc/stat, so one op is
# four cycles to keep the tick a small share of it.
REST_CYCLES_PER_OP = 4
REST_MIN_HIT = 0.75        # required memo-hit share of the measured mix
# Share of the stream's distinct addresses that must get a match (0.97 for
# seed 1), so a geocoder that stops matching fails without a record.
REST_MIN_MATCHED = 0.8
ANN_DIM, ANN_QUERIES, ANN_K = 64, 16, 10
DIGEST_COLS = ["addr_key", "status", "m_method", "m_place_id", "hex_cell"]
# Every shard must give at least this many match rows per document (50
# recorded 1000-doc shards give 1.929-1.953), so a seed without a record
# still fails when a shard loses some of its matches.
MIN_MATCHES_PER_DOC = 1.8
STEPS = 10                 # cascade steps in georay.config.DEFAULT_CASCADE

# Gated end-to-end metrics, the same on every workload.  Wall-clock
# throughput and latency go to the stderr note: on a shared VM, wall
# throughput spread by up to 0.20 (IQR / median) over ten seeds, against
# up to 0.17 for busy CPU per item, and the bound is 0.25.
E2E_UNITS = {"setup_s": "s", "cpu_ms_per_kitem": "ms", "peak_rss_mb": "MB"}


LAYER_UNITS = {
    "pipeline.ray_share": "ratio",
    "spans.cpu_ms_per_kdoc": "ms", "spans.address_frac": "ratio",
    "cascade.cpu_ms_per_kaddr": "ms", "cascade.memo_miss_frac": "ratio",
    "cascade.addr_rows": "count",
    **{f"transforms.step{i}.{k}": u for i in range(STEPS)
       for k, u in (("rows", "count"), ("cpu_ms", "ms"))},
    "gazetteer.calls": "count", "gazetteer.cpu_ms": "ms",
    "gazetteer.results_per_call": "count",
    "compare.rows": "count", "compare.keep_frac": "ratio",
    "compare.cpu_ms": "ms",
    "parser.calls": "count", "parser.cpu_ms": "ms",
    "tiles.cpu_ms_per_kdoc": "ms", "tiles.pip_ok_frac": "ratio",
    "geom.points": "count", "geom.cpu_ms": "ms",
    "knn.rows": "count", "knn.cpu_ms": "ms",
    "rollup.cpu_ms": "ms",
    "api.cpu_ms_per_req": "ms",
    "dedup.sig_cpu_ms_per_kspan": "ms", "dedup.pairs": "count",
    "dedup.stage_cpu_ms": "ms", "similarity.cpu_ms": "ms",
    "other.cpu_ms": "ms", "replay.cpu_ms": "ms",
    "trace.named_frac": "ratio", "trace.overhead_frac": "ratio",
    "host.steal_frac": "ratio",
}


class Run:
    """What one invocation measured and checked."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES["tiny" if args.tiny else "full"]
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.host = procfs.HostCpu()
        self.session = f"{ROOT}:{os.getpid()}"
        self.ray_started = False
        self.ray_tmp = None        # this run's Ray session directory

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.errors.append(what)
            print(f"[perfbench] CHECK FAILED: {what}", file=sys.stderr)

    def fail_all(self, why: str) -> None:
        """An aborted run: everything attempted counts as failed."""
        self.errors.append(why)
        self.failed = self.attempted = max(self.attempted, 1)

    def set_up(self, fn, synth_s: float, teardown=None) -> list:
        """Run the workload's set-up ``fn`` several times, with
        ``teardown`` between them, and return every set-up's result.
        ``setup_s`` is the time from process start to the first set-up
        (imports; one-time input synthesis, cached by seed, excluded)
        plus the median time of one set-up."""
        lead = time.perf_counter() - T_START - synth_s
        times, outs = [], []
        for i in range(SETUPS):
            if i and teardown is not None:
                teardown()
            t0 = time.perf_counter()
            outs.append(fn())
            times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = lead + statistics.median(times)
        self.note(setup_lead_s=lead, setups_s=times)
        return outs

    def note(self, **kv) -> None:
        print("[perfbench] " + json.dumps(kv, sort_keys=True, default=str),
              file=sys.stderr, flush=True)


# -- inputs -------------------------------------------------------------------

def world_spec():
    from georay.gazetteer import GazetteerSpec
    return GazetteerSpec().scaled(1.5)    # the sf0.1 world of bench.py


def corpus_files(seed: int, shards: int,
                 shard_docs: int) -> tuple[list, float]:
    """Parquet shards of the document corpus for this seed (cached)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from georay.corpus import make_documents
    d = os.path.join(CACHE, "corpus", f"seed{seed}-d{shard_docs}")
    os.makedirs(d, exist_ok=True)
    t0 = time.perf_counter()
    files = []
    for s in range(shards):
        path = os.path.join(d, f"part-{s:05d}.parquet")
        if not os.path.exists(path):
            docs, _ = make_documents(shard_docs, spec=world_spec(),
                                     seed=seed + s)
            ids = pa.array([f"s{s:05d}_{x}" for x in
                            docs["doc_id"].to_pylist()], pa.string())
            tmp = path + f".tmp{os.getpid()}"
            pq.write_table(pa.table({"doc_id": ids, "spans": docs["spans"]}),
                           tmp)
            os.replace(tmp, path)
        files.append(path)
    return files, time.perf_counter() - t0


def load_expected() -> dict:
    try:
        with open(EXPECTED) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_expected(section: str, seed: int, value) -> None:
    exp = load_expected()
    exp.setdefault(section, {})[str(seed)] = value
    with open(EXPECTED, "w") as f:
        json.dump(exp, f, indent=1, sort_keys=True)
        f.write("\n")


def digest(lines) -> str:
    h = hashlib.sha256()
    for ln in sorted(lines):
        h.update(ln.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def shard_digests(tbl) -> dict[str, list]:
    """Order-insensitive digest of the match rows, per corpus shard."""
    per: dict[str, list] = {}
    for row in zip(*(tbl[c].to_pylist() for c in DIGEST_COLS)):
        per.setdefault(row[0][:6], []).append("|".join(map(str, row)))
    return {s: [len(v), digest(v)] for s, v in sorted(per.items())}


# -- Ray session --------------------------------------------------------------

def start_ray(run: Run) -> None:
    """Fresh local Ray cluster with RAY_CPUS CPUs; every process it
    starts carries the run's session tag."""
    os.environ[procfs.SESSION_VAR] = run.session
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(CACHE, exist_ok=True)
    log_cfg = os.path.join(CACHE, "ray_data_logging.yaml")
    with open(log_cfg, "w") as f:
        json.dump({"version": 1, "disable_existing_loggers": False,
                   "handlers": {"null": {"class": "logging.NullHandler"}},
                   "loggers": {"ray.data": {"level": "ERROR",
                                            "handlers": ["null"],
                                            "propagate": False}}}, f)
    os.environ["RAY_DATA_LOGGING_CONFIG"] = log_cfg
    import ray
    # A fresh session directory per run, removed by stop_ray.  Ray appends
    # up to 64 bytes ("/session_<date>_<pid>/sockets/plasma_store") and an
    # AF_UNIX path holds at most 107, so the directory goes in the
    # checkout when that fits and in the system's temporary directory
    # otherwise.
    base = CACHE if len(CACHE) + len("/ray-12345678") + 64 <= 107 else None
    tmp = run.ray_tmp = tempfile.mkdtemp(prefix="ray-", dir=base)
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=512 << 20, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, _temp_dir=tmp)
    run.ray_started = True
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False


def stop_ray(run: Run) -> None:
    if run.ray_started:
        import ray
        try:
            ray.shutdown()
        except Exception:
            traceback.print_exc()
        run.ray_started = False
    procfs.kill_tagged(run.session)
    if run.ray_tmp:
        shutil.rmtree(run.ray_tmp, ignore_errors=True)
        run.ray_tmp = None


def timed_loop(run: Run, op, items: int, item: str):
    """Repeat ``op`` until ``--seconds`` have passed (at least once);
    returns [(wall_s, host_busy_ms, result)]."""
    out = []
    t_end = time.perf_counter() + run.args.seconds
    while not out or time.perf_counter() < t_end:
        cpu = procfs.HostCpu()
        t0 = time.perf_counter()
        res = op()
        out.append((time.perf_counter() - t0, cpu.busy_ms(), res))
    walls = [w for w, _, _ in out]
    run.metrics["cpu_ms_per_kitem"] = statistics.median(
        b / (items / 1000.0) for _, b, _ in out)
    run.note(ops=len(out), walls_s=[round(w, 4) for w in walls],
             op_p50_ms=1000.0 * statistics.median(walls),
             **{f"{item}_per_s": statistics.median(items / w
                                                    for w in walls)})
    return out


# -- docs_warm / docs_cold ----------------------------------------------------

def docs_config(memo: bool):
    from georay.config import PipelineConfig
    return PipelineConfig(with_rejected=False, with_cascade_memo=memo,
                          with_worker_memos=memo)


def match_rows(tbl):
    import pyarrow.compute as pc
    return tbl.filter(pc.equal(tbl["status"], "match")).select(DIGEST_COLS)


def run_docs(run: Run, memo: bool) -> None:
    import pyarrow as pa
    import pyarrow.compute as pc

    size = run.size
    shards = size["docs_shards"]
    files, synth_s = corpus_files(run.args.seed, shards, size["shard_docs"])
    n_docs = shards * size["shard_docs"]
    from georay.pipeline import geocode_documents
    from georay.tiles import rollup_counts_local
    spec, cfg = world_spec(), docs_config(memo)

    def geocoded():
        import ray.data                  # after start_ray set the env
        docs = ray.data.read_parquet(files)
        return geocode_documents(docs, spec=spec, cfg=cfg,
                                 batch_size=BATCH_DOCS)

    def pipeline():
        match = geocoded().map_batches(
            lambda b: b.filter(pc.equal(b["status"], "match")),
            batch_format="pyarrow")
        roll = rollup_counts_local(match, "hex_cell")
        return dict(zip(roll["hex_cell"].tolist(), roll["n"].tolist()))

    # Set-up: a fresh Ray session whose first pass starts the workers,
    # builds their components, fills their memos (docs_warm) and yields
    # the rows every later pass is checked against.
    def set_up():
        start_ray(run)
        return pa.concat_tables(geocoded().map_batches(
            match_rows, batch_format="pyarrow").iter_batches(
                batch_size=None, batch_format="pyarrow"))

    setups = run.set_up(set_up, synth_s, teardown=lambda: stop_ray(run))
    rows = setups[-1]
    expected_roll = Counter(rows["hex_cell"].to_pylist())
    errors = sum(1 for m in rows["m_method"].to_pylist()
                 if m.startswith("error on"))
    run.check(errors == 0, f"{errors} rows labelled 'error on'", n_docs)
    got = shard_digests(rows)
    for other in setups[:-1]:
        run.check(shard_digests(other) == got,
                  "set-up passes in fresh Ray sessions differ", n_docs)
    section = f"docs:d{size['shard_docs']}"
    rec = load_expected().get(section, {}).get(str(run.args.seed), {})
    for s in (f"s{i:05d}" for i in range(shards)):
        v = got.get(s)
        n = v[0] if v else 0
        run.check(n >= MIN_MATCHES_PER_DOC * size["shard_docs"],
                  f"shard {s}: {n} match rows for {size['shard_docs']} docs",
                  size["shard_docs"])
        if s in rec:
            run.check(v == rec[s],
                      f"shard {s} digest {v} != recorded {rec[s]}",
                      size["shard_docs"])
    if run.args.record and not run.errors:
        record_expected(section, run.args.seed, {**rec, **got})

    passes = timed_loop(run, pipeline, n_docs, "docs")
    for _, _, roll in passes:
        run.check(roll == expected_roll,
                  "timed pass tile rollup differs from the set-up pass",
                  n_docs)
    run.metrics["peak_rss_mb"] = procfs.peak_rss_mb(run.session)
    ray_wall = statistics.median(w for w, _, _ in passes)
    stop_ray(run)

    # The memo must not change results: shard 0 in-process with the
    # other memo setting gives the same rows.
    shard0 = batches_of(files[:1])
    other = geocode_in_process(shard0, docs_config(not memo))
    s0 = got.get("s00000")
    run.check(shard_digests(match_rows(other)).get("s00000") == s0,
              "memo on/off parity on shard 0", size["shard_docs"])

    if run.args.trace:
        replay_docs(run, files, cfg, ray_wall, n_docs)


def batches_of(files) -> list:
    import pyarrow as pa
    import pyarrow.parquet as pq
    tbl = pa.concat_tables(pq.read_table(f) for f in files)
    return [tbl.slice(i, BATCH_DOCS) for i in range(0, tbl.num_rows,
                                                     BATCH_DOCS)]


def docs_layers(cfg):
    """The layer calls of pipeline.geocode_documents' batch function,
    made one by one through module attributes (so tracing sees them),
    plus the match filter and tile rollup."""
    import pyarrow.compute as pc

    from georay import spans
    from georay.cascade import span_cascade_fn
    from georay.pipeline import annotator_fn
    spec = world_spec()
    casc = span_cascade_fn(spec, cfg)
    ann = annotator_fn(spec, cfg.hex_res, cfg.quad_level, True, True)

    def whole(batch):
        return ann(casc(spans.explode_spans(batch)))

    def rollup(out):
        m = out.filter(pc.equal(out["status"], "match"))
        return m.group_by("hex_cell").aggregate([([], "count_all")])

    return whole, rollup


def geocode_in_process(batches, cfg):
    import pyarrow as pa
    whole, _ = docs_layers(cfg)
    return pa.concat_tables(whole(b) for b in batches)


def paired_replay(batches, step, reps: int) -> tuple[float, float, object]:
    """Run ``step(batch, tracer)`` on every batch untraced and traced,
    alternating which goes first, so host speed drift cancels out of
    the overhead; ``reps`` times over for short replays.  Returns the
    untraced and traced seconds of one pass (mean over reps) and the
    tracer of the last pass."""
    from spantrace import Tracer, install_georay_layers
    plain = traced = 0.0
    for i, b in enumerate(batches * reps):
        if i % len(batches) == 0:
            tracer = Tracer()
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                install_georay_layers(tracer)
                t0 = time.perf_counter()
                try:
                    tracer.span("replay", step, b, tracer)
                finally:
                    traced += time.perf_counter() - t0
                    tracer.restore()
            else:
                t0 = time.perf_counter()
                step(b, None)
                plain += time.perf_counter() - t0
    return plain / reps, traced / reps, tracer


def replay_docs(run: Run, files, cfg, ray_wall: float, n_docs: int) -> None:
    """Same batches, same layer functions, in this process without Ray:
    one pass to warm this process's memos, then each batch untraced and
    traced."""
    batches = batches_of(files)
    whole, rollup = docs_layers(cfg)

    def step(b, tracer):
        out = whole(b)
        if tracer is None:
            return rollup(out)
        return tracer.span("rollup", rollup, out)

    for b in batches:
        step(b, None)
    # a memo-hit pass is short, so it repeats to steady the overhead
    plain, traced, tracer = paired_replay(batches, step,
                                          reps=3 if cfg.with_cascade_memo
                                          else 1)
    layer_metrics(run, tracer, plain, traced, docs=n_docs)
    run.metrics["pipeline.ray_share"] = 1.0 - plain / ray_wall
    write_trace(run, tracer)


# -- rest_requests ------------------------------------------------------------

def rest_inputs(run: Run):
    """Request pool from corpus.make_addresses.  The warm prefix sends
    the first REST_WARM_FRAC of it.  The measured stream repeats warm
    addresses, drawn uniformly, and takes its fresh addresses in order
    from the rest of the pool."""
    import itertools

    import numpy as np

    from georay.config import INPUT_FIELDS
    from georay.corpus import make_addresses
    t0 = time.perf_counter()
    df = make_addresses(run.size["pool"], spec=world_spec(),
                        seed=run.args.seed)
    pool = [{f: str(r[f]) for f in INPUT_FIELDS}
            for r in df.to_dict("records")]
    n_warm = int(len(pool) * REST_WARM_FRAC)
    rng = np.random.default_rng(run.args.seed + 1)
    fresh = itertools.cycle(range(n_warm, len(pool)))

    def stream():
        for j in itertools.count():
            pos = j % REST_BATCH_EVERY
            if pos == REST_BATCH_EVERY - 1:
                warm = rng.choice(n_warm, REST_BATCH_N - REST_FRESH_IN_BATCH,
                                  replace=False)
                yield j, [int(i) for i in warm] + [
                    next(fresh) for _ in range(REST_FRESH_IN_BATCH)]
            elif pos in REST_FRESH_SINGLES:
                yield j, next(fresh)
            else:
                yield j, int(rng.integers(n_warm))

    return pool, n_warm, stream(), time.perf_counter() - t0


def warm_rest(pool, n_warm: int) -> None:
    """A freshly built world (empty memos), warmed with the prefix."""
    from georay import api
    from georay.gazetteer import get_gazetteer
    get_gazetteer.cache_clear()
    for s in range(0, n_warm, 200):
        api.batch_geocode([{"addr_key": f"w{i}", **pool[i]}
                           for i in range(s, min(s + 200, n_warm))],
                          spec=world_spec())


def _norm(match: list) -> str:
    for m in match:
        m.get("input", {}).pop("referenceKey", None)
    return json.dumps(match, sort_keys=True, default=str)


def send(req, pool) -> dict:
    """One request through georay.api, as a REST client would send it."""
    from georay import api
    j, what = req
    if isinstance(what, int):
        return api.geocode_one({"addr_key": f"q{j}", **pool[what]},
                               with_rejected=False, spec=world_spec())
    return api.batch_geocode([{"addr_key": f"q{j}_{i}", **pool[i]}
                              for i in what], spec=world_spec())


def per_address(req, res) -> dict[int, str]:
    """Response per pool index, with the per-request key removed."""
    what = req[1]
    if isinstance(what, int):
        return {what: _norm(res["match"])}
    per: dict[int, list] = {i: [] for i in what}
    for m in res["match"]:
        per[int(m["input"]["referenceKey"].split("_")[1])].append(m)
    return {i: _norm(v) for i, v in per.items()}


def run_rest(run: Run) -> None:
    from georay.config import INPUT_FIELDS
    pool, n_warm, stream, synth_s = rest_inputs(run)
    key = [tuple(p[f] for f in INPUT_FIELDS) for p in pool]
    if run.args.trace:
        replay_rest(run, pool, n_warm, stream)
        return
    run.set_up(lambda: warm_rest(pool, n_warm), synth_s)

    # The op is REST_CYCLES_PER_OP cycles of REST_BATCH_EVERY - 1 singles
    # and one batch, with a fixed count of memo misses.  Only the requests
    # run inside the op's CPU window; the checks run after it.
    seen = set(key[:n_warm])
    hits = sent = 0
    first: dict[int, str] = {}
    singles, batches, prefix, ops = [], [], [], []
    t_end = time.perf_counter() + run.args.seconds
    while time.perf_counter() < t_end or not ops:
        reqs = [next(stream)
                for _ in range(REST_BATCH_EVERY * REST_CYCLES_PER_OP)]
        done = []
        cpu = procfs.HostCpu()
        for req in reqs:
            t0 = time.perf_counter()
            try:
                res = send(req, pool)
            except Exception as exc:
                res = exc
            done.append((req, res, time.perf_counter() - t0))
        busy = cpu.busy_ms()
        wall = addrs = 0
        for req, res, dt in done:
            idxs = [req[1]] if isinstance(req[1], int) else req[1]
            hits += sum(key[i] in seen for i in idxs)
            seen.update(key[i] for i in idxs)
            if isinstance(res, Exception):
                run.check(False, f"request {req[0]} raised {res!r}")
                continue
            wall += dt
            addrs += len(idxs)
            (singles if len(idxs) == 1 else batches).append(dt)
            resp = per_address(req, res)
            ok = all(first.setdefault(i, r) == r for i, r in resp.items())
            run.check(ok, f"request {req[0]}: response differs from the "
                          "earlier response for the same address")
            if len(idxs) == 1 and len(prefix) < 100:
                prefix.append(resp[idxs[0]])
        ops.append((wall, busy, addrs))
        sent += addrs
    hit_share = hits / sent
    run.check(hit_share >= REST_MIN_HIT,
              f"memo-hit share {hit_share:.3f} < {REST_MIN_HIT}")
    matched = sum(r != "[]" for r in first.values()) / max(len(first), 1)
    run.check(matched >= REST_MIN_MATCHED,
              f"share of addresses with a match {matched:.3f} "
              f"< {REST_MIN_MATCHED}")
    run.metrics["cpu_ms_per_kitem"] = statistics.median(
        b / (n / 1000.0) for _, b, n in ops)
    run.metrics["peak_rss_mb"] = procfs.peak_rss_mb(run.session)
    run.note(ops=len(ops), addresses=sent,
             hit_share=round(hit_share, 4), matched_share=round(matched, 4),
             addresses_per_s=statistics.median(n / w for w, _, n in ops),
             **latency_summary("one", singles), **latency_summary(
                 "batch", batches))

    # memo parity: a sample of the stream's addresses with the memo off
    from georay import api
    from georay.config import PipelineConfig
    off = PipelineConfig(with_cascade_memo=False)
    sample = sorted(first)[:20]
    for i in sample:
        res = api.geocode_one({"addr_key": "p", **pool[i]},
                              with_rejected=False, spec=world_spec(),
                              cfg=off)
        run.check(_norm(res["match"]) == first[i],
                  f"memo on/off parity for pool address {i}")
    section = f"rest:w1.5p{run.size['pool']}"
    got = digest(prefix)
    rec = load_expected().get(section, {}).get(str(run.args.seed))
    if rec is not None:
        run.check(rec == got, f"first-100 response digest {got} != {rec}")
    elif run.args.record and not run.errors:
        record_expected(section, run.args.seed, got)


def latency_summary(name: str, xs: list) -> dict:
    """p50 and the highest of p90/p99 with at least ten samples beyond it."""
    if not xs:
        return {f"{name}_n": 0}
    q = statistics.quantiles(xs, n=100) if len(xs) > 1 else xs * 99
    out = {f"{name}_n": len(xs),
           f"{name}_p50_ms": round(1000 * statistics.median(xs), 3)}
    for p in (99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"{name}_p{p}_ms"] = round(1000 * q[p - 1], 3)
            break
    return out


def replay_rest(run: Run, pool, n_warm, stream) -> None:
    """The first N requests of the stream, untraced then traced, each on
    a freshly built world warmed with the same prefix."""
    from spantrace import Tracer, install_georay_layers
    reqs = [next(stream) for _ in range(run.size["rest_trace_requests"])]

    def replay(tracer=None):
        warm_rest(pool, n_warm)
        if tracer is not None:
            install_georay_layers(tracer)
        t0 = time.perf_counter()
        try:
            for r in reqs:
                if tracer is None:
                    send(r, pool)
                else:
                    tracer.span("replay", send, r, pool)
        finally:
            if tracer is not None:
                tracer.restore()
        return time.perf_counter() - t0

    plain = replay()
    tracer = Tracer()
    traced = replay(tracer)
    layer_metrics(run, tracer, plain, traced)
    hit = 1.0 - run.metrics["cascade.memo_miss_frac"]
    run.check(hit >= REST_MIN_HIT,
              f"traced memo-hit share {hit:.3f} < {REST_MIN_HIT}")
    write_trace(run, tracer)


# -- curation -----------------------------------------------------------------

def run_curation(run: Run) -> None:
    import numpy as np
    import pyarrow as pa

    size = run.size
    files, synth_s = corpus_files(run.args.seed, size["cur_shards"],
                                  size["shard_docs"])
    rng = np.random.default_rng(run.args.seed)
    vecs = rng.standard_normal((size["vecs"], ANN_DIM)).astype(np.float32)
    queries = rng.standard_normal((ANN_QUERIES, ANN_DIM))
    from georay.ops.dedup import minhash_lsh_pairs
    from georay.ops.similarity import topk_cosine_brute
    from georay.spans import explode_spans

    def addr_spans(b: pa.Table) -> pa.Table:
        b = b.filter(b["is_address"]).select(["addr_key", "text"])
        return b.rename_columns(["doc_id", "text"])

    def span_ds(paths):
        import ray.data
        return (ray.data.read_parquet(paths)
                .map_batches(explode_spans, batch_format="pyarrow")
                .map_batches(addr_spans, batch_format="pyarrow"))

    vec_tbl = pa.table({
        "vec_id": pa.array(np.arange(len(vecs), dtype=np.int64)),
        "embedding": pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(vecs) + 1) * ANN_DIM, ANN_DIM,
                               dtype=np.int32)), pa.array(vecs.ravel()))})
    vec_ds = None

    stage_cpu = {"dedup": [], "similarity": []}
    stage_wall = {"dedup": [], "similarity": []}

    def stage(name, fn):
        cpu = procfs.HostCpu()
        t0 = time.perf_counter()
        out = fn()
        stage_wall[name].append(time.perf_counter() - t0)
        stage_cpu[name].append(cpu.busy_ms())
        return out

    def round_():
        pairs = stage("dedup", lambda: minhash_lsh_pairs(
            span_ds(files), threshold=0.8).count())
        ann = stage("similarity", lambda: topk_cosine_brute(
            vec_ds, queries, k=ANN_K).to_pandas())
        return pairs, ann

    def set_up():
        """A fresh Ray session holding the vectors; counting the sample's
        address spans starts its workers."""
        nonlocal vec_ds
        start_ray(run)
        import ray.data
        vec_ds = ray.data.from_arrow(vec_tbl).repartition(8).materialize()
        return span_ds(files).count()

    n_spans = run.set_up(set_up, synth_s,
                         teardown=lambda: stop_ray(run))[-1]
    rounds = timed_loop(run, round_, n_spans, "spans")
    run.metrics["peak_rss_mb"] = procfs.peak_rss_mb(run.session)

    # exact top-k reference in numpy
    v = vecs.astype(np.float64)
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    ref = {(qi, int(i)) for qi, row in enumerate(q @ v.T)
           for i in np.argsort(-row, kind="stable")[:ANN_K]}
    pair_counts = {res[0] for _, _, res in rounds}
    run.check(len(pair_counts) == 1 and min(pair_counts) > 0,
              f"pair counts vary or are empty: {sorted(pair_counts)}")
    for _, _, (_, ann) in rounds:
        got = set(zip(ann["query_id"].tolist(), ann["vec_id"].tolist()))
        run.check(len(ann) == ANN_QUERIES * ANN_K and got == ref,
                  f"ANN top-{ANN_K}: {len(ann)} rows, "
                  f"{len(got ^ ref)} differ from the numpy reference")
    section = f"curation:s{size['cur_shards']}d{size['shard_docs']}"
    got = [rounds[0][2][0], len(rounds[0][2][1])]
    rec = load_expected().get(section, {}).get(str(run.args.seed))
    if rec is not None:
        run.check(rec == got, f"pairs/ann rows {got} != recorded {rec}")
    elif run.args.record and not run.errors:
        record_expected(section, run.args.seed, got)
    run.note(spans=n_spans, pairs=got[0], ann_rows=got[1],
             dedup_spans_per_s=n_spans / statistics.median(
                 stage_wall["dedup"]),
             ann_vecs_per_s=len(vecs) / statistics.median(
                 stage_wall["similarity"]))

    if run.args.trace:
        replay_curation(run, files, stage_cpu, got[0])


def replay_curation(run: Run, files, stage_cpu, pairs: int) -> None:
    """In process: explode the sample and sign its address spans."""
    import pyarrow.compute as pc

    from georay import spans
    from georay.ops.dedup import get_minhasher
    batches = batches_of(files)
    hasher = get_minhasher(k=64, shingle_n=3)

    def step(b, tracer):
        ex = spans.explode_spans(b)
        hasher.signatures_batch(
            ex.filter(pc.equal(ex["is_address"], True))["text"].to_pylist())

    for b in batches:
        step(b, None)
    plain, traced, tracer = paired_replay(batches, step, reps=3)
    layer_metrics(run, tracer, plain, traced,
                  docs=sum(b.num_rows for b in batches))
    run.metrics["dedup.pairs"] = pairs
    run.metrics["dedup.stage_cpu_ms"] = statistics.median(stage_cpu["dedup"])
    run.metrics["similarity.cpu_ms"] = statistics.median(
        stage_cpu["similarity"])
    write_trace(run, tracer)


# -- per-layer table ----------------------------------------------------------

def layer_metrics(run: Run, tr, plain: float, traced: float,
                  docs: int = 0) -> None:
    c = tr.counts
    m = run.metrics

    def per(x, n, k=1000.0):
        return k * x / n if n else 0.0

    total = 1000.0 * sum(r[3] for r in tr.layers.values())
    other = tr.self_cpu_ms("replay")
    addr_rows = c["cascade.addr_rows"]
    m["spans.cpu_ms_per_kdoc"] = per(tr.self_cpu_ms("spans"), docs)
    m["spans.address_frac"] = per(c["spans.addresses"], c["spans.rows"], 1)
    m["cascade.cpu_ms_per_kaddr"] = per(tr.self_cpu_ms("cascade"), addr_rows)
    m["cascade.memo_miss_frac"] = per(c["transforms.step0.rows"],
                                      addr_rows, 1)
    m["cascade.addr_rows"] = addr_rows
    for i in range(STEPS):
        m[f"transforms.step{i}.rows"] = c[f"transforms.step{i}.rows"]
        m[f"transforms.step{i}.cpu_ms"] = tr.self_cpu_ms(
            f"transforms.step{i}")
    m["gazetteer.calls"] = c["gazetteer.calls"]
    m["gazetteer.cpu_ms"] = tr.self_cpu_ms("gazetteer")
    m["gazetteer.results_per_call"] = per(c["gazetteer.results"],
                                          c["gazetteer.calls"], 1)
    m["compare.rows"] = c["compare.rows"]
    m["compare.keep_frac"] = per(c["compare.kept"], c["compare.rows"], 1)
    m["compare.cpu_ms"] = tr.self_cpu_ms("compare")
    m["parser.calls"] = c["parser.calls"]
    m["parser.cpu_ms"] = tr.self_cpu_ms("parser")
    m["tiles.cpu_ms_per_kdoc"] = per(tr.self_cpu_ms("tiles"), docs)
    m["tiles.pip_ok_frac"] = per(c["tiles.pip_ok"], c["tiles.located"], 1)
    m["geom.points"] = c["geom.points"]
    m["geom.cpu_ms"] = tr.self_cpu_ms("geom")
    m["knn.rows"] = c["knn.rows"]
    m["knn.cpu_ms"] = tr.self_cpu_ms("knn")
    m["rollup.cpu_ms"] = tr.self_cpu_ms("rollup")
    m["api.cpu_ms_per_req"] = per(tr.self_cpu_ms("api"), c["api.requests"], 1)
    m["dedup.sig_cpu_ms_per_kspan"] = per(tr.self_cpu_ms("dedup"),
                                          c["dedup.spans"])
    m["other.cpu_ms"] = other
    m["replay.cpu_ms"] = total
    m["trace.named_frac"] = 1.0 - other / total if total else 0.0
    m["trace.overhead_frac"] = traced / plain - 1.0
    run.note(replay_plain_s=plain, replay_traced_s=traced)


def write_trace(run: Run, tracer) -> None:
    d = os.path.join(CACHE, "traces")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{run.args.workload}-seed{run.args.seed}.json")
    with open(path, "w") as f:
        json.dump(tracer.to_json(), f)
    run.note(trace_file=os.path.relpath(path, ROOT))


# -- entry point --------------------------------------------------------------

WORKLOADS = {
    "docs_warm": lambda run: run_docs(run, memo=True),
    "docs_cold": lambda run: run_docs(run, memo=False),
    "rest_requests": run_rest,
    "curation": run_curation,
}


def result_line(run: Run) -> dict:
    if run.args.trace:
        units = LAYER_UNITS
        run.metrics["host.steal_frac"] = run.host.steal_frac()
        for k in units:                    # layers this workload never ran
            run.metrics.setdefault(k, 0.0)
    else:
        units = E2E_UNITS
    return {"correct": not run.errors, "attempted": max(run.attempted, 1),
            "failed": run.failed,
            "metrics": {k: {"value": float(run.metrics[k]), "unit": u}
                        for k, u in units.items() if k in run.metrics}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (no recorded-output checks)")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's outputs in expected.json")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "georay")):
        print(f"perfbench: no georay package in {ROOT}", file=sys.stderr)
        return 2
    run = Run(args)
    # leftovers of an earlier run in this checkout that was killed
    procfs.kill_tagged(f"{ROOT}:", orphans_only=True)
    printed = []
    lock = threading.Lock()

    def emit() -> None:                # once, from main or the watchdog
        with lock:
            if not printed:
                printed.append(True)
                print(json.dumps(result_line(run)), flush=True)

    def on_alarm(signum, frame):
        raise TimeoutError(f"run exceeded {SOFT_CAP_S} s")

    def hard_stop():
        run.fail_all(f"run exceeded {HARD_CAP_S} s")
        procfs.kill_tagged(run.session, grace_s=2.0)
        if run.ray_tmp:
            shutil.rmtree(run.ray_tmp, ignore_errors=True)
        emit()
        os._exit(3)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(SOFT_CAP_S)
    watchdog = threading.Timer(HARD_CAP_S, hard_stop)
    watchdog.daemon = True
    watchdog.start()
    try:
        WORKLOADS[args.workload](run)
    except Exception as exc:          # report what was gathered, fail loudly
        traceback.print_exc()
        run.fail_all(f"{type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)
        stop_ray(run)
        watchdog.cancel()
    emit()
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
