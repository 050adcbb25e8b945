"""Single-address REST probe: process CPU per memo-hit and per memo-miss
``api.geocode_one`` call, in process (no Ray).

    python scripts/miss_probe.py [--pool 2000] [--misses 150] [--hits 150]
                                 [--seed 1]

Builds the sf0.1 world (``GazetteerSpec().scaled(1.5)``), draws a request
pool with ``corpus.make_addresses``, warms ``api`` with the first 80% of
it through ``api.batch_geocode`` (as the rest_requests benchmark does),
then times ``geocode_one`` calls one at a time with ``time.process_time``:
``--hits`` warm addresses drawn uniformly, then the next ``--misses``
addresses of the pool in order.  A call counts as a hit when its five
input fields were sent before (the cascade memo holds the answer), as a
miss otherwise.  Prints one JSON line:
{"hits": n, "hit_cpu_ms": mean, "hit_cpu_ms_p50": median, "misses": n,
"miss_cpu_ms": mean, "miss_cpu_ms_p50": median, ...}.  Misses differ in
cost by about 10x (a deep miss runs all ten cascade steps), so the
median and the mean of the misses tell different stories.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WARM_FRAC = 0.8


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pool", type=int, default=2000)
    ap.add_argument("--misses", type=int, default=150)
    ap.add_argument("--hits", type=int, default=150)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    import numpy as np

    from georay import api
    from georay.config import INPUT_FIELDS
    from georay.corpus import make_addresses
    from georay.gazetteer import GazetteerSpec

    spec = GazetteerSpec().scaled(1.5)
    df = make_addresses(args.pool, spec=spec, seed=args.seed)
    pool = [{f: str(r[f]) for f in INPUT_FIELDS}
            for r in df.to_dict("records")]
    n_warm = int(len(pool) * WARM_FRAC)
    if args.misses > len(pool) - n_warm:
        ap.error(f"--misses {args.misses} exceeds the "
                 f"{len(pool) - n_warm} addresses after the warm prefix")
    for s in range(0, n_warm, 200):
        api.batch_geocode([{"addr_key": f"w{i}", **pool[i]}
                           for i in range(s, min(s + 200, n_warm))],
                          spec=spec)
    seen = {tuple(p.values()) for p in pool[:n_warm]}

    rng = np.random.default_rng(args.seed + 1)
    order = ([int(i) for i in rng.integers(n_warm, size=args.hits)]
             + list(range(n_warm, n_warm + args.misses)))
    cpu_ms: dict[str, list[float]] = {"hit": [], "miss": []}
    for j, i in enumerate(order):
        key = tuple(pool[i].values())
        kind = "hit" if key in seen else "miss"
        seen.add(key)
        t0 = time.process_time()
        api.geocode_one({"addr_key": f"q{j}", **pool[i]},
                        with_rejected=False, spec=spec)
        cpu_ms[kind].append(1000.0 * (time.process_time() - t0))

    def stat(fn, v):
        return round(fn(v), 3) if v else None

    hit, miss = cpu_ms["hit"], cpu_ms["miss"]
    print(json.dumps({
        "hits": len(hit), "hit_cpu_ms": stat(statistics.fmean, hit),
        "hit_cpu_ms_p50": stat(statistics.median, hit),
        "misses": len(miss), "miss_cpu_ms": stat(statistics.fmean, miss),
        "miss_cpu_ms_p50": stat(statistics.median, miss),
        "pool": len(pool), "warm": n_warm, "seed": args.seed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
