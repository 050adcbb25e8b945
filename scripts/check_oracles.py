"""Local mimic of the driver's correctness gate: run every queries()
entry at sf0.01, run its oracle_sql in DuckDB with the testdata views
registered, and compare row count, column names, and an order-insensitive
value hash (column-name-sorted, row-sorted).  Usage:

    python scripts/check_oracles.py [sf_dir] [query_name ...]

With query names given, only those queries run (fast iteration).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    try:
        import ray.data
        if isinstance(res, ray.data.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entry_mod
    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"create view {t} as select * from "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as exc:
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"  ok {name}: rows-only, {len(got)} rows ({dt:.1f}s)")
            continue
        try:
            exp = canon(con.sql(oracles[name]).df())
        except Exception as exc:
            print(f"FAIL {name}: oracle raised {exc}")
            failures += 1
            continue
        if list(got.columns) != list(exp.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(exp.columns)}")
            failures += 1
            continue
        if len(got) != len(exp):
            print(f"FAIL {name}: rows {len(got)} != {len(exp)}")
            failures += 1
            continue
        eq = got.equals(exp)
        if not eq:
            # tolerate dtype-only diffs by value compare
            try:
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)
                eq = True
            except AssertionError as e:
                print(f"FAIL {name}: values differ: {str(e)[:300]}")
                failures += 1
                continue
        print(f"  OK {name}: {len(got)} rows match oracle ({dt:.1f}s)")
    ray.shutdown()
    print(f"\n{failures} failures / {len(qs)} queries")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
