"""Window / semi-join / grouping-sets relational operators vs DuckDB
on the sf0.001 testdata (the same comparison the driver's oracle gate
runs at sf0.01)."""

import duckdb
import pandas as pd

SF = "/root/testdata/sf0.001"


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort") \
             .reset_index(drop=True)


def _sql(q: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.execute(f"create view {t} as select * from "
                    f"read_parquet('{SF}/{t}.parquet')")
    return con.execute(q).fetchdf()


def test_cumsum_matches_duckdb(ray_session):
    from georay.entrylib import q_rel_cumsum
    eng = _canon(q_rel_cumsum(SF).to_pandas())
    ora = _canon(_sql("""
        select o_orderkey,
               cast(sum(cast(floor(o_totalprice*100+0.5) as bigint))
                    over (partition by o_custkey
                          order by o_orderdate, o_orderkey)
                    as bigint) as run_cents
        from orders"""))
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


def test_semi_join_matches_duckdb(ray_session):
    from georay.entrylib import q_rel_semi_join
    res = q_rel_semi_join(SF)
    eng = _canon(res.to_pandas() if hasattr(res, "to_pandas")
                 else pd.DataFrame(res))
    ora = _canon(_sql("""
        select c_custkey from customer
        where exists (select 1 from orders
                      where o_custkey = c_custkey
                        and o_orderstatus = 'F')"""))
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


def test_grouping_sets_matches_duckdb(ray_session):
    from georay.entrylib import q_rel_grouping_sets
    eng = _canon(q_rel_grouping_sets(SF).to_pandas())
    ora = _canon(_sql("""
        select coalesce(o_orderstatus, '(all)') as o_orderstatus,
               coalesce(o_orderpriority, '(all)') as o_orderpriority,
               cast(sum(cast(floor(o_totalprice*100+0.5) as bigint))
                    as bigint) as sum_c,
               count(*) as n
        from orders
        group by grouping sets ((o_orderstatus, o_orderpriority),
                                (o_orderstatus), ())"""))
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)
    # the () grand total must equal the full table
    tot = eng[(eng.o_orderstatus == "(all)")
              & (eng.o_orderpriority == "(all)")]
    assert len(tot) == 1 and tot["n"].iloc[0] == len(
        _sql("select * from orders"))


def test_p90_per_key_matches_duckdb(ray_session):
    from georay.entrylib import q_rel_p90_per_key
    eng = _canon(q_rel_p90_per_key(SF).to_pandas())
    ora = _canon(_sql("""
        select c_mktsegment as seg,
               quantile_disc(cast(floor(o_totalprice*100+0.5) as bigint),
                             0.9) as p90_cents
        from orders join customer on o_custkey = c_custkey
        group by 1"""))
    import pandas as pd
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


def test_distinct_per_key_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd
    from georay.entrylib import q_rel_distinct_per_key
    eng = _canon(q_rel_distinct_per_key(SF).to_pandas())
    ora = _canon(duckdb.sql(
        f"""select event_type, count(distinct user_id) as n_users
            from read_parquet('{SF}/events.parquet') group by 1""").df())
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


def test_mode_per_key_matches_duckdb(ray_session):
    import pandas as pd
    from georay.entrylib import q_rel_mode_per_key
    eng = _canon(q_rel_mode_per_key(SF).to_pandas())
    ora = _canon(_sql("""
        with c as (select o_orderstatus, o_orderpriority, count(*) n
                   from orders group by 1, 2),
        r as (select *, row_number() over (partition by o_orderstatus
                     order by n desc, o_orderpriority asc) rn from c)
        select o_orderstatus, o_orderpriority as mode_priority,
               cast(n as bigint) as n
        from r where rn = 1"""))
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)


def test_customer_sums_stay_exact_past_2_pow_53():
    # customer 1's order cents sum to 2^53 + 1; customer 2 has no
    # orders, which used to turn the partition's sums into float64
    import numpy as np

    from georay.entrylib import _customer_spend, _left_join_orders
    big = 2 ** 53
    df = pd.DataFrame({"key": np.array([1, 2, 1, 1], np.int64),
                       "a": np.array([3, 4, big, 1], np.int64),
                       "_side": np.array([0, 0, 1, 1], np.int8)})
    spend = _customer_spend(df).to_pydict()
    assert spend == {"c_custkey": [1, 2], "nation": [3, 4],
                     "spend_c": [big + 1, 0]}
    joined = _left_join_orders(df).to_pydict()
    assert joined == {"c_custkey": [1, 2], "c_nationkey": [3, 4],
                      "n_orders": [2, 0], "rev_cents": [big + 1, 0]}


def test_pair_key_round_trips_and_rejects_wide_ids():
    import numpy as np
    import pytest

    from georay.entrylib import _pair_ids, _pair_key
    top = (1 << 32) - 1
    a = np.array([0, 0, 1, (1 << 31) - 1, 1 << 31, top, top])
    b = np.array([0, top, 0, 1 << 31, (1 << 31) - 1, 0, top])
    key = _pair_key(a, b)
    assert len(set(key.tolist())) == len(a)
    ga, gb = _pair_ids(key)
    assert (ga == a).all() and (gb == b).all()
    # below 2**31 the key is plain a * 2**32 + b
    assert _pair_key(np.array([3]), np.array([5]))[0] == 3 * 2 ** 32 + 5
    for bad in (-1, 1 << 32):
        with pytest.raises(ValueError):
            _pair_key(np.array([bad]), np.array([0]))
        with pytest.raises(ValueError):
            _pair_key(np.array([0]), np.array([bad]))


def test_asof_join_keeps_order_keys_past_2_53(ray_session, tmp_path):
    """Order keys past 2**53 come back exact, also when some events have
    no order before them (the unmatched rows must not make them float)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from georay.entrylib import q_rel_asof_join
    big = 2 ** 53 + 1
    day = pd.Timestamp("2020-01-01")
    ts = [day + pd.Timedelta(days=d) for d in (1, 10, 10, 3)]
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 3], pa.int64())}),
        tmp_path / "events.parquet")
    od = [day + pd.Timedelta(days=d) for d in (5, 5, 2, 4)]
    pq.write_table(pa.table({
        "o_orderkey": pa.array([big, big - 2, big + 2, 7], pa.int64()),
        "o_custkey": pa.array([1, 1, 2, 3], pa.int64()),
        "o_orderdate": pa.array(od, pa.timestamp("us"))}),
        tmp_path / "orders.parquet")
    out = q_rel_asof_join(str(tmp_path)).to_pandas()
    got = dict(zip(out["event_id"].tolist(), out["asof_orderkey"].tolist()))
    # event 1 precedes every order of user 1; event 4 precedes user 3's;
    # event 2 takes the larger key of the two orders on the same day
    assert got == {2: big, 3: big + 2}
    assert out["asof_orderkey"].dtype == "int64"
