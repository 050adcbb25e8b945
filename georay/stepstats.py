"""The reference's per-step cascade counters (utils.py:678-686),
derived from the rows the cascade writes.

Every output row carries its status, its step's method
(``m_method``, or ``error on <method>: <exception>`` for a failed step),
its reject reason, its cleansed-house-number flag and its addr_key.  A
memo hit serves the stored rows of the step that produced them and
step failures are never memoized, so one count over any geocoded rows
gives the numbers a memo-off cascade over the same addresses would:
no second cascade pass.  Each block yields a small partial table
(``outcome_counts``); the driver merges them (``outcome_counters``).

Two reference counters are not in the rows and are not reported:
``sent`` (the rows a step's transformers changed and sent to the
geocoder) and per-step seconds (``perfbench --trace 1`` reports
``transforms.stepN.cpu_ms``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .cascade import ERROR_ON, RESULT_SCHEMA
from .config import (ADDR_KEY, M_CLEANSED_HN, M_METHOD, M_REJECT_REASON,
                     STATUS, PipelineConfig)

_COUNT_KEYS = [STATUS, M_METHOD, M_REJECT_REASON, M_CLEANSED_HN]
_COUNTS_SCHEMA = pa.schema(
    [RESULT_SCHEMA.field(c) for c in _COUNT_KEYS]
    + [("n", pa.int64()), ("n_addr", pa.int64())])
_DISTINCT = f"{ADDR_KEY}_count_distinct"    # pyarrow's aggregate name
_STEP_COUNTERS = ("match", "match_26", "errors", "reject_rec",
                  "reject_addr", "reject_mism")


def outcome_counts(batch: pa.Table) -> pa.Table:
    """Partial counts of one block of result rows: rows (``n``) and
    distinct addr_keys (``n_addr``) per (status, m_method, reject
    reason, cleansed flag), plus one row per method with rejects whose
    reason is null and whose ``n_addr`` counts its rejected addr_keys
    over every reason.  Partials merge by summing, so distinct counts
    are per block: an address whose rows two blocks split counts
    twice, as the reference counts per batch."""
    t = batch.select(_COUNT_KEYS + [ADDR_KEY])
    distinct = (ADDR_KEY, "count_distinct")
    rows = t.group_by(_COUNT_KEYS).aggregate([([], "count_all"), distinct])
    rej = (t.filter(pc.equal(t[STATUS], "reject")).group_by(M_METHOD)
           .aggregate([distinct]))
    n = rej.num_rows
    rej = pa.table([pa.repeat(pa.scalar("reject"), n), rej[M_METHOD],
                    pa.nulls(n, pa.string()), pa.nulls(n, pa.bool_()),
                    pa.repeat(pa.scalar(0), n), rej[_DISTINCT]],
                   schema=_COUNTS_SCHEMA)
    rows = rows.select(_COUNT_KEYS + ["count_all", _DISTINCT])
    return pa.concat_tables([rows.rename_columns(_COUNTS_SCHEMA.names)
                             .cast(_COUNTS_SCHEMA), rej])


def outcome_counters(parts: list[pa.Table], cfg: PipelineConfig) -> dict:
    """Merge ``outcome_counts`` partials of rows geocoded under ``cfg``
    → {"status": rows per status, "match_by_method": match rows per
    m_method, "step_stats": one record per step}.

    Step ``s`` of method ``M`` (``cfg.cascade`` order) records: todo
    (match + unmatched rows at step 0, then less each step's matches),
    match (match rows of ``M`` or of ``error on M: …``), match_26 (of
    those, on the cleansed house number), errors (the ``error on`` ones),
    reject_rec (reject rows of ``M``), reject_addr / reject_mism
    (distinct rejected addresses, all / mismatch only; the three reject
    counters are None without ``cfg.with_rejected``).  Steps are listed
    while todo > 0, step 0 always.  A method that two steps share counts
    under the first."""
    t = pa.concat_tables([_COUNTS_SCHEMA.empty_table(), *parts])
    merged = t.group_by(_COUNT_KEYS).aggregate(
        [("n", "sum"), ("n_addr", "sum")]).to_pylist()
    methods = ["+".join(step) for step in cfg.cascade]
    step_of: dict[str, int] = {}
    for s, m in enumerate(methods):
        step_of.setdefault(m, s)

    def step(label: str) -> int:
        base = (label[len(ERROR_ON):].rpartition(": ")[0]
                if label not in step_of and label.startswith(ERROR_ON)
                else label)
        if base not in step_of:
            raise ValueError(f"m_method {label!r} is no step of {methods}")
        return step_of[base]

    status: dict[str, int] = {}
    by_method: dict[str, int] = {}
    c = {k: [0] * len(methods) for k in _STEP_COUNTERS}
    for r in merged:
        st, label, reason = r[STATUS], r[M_METHOD], r[M_REJECT_REASON]
        n, n_addr = r["n_sum"], r["n_addr_sum"]
        if reason is None:              # distinct rejects over every reason
            c["reject_addr"][step(label)] += n_addr
            continue
        status[st] = status.get(st, 0) + n
        if st == "match":
            by_method[label] = by_method.get(label, 0) + n
            s = step(label)
            c["match"][s] += n
            c["match_26"][s] += n if r[M_CLEANSED_HN] else 0
            c["errors"][s] += 0 if label in step_of else n
        elif st == "reject":
            s = step(label)
            c["reject_rec"][s] += n
            c["reject_mism"][s] += n_addr if reason == "mismatch" else 0
    todo = status.get("match", 0) + status.get("unmatched", 0)
    steps = []
    for s, m in enumerate(methods):
        if s and todo <= 0:
            break
        rec = {"step": s, "method": m, "todo": todo,
               **{k: c[k][s] for k in _STEP_COUNTERS}}
        if not cfg.with_rejected:
            rec.update(reject_rec=None, reject_addr=None, reject_mism=None)
        steps.append(rec)
        todo -= c["match"][s]
    return {"status": status, "match_by_method": by_method,
            "step_stats": steps}
