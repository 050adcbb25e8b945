"""Address "cleaning" transformers + changed-only filter.

Flat-column ports of /root/reference/transformers.py and the transformer
dispatch in utils.py:692-776.  These run batch-locally inside the cascade
(``georay.cascade``) — pandas in, pandas out, one batch at a time.

- ``regex_transformer``      — transformers.py:328-364 (ordered rule list,
  case-sensitive, applied sequentially)
- field blanking nonum/nostreet/nozip/nocountry — utils.py:731-742
- ``libpostal_transformer``  — transformers.py:261-320 (parse full address,
  last-value-wins per label, optional keep-bests validation)
- ``photon_transformer``     — transformers.py:182-247 (fuzzy lookup,
  feature explode with photon_order, optional validation, keeps INPUT
  house number :233)
- ``apply_transformers``     — utils.py:692-776 including the load-bearing
  changed-only filter :758-776 (rows whose 5 fields all compare equal
  case-insensitively to the original input are NOT re-sent)
- ``assemble_full_address`` / ``clean_addr_in`` — utils.py:639-646, 107-131
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import islice

import numpy as np
import pandas as pd

from .compare import keep_bests
from .config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, INPUT_FIELDS,
                     POSTCODE, STREET, PipelineConfig)

_TRANSFORMER_RE = re.compile(r"regex\[([a-z]+)\]")

# User-extension surface (SURVEY.md §2.9): named custom transformers.
# A registered fn(df, parser, gazetteer, cfg) -> df can appear in any
# cascade sequence (the reference's TRANSFORMERS env override,
# nominatimwrapper.py:104-114, dispatched by name in utils.py:718-751).
TRANSFORMER_REGISTRY: dict = {}


def register_transformer(name: str, fn) -> None:
    if name in ("orig", "nonum", "nostreet", "nozip", "nocountry",
                "libpostal", "photon") or _TRANSFORMER_RE.fullmatch(name):
        raise ValueError(f"{name!r} collides with a built-in transformer")
    TRANSFORMER_REGISTRY[name] = fn


def regex_transformer(df: pd.DataFrame, rules) -> pd.DataFrame:
    df = df.copy()
    for field, pattern, repl in rules:
        # pandas uses \g<1> style group refs like the reference
        df[field] = df[field].fillna("").astype(str).str.replace(
            pattern, repl, regex=True)
    return df


@lru_cache(maxsize=1 << 15)
def clean_addr_in(addr: str) -> str:
    """Iterative comma squashing (utils.py:107-131)."""
    old = None
    while addr != old:
        old = addr
        addr = re.sub(r",[ ]*,", ",", addr).strip()
        addr = re.sub(r",$", "", addr)
        addr = re.sub(r"^,", "", addr)
    return addr


def assemble_full_address(df: pd.DataFrame) -> pd.Series:
    """'street, housenbr, postcode city, country' then comma cleanup
    (utils.py:639-646)."""
    s = (df[STREET].fillna("").astype(str) + ", "
         + df[HOUSENBR].fillna("").astype(str) + ", "
         + df[POSTCODE].fillna("").astype(str) + " "
         + df[CITY].fillna("").astype(str) + ", "
         + df[COUNTRY].fillna("").astype(str))
    return s.map(clean_addr_in)


def libpostal_transformer(df: pd.DataFrame, parser, check_results: bool,
                          threshold: float) -> pd.DataFrame:
    """Parse 'street, hn, pc city,  country' per row; last value wins per
    label (transformers.py:287); optional validation against the input
    (transformers.py:293-304, secondary sort = addr_key)."""
    out = df[[ADDR_KEY] + INPUT_FIELDS].copy()
    full = (out[STREET].fillna("").astype(str) + ", "
            + out[HOUSENBR].fillna("").astype(str) + ", "
            + out[POSTCODE].fillna("").astype(str) + " "
            + out[CITY].fillna("").astype(str) + ",  "
            + out[COUNTRY].fillna("").astype(str))

    # worker-level memo (an lru_cache defined inside this function would
    # be rebuilt — and thus empty — on every batch)
    memo = getattr(parser, "_lp_memo", None)
    if memo is None:
        memo = parser._lp_memo = {}

    def _parse(s: str) -> tuple:
        hit = memo.get(s)
        if hit is None:
            d = {}
            for value, label in parser.parse(s):
                d[label] = value          # last wins
            hit = (d.get("road"), d.get("house_number"), d.get("postcode"),
                   d.get("city"), d.get("country"))
            if len(memo) < (1 << 17):
                memo[s] = hit
        return hit

    parsed = np.array([_parse(s) for s in full], dtype=object)
    for i, col in enumerate(["lp_road", "lp_house_number", "lp_postcode",
                             "lp_city", "lp_country"]):
        out[col] = parsed[:, i] if len(parsed) else None

    if check_results:
        out, _ = keep_bests(
            out, street_cols_a=[STREET], housenbr_col_a=HOUSENBR,
            postcode_col_a=POSTCODE, city_col_a=CITY,
            street_col_b="lp_road", housenbr_col_b="lp_house_number",
            postcode_col_b="lp_postcode", city_col_b="lp_city",
            secondary_sort_col=ADDR_KEY, threshold=threshold)
    if out.shape[0] == 0:
        return pd.DataFrame(columns=[ADDR_KEY] + INPUT_FIELDS)
    res = out[[ADDR_KEY, "lp_road", "lp_house_number", "lp_postcode",
               "lp_city", "lp_country"]].copy()
    res.columns = [ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY]
    return res


def photon_transformer(df: pd.DataFrame, gazetteer, check_results: bool,
                       threshold: float, use_memo: bool = True
                       ) -> pd.DataFrame:
    """Fuzzy-index rewrite of the street/city/postcode fields, keeping the
    INPUT house number (transformers.py:233).  Dedupes the query string
    before hitting the index (transformers.py:160)."""
    addr = df[[ADDR_KEY] + INPUT_FIELDS].copy()
    addr["ph_full"] = (addr[STREET].fillna("").astype(str) + ", "
                       + addr[POSTCODE].fillna("").astype(str) + " "
                       + addr[CITY].fillna("").astype(str) + ", "
                       + addr[COUNTRY].fillna("").astype(str))
    uniq = addr["ph_full"].drop_duplicates().tolist()
    # per-worker memo of each query's candidate place rows: the query
    # string set is Zipf-skewed across batches, so steady-state photon
    # cost is a dict hit per unique address; the misses go to the index
    # in one batched lookup
    memo = getattr(gazetteer, "_photon_memo", None)
    if memo is None:
        memo = gazetteer._photon_memo = {}
    todo = [q for q in uniq if q not in memo] if use_memo else uniq
    qi, rows = gazetteer.fuzzy_many(todo, use_cache=use_memo)
    bounds = np.searchsorted(qi, np.arange(len(todo) + 1)).tolist()
    found = {q: rows[a:b].copy()
             for q, a, b in zip(todo, bounds, bounds[1:])}
    if use_memo:
        memo.update(islice(found.items(), max(0, (1 << 17) - len(memo))))
    per_q = [found[q] if q in found else memo[q] for q in uniq]
    counts = np.array([len(r) for r in per_q], np.int64)
    if not counts.sum():
        return pd.DataFrame(columns=[ADDR_KEY] + INPUT_FIELDS)
    rows = np.concatenate(per_q)
    g = gazetteer.columns
    street, name = g["street_name"][rows], g["name"][rows]
    feats_df = pd.DataFrame({
        "ph_full": np.repeat(np.array(uniq, dtype=object), counts),
        "ph_street": np.where(street.astype(bool), street, name),
        "ph_pc": g["post_code"][rows], "ph_city": g["post_name"][rows],
        "ph_country": g["country_name"][rows],
        "photon_order": np.arange(len(rows)) - np.repeat(
            np.cumsum(counts) - counts, counts)}, copy=False)
    merged = addr.merge(feats_df, on="ph_full")
    if merged.shape[0] == 0:
        return pd.DataFrame(columns=[ADDR_KEY] + INPUT_FIELDS)

    if check_results:
        merged["ph_fake_hn"] = ""
        merged, _ = keep_bests(
            merged, street_cols_a=["ph_street"], housenbr_col_a="ph_fake_hn",
            postcode_col_a="ph_pc", city_col_a="ph_city",
            street_col_b=STREET, housenbr_col_b="ph_fake_hn",
            postcode_col_b=POSTCODE, city_col_b=CITY,
            secondary_sort_col="photon_order", threshold=threshold)
    else:
        merged = merged.groupby(ADDR_KEY, sort=False).head(1)
    if merged.shape[0] == 0:
        return pd.DataFrame(columns=[ADDR_KEY] + INPUT_FIELDS)
    res = merged[[ADDR_KEY, "ph_street", HOUSENBR, "ph_pc", "ph_city",
                  "ph_country"]].copy()
    res.columns = [ADDR_KEY, STREET, HOUSENBR, POSTCODE, CITY, COUNTRY]
    return res


def apply_transformers(df: pd.DataFrame, transformers: list[str],
                       parser, gazetteer, cfg: PipelineConfig) -> pd.DataFrame:
    """Run the transformer list in order, then keep only rows where at
    least one of the 5 fields changed vs the original input
    (case-insensitive) — utils.py:692-776."""
    if transformers == ["orig"]:
        return df.copy()

    init = df.copy()
    cur = df.copy()
    for t in transformers:
        if t == "orig":
            continue
        m = _TRANSFORMER_RE.fullmatch(t)
        if m:
            cur = regex_transformer(cur, cfg.regex_replacements[m.group(1)])
        elif t == "nonum":
            cur = cur.copy()
            cur[HOUSENBR] = ""
        elif t == "nostreet":
            cur = cur.copy()
            cur[HOUSENBR] = ""
            cur[STREET] = ""
        elif t == "nozip":
            cur = cur.copy()
            cur[POSTCODE] = ""
        elif t == "nocountry":
            cur = cur.copy()
            cur[COUNTRY] = ""
        elif t == "libpostal":
            cur = libpostal_transformer(cur, parser, cfg.check_results,
                                        cfg.similarity_threshold)
        elif t == "photon":
            cur = photon_transformer(cur, gazetteer, cfg.photon_check_results,
                                     cfg.similarity_threshold,
                                     use_memo=cfg.with_worker_memos)
        elif t in TRANSFORMER_REGISTRY:
            cur = TRANSFORMER_REGISTRY[t](cur, parser, gazetteer, cfg)
        else:
            raise ValueError(f"unknown transformer {t!r}")
        if cur.shape[0] == 0:
            return cur

    orig = cur[[ADDR_KEY]].merge(init[[ADDR_KEY] + INPUT_FIELDS],
                                 on=ADDR_KEY).set_index(cur.index)
    changed = np.zeros(len(cur), dtype=bool)
    for f in INPUT_FIELDS:
        if f in cur.columns:
            changed |= (orig[f].fillna("").astype(str).str.lower().to_numpy()
                        != cur[f].fillna("").astype(str).str.lower().to_numpy())
    return cur[changed].copy()
