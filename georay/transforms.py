"""Address "cleaning" transformers + changed-only filter.

Flat-column ports of /root/reference/transformers.py and the transformer
dispatch in utils.py:692-776.  These run batch-locally inside the cascade
(``georay.cascade``) on ``AddressRows``: a step's still-unmatched
representative indices with the five input fields as numpy object arrays
of ``str`` aligned to them.  A transformer maps field arrays to field
arrays; a row it drops is an index it leaves out.  No DataFrame is built
except for a registered transformer, whose pandas contract one adapter
keeps.

- ``regex_transformer``      — transformers.py:328-364 (ordered rule list,
  case-sensitive, applied sequentially, patterns compiled once)
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
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np
import pandas as pd

from .compare import _str_values, keep_bests
from .config import (ADDR_KEY, CITY, COUNTRY, HOUSENBR, INPUT_FIELDS,
                     POSTCODE, STREET, PipelineConfig)
from .gazetteer import concat_ranges

_TRANSFORMER_RE = re.compile(r"regex\[([a-z]+)\]")

# User-extension surface (SURVEY.md §2.9): named custom transformers.
# A registered fn(df, parser, gazetteer, cfg) -> df can appear in any
# cascade sequence (the reference's TRANSFORMERS env override,
# nominatimwrapper.py:104-114, dispatched by name in utils.py:718-751).
TRANSFORMER_REGISTRY: dict = {}

# the fields each blanking transformer empties (utils.py:731-742)
_BLANKS = {"nonum": (HOUSENBR,), "nostreet": (HOUSENBR, STREET),
           "nozip": (POSTCODE,), "nocountry": (COUNTRY,)}


def register_transformer(name: str, fn) -> None:
    """Register ``fn(df, parser, gazetteer, cfg) -> df`` under ``name``:
    ``df`` holds ``addr_key`` (an opaque integer label: keep it on the
    rows you return) and the five input fields, one row per address of
    the step; the result holds the rows to send on, in any order, extra
    columns ignored, fields read as ``fillna("").astype(str)``.  An
    exception labels the step's rows ``error on <name>: <Error>``."""
    if name in ("orig", "libpostal", "photon", *_BLANKS) \
            or _TRANSFORMER_RE.fullmatch(name):
        raise ValueError(f"{name!r} collides with a built-in transformer")
    TRANSFORMER_REGISTRY[name] = fn


@dataclass(eq=False)
class AddressRows:
    """The rows of one cascade step: ``idx``, the int64 representative
    index of each row, and ``fields``, the five input fields as object
    arrays of ``str`` aligned to it.  A step's input rows have ascending,
    unique ``idx``; ``len`` is the row count."""

    idx: np.ndarray
    fields: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.idx)

    def take(self, pos) -> "AddressRows":
        return AddressRows(self.idx[pos],
                           {f: v[pos] for f, v in self.fields.items()})


def factorize(values) -> tuple[np.ndarray, np.ndarray]:
    """Codes of ``values`` by first appearance, and the position of each
    code's first value."""
    first: dict = {}
    codes = np.fromiter((first.setdefault(v, len(first)) for v in values),
                        np.int64, len(values))
    return codes, np.unique(codes, return_index=True)[1]


def first_per_group(group: np.ndarray) -> np.ndarray:
    """Positions of the first row of each group, in row order (the
    ``groupby(sort=False).head(1)`` of the reference)."""
    return np.sort(np.unique(group, return_index=True)[1])


def regex_transformer(rows: AddressRows, rules) -> AddressRows:
    fields = dict(rows.fields)
    for field, pattern, repl in rules:
        # \g<1> style group refs like the reference
        sub = re.compile(pattern).sub
        fields[field] = np.array([sub(repl, s) for s in fields[field]],
                                 dtype=object)
    return AddressRows(rows.idx, fields)


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


def assemble_full_address(fields: dict[str, np.ndarray]) -> np.ndarray:
    """'street, housenbr, postcode city, country' then comma cleanup
    (utils.py:639-646)."""
    return np.array([clean_addr_in(f"{s}, {h}, {p} {c}, {k}") for s, h, p, c, k
                     in zip(*(fields[f] for f in INPUT_FIELDS))], dtype=object)


_LP_LABELS = ("road", "house_number", "postcode", "city", "country")


def libpostal_transformer(rows: AddressRows, parser, check_results: bool,
                          threshold: float) -> AddressRows:
    """Parse 'street, hn, pc city,  country' per row; last value wins per
    label (transformers.py:287); optional validation against the input
    (transformers.py:293-304)."""
    f = rows.fields
    parsed = []
    for s, h, p, c, k in zip(*(f[x] for x in INPUT_FIELDS)):
        last = {label: value for value, label
                in parser.parse(f"{s}, {h}, {p} {c},  {k}")}
        parsed.append([last.get(label, "") for label in _LP_LABELS])
    parsed = np.array(parsed, dtype=object).reshape(len(rows), 5)
    lp = {f: parsed[:, i] for i, f in enumerate(INPUT_FIELDS)}
    keep = slice(None)
    if check_results:
        # secondary key constant per representative (the reference's
        # addr_key): ties keep row order
        keep, _, _, _ = keep_bests(
            rows.idx, [(STREET, f[STREET])], f[HOUSENBR], f[POSTCODE],
            f[CITY], lp[STREET], lp[HOUSENBR], lp[POSTCODE], lp[CITY],
            rows.idx, threshold=threshold)
    return AddressRows(rows.idx[keep], {x: v[keep] for x, v in lp.items()})


def photon_transformer(rows: AddressRows, gazetteer, check_results: bool,
                       threshold: float, use_memo: bool = True
                       ) -> AddressRows:
    """Fuzzy-index rewrite of the street/city/postcode fields, keeping the
    INPUT house number (transformers.py:233).  Dedupes the query string
    before hitting the index (transformers.py:160)."""
    f = rows.fields
    full = [f"{s}, {p} {c}, {k}" for s, p, c, k
            in zip(f[STREET], f[POSTCODE], f[CITY], f[COUNTRY])]
    code, first = factorize(full)
    uniq = [full[i] for i in first.tolist()]
    # per-worker memo of each query's candidate place rows: the query
    # string set is Zipf-skewed across batches, so steady-state photon
    # cost is a dict hit per unique address; the misses go to the index
    # in one batched lookup
    memo = getattr(gazetteer, "_photon_memo", None)
    if memo is None:
        memo = gazetteer._photon_memo = {}
    todo = [q for q in uniq if q not in memo] if use_memo else uniq
    qi, found_rows = gazetteer.fuzzy_many(todo, use_cache=use_memo)
    bounds = np.searchsorted(qi, np.arange(len(todo) + 1)).tolist()
    found = {q: found_rows[a:b].copy()
             for q, a, b in zip(todo, bounds, bounds[1:])}
    if use_memo:
        memo.update(islice(found.items(), max(0, (1 << 17) - len(memo))))
    per_q = [found[q] if q in found else memo[q] for q in uniq]
    counts = np.array([len(r) for r in per_q], np.int64)
    # every row followed by its query's candidates, in photon order
    n_of = counts[code]
    row = np.repeat(np.arange(len(rows)), n_of)
    if not len(row):
        return rows.take(row)
    order = concat_ranges(np.cumsum(counts)[code] - n_of, n_of)
    place = np.concatenate(per_q)[order]
    g = gazetteer.columns
    street, name = g["street_name"][place], g["name"][place]
    ph_street = np.where(street.astype(bool), street, name)
    if check_results:
        fake_hn = np.full(len(row), "", dtype=object)
        keep, _, _, _ = keep_bests(
            rows.idx[row], [("ph_street", ph_street)], fake_hn,
            g["post_code"][place], g["post_name"][place], f[STREET][row],
            fake_hn, f[POSTCODE][row], f[CITY][row],
            np.arange(len(row)) - np.repeat(np.cumsum(n_of) - n_of, n_of),
            threshold=threshold)
    else:
        keep = first_per_group(rows.idx[row])
    row, place = row[keep], place[keep]
    return AddressRows(rows.idx[row], {
        STREET: ph_street[keep], HOUSENBR: f[HOUSENBR][row],
        POSTCODE: g["post_code"][place], CITY: g["post_name"][place],
        COUNTRY: g["country_name"][place]})


def _run_registered(fn, rows: AddressRows, parser, gazetteer,
                    cfg: PipelineConfig) -> AddressRows:
    """A registered transformer through its DataFrame contract (see
    ``register_transformer``): the returned rows are mapped back to
    their representatives by ``addr_key``, whatever their order."""
    out = fn(pd.DataFrame({ADDR_KEY: rows.idx, **rows.fields}),
             parser, gazetteer, cfg)
    idx = out[ADDR_KEY].to_numpy(dtype=np.int64)
    if not np.isin(idx, rows.idx).all():
        raise ValueError("a registered transformer returned an addr_key "
                         "it was not given")
    return AddressRows(idx, {f: _str_values(out[f]) for f in INPUT_FIELDS})


def apply_transformers(rows: AddressRows, transformers: list[str],
                       parser, gazetteer, cfg: PipelineConfig
                       ) -> AddressRows:
    """Run the transformer list in order, then keep only rows where at
    least one of the 5 fields changed vs the step's input row of the
    same representative (case-insensitive) — utils.py:692-776."""
    if transformers == ["orig"]:
        return rows
    cur = rows
    for t in transformers:
        if t == "orig":
            continue
        m = _TRANSFORMER_RE.fullmatch(t)
        if m:
            cur = regex_transformer(cur, cfg.regex_replacements[m.group(1)])
        elif t in _BLANKS:
            blank = np.full(len(cur), "", dtype=object)
            cur = AddressRows(cur.idx, {**cur.fields,
                                        **dict.fromkeys(_BLANKS[t], blank)})
        elif t == "libpostal":
            cur = libpostal_transformer(cur, parser, cfg.check_results,
                                        cfg.similarity_threshold)
        elif t == "photon":
            cur = photon_transformer(cur, gazetteer, cfg.photon_check_results,
                                     cfg.similarity_threshold,
                                     use_memo=cfg.with_worker_memos)
        elif t in TRANSFORMER_REGISTRY:
            cur = _run_registered(TRANSFORMER_REGISTRY[t], cur, parser,
                                  gazetteer, cfg)
        else:
            raise ValueError(f"unknown transformer {t!r}")
        if len(cur) == 0:
            return cur

    at = np.searchsorted(rows.idx, cur.idx)
    changed = np.zeros(len(cur), dtype=bool)
    for f in INPUT_FIELDS:
        a, b = rows.fields[f][at], cur.fields[f]
        diff = np.flatnonzero(a != b)     # equal as they are: equal lowered
        changed[diff] |= np.fromiter(
            (x.lower() != y.lower() for x, y in zip(a[diff], b[diff])),
            bool, len(diff))
    return cur.take(np.flatnonzero(changed))
