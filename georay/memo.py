"""The one bounded memo type behind every per-worker memo of georay: the
cascade's result store, and the photon, parser and kNN memos.

A ``Memo`` is a dict with a cap and three counters, probed a batch of
keys at a time (probe-then-gather, as in vectorized hash tables, VLDB
2023): ``hits + misses`` counts the probes, ``refused`` the keys offered
after the cap was reached.  A memo switched off has cap 0, so every
probe misses and is counted.  This module imports nothing from georay.
"""

from __future__ import annotations

from itertools import compress, islice, repeat
from operator import is_

# cap of each memo while its switch is on
CAPS = {"store": 1 << 15, "photon": 1 << 17, "parser": 1 << 17,
        "knn": 1 << 16}


class Memo:
    """A dict of at most ``cap`` keys and its counters.  A stored value
    is never a probe's ``default``."""

    __slots__ = ("cap", "data", "hits", "misses", "refused")

    def __init__(self, cap: int):
        self.cap = cap
        self.data: dict = {}
        self.hits = self.misses = self.refused = 0

    def __len__(self) -> int:
        return len(self.data)

    def get_many(self, keys, default=None) -> list:
        """The value of each key, ``default`` where it has none: one
        probe per key, probed and counted without a Python loop."""
        got = list(map(self.data.get, keys, repeat(default)))
        missed = list(map(is_, got, repeat(default))).count(True)
        self.misses += missed
        self.hits += len(got) - missed
        return got

    def put_many(self, keys, values) -> int:
        """Keep the leading pairs of the distinct missed ``keys`` and their
        ``values`` that fit under the cap; returns how many were kept."""
        keys = list(keys)
        kept = max(0, min(len(keys), self.cap - len(self.data)))
        self.data.update(islice(zip(keys, values), kept))
        self.refused += len(keys) - kept
        return kept

    def map(self, fn, keys: list) -> list:
        """``fn(key)`` of each key, one probe per key in order: a miss
        computes its value and offers it, so a key repeated in ``keys``
        hits once its first value is kept.  ``fn`` never returns None."""
        data = self.data
        got = list(map(data.get, keys))
        missed = 0
        for i in compress(range(len(got)), map(is_, got, repeat(None))):
            value = data.get(keys[i])
            if value is None:
                missed += 1
                value = fn(keys[i])
                if len(data) < self.cap:
                    data[keys[i]] = value
                else:
                    self.refused += 1
            got[i] = value
        self.misses += missed
        self.hits += len(got) - missed
        return got


def world_memo(memos: dict, name: str, cfg, make=Memo):
    """Memo ``name`` of a world under the ``PipelineConfig`` ``cfg``, made
    by ``make(cap)`` on first use in ``memos`` (the dict the gazetteer
    declares, so a rebuilt world starts empty).  ``with_cascade_memo``
    switches the result store ("store"), kept per ``repr(cfg)`` because
    its rows depend on the whole config; ``with_worker_memos`` switches
    the others, pure functions of their keys shared by every config with
    the same switch.  On, the cap is ``CAPS[name]``; off, 0."""
    on = cfg.with_cascade_memo if name == "store" else cfg.with_worker_memos
    key = (name, repr(cfg) if name == "store" else on)
    memo = memos.get(key)
    if memo is None:
        memo = memos[key] = make(CAPS[name] if on else 0)
    return memo
