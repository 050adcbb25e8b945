"""Spans around georay's public layer entry points, for the traced replay.

The tracer wraps module attributes and class methods from the outside
(nothing inside ``georay`` changes): each wrapped call opens a span with
its layer name, start and end time, process CPU and the span that caused
it.  A layer's self time is its span time minus the time of its child
spans, so nested layers (``gazetteer`` inside ``transforms`` inside
``cascade``) are not counted twice.  Counts are taken at the same
boundaries, after the span closes.
"""

from __future__ import annotations

import time
from collections import defaultdict

KEEP_SPANS = 20000     # spans kept for the trace file; later ones are dropped


class Tracer:
    def __init__(self):
        # layer -> [calls, wall_s, self_wall_s, self_cpu_s]
        self.layers: dict[str, list] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []     # (id, parent, layer, t0, t1)
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def enter(self, layer: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, layer, parent,
                            time.perf_counter(), time.process_time(),
                            0.0, 0.0])
        self._next_id += 1

    def exit(self) -> None:
        t1, c1 = time.perf_counter(), time.process_time()
        sid, layer, parent, t0, c0, child_wall, child_cpu = self._stack.pop()
        wall, cpu = t1 - t0, c1 - c0
        row = self.layers.setdefault(layer, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += wall
        row[2] += wall - child_wall
        row[3] += cpu - child_cpu
        if self._stack:
            self._stack[-1][5] += wall
            self._stack[-1][6] += cpu
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((sid, parent, layer, t0, t1))

    def span(self, layer: str, fn, *args, **kwargs):
        self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def self_cpu_ms(self, prefix: str) -> float:
        return 1000.0 * sum(r[3] for k, r in self.layers.items()
                            if k == prefix or k.startswith(prefix + "."))

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, layer, count=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.  ``layer`` is a
        name or a function of the call arguments returning one;
        ``count(counts, args, kwargs, result)`` runs after the span."""
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(layer(args, kwargs) if callable(layer) else layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if count is not None:
                count(tracer.counts, args, kwargs, out)
            return out

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def to_json(self) -> dict:
        return {
            "layers": {k: {"calls": r[0], "wall_ms": 1000 * r[1],
                           "self_wall_ms": 1000 * r[2],
                           "self_cpu_ms": 1000 * r[3]}
                       for k, r in sorted(self.layers.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans_kept": len(self.spans),
            "spans": [{"id": s[0], "parent": s[1], "layer": s[2],
                       "start_ms": 1000 * (s[3] - self.spans[0][3]),
                       "dur_ms": 1000 * (s[4] - s[3])}
                      for s in self.spans],
        }


def install_georay_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every georay layer the benchmark's
    workloads reach.  Module-level functions are wrapped in every module
    that imported them by name, because callers look them up there."""
    import pyarrow.compute as pc

    from georay import api, cascade, spans, transforms
    from georay.config import DEFAULT_CASCADE
    from georay.gazetteer import Gazetteer
    from georay.geom import PolygonIndex
    from georay.knn import KnnRescuer
    from georay.ops.dedup import MinHasher
    from georay.parser import AddressParser
    from georay.tiles import TileAnnotator

    step_of = {tuple(s): i for i, s in enumerate(DEFAULT_CASCADE)}

    def step_layer(args, kwargs):
        return f"transforms.step{step_of.get(tuple(args[1]), 'x')}"

    def count_step(c, args, kwargs, out):
        c[step_layer(args, kwargs) + ".rows"] += len(args[0])

    def count_explode(c, args, kwargs, out):
        c["spans.docs"] += args[0].num_rows
        c["spans.rows"] += out.num_rows
        c["spans.addresses"] += pc.sum(out["is_address"]).as_py() or 0

    def count_cascade_rows(c, args, kwargs, out):
        c["cascade.addr_rows"] += len(args[0])

    def count_compare(c, args, kwargs, out):
        c["compare.rows"] += len(args[0])
        c["compare.kept"] += len(out[0])

    def count_gaz(c, args, kwargs, out):
        c["gazetteer.calls"] += 1
        if isinstance(out, dict):
            n = len(out.get("features", [])) if "features" in out else 1
        else:
            n = len(out or [])
        c["gazetteer.results"] += n

    def count_calls(name):
        def fn(c, args, kwargs, out):
            c[name] += 1
        return fn

    def count_tiles(c, args, kwargs, out):
        if "pip_ok" in out.column_names:
            located = pc.is_finite(out["o_lat"])
            c["tiles.located"] += pc.sum(located).as_py() or 0
            c["tiles.pip_ok"] += pc.sum(
                pc.and_(located, out["pip_ok"])).as_py() or 0

    def count_geom(c, args, kwargs, out):
        c["geom.points"] += len(args[1])

    def count_knn(c, args, kwargs, out):
        batch = args[1]
        todo = pc.and_(pc.equal(batch["status"], "unmatched"),
                       pc.not_equal(batch["street_name"], ""))
        c["knn.rows"] += pc.sum(todo).as_py() or 0

    def count_sigs(c, args, kwargs, out):
        c["dedup.spans"] += len(args[1])

    tracer.wrap(spans, "explode_spans", "spans", count_explode)
    tracer.wrap(cascade.SpanCascadeGeocoder, "__call__", "cascade")
    for mod in (cascade, api):
        tracer.wrap(mod, "process_addresses_df", "cascade",
                    count_cascade_rows)
    tracer.wrap(cascade, "apply_transformers", step_layer, count_step)
    for mod in (cascade, transforms):
        tracer.wrap(mod, "keep_bests", "compare", count_compare)
    for meth in ("search", "search_structured", "fuzzy", "details"):
        tracer.wrap(Gazetteer, meth, "gazetteer", count_gaz)
    tracer.wrap(AddressParser, "parse", "parser", count_calls("parser.calls"))
    tracer.wrap(TileAnnotator, "__call__", "tiles", count_tiles)
    tracer.wrap(PolygonIndex, "locate", "geom", count_geom)
    tracer.wrap(KnnRescuer, "__call__", "knn", count_knn)
    tracer.wrap(api, "geocode_one", "api", count_calls("api.requests"))
    tracer.wrap(api, "batch_geocode", "api", count_calls("api.requests"))
    tracer.wrap(MinHasher, "signatures_batch", "dedup", count_sigs)
