"""The one bounded memo type (``georay.memo``) and the memos behind it:
the cascade's result store and the photon, parser and kNN memos."""

from georay.cascade import _ResultStore
from georay.config import PipelineConfig
from georay.corpus import make_documents
from georay.gazetteer import Gazetteer, GazetteerSpec, get_gazetteer
from georay.knn import KnnRescuer
from georay.memo import CAPS, Memo, world_memo
from georay.parser import AddressParser
from georay.pipeline import documents_fn

SPEC = GazetteerSpec()


def test_get_many_counts_every_probe():
    m = Memo(10)
    assert m.put_many(["a", "b"], [1, 2]) == 2
    assert m.get_many(["a", "x", "b", "a", "y"], -1) == [1, -1, 2, 1, -1]
    assert (m.hits, m.misses, m.refused) == (3, 2, 0)
    assert m.get_many([]) == []
    assert m.hits + m.misses == 5


def test_put_many_keeps_the_leading_keys_and_counts_the_rest():
    m = Memo(3)
    assert m.put_many(["a", "b"], iter([1, 2])) == 2
    assert m.put_many(["c", "d", "e"], [3, 4, 5]) == 1
    assert m.put_many(["f"], [6]) == 0
    assert m.data == {"a": 1, "b": 2, "c": 3}
    assert m.refused == 3
    assert m.get_many(["c", "d"]) == [3, None]
    assert (m.hits, m.misses) == (1, 1)


def test_map_probes_each_key_once_in_order():
    made = []

    def fn(k):
        made.append(k)
        return k.upper()

    m = Memo(2)
    assert m.map(fn, ["a", "b", "a", "c", "c", "b"]) == list("ABACCB")
    # "a" and "b" are kept and hit on repeat; "c" comes past the cap, so
    # each of its probes misses, is made again and refused
    assert made == ["a", "b", "c", "c"]
    assert (m.hits, m.misses, m.refused) == (2, 4, 2)
    assert m.map(fn, ["b", "a"]) == ["B", "A"]
    assert (m.hits, m.misses) == (4, 4)


def test_cap_zero_keeps_nothing():
    m = Memo(0)
    made = []
    assert m.map(lambda k: made.append(k) or k, ["a", "a"]) == ["a", "a"]
    assert made == ["a", "a"]
    assert m.put_many(["b"], [1]) == 0
    assert m.get_many(["a", "b"]) == [None, None]
    assert len(m) == 0
    assert (m.hits, m.misses, m.refused) == (0, 4, 3)


def test_world_memo_is_decided_by_the_config_alone():
    memos = {}
    on, off = PipelineConfig(), PipelineConfig(with_worker_memos=False,
                                              with_cascade_memo=False)
    photon = world_memo(memos, "photon", on)
    assert photon.cap == CAPS["photon"]
    assert world_memo(memos, "photon", off).cap == 0
    # worker memos hold pure functions of their keys: shared by every
    # config with the same switch
    assert world_memo(memos, "photon",
                      PipelineConfig(check_results=False)) is photon
    assert world_memo(memos, "parser", on) is not photon
    # the result store depends on the whole config
    store = world_memo(memos, "store", on, _ResultStore)
    assert store.index.cap == CAPS["store"]
    assert world_memo(memos, "store", PipelineConfig(check_results=False),
                      _ResultStore) is not store
    assert world_memo(memos, "store", PipelineConfig(with_cascade_memo=False),
                      _ResultStore).index.cap == 0
    assert world_memo(memos, "store", PipelineConfig(), _ResultStore) is store


def _docs(n=200, seed=13):
    docs, _ = make_documents(n, spec=SPEC, seed=seed)
    return docs


def _fresh_world(monkeypatch) -> list:
    """Empty world memos and worker components; returns the list that
    collects each ``KnnRescuer`` built from now on."""
    from georay import cascade
    monkeypatch.setattr(get_gazetteer(SPEC), "memos", {})
    monkeypatch.setattr(cascade, "_PROCESS_COMPONENT_CACHE", {})
    built, real_init = [], KnnRescuer.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(KnnRescuer, "__init__", init)
    return built


def test_every_memo_counts_its_probes_and_refusals(monkeypatch):
    """hits + misses equals the keys probed, for each of the four memos,
    and at a small cap the keys offered past it are counted as refused."""
    gaz = get_gazetteer(SPEC)
    knns = _fresh_world(monkeypatch)
    for name in CAPS:
        monkeypatch.setitem(CAPS, name, 5)
    probes: dict[int, int] = {}
    get_many, memo_map = Memo.get_many, Memo.map

    def spy_get(self, keys, default=None):
        keys = list(keys)
        probes[id(self)] = probes.get(id(self), 0) + len(keys)
        return get_many(self, keys, default)

    def spy_map(self, fn, keys):
        probes[id(self)] = probes.get(id(self), 0) + len(keys)
        return memo_map(self, fn, keys)

    monkeypatch.setattr(Memo, "get_many", spy_get)
    monkeypatch.setattr(Memo, "map", spy_map)
    fn = documents_fn(SPEC, PipelineConfig())
    for _ in range(2):
        fn(_docs())
    memos = {k[0]: getattr(m, "index", m) for k, m in gaz.memos.items()
             if isinstance(k, tuple)}
    memos["knn"] = knns[0].memo
    assert sorted(memos) == ["knn", "parser", "photon", "store"]
    for name, m in memos.items():
        assert m.hits + m.misses == probes[id(m)] > 0, name
        assert m.misses > 0 and m.refused > 0, name
        assert len(m) == 5, name


def test_worker_memos_off_every_pass_pays(monkeypatch):
    """With with_worker_memos=False, a second pass over the same
    documents makes the same kNN scoring, parses and photon lookups as
    the first; with it on, the second pass makes none.  The parser the
    cascade uses carries no switch: the config alone decides."""
    work = {}
    real = {"score": KnnRescuer._score_batch, "parse": AddressParser.parse,
            "fuzzy": Gazetteer.fuzzy_many}

    def spy(name, size):
        def fn(self, arg, *args, **kwargs):
            work[name] += size(arg)
            return real[name](self, arg, *args, **kwargs)
        return fn

    monkeypatch.setattr(KnnRescuer, "_score_batch", spy("score", len))
    monkeypatch.setattr(AddressParser, "parse", spy("parse", lambda t: 1))
    monkeypatch.setattr(Gazetteer, "fuzzy_many", spy("fuzzy", len))
    knns = _fresh_world(monkeypatch)
    docs = _docs()
    for memos in (False, True):
        fn = documents_fn(SPEC, PipelineConfig(with_cascade_memo=False,
                                               with_worker_memos=memos))
        passes = []
        for _ in range(2):
            work.update(dict.fromkeys(real, 0))
            fn(docs)
            passes.append(dict(work))
        assert knns[-1].memo.cap == (CAPS["knn"] if memos else 0)
        if memos:
            assert passes[1] == dict.fromkeys(real, 0)
        else:
            assert passes[1] == passes[0]
            assert all(v > 0 for v in passes[0].values()), passes[0]
