"""Batched gazetteer lookups against the per-query lookups they replace.

``_Reference`` below is the index as it was before batching: one Python
call per query, one dict per candidate (``_street_candidates`` /
``search_structured`` / ``search`` / ``fuzzy``, and the cascade's
``_shape_candidates``).  ``search_many``, ``fuzzy_many`` and the
cascade's candidate-frame builder must give the same rows, in the same
order, for every query of a batch."""

import hashlib
import json
import re

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from georay.cascade import (_COLLAPSE_CITY, _COLLAPSE_STREET, _CAND_COLS,
                            _explode_candidates, process_addresses_df)
from georay.config import (DROP_ADDR_ITEMS, INPUT_FIELDS,
                           M_OSM_ORDER, M_TRANSFORMED, O_CITY, O_COUNTRY,
                           O_DISPLAY, O_HOUSENBR, O_LAT, O_LON, O_OTHER,
                           O_POSTCODE, O_STREET, PipelineConfig)
from georay.corpus import make_addresses
from georay.gazetteer import (Gazetteer, GazetteerSpec, TrigramIndex,
                              get_gazetteer, parse_free_text)
from georay.parser import AddressParser
from georay.textkernels import jaro_winkler, normalize_street


def _trigrams(s: str) -> set[str]:
    """The distinct trigrams of a key, padded as "  " + key + " "."""
    s = f"  {s} "
    return {s[i:i + 3] for i in range(len(s) - 2)}


class _Reference:
    """Per-query lookups over dict records (the pre-batching index)."""

    _CLEAN_HN_RE = re.compile(r"^([0-9]+)[a-zA-Z]?$")

    def __init__(self, places: pd.DataFrame):
        self.by_id = {r["place_id"]: r for r in places.to_dict("records")}
        self.exact: dict = {}
        self.city_by_pc: dict = {}
        self.city_by_name: dict = {}
        trigram: dict = {}
        self.norm_variants: dict = {}
        for r in places[places.place_rank == 26].to_dict("records"):
            pid, pc = r["place_id"], r["post_code"]
            cityn = normalize_street(r["post_name"])
            norms = set()
            for v in {r["name"], r["name_fr"], r["name_nl"], r["street_name"]}:
                if not v:
                    continue
                for part in re.sub(",", " - ", v).split(" - "):
                    key = normalize_street(part)
                    if not key:
                        continue
                    norms.add(key)
                    self.exact.setdefault((key, pc), []).append(pid)
                    self.exact.setdefault((key, cityn), []).append(pid)
                    for t in _trigrams(key):
                        trigram.setdefault(t, []).append(pid)
            self.norm_variants[pid] = tuple(sorted(norms))
        for lst in self.exact.values():
            lst.sort()
        self.trigram_np = {t: np.array(sorted(lst), dtype=np.int64)
                           for t, lst in trigram.items()}
        for r in places[places.place_rank == 16].to_dict("records"):
            self.city_by_pc[r["post_code"]] = r["place_id"]
            self.city_by_name[normalize_street(r["post_name"])] = r["place_id"]

    def building_for(self, street: dict, housenumber: str):
        m = self._CLEAN_HN_RE.match((housenumber or "").strip())
        if not m:
            return None
        hn = int(m.group(1))
        lo, hi = (int(x) for x in street["house_numbers"].split("-"))
        if hn < lo or hn > hi or hn % 2 != 0:
            return None
        dlat = 0.00005 * (hn - lo)
        return dict(street, place_id=street["place_id"] * 1000 + hn,
                    parent_place_id=street["place_id"],
                    category="building", type="yes",
                    lat=street["lat"] + dlat, lon=street["lon"] + dlat,
                    place_rank=30, _house_number=str(hn))

    def to_result(self, rec: dict, namedetails: bool) -> dict:
        city_key = {"city": "city", "town": "town",
                    "village": "village"}[rec["city_kind"]]
        address = {"country": rec["country_name"], "country_code": "be",
                   "region": "Belgium", city_key: rec["post_name"],
                   "postcode": rec["post_code"]}
        if rec["place_rank"] >= 26:
            address["road"] = rec["street_name"]
        if rec["place_rank"] == 30:
            address["house_number"] = rec["_house_number"]
        names = {}
        if rec["name"]:
            names["name"] = rec["name"]
        if rec["name_fr"]:
            names["name:fr"] = rec["name_fr"]
        if rec["name_nl"]:
            names["name:nl"] = rec["name_nl"]
        disp_parts = [rec["street_name"] if rec["place_rank"] >= 26 else "",
                      rec.get("_house_number", ""),
                      f"{rec['post_code']} {rec['post_name']}", "Belgium"]
        out = {"place_id": int(rec["place_id"]), "lat": float(rec["lat"]),
               "lon": float(rec["lon"]),
               "place_rank": int(rec["place_rank"]),
               "display_name": ", ".join(p for p in disp_parts if p),
               "category": rec["category"], "type": rec["type"],
               "importance": 0.5, "address": address}
        if namedetails:
            out["namedetails"] = names
        return out

    def keys(self, street: str) -> list[str]:
        return [k for k in (normalize_street(p) for p in
                            re.sub(",", " - ", street or "").split(" - "))
                if k]

    def votes(self, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
        posts = [self.trigram_np[t] for k in keys for t in _trigrams(k)
                 if t in self.trigram_np]
        if not posts:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        return np.unique(np.concatenate(posts), return_counts=True)

    def street_candidates(self, street, postcode, city, limit, fuzzy=True):
        keys = self.keys(street)
        pcn = (postcode or "").strip()
        cityn = normalize_street(city or "")
        out: dict = {}
        for k in keys:
            for loc in (pcn, cityn):
                if loc:
                    for pid in self.exact.get((k, loc), []):
                        out[pid] = max(out.get(pid, 0.0), 1.0)
        if not out and keys and fuzzy:
            pids_u, counts = self.votes(keys)
            for i in np.lexsort((pids_u, -counts))[:80]:
                pid = int(pids_u[i])
                rec = self.by_id[pid]
                if pcn and rec["post_code"] == pcn:
                    loc_ok = True
                elif cityn and normalize_street(rec["post_name"]) == cityn:
                    loc_ok = True
                else:
                    loc_ok = not pcn and not cityn
                if not loc_ok:
                    continue
                best = 0.0
                for nv in self.norm_variants.get(pid, ()):
                    for k in keys:
                        jw = jaro_winkler(nv, k)
                        if jw > best:
                            best = jw
                if best >= 0.82:
                    out[pid] = max(out.get(pid, 0.0), best)
        return sorted(((s, pid) for pid, s in out.items()),
                      key=lambda t: (-t[0], t[1]))[:limit]

    def search_structured(self, street="", housenumber="", postcode="",
                          city="", country="", limit=50, namedetails=False):
        street = (street or "").strip()
        results = []
        if street:
            for _, pid in self.street_candidates(street, postcode, city,
                                                 limit, fuzzy=False):
                rec = self.by_id[pid]
                b = self.building_for(rec, housenumber) if housenumber else None
                results.append(self.to_result(b if b is not None else rec,
                                              namedetails))
                if len(results) >= limit:
                    break
        else:
            pid = None
            pcn = (postcode or "").strip()
            if pcn and pcn in self.city_by_pc:
                pid = self.city_by_pc[pcn]
            else:
                cityn = normalize_street(city or "")
                if cityn and cityn in self.city_by_name:
                    pid = self.city_by_name[cityn]
            if pid is not None:
                results.append(self.to_result(self.by_id[pid], namedetails))
        return results

    def search(self, q, limit=50, namedetails=False):
        p = parse_free_text(q)
        return self.search_structured(p["street"], p["housenumber"],
                                      p["postcode"], p["city"], p["country"],
                                      limit=limit, namedetails=namedetails)

    def fuzzy_ids(self, q, limit=20) -> list[int]:
        p = parse_free_text(q)
        street = p["street"] or q
        cands = self.street_candidates(street, p["postcode"], p["city"],
                                       limit)
        if not cands:
            cands = self.street_candidates(street, "", "", limit)
        return [pid for _, pid in cands]


def _coalesce(addr: dict, keys: list[str]):
    for k in keys:
        v = addr.get(k)
        if v is not None and v == v:
            return v
    return None


def _shape_candidates(addr: str, results: list[dict], with_json: bool
                      ) -> list[dict]:
    """The per-candidate row shaping the candidate-frame builder replaces."""
    rows = []
    for order, r in enumerate(results):
        address = r.get("address", {})
        nd = r.get("namedetails") or {}
        namedetails = (" - ".join(nd.values())
                       if r.get("category") == "highway" else "")
        o_street = _coalesce(address, _COLLAPSE_STREET)
        o_city = _coalesce(address, _COLLAPSE_CITY)
        o_hn = address.get("house_number")
        o_country = address.get("country")
        o_pc = address.get("postcode")
        picked = {o_street, o_city, o_hn, o_country, o_pc}
        other = sorted({v for k, v in address.items()
                        if k not in DROP_ADDR_ITEMS and v is not None
                        and v not in picked})
        extra = {}
        if with_json:
            extra["candidate_json"] = json.dumps(r, sort_keys=True,
                                                 default=str)
        rows.append({
            **extra,
            M_TRANSFORMED: addr, M_OSM_ORDER: order,
            "n_place_id": int(r["place_id"]),
            "n_place_rank": int(r["place_rank"]),
            "n_lat": float(r["lat"]), "n_lon": float(r["lon"]),
            "n_display_name": r.get("display_name", ""),
            "n_category": r.get("category", ""),
            "n_namedetails": namedetails,
            O_STREET: o_street, O_CITY: o_city, O_HOUSENBR: o_hn,
            O_COUNTRY: o_country, O_POSTCODE: o_pc,
            O_OTHER: " - ".join(other),
            O_DISPLAY: r.get("display_name", ""),
            O_LAT: float(r["lat"]), O_LON: float(r["lon"]),
        })
    return rows


SPEC = GazetteerSpec()
GAZ = get_gazetteer(SPEC)
REF = _Reference(GAZ.places)
_STREETS = GAZ.places[GAZ.places.place_rank == 26].to_dict("records")
_CITIES = GAZ.places[GAZ.places.place_rank == 16].to_dict("records")


def _typo(s: str, pos: int, kind: int) -> str:
    if not s:
        return s
    i = pos % len(s)
    return [s[:i] + "x" + s[i + 1:],          # substitution
            s[:i] + s[i + 1:],                 # deletion
            s[:i] + "e" + s[i:],               # insertion
            s[:i] + s[i + 1:i + 2] + s[i] + s[i + 2:]][kind]  # transposition


@st.composite
def _component_tuple(draw):
    """(street, housenumber, postcode, city, country) near a real street:
    language variants, bilingual and comma-joined forms, typos, empty
    fields, street-less queries, unknown postcodes, odd / out-of-range /
    suffixed / box house numbers."""
    s = _STREETS[draw(st.integers(0, len(_STREETS) - 1))]
    other = _CITIES[draw(st.integers(0, len(_CITIES) - 1))]
    lo, hi = (int(x) for x in s["house_numbers"].split("-"))
    street = draw(st.sampled_from([
        s["name"], s["name_fr"], s["name_nl"], s["street_name"],
        f"{s['name_fr']} - {s['name_nl']}", f"{s['name_nl']}, {s['name_fr']}",
        s["name"].upper(), "", "  ", "Rue", "zzz qqq"]))
    if draw(st.booleans()):
        street = _typo(street, draw(st.integers(0, 40)),
                       draw(st.integers(0, 3)))
    hn = draw(st.sampled_from([
        "", str(lo), str(hi), str(lo + 1), str(hi + 2), "0", "4a", "4 A",
        "30 bt 2", " 12 ", "999", "12/3", "0004",
        "123456789012345678901234567890"]))
    pc = draw(st.sampled_from([s["post_code"], "", "9999", other["post_code"],
                               f" {s['post_code']} "]))
    city = draw(st.sampled_from([s["post_name"], "", other["post_name"],
                                 s["post_name"].lower(), "Atlantis"]))
    country = draw(st.sampled_from(["Belgium", "", "belgique"]))
    return street, hn, pc, city, country


def _free_text(parts: tuple) -> str:
    street, hn, pc, city, country = parts
    return ", ".join(p for p in (street, hn, f"{pc} {city}".strip(), country)
                     if p.strip())


_BATCH = st.lists(_component_tuple(), min_size=1, max_size=12)
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def _per_query(q: np.ndarray, *cols: np.ndarray, n: int) -> list:
    return [list(zip(*(c[q == i].tolist() for c in cols))) for i in range(n)]


@_SETTINGS
@given(batch=_BATCH, namedetails=st.booleans())
def test_search_many_matches_per_query_search(batch, namedetails):
    q, rows, hns = GAZ.search_many(batch)
    got = _per_query(q, rows, hns, n=len(batch))
    for parts, cands in zip(batch, got):
        want = REF.search_structured(*parts, namedetails=namedetails)
        assert [GAZ.result(r, h, namedetails) for r, h in cands] == want
    # free text: the same rows through the parser
    texts = [_free_text(p) for p in batch]
    q, rows, hns = GAZ.search_many([GAZ.parse_parts(t) for t in texts],
                                   limit=3)
    got = _per_query(q, rows, hns, n=len(batch))
    for t, cands in zip(texts, got):
        assert [GAZ.result(r, h) for r, h in cands] == REF.search(t, limit=3)
        assert GAZ.search(t, limit=3) == REF.search(t, limit=3)


@_SETTINGS
@given(batch=_BATCH, limit=st.sampled_from([1, 5, 20]))
def test_fuzzy_many_matches_per_query_fuzzy(batch, limit):
    texts = [_free_text(p) for p in batch]
    texts += [t.replace(",", "") for t in texts]    # street-less parses
    q, rows = GAZ.fuzzy_many(texts, limit=limit)
    got = _per_query(q, GAZ.columns["place_id"][rows], n=len(texts))
    for t, pids in zip(texts, got):
        assert [p for (p,) in pids] == REF.fuzzy_ids(t, limit)


def test_fuzzy_retry_and_street_less_queries():
    s = _STREETS[3]
    texts = [f"{_typo(s['name'], 2, 0)}, 9999 Atlantis",   # retry path
             f"{s['name']}, 9999",                            # unknown pc
             f"{s['post_code']} {s['post_name']}",            # by postcode
             s["post_name"],                                  # by city name
             f"{s['name_nl'] or s['name']} - {s['name']}",
             ""]
    q, rows = GAZ.fuzzy_many(texts)
    pids = GAZ.columns["place_id"][rows]
    for i, t in enumerate(texts):
        assert pids[q == i].tolist() == REF.fuzzy_ids(t)
    assert (q == 0).any()                      # the retry found the street
    assert GAZ.fuzzy(texts[0])["features"][0]["properties"]["osm_id"] \
        in REF.fuzzy_ids(texts[0])


def test_fuzzy_vote_tie_at_the_cut_is_decided_by_place_id():
    """The 80th and 81st most-voted streets tie: the one with the lower
    place_id is verified, the other never is."""
    for text in ("Rue", "Rue de", "straat", "Avenue", "laan", "Chaussee"):
        pids_u, counts = REF.votes(REF.keys(text))
        c = np.sort(counts)[::-1]
        if len(c) > 80 and c[79] == c[80]:
            break
    else:
        pytest.fail("no query with a vote tie at the cut")
    for limit in (20, 80):
        q, rows = GAZ.fuzzy_many([text], limit=limit)
        got = GAZ.columns["place_id"][rows].tolist()
        assert got and got == REF.fuzzy_ids(text, limit)


@pytest.mark.parametrize("text", ["Rue", "Avenue Louise - Louizalaan",
                                  "straat", "Uccle", "Kw", "Fonsnylaan, Gare"])
def test_top_votes_are_the_reference_top_80(text):
    """Same streets as the per-query vote (np.unique + lexsort), also
    when fewer than 80 streets hold any of the trigrams."""
    keys = REF.keys(text)
    pids_u, counts = REF.votes(keys)
    want = sorted(pids_u[np.lexsort((pids_u, -counts))[:80]].tolist())
    tuple_id, s = GAZ._top_votes([tuple(keys)])
    assert (tuple_id == 0).all()
    got = GAZ.columns["place_id"][GAZ._street_rows[s]].tolist()
    assert got == want and 0 < len(got) <= 80


_KEYS = st.lists(st.text(alphabet="AB ", max_size=5), max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(items=st.lists(_KEYS, max_size=8), owners=st.lists(_KEYS, max_size=8),
       cells=st.integers(1, 40))
def test_trigram_votes_are_the_literal_count(items, owners, cells):
    """votes[o, i] = #(key of owner o, distinct trigram of it, key of item
    i holding it): keys repeated within an item or an owner count again,
    empty keys hold the one trigram "   ", owners without keys get 0."""
    index = TrigramIndex(items)
    index._VOTE_CELLS = cells      # many chunks, and one-row chunks
    got = np.zeros((len(owners), len(items)), np.int64)
    for first, votes in index.votes(owners):
        assert votes.shape[1] == len(items)
        assert votes.size <= max(cells, len(items))
        got[first:first + len(votes)] = votes
    want = [[sum(t in _trigrams(ik) for k in keys for t in _trigrams(k)
                 for ik in item) for item in items] for keys in owners]
    assert got.tolist() == want


def test_trigram_encoding():
    key, code = TrigramIndex.encode(["AB", "", "ZZZZ"])
    digit = {" ": 0, **{chr(65 + i): i + 1 for i in range(26)}}
    want = sorted((k, 729 * digit[t[0]] + 27 * digit[t[1]] + digit[t[2]])
                  for k, s in enumerate(["AB", "", "ZZZZ"])
                  for t in _trigrams(s))
    assert list(zip(key.tolist(), code.tolist())) == want
    assert code.max() < TrigramIndex.N_CODES == 27 ** 3
    for bad in ("rue", "RUE-", "RUE1", "ÉTÉ", "ŁÓDŹ", "A\tB"):
        with pytest.raises(ValueError):
            TrigramIndex.encode(["RUE", bad])


def test_building_ids_cannot_collide():
    # street 100000 hn 1002 and street 100001 hn 2 would both be 100001002
    with pytest.raises(ValueError, match="999"):
        GazetteerSpec(n_cities=4, base_streets=6, houses_per_street=2100)
    with pytest.raises(ValueError):
        GazetteerSpec(houses_per_street=1000)
    with pytest.raises(ValueError):
        GazetteerSpec(houses_per_street=1000).scaled(2.0)
    gaz = Gazetteer(GazetteerSpec(n_cities=4, base_streets=6,
                                  houses_per_street=999))
    streets = gaz.places[gaz.places.place_rank == 26]
    a, b = (int(p) for p in streets.place_id.head(2))
    assert gaz.details(a * 1000 + 998)["parent_place_id"] == a
    assert gaz.details(b * 1000 + 2)["parent_place_id"] == b
    assert gaz.details(a * 1000 + 998) != gaz.details(b * 1000 + 2)
    assert gaz.details(a * 1000 + 999)["category"] == "error"   # odd
    # a city id has no buildings
    city = int(gaz.places[gaz.places.place_rank == 16].place_id.iloc[0])
    assert gaz.details(city * 1000 + 2)["category"] == "error"


def _reference_frame(labels, parts, cfg) -> pd.DataFrame:
    rows = []
    for label, p in zip(labels, parts):
        rows += _shape_candidates(
            label, REF.search_structured(*p, limit=cfg.max_results,
                                         namedetails=cfg.check_results),
            with_json=cfg.with_candidate_json)
    cols = (["candidate_json"] if cfg.with_candidate_json else []) + _CAND_COLS
    return pd.DataFrame(rows, columns=cols)


@pytest.mark.parametrize("check_results", [True, False])
@pytest.mark.parametrize("with_json", [True, False])
def test_candidate_frame_matches_per_candidate_shaping(check_results,
                                                       with_json):
    """Free-text and structured queries give the rows, dtypes and (long
    mode) byte-identical candidate_json of the per-candidate shaping."""
    cfg = PipelineConfig(check_results=check_results,
                         with_candidate_json=with_json)
    addrs = make_addresses(150, spec=SPEC, seed=4)
    structured = list(zip(*(addrs[c].tolist() for c in INPUT_FIELDS)))
    structured += [("", "", "", s["post_name"], "") for s in _CITIES[:3]]
    labels = [f"q{i}" for i in range(len(structured))]
    texts = [_free_text(p) for p in structured]
    for lab, parts in ((labels, structured),
                       (texts, [GAZ.parse_parts(t) for t in texts])):
        lab, keep = np.unique(lab, return_index=True)
        lab, parts = list(lab), [parts[i] for i in keep]
        got = pd.DataFrame(_explode_candidates(lab, parts, GAZ, cfg)[1])
        want = _reference_frame(lab, parts, cfg)
        assert len(got) > 100 and (got["n_place_rank"] == 30).any()
        pd.testing.assert_frame_equal(got, want)


def test_osm_structured_batch_rows_unchanged():
    """An osm_structured cascade batch gives the rows recorded before the
    gazetteer was batched."""
    addrs = make_addresses(200, spec=SPEC, seed=21)
    cfg = PipelineConfig(osm_structured=True, with_cascade_memo=False)
    out = process_addresses_df(addrs.drop(columns=["truth_class",
                                                   "truth_street_place_id"]),
                               GAZ, AddressParser(), cfg)
    rows = json.dumps(out.to_dict("records"), sort_keys=True, default=str)
    assert len(out) == 787
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "e29643558cdd6bb7"
