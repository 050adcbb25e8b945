"""Deterministic synthetic Belgian-style gazetteer + in-process geocoder index.

The reference delegates geocoding to three sidecar services (Nominatim,
Photon, libpostal — /root/reference/base.py:74-272, docker-compose-full.yml).
The sandbox has no network, so the engine's geocoder stage is an in-actor
deterministic index (SURVEY.md §7): built once per process from a seeded
spec as a columnar place table (one numpy array per field) plus integer
indexes over its streets.  Lookups are batched over a batch's unique
queries and answer with int arrays of place rows:

- ``search_many(parts, limit)`` — Nominatim ``search.php`` /
  ``get_osm_struct`` analogue (base.py:74-173) over parsed component
  tuples → ``(query, place_row, house_number or -1)``: exact street-name
  hits, or the city for a street-less query; a clean, in-range, even
  house number turns a street hit into a virtual building.
- ``fuzzy_many(queries, limit)`` — Photon analogue (base.py:210-238):
  one dense trigram vote per distinct key tuple (``TrigramIndex``, the
  count filter the kNN rescue shares), an integer-coded
  location filter, then Jaro-Winkler verification of the top 80
  (MF-Join's cheap-filter-then-verify) → ``(query, place_row)``.

Candidates come back in a stable order: score desc, place_id asc (the
``photon_order`` tie-break).  One-query views over the same two
functions shape records like parsed Nominatim/Photon JSON for per-call
callers: ``search(free_text)``, ``search_structured(...)`` and
``fuzzy(q)``; ``details(place_id)`` is the ``details.php`` analogue
(base.py:178-207: parent_place_id, names, category; errors ->
{"category": "error", "names": {}} like the reference's error contract).

World model: cities on a jittered grid (Zipf-skewed street counts — hot
postal codes for the skew experiments), streets per city (French / Dutch /
bilingual names), buildings VIRTUAL: each street exposes a deterministic
set of house numbers; building place records (place_rank 30, parent =
street, ``place_id = street_id*1000 + house_number``) are derived on
demand so the index stays O(streets) per process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pandas as pd

from .textkernels import jaro_winkler, normalize_street

COUNTRY_NAMES = {"belgium", "belgique", "belgie", "belgië", "be"}

_FR_TYPES = ["Rue", "Avenue", "Chaussée", "Boulevard", "Place"]
_NL_SUFFIXES = ["straat", "laan", "steenweg", "weg"]
_STEMS = [
    "Louise", "Fonsny", "Royale", "Neuve", "Verte", "Haute", "Basse",
    "Clovis", "Berten", "Stephanie", "Fontaine", "Eglise", "Gare",
    "Moulin", "Pont", "Chateau", "Parc", "Midi", "Nord", "Brabant",
    "Flandre", "Wavre", "Namur", "Anvers", "Gand", "Mons", "Arlon",
    "Tournai", "Dinant", "Ixelles", "Uccle", "Forest", "Jette",
    "Laeken", "Molenbeek", "Schaerbeek", "Etterbeek", "Auderghem",
    "Waterloo", "Tervuren", "Leuven", "Mechelen", "Hasselt", "Genk",
    "Brugge", "Kortrijk", "Aalst", "Ninove", "Halle", "Vilvoorde",
]
_CITY_NAMES = [
    "Bruxelles", "Anvers", "Gand", "Charleroi", "Liège", "Bruges",
    "Namur", "Louvain", "Mons", "Malines", "Alost", "Tournai",
    "Genk", "Seraing", "Roulers", "Verviers", "Ostende", "Courtrai",
    "Hasselt", "Saint-Nicolas", "Ixelles", "Uccle", "Schaerbeek",
    "Anderlecht", "Forest", "Jette", "Etterbeek", "Evere", "Hal",
    "Vilvorde", "Wavre", "Arlon", "Dinant", "Bastogne", "Eupen",
    "Tongres", "Ypres", "Furnes", "Dixmude", "Nivelles",
]

LAT0, LAT1 = 49.6, 51.4
LON0, LON1 = 2.6, 6.3


@dataclass(frozen=True)
class GazetteerSpec:
    """Seeded sizing for the synthetic world; hashable = usable as a
    per-process cache key inside actors."""
    n_cities: int = 24
    base_streets: int = 30       # Zipf-scaled per city
    houses_per_street: int = 40  # virtual house numbers 1..N (even subset)
    seed: int = 42

    def __post_init__(self):
        # building ids pack the house number into three decimal digits
        # (street_id*1000 + hn; details() and the SQL oracle unpack them
        # with // 1000 and % 1000), so a larger one would collide with a
        # building of the next street
        if self.max_house_number > 999:
            raise ValueError(
                f"houses_per_street={self.houses_per_street} gives house "
                f"number {self.max_house_number}; building ids hold at "
                "most 999")

    @property
    def max_house_number(self) -> int:
        """Largest virtual house number of every street (evens 2..N)."""
        return 2 * max(2, self.houses_per_street // 2)

    def scaled(self, factor: float) -> "GazetteerSpec":
        return GazetteerSpec(
            n_cities=max(4, int(self.n_cities * factor ** 0.5)),
            base_streets=max(6, int(self.base_streets * factor ** 0.5)),
            houses_per_street=self.houses_per_street,
            seed=self.seed)


def build_gazetteer_tables(spec: GazetteerSpec) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Build (places, admin_boundaries) as flat DataFrames.

    places: city rows (place_rank 16) + street rows (place_rank 26).
    admin_boundaries: one hexagonal ring per city (FIXTURES.md §4).
    """
    rng = np.random.default_rng(spec.seed)
    n_city = spec.n_cities
    # jittered grid of city centers
    g = int(np.ceil(np.sqrt(n_city)))
    cells = rng.permutation(g * g)[:n_city]
    cy, cx = cells // g, cells % g
    lat = LAT0 + (cy + 0.5 + rng.uniform(-0.2, 0.2, n_city)) * (LAT1 - LAT0) / g
    lon = LON0 + (cx + 0.5 + rng.uniform(-0.2, 0.2, n_city)) * (LON1 - LON0) / g
    city_radius_deg = 0.35 * (LAT1 - LAT0) / g

    rows = []
    bnd = []
    pid_city = 1000
    pid_street = 100000
    for i in range(n_city):
        name = _CITY_NAMES[i % len(_CITY_NAMES)] + ("" if i < len(_CITY_NAMES) else f" {i // len(_CITY_NAMES) + 1}")
        pc = str(1000 + (i * 137) % 9000)
        city_id = pid_city + i
        city_kind = ["city", "town", "village"][i % 3]
        rows.append(dict(place_id=city_id, parent_place_id=0,
                         category="boundary", type="administrative",
                         name=name, name_fr="", name_nl="",
                         street_name="", house_numbers="",
                         post_code=pc, post_name=name,
                         country_name="Belgium", lat=float(lat[i]),
                         lon=float(lon[i]), place_rank=16,
                         city_kind=city_kind))
        # hexagonal admin ring
        ang = np.linspace(0, 2 * np.pi, 7)
        bnd.append(dict(admin_id=pc, post_code=pc, post_name=name,
                        ring_lat=(lat[i] + city_radius_deg * 1.4 * np.sin(ang)).tolist(),
                        ring_lon=(lon[i] + city_radius_deg * 1.4 * np.cos(ang) / np.cos(np.radians(lat[i]))).tolist()))

        # Zipf-skewed street count: city 0 is "hot" (skew experiments)
        n_str = max(4, int(spec.base_streets * n_city / (i + 1) ** 0.8 / 3))
        theta = rng.uniform(0, 2 * np.pi, n_str)
        rad = rng.uniform(0.05, 1.0, n_str) * city_radius_deg
        for j in range(n_str):
            stem = _STEMS[(i * 7 + j) % len(_STEMS)]
            variant = (i * 31 + j * 13) % 10
            fr = ""
            nl = ""
            if variant < 5:                       # French-only
                t = _FR_TYPES[j % len(_FR_TYPES)]
                fr = f"{t} {stem}" if variant % 2 else f"{t} de {stem}"
                primary, road = fr, fr
            elif variant < 7:                     # Dutch-only
                primary = f"{stem}{_NL_SUFFIXES[j % len(_NL_SUFFIXES)]}"
                nl, road = primary, primary
            elif variant < 9:                     # bilingual, road joined
                fr = f"{_FR_TYPES[j % len(_FR_TYPES)]} {stem}"
                nl = f"{stem}{_NL_SUFFIXES[j % len(_NL_SUFFIXES)]}"
                primary = fr
                road = f"{fr} - {nl}"
            else:                                 # bilingual, road NL-only
                fr = f"{_FR_TYPES[(j + 1) % len(_FR_TYPES)]} {stem}"
                nl = f"{stem}{_NL_SUFFIXES[(j + 1) % len(_NL_SUFFIXES)]}"
                primary = nl
                road = nl                         # parent-rescue exercise
            street_id = pid_street + i * 10000 + j
            # deterministic virtual house numbers: evens up to cap
            hn_max = spec.max_house_number
            slat = float(lat[i] + rad[j] * np.sin(theta[j]))
            slon = float(lon[i] + rad[j] * np.cos(theta[j]) / np.cos(np.radians(lat[i])))
            rows.append(dict(place_id=street_id, parent_place_id=city_id,
                             category="highway", type="residential",
                             name=primary, name_fr=fr, name_nl=nl,
                             street_name=road, house_numbers=f"2-{hn_max}",
                             post_code=pc, post_name=name,
                             country_name="Belgium", lat=slat, lon=slon,
                             place_rank=26, city_kind=city_kind))
    places = pd.DataFrame(rows)
    boundaries = pd.DataFrame(bnd)
    return places, boundaries


_PC_RE = re.compile(r"^([0-9]{4})\b[ ]*(.*)$")
_HN_RE = re.compile(r"^[0-9]+[a-zA-Z]?([ /._-]*(bt|bus|box|b)?[ ]*[0-9]*[a-zA-Z]?)?$")
_DIGITS_RE = re.compile(r"^([0-9]+)")


def _street_keys(street: str) -> tuple[str, ...]:
    """Normalized lookup keys of a street string: one per " - " or comma
    separated part (bilingual names), empty parts dropped, repeats kept
    (each repeat votes again in the fuzzy index)."""
    keys = []
    for part in re.sub(",", " - ", street or "").split(" - "):
        k = normalize_street(part)
        if k:
            keys.append(k)
    return tuple(keys)


def concat_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[start, start + len)``, concatenated."""
    ends = np.cumsum(lens)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + lens, lens))


# trigram digit of a character: " " -> 0, A-Z -> 1-26, anything else -1
# (every code point from "[" up is clipped onto the last slot)
_TRI_DIGIT = np.full(92, -1, np.int64)
_TRI_DIGIT[32] = 0
_TRI_DIGIT[65:91] = np.arange(1, 27)


class TrigramIndex:
    """Trigram postings over items that each own a tuple of keys, and
    the count filter over them (MF-Join's cheap filter before
    verification): how many trigrams each owner of query keys shares
    with each item.

    Keys are ``normalize_street`` output (" " and A-Z only), padded as
    ``"  " + key + " "``; a trigram is the integer
    ``729 d0 + 27 d1 + d2`` < 27**3 of its three digits.  The postings
    are CSR arrays with dense offsets over every code: one posting per
    (item key, distinct trigram of that key), repeats across an item's
    keys kept."""

    N_CODES = 27 ** 3
    _VOTE_CELLS = 1 << 15   # dense vote cells per chunk of owners

    def __init__(self, item_keys: list[tuple[str, ...]]):
        self.n_items = len(item_keys)
        item, code = self._tuple_codes(item_keys)
        self._post = item[np.argsort(code, kind="stable")]
        self._off = np.r_[0, np.cumsum(np.bincount(
            code, minlength=self.N_CODES))]

    @classmethod
    def encode(cls, keys: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(key, code) int arrays, one pair per distinct trigram of each
        of ``keys``, sorted by key then code.  Raises ValueError on a
        character outside " A-Z"."""
        chars = np.frombuffer("".join(f"  {k} " for k in keys)
                              .encode("utf-32-le"), np.uint32)
        digit = _TRI_DIGIT[np.minimum(chars, len(_TRI_DIGIT) - 1)]
        bad = np.flatnonzero(digit < 0)
        if len(bad):
            raise ValueError("trigram keys hold only ' ' and A-Z, not "
                             f"{chr(chars[bad[0]])!r}")
        n_tri = np.fromiter((len(k) + 1 for k in keys), np.int64, len(keys))
        pos = concat_ranges(np.cumsum(n_tri + 2) - n_tri - 2, n_tri)
        code = digit[pos] * 729 + digit[pos + 1] * 27 + digit[pos + 2]
        pair = np.unique(np.repeat(np.arange(len(keys)), n_tri)
                         * cls.N_CODES + code)
        return pair // cls.N_CODES, pair % cls.N_CODES

    @classmethod
    def _tuple_codes(cls, key_tuples: list[tuple[str, ...]]
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``encode`` over the keys of every tuple, with each pair's key
        replaced by the tuple that holds it."""
        n_keys = np.fromiter(map(len, key_tuples), np.int64, len(key_tuples))
        key, code = cls.encode([k for keys in key_tuples for k in keys])
        return np.repeat(np.arange(len(key_tuples)), n_keys)[key], code

    def votes(self, owner_keys: list[tuple[str, ...]]):
        """Yield ``(first, counts)`` per chunk of owners: ``counts[o, i]``
        is the number of (key of owner ``first + o``, distinct trigram of
        that key, posting of item ``i`` under it), a dense int64 matrix
        of at most ``_VOTE_CELLS`` cells (or one row, if that is more)."""
        owner, code = self._tuple_codes(owner_keys)
        n = self.n_items
        step = max(1, self._VOTE_CELLS // max(n, 1))
        for u0 in range(0, len(owner_keys), step):
            m = min(step, len(owner_keys) - u0)
            a, b = np.searchsorted(owner, [u0, u0 + m])
            starts = self._off[code[a:b]]
            lens = self._off[code[a:b] + 1] - starts
            cell = (np.repeat(owner[a:b] - u0, lens) * n
                    + self._post[concat_ranges(starts, lens)])
            yield u0, np.bincount(cell, minlength=m * n).reshape(m, n)


@lru_cache(maxsize=1 << 17)
def parse_free_text(q: str) -> dict[str, str]:
    """Heuristic free-text split into address components; the engine sends
    'street, housenbr, postcode city, country' (utils.py:639-646).
    Memoized (pure; span texts are Zipf-skewed) — callers must not
    mutate the returned dict (all engine callers only read)."""
    street = hn = pc = city = country = ""
    for seg in [s.strip() for s in (q or "").split(",") if s.strip()]:
        m = _PC_RE.match(seg)
        if m and not pc:
            pc, city = m.group(1), m.group(2).strip()
            continue
        if seg.lower() in COUNTRY_NAMES:
            country = seg
            continue
        if _HN_RE.match(seg) and not hn:
            hn = seg
            continue
        if not street:
            street = seg
        elif not city:
            city = seg
    # embedded house number inside the street segment:
    # "Avenue Fonsny 20" / "20 Avenue Fonsny" (Nominatim resolves these)
    if street and not hn:
        toks = street.split()
        if len(toks) > 1 and re.fullmatch(r"[0-9]+[a-zA-Z]?", toks[-1]):
            hn = toks[-1]
            street = " ".join(toks[:-1])
        elif len(toks) > 1 and re.fullmatch(r"[0-9]+[a-zA-Z]?", toks[0]):
            hn = toks[0]
            street = " ".join(toks[1:])
    return {"street": street, "housenumber": hn, "postcode": pc,
            "city": city, "country": country}


_PARTS = ("street", "housenumber", "postcode", "city", "country")


class Gazetteer:
    """The per-process geocoder index over the synthetic places table."""

    _CLEAN_HN_RE = re.compile(r"^([0-9]+)[a-zA-Z]?$")
    TOP_VOTES = 80        # fuzzy: streets verified per key tuple
    MIN_SIMILARITY = 0.82  # fuzzy: Jaro-Winkler acceptance threshold

    def __init__(self, spec: GazetteerSpec):
        self.spec = spec
        places, boundaries = build_gazetteer_tables(spec)
        self.places = places
        self.boundaries = boundaries

        # columnar place table: one array per field, indexed by place row
        # (the row of ``places``); object arrays for the strings
        cols = {c: places[c].to_numpy() for c in places.columns}
        n = len(places)
        rank = cols["place_rank"]
        lo = np.zeros(n, np.int64)
        hi = np.full(n, -1, np.int64)      # cities hold no house numbers
        for r, span in enumerate(cols["house_numbers"].tolist()):
            if span:
                a, b = span.split("-")
                lo[r], hi[r] = int(a), int(b)
        cols["hn_lo"], cols["hn_hi"] = lo, hi
        # display_name = ", ".join of the non-empty [head, house number,
        # tail]: head is a street's name, tail "postcode city, Belgium"
        cols["disp_head"] = np.array(
            [s if k >= 26 else "" for s, k in zip(cols["street_name"], rank)],
            dtype=object)
        cols["disp_tail"] = np.array(
            [", ".join(p for p in (f"{pc} {pn}", "Belgium") if p)
             for pc, pn in zip(cols["post_code"], cols["post_name"])],
            dtype=object)
        self.columns: dict[str, np.ndarray] = cols
        self._row_of: dict[int, int] = {
            pid: r for r, pid in enumerate(cols["place_id"].tolist())}

        # street index s: the street rows in place_id order, so sorting
        # by s is sorting by place_id (the candidate tie-break)
        streets = np.flatnonzero(rank == 26)
        streets = streets[np.argsort(cols["place_id"][streets],
                                     kind="stable")]
        self._street_rows = streets
        self._street_row_list = streets.tolist()
        n_s = len(streets)
        # exact index: (normalized street part, post_code) and (part,
        # normalized post_name) -> street indexes
        exact: dict[tuple[str, str], set[int]] = {}
        # location codes: post_code and normalized post_name as ints
        self._pc_code: dict[str, int] = {}
        self._city_code: dict[str, int] = {}
        self._s_pc = np.empty(n_s, np.int64)
        self._s_city = np.empty(n_s, np.int64)
        # fuzzy index: the trigrams of every street part (repeats
        # included) and each street's distinct normalized variants as
        # CSR arrays
        street_keys: list[tuple[str, ...]] = []
        var_id: dict[str, int] = {}
        var_ids: list[int] = []
        var_off = [0]
        for s, r in enumerate(self._street_row_list):
            pc = cols["post_code"][r]
            cityn = normalize_street(cols["post_name"][r])
            self._s_pc[s] = self._pc_code.setdefault(pc, len(self._pc_code))
            self._s_city[s] = self._city_code.setdefault(
                cityn, len(self._city_code))
            keys = tuple(k for v in {cols["name"][r], cols["name_fr"][r],
                                     cols["name_nl"][r],
                                     cols["street_name"][r]}
                         for k in _street_keys(v))
            street_keys.append(keys)
            for key in keys:
                exact.setdefault((key, pc), set()).add(s)
                exact.setdefault((key, cityn), set()).add(s)
            var_ids += [var_id.setdefault(k, len(var_id))
                        for k in sorted(set(keys))]
            var_off.append(len(var_ids))
        self._exact = {k: tuple(sorted(v)) for k, v in exact.items()}
        self._trigram_index = TrigramIndex(street_keys)
        self._var_ids = np.array(var_ids, np.int64)
        self._var_off = np.array(var_off, np.int64)
        self._var_str = list(var_id)

        self._city_by_pc: dict[str, int] = {}
        self._city_by_name: dict[str, int] = {}
        for r in np.flatnonzero(rank == 16).tolist():
            self._city_by_pc[cols["post_code"][r]] = r
            self._city_by_name[normalize_street(cols["post_name"][r])] = r

    # -- record views ------------------------------------------------------
    def _names(self, row: int) -> dict[str, str]:
        c = self.columns
        names = {}
        for key, col in (("name", "name"), ("name:fr", "name_fr"),
                         ("name:nl", "name_nl")):
            if c[col][row]:
                names[key] = c[col][row]
        return names

    def result(self, row: int, hn: int = -1,
               namedetails: bool = False) -> dict:
        """Place ``row`` (the virtual building ``hn`` of it when hn >= 0)
        shaped like a parsed Nominatim JSON item (fields kept by
        base.py:95-108 + address sub-dict)."""
        c = self.columns
        rank = int(c["place_rank"][row])
        address = {"country": c["country_name"][row], "country_code": "be",
                   "region": "Belgium",
                   c["city_kind"][row]: c["post_name"][row],
                   "postcode": c["post_code"][row]}
        if rank >= 26:
            address["road"] = c["street_name"][row]
        place_id = int(c["place_id"][row])
        lat, lon = float(c["lat"][row]), float(c["lon"][row])
        category, kind = c["category"][row], c["type"][row]
        hn_s = ""
        if hn >= 0:
            hn_s = address["house_number"] = str(hn)
            place_id = place_id * 1000 + hn
            dlat = 0.00005 * (hn - int(c["hn_lo"][row]))
            lat, lon = lat + dlat, lon + dlat
            rank, category, kind = 30, "building", "yes"
        out = {
            "place_id": place_id,
            "lat": lat,
            "lon": lon,
            "place_rank": rank,
            "display_name": ", ".join(
                p for p in (c["disp_head"][row], hn_s, c["disp_tail"][row])
                if p),
            "category": category,
            "type": kind,
            "importance": 0.5,
            "address": address,
        }
        if namedetails:
            out["namedetails"] = self._names(row)
        return out

    # -- batch lookups -----------------------------------------------------
    def parse_parts(self, q: str, use_cache: bool = True
                    ) -> tuple[str, str, str, str, str]:
        """The (street, housenumber, postcode, city, country) component
        tuple of a free-text query — the input of ``search_many``."""
        p = (parse_free_text(q) if use_cache
             else parse_free_text.__wrapped__(q))
        return tuple(p[k] for k in _PARTS)

    def _exact_hits(self, keys: tuple[str, ...], pcn: str,
                    cityn: str) -> set[int]:
        hit: set[int] = set()
        for k in keys:
            for loc in (pcn, cityn):
                if loc:
                    hit.update(self._exact.get((k, loc), ()))
        return hit

    def _house_number(self, housenumber: str) -> int:
        # Only *clean* house numbers resolve to a building — "30 bt 2" does
        # not (Nominatim behavior the low-place-rank retry exists for,
        # utils.py:225-299): such queries fall back to the street result.
        if not housenumber:
            return -1
        m = self._CLEAN_HN_RE.match(housenumber.strip())
        if not m:
            return -1
        hn = int(m.group(1))
        return hn if hn <= self.spec.max_house_number else -1

    def search_many(self, parts, limit: int = 50
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nominatim-style lookup of parsed component tuples
        (street, housenumber, postcode, city, country) →
        ``(query, place_row, house_number or -1)`` int arrays, grouped by
        query in input order, each query's candidates by place_id (every
        exact hit scores 1.0).

        A street query takes up to ``limit`` exact name hits in its
        postcode or city (strict about typos); the house number turns a
        hit into its virtual building when clean, in range and even.  A
        street-less query takes the city of its postcode, else of its
        city name (the ``get_osm_struct`` branch, base.py:117-173)."""
        qs: list[int] = []
        rows: list[int] = []
        hns: list[int] = []
        street_row = self._street_row_list
        for i, (street, housenumber, postcode, city, _) in enumerate(parts):
            street = (street or "").strip()
            pcn = (postcode or "").strip()
            if street:
                hit = sorted(self._exact_hits(
                    _street_keys(street), pcn,
                    normalize_street(city or "")))[:limit]
                if hit:
                    hn = self._house_number(housenumber)
                    qs += [i] * len(hit)
                    rows += [street_row[s] for s in hit]
                    hns += [hn] * len(hit)
                continue
            row = self._city_by_pc.get(pcn) if pcn else None
            if row is None:
                row = self._city_by_name.get(normalize_street(city or ""))
            if row is not None:
                qs.append(i)
                rows.append(row)
                hns.append(-1)
        q = np.array(qs, np.int64)
        row = np.array(rows, np.int64)
        hn = np.array(hns, np.int64)
        c = self.columns
        ok = (hn >= c["hn_lo"][row]) & (hn <= c["hn_hi"][row]) & (hn % 2 == 0)
        return q, row, np.where(ok, hn, -1)

    def _top_votes(self, key_tuples: list[tuple[str, ...]]
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Trigram vote of each key tuple over every street → the
        ``TOP_VOTES`` streets with the most votes per tuple (ties by
        place_id) as (tuple, street) pairs sorted by tuple then street.
        A tuple votes once per distinct trigram of each key, so a street
        gains one vote per (key, trigram, street part holding it)."""
        n_s, k_top = len(self._street_rows), self.TOP_VOTES
        out_u, out_s = [], []
        for u0, votes in self._trigram_index.votes(key_tuples):
            if n_s <= k_top:
                top = votes > 0
            else:
                # the k-th largest count per tuple; every count above it
                # is in, the ties at it are taken in place_id order
                kth = np.partition(votes, n_s - k_top, axis=1)[:, n_s - k_top]
                kth = np.maximum(kth, 1)[:, None]
                above = votes > kth
                tie = votes == kth
                room = k_top - above.sum(axis=1, keepdims=True)
                top = above | (tie & (np.cumsum(tie, axis=1) <= room))
            uu, ss = np.nonzero(top)
            out_u.append(uu + u0)
            out_s.append(ss)
        return np.concatenate(out_u), np.concatenate(out_s)

    def _score(self, best: np.ndarray, pair_u: np.ndarray,
               pair_s: np.ndarray, pairs: np.ndarray,
               key_tuples: list[tuple[str, ...]]) -> None:
        """``best[p]`` = the highest Jaro-Winkler similarity between a
        normalized variant of street ``pair_s[p]`` and a key of tuple
        ``pair_u[p]``, for each p in ``pairs``.  Each distinct
        (variant, key) pair is scored once, with the scalar kernel."""
        if not len(pairs):
            return
        key_id: dict[str, int] = {}
        flat = [key_id.setdefault(k, len(key_id))
                for keys in key_tuples for k in keys]
        n_key = np.array([len(keys) for keys in key_tuples], np.int64)
        key_off = np.cumsum(n_key) - n_key
        flat_a = np.array(flat, np.int64)
        u, s = pair_u[pairs], pair_s[pairs]
        var0 = self._var_off[s]
        nv, nk = self._var_off[s + 1] - var0, n_key[u]
        m = nv * nk
        first = np.cumsum(m) - m
        owner = np.repeat(np.arange(len(pairs)), m)
        local = np.arange(int(m.sum())) - first[owner]
        nk_o = nk[owner]
        var = self._var_ids[var0[owner] + local // nk_o]
        key = flat_a[key_off[u][owner] + local % nk_o]
        n_keys = len(key_id)
        code, inv = np.unique(var * n_keys + key, return_inverse=True)
        keys = list(key_id)
        var_str = self._var_str
        sim = np.array([jaro_winkler(var_str[c // n_keys], keys[c % n_keys])
                        for c in code.tolist()], np.float64)
        best[pairs] = np.maximum.reduceat(sim[inv], first)

    def fuzzy_many(self, queries, limit: int = 20, use_cache: bool = True
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Photon-style lookup of free-text queries → ``(query,
        place_row)`` int arrays, grouped by query in input order, each
        query's street candidates by score desc then place_id asc, at
        most ``limit`` per query.

        Per query: exact name hits in its postcode or city score 1.0.
        Without one, its key tuple's ``TOP_VOTES`` trigram-voted streets
        pass the location filter (same postcode or city name, or no
        location given) and score their best Jaro-Winkler similarity,
        kept from ``MIN_SIMILARITY`` up.  A query left without a
        candidate retries without the location filter, on the same
        vote.  ``use_cache`` picks the memoized free-text parser."""
        exact_q: list[int] = []
        exact_s: list[int] = []
        tuple_of: dict[tuple[str, ...], int] = {}
        fq, fu, fpc, fcity = [], [], [], []
        for i, q in enumerate(queries if limit > 0 else ()):
            street, _, postcode, city, _ = self.parse_parts(q, use_cache)
            keys = _street_keys(street or q)
            pcn = postcode.strip()
            cityn = normalize_street(city)
            hit = self._exact_hits(keys, pcn, cityn)
            if hit:
                exact_q += [i] * len(hit)
                exact_s += sorted(hit)
            elif keys:
                fq.append(i)
                fu.append(tuple_of.setdefault(keys, len(tuple_of)))
                # -2: no location given, -1: one no street has
                fpc.append(self._pc_code.get(pcn, -1) if pcn else -2)
                fcity.append(self._city_code.get(cityn, -1) if cityn else -2)
        q_all = [np.array(exact_q, np.int64)]
        s_all = [np.array(exact_s, np.int64)]
        score_all = [np.ones(len(exact_q))]
        if fq:
            key_tuples = list(tuple_of)
            pair_u, pair_s = self._top_votes(key_tuples)
            tuples = np.arange(len(key_tuples))
            u_start = np.searchsorted(pair_u, tuples)
            u_len = np.searchsorted(pair_u, tuples, side="right") - u_start
            fu_a = np.array(fu, np.int64)
            pair = concat_ranges(u_start[fu_a], u_len[fu_a])
            owner = np.repeat(np.arange(len(fq)), u_len[fu_a])
            s = pair_s[pair]
            qpc = np.array(fpc, np.int64)[owner]
            qcity = np.array(fcity, np.int64)[owner]
            located = (((qpc >= 0) & (self._s_pc[s] == qpc))
                       | ((qcity >= 0) & (self._s_city[s] == qcity))
                       | ((qpc == -2) & (qcity == -2)))
            best = np.full(len(pair_u), np.nan)
            self._score(best, pair_u, pair_s, np.unique(pair[located]),
                        key_tuples)
            first = located & (best[pair] >= self.MIN_SIMILARITY)
            found = np.bincount(owner[first], minlength=len(fq)) > 0
            retry = ~found[owner]
            self._score(best, pair_u, pair_s,
                        np.unique(pair[retry & np.isnan(best[pair])]),
                        key_tuples)
            keep = np.where(retry, best[pair] >= self.MIN_SIMILARITY, first)
            q_all.append(np.array(fq, np.int64)[owner[keep]])
            s_all.append(s[keep])
            score_all.append(best[pair[keep]])
        q, s, score = (np.concatenate(x) for x in (q_all, s_all, score_all))
        order = np.lexsort((s, -score, q))
        q, s = q[order], s[order]
        keep = np.arange(len(q)) - np.searchsorted(q, q) < limit
        return q[keep], self._street_rows[s[keep]]

    # -- one-query views ---------------------------------------------------
    def search_structured(self, street: str = "", housenumber: str = "",
                          postcode: str = "", city: str = "", country: str = "",
                          limit: int = 50, namedetails: bool = False
                          ) -> list[dict]:
        """Candidate records of one component query, in ``search_many``
        order — the engine's ``get_osm_struct`` (base.py:117-173)."""
        _, rows, hns = self.search_many(
            [(street, housenumber, postcode, city, country)], limit)
        return [self.result(r, h, namedetails)
                for r, h in zip(rows.tolist(), hns.tolist())]

    def search(self, q: str, limit: int = 50, namedetails: bool = False,
               use_cache: bool = True) -> list[dict]:
        """Candidate records of one free-text query (``search.php?q=``,
        base.py:74-112)."""
        return self.search_structured(*self.parse_parts(q, use_cache),
                                      limit=limit, namedetails=namedetails)

    def fuzzy(self, q: str, limit: int = 20,
              use_cache: bool = True) -> dict:
        """Photon analogue: GeoJSON-ish FeatureCollection with properties
        street/postcode/city/country/name, in ``fuzzy_many`` order."""
        _, rows = self.fuzzy_many([q], limit, use_cache)
        c = self.columns
        features = [{
            "type": "Feature",
            "properties": {
                "name": c["name"][r],
                "street": c["street_name"][r],
                "postcode": c["post_code"][r],
                "city": c["post_name"][r],
                "country": c["country_name"][r],
                "osm_id": int(c["place_id"][r]),
                "type": "street",
            },
            "geometry": {"type": "Point",
                         "coordinates": [float(c["lon"][r]),
                                         float(c["lat"][r])]},
        } for r in rows.tolist()]
        return {"type": "FeatureCollection", "features": features}

    def details(self, place_id: int) -> dict:
        """Parent/name details; unknown id -> error record
        (base.py:178-207 error contract)."""
        place_id = int(place_id)
        c = self.columns
        row = self._row_of.get(place_id)
        if row is not None:
            return {"place_id": place_id,
                    "parent_place_id": int(c["parent_place_id"][row]),
                    "category": c["category"][row],
                    "names": self._names(row)}
        row = self._row_of.get(place_id // 1000)
        hn = place_id % 1000
        if (row is not None and c["hn_lo"][row] <= hn <= c["hn_hi"][row]
                and hn % 2 == 0):
            return {"place_id": place_id, "parent_place_id": place_id // 1000,
                    "category": "building", "names": self._names(row)}
        return {"category": "error", "names": {}}


@lru_cache(maxsize=4)
def get_gazetteer(spec: GazetteerSpec) -> Gazetteer:
    """Per-process cache: actors in the same worker process share the index.

    The built index is ``gc.freeze()``-d immediately: it is immortal
    process state (millions of small dict/tuple objects), and any LATER
    allocation-heavy stage scheduled onto this worker would otherwise
    rescan it on every gen-2 collection.  Freezing here — not only in
    the cascade's GC mode switch — covers workers that build the index
    outside a cascade batch (warm-pool tasks, ad-hoc lookups): measured
    at 32 CPUs, a minhash stage running on warm-pool workers with an
    unfrozen index was 2-3x slower (11-15 s vs ~5 s)."""
    import gc
    g = Gazetteer(spec)
    gc.collect()
    gc.freeze()
    return g
