"""Rule-based libpostal-style address parser (the stateful parser stage).

The reference wraps ``postal.parser.parse_address`` behind a one-endpoint
REST service (/root/reference/libpostal_rest.py:34-49, base.py:241-272) and
loads a ~2 GB model per worker.  Here the parser is a deterministic rule
engine with the same *contract*: ``parse_address(text) -> list of
[value, label] pairs`` with labels road / house_number / postcode / city /
country / unit, consumed last-value-wins-per-label by the libpostal
transformer (transformers.py:287).

Used as actor state: compiled patterns live in the class, built once per
actor (``__init__``), applied per batch.
"""

from __future__ import annotations

import re

from .gazetteer import COUNTRY_NAMES

_PC = re.compile(r"^[0-9]{4}$")
_HN = re.compile(r"^([0-9]+)([a-zA-Z]|bis|ter)?$", re.I)
_UNIT_MARK = re.compile(r"^(bt|bus|box|bte|b)$", re.I)
_NUMERIC_TAIL = re.compile(r"^(.*?)[,\s]+([0-9]+[a-zA-Z]?)$")
_NUMERIC_HEAD = re.compile(r"^([0-9]+[a-zA-Z]?)[,\s]+(.*)$")
_STREET_WORD = re.compile(
    r"^(rue|avenue|av|chauss[ée]e|ch[ée]e|boulevard|bd|blvd|place|pl|square|all[ée]e|galerie|impasse|quai|chemin)\b"
    r"|.*(straat|laan|steenweg|weg|plein|dreef)$", re.I)


class AddressParser:
    """Stateless-by-construction but instantiated once per actor to mirror
    the model-loading pattern (SURVEY.md §2.3).

    A pure rule engine: the cascade memoizes ``parse`` through its
    world's parser memo (``memo.world_memo``), so callers must not mutate
    a returned list."""

    def parse(self, text: str | None) -> list[tuple[str, str]]:
        """Return [(value, label)] pairs, lowercased values like libpostal."""
        if not text:
            return []
        pairs: list[tuple[str, str]] = []
        segs = [s.strip() for s in str(text).split(",")]
        street_toks: list[str] = []
        city_toks: list[str] = []
        hn = unit = pc = country = ""
        seen_pc = False
        for seg in segs:
            if not seg:
                continue
            low = seg.lower()
            if low in COUNTRY_NAMES:
                country = low
                continue
            toks = seg.split()
            # postcode-led segment: "1060 Saint-Gilles"
            if _PC.match(toks[0]) and not seen_pc and (len(toks) == 1 or not _PC.match(toks[-1])):
                pc = toks[0]
                city_toks = [t.lower() for t in toks[1:]]
                seen_pc = True
                continue
            # bare house number segment (possibly with unit: "30 bt 2")
            i = 0
            consumed = True
            while i < len(toks):
                t = toks[i]
                if _HN.match(t) and not hn and i == 0 and len(toks) <= 3:
                    hn = t.lower()
                    i += 1
                    if i < len(toks) and _UNIT_MARK.match(toks[i]):
                        unit_toks = toks[i:]
                        unit = " ".join(x.lower() for x in unit_toks)
                        i = len(toks)
                    continue
                consumed = False
                break
            if consumed and hn:
                continue
            # street-ish segment, possibly with embedded number:
            # "Avenue Fonsny 20" / "20 Avenue Fonsny"
            m = _NUMERIC_TAIL.match(seg)
            if m and _STREET_WORD.match(m.group(1).strip().lower()):
                street_toks = m.group(1).strip().lower().split()
                if not hn:
                    hn = m.group(2).lower()
                continue
            m = _NUMERIC_HEAD.match(seg)
            if m and _STREET_WORD.match(m.group(2).strip().lower()):
                if not hn:
                    hn = m.group(1).lower()
                street_toks = m.group(2).strip().lower().split()
                continue
            if not street_toks and (_STREET_WORD.match(low) or not seen_pc):
                street_toks = [t.lower() for t in toks]
            elif not city_toks:
                city_toks = [t.lower() for t in toks]
        if street_toks:
            pairs.append((" ".join(street_toks), "road"))
        if hn:
            pairs.append((hn, "house_number"))
        if unit:
            pairs.append((unit, "unit"))
        if pc:
            pairs.append((pc, "postcode"))
        if city_toks:
            pairs.append((" ".join(city_toks), "city"))
        if country:
            pairs.append((country, "country"))
        return pairs
