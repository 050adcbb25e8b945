"""SQL renderings of the comparator kernels (compare.py) for the DuckDB
oracles: every helper returns a single inline SQL *expression* string (no
macros, no extra statements) so the oracle stays one SELECT — the driver
executes oracle SQL as a single statement.

Semantics mirror compare.py op-for-op, which itself pins the reference
(/root/reference/check_result_utils.py):

- ``sql_street_sim``      — the 12-way max street similarity
  (split on ","/" - ", normalize, stripped Damerau-Levenshtein,
  inclusion test, fingerprint-Levenshtein; compare.py:86-117)
- ``sql_street_priority`` — the short-circuiting field-priority fold
  over (o_street_name, o_other='', n_namedetails) (compare.py:215-228)
- ``sql_hn_sim`` / ``sql_pc_sim`` / ``sql_city_sim`` — the scalar
  comparators (compare.py:131-166)
- ``sql_elimination``     — the elimination rule (compare.py:240,
  check_result_utils.py:532)
- ``sql_haversine_km``    — geom.haversine_km's exact formula

Bit-parity with the Python kernels is pinned by tests/test_comparesql.py
(fuzzed over accents/commas/bilingual splits) — DuckDB's builtin
``damerau_levenshtein`` matches textkernels.damerau_levenshtein
(unrestricted DL) and ``strip_accents(upper(x))`` matches
``remove_accents(x.upper())`` on the synth vocabulary.

Arguments are SQL expression strings; pass short column refs or lambda
variables (expressions are substituted textually, several times each).
"""

from __future__ import annotations

THRESHOLD = "0.5"  # config.SIMILARITY_THRESHOLD


def sql_norm(s: str) -> str:
    """normalize_street: upper, deaccent, non-[A-Z ] runs -> space,
    squeeze, strip (textkernels.py:131-140)."""
    return ("trim(regexp_replace(regexp_replace(strip_accents(upper("
            f"coalesce({s},''))), '[^A-Z ]+', ' ', 'g'), ' +', ' ', 'g')"
            ", ' ')")


def sql_strip_words(s: str) -> str:
    """_strip_street_words on an already-normalized ([A-Z ]-only) string
    (compare.py:40-57); the paren rule is a no-op on normalized input."""
    return ("trim(regexp_replace(regexp_replace(regexp_replace("
            f"{s}, '\\b(AVENUE|RUE|CHAUSSEE|BOULEVARD|PLACE)\\b', '', 'g')"
            ", '(STRAAT|LAAN|STEENWEG|WEG)\\b', '', 'g'), ' [ ]+', ' ', "
            "'g'), ' ')")


def sql_fingerprint(s: str) -> str:
    """fingerprint of a normalized string: sorted distinct tokens
    (textkernels.py:112-124)."""
    return (f"case when {s} = '' then '' else array_to_string(list_sort("
            f"list_distinct(string_split({s}, ' '))), ' ') end")


def sql_lev_or_one(a: str, b: str) -> str:
    """_lev_or_one: both-empty -> 1, else 1 - DL/max(len)
    (compare.py:70-75)."""
    return (f"case when {a} = '' and {b} = '' then 1.0::DOUBLE "
            f"else 1.0 - damerau_levenshtein({a}, {b}) / "
            f"greatest(length({a}), length({b})) end")


def _sql_prefix_len(a: str, b: str) -> str:
    return (f"coalesce(list_max([i for i in range(1, least(length({a}), "
            f"length({b}))+1) if left({a}, i) = left({b}, i)]), 0)")


def sql_inclusion_or_one(a: str, b: str) -> str:
    """_inc_or_one: both-empty -> 1, else inclusion_test
    (textkernels.py:100-108, compare.py:78-80)."""
    p = _sql_prefix_len(a, b)
    ps = _sql_prefix_len(f"reverse({a})", f"reverse({b})")
    return (f"case when {a} = '' and {b} = '' then 1.0::DOUBLE "
            f"when {p} > 0 and {ps} > 0 and {p} + {ps} >= "
            f"least(length({a}), length({b})) then 1.0::DOUBLE "
            "else 0.0::DOUBLE end")


def _sql_pair_score(pa: str, pb: str) -> str:
    """max of the three measures for ONE normalized part pair."""
    lev = sql_lev_or_one(sql_strip_words(pa), sql_strip_words(pb))
    inc = sql_inclusion_or_one(pa, pb)
    fp = sql_lev_or_one(sql_strip_words(sql_fingerprint(pa)),
                        sql_strip_words(sql_fingerprint(pb)))
    return f"greatest({lev}, {inc}, {fp})"


def sql_parts(s: str) -> str:
    """_street_parts: ','->' - ', split, normalize each part
    (compare.py:61-67)."""
    return (f"list_transform(string_split(regexp_replace(coalesce({s}, "
            "''), ',', ' - ', 'g'), ' - '), gp -> " + sql_norm("gp") + ")")


def sql_street_sim(a: str, b: str) -> str:
    """street_similarity(a, b): 12-way max over part pairs
    (compare.py:86-117)."""
    return ("list_max(flatten(list_transform(" + sql_parts(a) +
            ", ga -> list_transform(" + sql_parts(b) + ", gb -> " +
            _sql_pair_score("ga", "gb") + "))))")


def sql_street_priority(s1: str, s2: str, s3: str,
                        threshold: str = THRESHOLD) -> tuple[str, str]:
    """The short-circuit fold over candidate street fields: final score is
    the first field reaching >= threshold, else the LAST field's score;
    ``which`` is the stopping field's name (compare.py:215-228).  Returns
    (sim_expr, which_expr) over three precomputed score expressions."""
    sim = (f"case when {s1} >= {threshold} then {s1} "
           f"when {s2} >= {threshold} then {s2} else {s3} end")
    which = (f"case when {s1} >= {threshold} then 'o_street_name' "
             f"when {s2} >= {threshold} then 'o_other' "
             "else 'n_namedetails' end")
    return sim, which


def sql_hn_sim(n1: str, n2: str) -> str:
    """house_number_similarity (compare.py:131-148); inputs are raw —
    trimmed here.  Python list index k maps to DuckDB [k+1]."""
    a, b = f"trim(coalesce({n1},''),' ')", f"trim(coalesce({n2},''),' ')"
    pa, pb = (f"string_split_regex({a},'[^0-9]')",
              f"string_split_regex({b},'[^0-9]')")
    return f"""case
      when {a} = {b} and length({a}) > 0 then 1.0::DOUBLE
      when length({pb}) > 1 and {pa}[1] = {pb}[2] and length({pb}[2]) > 0
        then 0.8::DOUBLE
      when length({pa}) > 1 and {pa}[2] = {pb}[1] and length({pa}[2]) > 0
        then 0.8::DOUBLE
      when regexp_replace({a},'[^0-9]','','g') =
           regexp_replace({b},'[^0-9]','','g')
           and length({a}) > 0 and length({b}) > 0 then 0.5::DOUBLE
      else 0.0::DOUBLE end"""


def sql_pc_sim(s1: str, s2: str) -> str:
    """postcode_similarity after '^[A-Z]-?' prefix strip
    (compare.py:151-166)."""
    a = f"regexp_replace(coalesce({s1},''), '^[A-Z]-?', '')"
    b = f"regexp_replace(coalesce({s2},''), '^[A-Z]-?', '')"
    return f"""case
      when {a} = {b} then 1.0::DOUBLE
      when length({a}) = 0 or length({b}) = 0 then 0.1::DOUBLE
      when substr({a},1,2) = substr({b},1,2) then 0.5::DOUBLE
      when substr({a},1,1) = substr({b},1,1) then 0.3::DOUBLE
      else 0.0::DOUBLE end"""


def sql_city_norm(s: str) -> str:
    """_city_norm: upper, deaccent, strip, squeeze 2+ spaces
    (compare.py:119-121)."""
    return ("regexp_replace(trim(strip_accents(upper(coalesce("
            f"{s},''))), ' '), ' [ ]+', ' ', 'g')")


def sql_city_sim(a: str, b: str) -> str:
    """city_similarity = levenshtein_similarity of city-normalized forms;
    NOTE both-empty -> 0.0 here (textkernels.levenshtein_similarity),
    unlike the street legs' _lev_or_one."""
    na, nb = sql_city_norm(a), sql_city_norm(b)
    return (f"case when {na} = '' and {nb} = '' then 0.0::DOUBLE "
            f"when {na} = {nb} then 1.0::DOUBLE "
            f"else 1.0 - damerau_levenshtein({na}, {nb}) / "
            f"greatest(length({na}), length({nb})) end")


def sql_elimination(sim_street: str, sim_pc: str, sim_city: str,
                    threshold: str = THRESHOLD) -> str:
    """The elimination rule (check_result_utils.py:532): boolean expr."""
    return (f"(({sim_pc} < 0.1 and {sim_city} < {threshold}) "
            f"or {sim_street} < {threshold})")


def sql_haversine_km(lat1: str, lon1: str, lat2: str, lon2: str) -> str:
    """geom.haversine_km's formula, term-for-term (mean radius
    6371.0088 km, clamp to [0,1])."""
    return (f"2*6371.0088*asin(sqrt(least(greatest("
            f"pow(sin((radians({lat2})-radians({lat1}))/2),2) + "
            f"cos(radians({lat1}))*cos(radians({lat2}))*"
            f"pow(sin((radians({lon2})-radians({lon1}))/2),2)"
            ", 0.0), 1.0)))")


def sql_candidate_fields(gaz: str, pid: str = "s.m_place_id") -> str:
    """SELECT-fragment deriving a candidate's compare-time fields from the
    raw gazetteer by place id (``Gazetteer.result`` +
    ``cascade._place_columns`` / ``_explode_candidates``): rank>=26 -> road =
    street_name; rank 30 (synthesized buildings, NOT rows of the parquet:
    place_id = street_id*1000 + house number, lat/lon = street + 5e-5 *
    (hn - lo), as ``Gazetteer.result`` derives them) resolved via the
    parent street row;
    namedetails only for highways, joined 'name - name:fr - name:nl';
    o_other is always '' in the synth world (address dict minus
    DROP_ADDR_ITEMS minus picked values is empty).

    Emits columns cand_street, cand_hn, cand_pc, cand_city, cand_named,
    cand_lat, cand_lon.  Callers must LEFT JOIN ``{gaz}`` as ``g`` on
    ``g.place_id = {pid}`` and as ``g2`` on ``g2.place_id = {pid} //
    1000`` (g2 only resolves for synthesized buildings)."""
    lo = "cast(string_split(g2.house_numbers,'-')[1] as bigint)"
    return f"""
      case when g.place_id is null then g2.street_name
           when g.place_rank >= 26 then g.street_name else '' end
        as cand_street,
      case when g.place_id is null
           then cast({pid} % 1000 as varchar) else '' end as cand_hn,
      coalesce(g.post_code, g2.post_code) as cand_pc,
      coalesce(g.post_name, g2.post_name) as cand_city,
      case when g.place_id is not null and g.category = 'highway'
           then concat_ws(' - ', nullif(g.name,''), nullif(g.name_fr,''),
                          nullif(g.name_nl,''))
           else '' end as cand_named,
      case when g.place_id is null
           then g2.lat + 0.00005*(({pid} % 1000) - {lo})
           else g.lat end as cand_lat,
      case when g.place_id is null
           then g2.lon + 0.00005*(({pid} % 1000) - {lo})
           else g.lon end as cand_lon"""
