"""Pipeline configuration: cascade spec, regex rule tables, thresholds,
collapse (coalesce) mapping.

Semantics mirror the reference's ``config.py`` (/root/reference/config.py):
field names :62-67, regex rule sets :71-96, similarity threshold :100,
transformer cascade :102-112, collapse mapping :115-122.  The engine uses
flat single-level column names (SURVEY.md §1.4: flat columns internally,
structs only at the sink).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Flat column names (reference uses a 2-level MultiIndex; we flatten).
# input.* namespace
ADDR_KEY = "addr_key"
STREET = "street_name"
HOUSENBR = "house_number"
POSTCODE = "post_code"
CITY = "post_name"
COUNTRY = "country_name"
INPUT_FIELDS = [STREET, HOUSENBR, POSTCODE, CITY, COUNTRY]

# metadata.* namespace
M_METHOD = "m_method"
M_OSM_ORDER = "m_osm_order"
M_PLACE_RANK = "m_place_rank"
M_PLACE_ID = "m_place_id"
M_REJECT_REASON = "m_reject_reason"
M_DIST_TO_MATCH = "m_distance_to_match"
M_TRANSFORMED = "m_transformed_address"
M_CLEANSED_HN = "m_match_on_cleansed_house_number"
# compare-time echo (round 5): the EXACT four input strings the comparator
# saw for this row's cascade step — originals for the identity transform,
# blanked fields for nonum/nostreet, libpostal/photon/regex outputs for
# transformer steps, and the digits-only retry house number for
# cleansed-hn matches.  Echoing them onto every candidate row makes every
# cascade method SQL-scorable (the adjudication / match-selection oracles
# read them as snapshot parameters instead of re-deriving inputs from the
# raw address table, which was only possible for orig/nonum/nostreet).
M_CMP_STREET = "m_cmp_street_name"
M_CMP_HOUSENBR = "m_cmp_house_number"
M_CMP_POSTCODE = "m_cmp_post_code"
M_CMP_CITY = "m_cmp_post_name"
CMP_FIELDS = [M_CMP_STREET, M_CMP_HOUSENBR, M_CMP_POSTCODE, M_CMP_CITY]

# output.* namespace
O_STREET = "o_street_name"
O_HOUSENBR = "o_house_number"
O_POSTCODE = "o_post_code"
O_CITY = "o_post_name"
O_COUNTRY = "o_country_name"
O_OTHER = "o_other"
O_DISPLAY = "o_display_name"
O_LAT = "o_lat"
O_LON = "o_lon"
O_IN_HOUSENBR = "o_in_house_number"
O_LPOST_HN = "o_lpost_house_number"
O_LPOST_UNIT = "o_lpost_unit"

# check.* namespace
C_SIM_STREET = "c_sim_street"
C_SIM_STREET_WHICH = "c_sim_street_which"
C_SIM_HOUSENBR = "c_sim_house_number"
C_SIM_POSTCODE = "c_sim_post_code"
C_SIM_CITY = "c_sim_city"

# spatial layer (net-new, north rule)
T_HEX_CELL = "hex_cell"      # H3-style res-9 hex tile id
T_QUAD_CELL = "quad_cell"    # S2-style quadtree cell id (cross-check)
T_PIP_OK = "pip_ok"          # point-in-polygon validation flag

STATUS = "status"            # match | reject | unmatched


# ---------------------------------------------------------------------------
# Regex rule sets — semantics of /root/reference/config.py:71-96.
# Each rule: (field, pattern, replacement) applied in list order
# (transformers.py:350 applies sequentially).
REGEX_REPLACEMENTS: dict[str, list[tuple[str, str, str]]] = {
    "init": [
        # "(AVE ...)" parenthetical moved to front  (config.py:73-74)
        (STREET,
         r"^(.+)\(((AV[E .]|CH[A .]|RUE|BOU|B[LVD]+|PL[A .]|SQ|ALL|GAL)[^\)]*)\)$",
         r"\g<2> \g<1>"),
        # strip trailing SN/ZN  (config.py:75)
        (STREET, r"[, ]*(SN|ZN)$", ""),
        # "' " -> "'"  (config.py:76)
        (STREET, r"' ", "'"),
        # drop trailing parenthetical  (config.py:77)
        (STREET, r"\(.+\)$", ""),
    ],
    "lpost": [
        # keep only leading digits of house number  (config.py:81)
        (HOUSENBR, r"^([0-9]*)(.*)$", r"\g<1>"),
        # abbreviation expansion  (config.py:85-88)
        (STREET, r"^r[\. ]", "rue "),
        (STREET, r"^av[\. ]", "avenue "),
        (STREET, r"^ch([ée]e)?[\. ]", "chaussée "),
        (STREET, r"^b[lvd]{0,3}[\. ]", "boulevard "),
        # "rue d anvers" -> "rue d'anvers"  (config.py:91-94)
        (STREET, r"(avenue|rue|chauss[ée]e|boulevard) d ", r"\g<1> d'"),
        (STREET, r"(avenue|rue|chauss[ée]e|boulevard) de l ", r"\g<1> de l'"),
        (STREET, " de l ", " de l'"),
    ],
}

SIMILARITY_THRESHOLD = 0.5  # config.py:100

# The 10-step transformer cascade (config.py:102-112).
DEFAULT_CASCADE: list[list[str]] = [
    ["orig"],
    ["regex[init]"],
    ["libpostal", "regex[lpost]"],
    ["libpostal", "regex[lpost]", "photon"],
    ["nonum"],
    ["libpostal", "regex[lpost]", "nonum"],
    ["libpostal", "regex[lpost]", "photon", "nonum"],
    ["photon"],
    ["photon", "nonum"],
    ["nostreet"],
]

# Nominatim-field → output-field coalesce mapping (config.py:115-122).
COLLAPSE_PARAMS: dict[str, list[str]] = {
    O_STREET: ["road", "pedestrian", "footway", "cycleway", "path",
               "address27", "construction", "hamlet", "park", "square"],
    O_CITY: ["town", "village", "city_district", "county", "city"],
    O_HOUSENBR: ["house_number"],
    O_COUNTRY: ["country"],
    O_POSTCODE: ["postcode"],
}

# address sub-keys always dropped from the "other" pool (utils.py:521-523)
DROP_ADDR_ITEMS = ["country_code", "region"]

MAX_OSM_RESULTS = 50  # candidate fan-out cap, base.py:97 (limit=50)


@dataclass
class PipelineConfig:
    """Declarative knobs for a cascade run (SURVEY.md §2.9)."""

    cascade: list[list[str]] = field(
        default_factory=lambda: [list(s) for s in DEFAULT_CASCADE])
    regex_replacements: dict[str, list[tuple[str, str, str]]] = field(
        default_factory=lambda: {k: list(v) for k, v in REGEX_REPLACEMENTS.items()})
    similarity_threshold: float = SIMILARITY_THRESHOLD
    check_results: bool = True          # nominatimwrapper "checkResult"
    check_with_transformed: bool = True  # config.py:14
    photon_check_results: bool = True    # config.py:20
    osm_structured: bool = False         # config.py:24
    with_cleansed_number_on_26: bool = True  # config.py:28
    use_osm_parent: bool = True          # config.py:30
    with_extra_house_number: bool = True
    with_candidate_json: bool = False  # long-mode full-fidelity tail:
                                       # raw shaped candidate as JSON
                                       # (SURVEY §1.4 candidate_json)
    # Per-worker memo switches (``georay.memo``; off = cap 0, outputs
    # unchanged).  with_cascade_memo: the cascade's result store (rows per
    # distinct five-field tuple and config); off, every row pays the whole
    # cascade.  with_worker_memos: the photon (candidates per free-text
    # query), parser (AddressParser.parse per text) and kNN rescue (top-k
    # per street and postcode prefix) memos, and the parse_free_text cache
    # choice; off, every row pays the full probe (the cache-neutral
    # scaling ladder, where per-worker hit rates depend on each worker's
    # share of a toy corpus).  Pure-function caches stay on in both modes:
    # the lru_caches in compare.py and textkernels.py, and clean_addr_in.
    with_cascade_memo: bool = True
    with_worker_memos: bool = True
    with_rejected: bool = True     # REST default is false for batch
                                   # (nominatimwrapper withRejected);
                                   # True keeps full reject rows
    max_results: int = MAX_OSM_RESULTS
    # spatial layer
    hex_res: int = 9
    quad_level: int = 18
