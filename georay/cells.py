"""Hierarchical spatial cell indexes, from scratch (no h3/s2sphere in the
sandbox — SURVEY.md §7, "H3 from scratch" fallback design):

- ``hex_cell``  — an H3-style hexagonal tiling: pointy-top hexes in axial
  coordinates over (lon, lat) degree space, aperture-2 resolution ladder
  (edge halves per res).  Res 9 edge ≈ 0.0039° ≈ 430 m, i.e. an H3-res-9
  *equivalent* tile id with the H3 API surface (cell, center).
  True icosahedral H3 math is out of scope; self-consistency is
  cross-checked against the independent quadtree path below.
- ``quad_cell`` — an S2-style quadtree cell id: bit-interleaved (x, y) at a
  given level over the equirectangular projection, with exact hierarchical
  containment (parent = id >> 2).
- ``square_cell`` — a flat lat/lon grid id whose formula is expressible in
  ANSI SQL (floor arithmetic), used for the DuckDB-oracle-checked tile
  assignment / rollup queries.

All functions are vectorized numpy; they run inside ``map_batches`` fns.
"""

from __future__ import annotations

import numpy as np

HEX_BASE_EDGE_DEG = 2.0          # res-0 hex size (axial "size" parameter)
SQUARE_CELL_DEG = 0.05           # square grid pitch for the SQL-oracle path
_SQUARE_W = int(round(360.0 / SQUARE_CELL_DEG))  # grid width in cells

_SQRT3 = np.sqrt(3.0)


def _hex_size(res: int) -> float:
    return HEX_BASE_EDGE_DEG / (2.0 ** res)


def _axial_round(q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cube-round fractional axial coords to the containing hex center."""
    x = q
    z = r
    y = -x - z
    rx = np.rint(x)
    ry = np.rint(y)
    rz = np.rint(z)
    dx = np.abs(rx - x)
    dy = np.abs(ry - y)
    dz = np.abs(rz - z)
    fix_x = (dx > dy) & (dx > dz)
    fix_z = ~fix_x & (dz > dy)
    rx = np.where(fix_x, -ry - rz, rx)
    rz = np.where(fix_z, -rx - ry, rz)
    return rx.astype(np.int64), rz.astype(np.int64)


def _zigzag(v: np.ndarray) -> np.ndarray:
    return np.where(v >= 0, v * 2, -v * 2 - 1).astype(np.int64)


def _unzigzag(v: np.ndarray) -> np.ndarray:
    return np.where(v % 2 == 0, v // 2, -(v + 1) // 2).astype(np.int64)


def hex_cell(lat, lon, res: int = 9) -> np.ndarray:
    """Hex tile id for points: int64 packing (res << 56 | zq << 28 | zr)."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    s = _hex_size(res)
    q = (_SQRT3 / 3.0 * lon - lat / 3.0) / s
    r = (2.0 / 3.0 * lat) / s
    iq, ir = _axial_round(q, r)
    return (np.int64(res) << np.int64(56)) | (_zigzag(iq) << np.int64(28)) | _zigzag(ir)


def hex_cell_center(cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) center of hex cells (inverse of the axial transform)."""
    cell = np.asarray(cell, dtype=np.int64)
    res = (cell >> np.int64(56)).astype(np.int64)
    iq = _unzigzag((cell >> np.int64(28)) & np.int64((1 << 28) - 1))
    ir = _unzigzag(cell & np.int64((1 << 28) - 1))
    s = HEX_BASE_EDGE_DEG / (2.0 ** res)
    # invert: q = (sqrt3/3*lon - lat/3)/s, r = (2/3*lat)/s
    # => lat = 1.5*r*s ; lon = sqrt3*(q + r/2)*s
    lat = 1.5 * ir * s
    lon = _SQRT3 * (iq + ir / 2.0) * s
    return lat, lon


def quad_xy(lat, lon, level: int = 18) -> tuple[np.ndarray, np.ndarray]:
    """Equirectangular (x, y) grid coordinates at ``level`` (clipped)."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    n = np.int64(1) << np.int64(level)
    x = np.clip(((lon + 180.0) / 360.0 * n).astype(np.int64), 0, int(n) - 1)
    y = np.clip(((lat + 90.0) / 180.0 * n).astype(np.int64), 0, int(n) - 1)
    return x, y


def quad_from_xy(x: np.ndarray, y: np.ndarray, level: int) -> np.ndarray:
    """Interleave grid coords into the quadtree id (level in top 6 bits)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    code = np.zeros(len(x) if x.ndim else (), dtype=np.int64)
    for b in range(level):
        code |= ((x >> np.int64(b)) & np.int64(1)) << np.int64(2 * b)
        code |= ((y >> np.int64(b)) & np.int64(1)) << np.int64(2 * b + 1)
    return (np.int64(level) << np.int64(56)) | code


def quad_cell(lat, lon, level: int = 18) -> np.ndarray:
    """S2-style quadtree id: interleave bits of (x, y) grid coords at
    ``level`` over the equirectangular projection; level in the top 6 bits.
    Exact hierarchy: ``quad_parent`` strips one level."""
    x, y = quad_xy(lat, lon, level)
    return quad_from_xy(x, y, level)


_GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"


def geohash(lat, lon, precision: int = 7) -> np.ndarray:
    """Standard geohash (Niemeyer base-32, lon-first MSB bit interleave)
    at ``precision`` characters, fully vectorized — the third industry
    cell scheme next to the hex and quad ids, and like them replicated
    bit-for-bit by a SQL oracle.  For precision 7: 35 bits total, 18
    for longitude (it leads and takes the odd extra bit), 17 for
    latitude; grid math follows quad_cell's floor conventions."""
    lat = np.atleast_1d(np.asarray(lat, dtype=np.float64))
    lon = np.atleast_1d(np.asarray(lon, dtype=np.float64))
    if precision != 7:
        raise ValueError("only precision 7 is wired to the SQL oracle")
    nlon = np.int64(1) << np.int64(18)
    nlat = np.int64(1) << np.int64(17)
    x = np.clip(((lon + 180.0) / 360.0 * nlon).astype(np.int64),
                0, int(nlon) - 1)
    y = np.clip(((lat + 90.0) / 180.0 * nlat).astype(np.int64),
                0, int(nlat) - 1)
    code = np.zeros(len(x), dtype=np.int64)
    for i in range(17):
        code |= ((x >> np.int64(17 - i)) & np.int64(1)) << np.int64(34 - 2 * i)
        code |= ((y >> np.int64(16 - i)) & np.int64(1)) << np.int64(33 - 2 * i)
    code |= x & np.int64(1)
    cs = np.frombuffer(_GEOHASH32.encode(), dtype=np.uint8)
    shifts = np.array([5 * (precision - 1 - c) for c in range(precision)],
                      dtype=np.int64)
    idx = (code[:, None] >> shifts[None, :]) & np.int64(31)
    b = cs[idx].astype(np.uint8)
    return b.view(f"S{precision}").ravel().astype(str)


def quad_parent(cell: np.ndarray) -> np.ndarray:
    cell = np.asarray(cell, dtype=np.int64)
    level = (cell >> np.int64(56)).astype(np.int64)
    code = cell & np.int64((1 << 56) - 1)
    return ((level - 1) << np.int64(56)) | (code >> np.int64(2))


def compact_cells(cells: np.ndarray, stop_level: int = 0) -> np.ndarray:
    """Minimal mixed-level cover of the same area: repeatedly replace
    any 4 complete siblings with their parent (H3's ``compact`` /
    S2's ``S2CellUnion::Normalize`` semantics on the quadtree ids),
    never promoting ABOVE ``stop_level`` (a promotion from
    ``stop_level`` to ``stop_level - 1`` is suppressed, so a
    distributed caller can compact level-``stop_level`` subtrees
    independently and finish the bounded residue in one task).

    Input cells must be non-overlapping (all one level, or an existing
    disjoint cover); duplicates are deduped.  Pure int64 bit math —
    mirrored 1:1 by the unrolled SQL oracle (entrylib
    geo_quad_compact)."""
    cells = np.unique(np.asarray(cells, dtype=np.int64))
    if not len(cells):
        return cells
    mask = np.int64((1 << 56) - 1)
    top = int((cells >> np.int64(56)).max())
    for lvl in range(top, stop_level, -1):
        at = (cells >> np.int64(56)) == lvl
        cur = cells[at]
        if len(cur) < 4:
            continue
        par = ((np.int64(lvl - 1) << np.int64(56))
               | ((cur & mask) >> np.int64(2)))
        uniq, counts = np.unique(par, return_counts=True)
        full = uniq[counts == 4]
        if not len(full):
            continue
        promoted = np.isin(par, full)
        cells = np.unique(np.concatenate(
            [cells[~at], cur[~promoted], full]))
    return cells


def square_cell(lat, lon, pitch_deg: float = SQUARE_CELL_DEG) -> np.ndarray:
    """SQL-expressible grid id:
    ``floor((lat+90)/pitch) * (360/pitch) + floor((lon+180)/pitch)``.
    The DuckDB oracle reproduces this formula verbatim."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    w = int(round(360.0 / pitch_deg))
    y = np.floor((lat + 90.0) / pitch_deg).astype(np.int64)
    x = np.floor((lon + 180.0) / pitch_deg).astype(np.int64)
    return y * np.int64(w) + x


def hex_kring_offsets(k: int = 1) -> np.ndarray:
    """(m, 2) axial (dq, dr) offsets of the k-ring disc: hex distance
    (|dq|+|dr|+|dq+dr|)/2 <= k — 3k²+3k+1 cells (7 at k=1).  Row order
    is (dq, dr) lexicographic, deterministic."""
    rng = np.arange(-k, k + 1, dtype=np.int64)
    dq, dr = np.meshgrid(rng, rng, indexing="ij")
    dq = dq.ravel()
    dr = dr.ravel()
    dist = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
    m = dist <= k
    return np.stack([dq[m], dr[m]], axis=1)


def hex_kring(cell: np.ndarray, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Explode each cell id to its k-ring disc (including itself).
    Returns ``(centers, neighbors)`` — input cell repeated per disc
    member, and the member ids — pure int64 axial arithmetic (same
    zigzag packing as ``hex_cell``), so the SQL oracle can replicate
    membership exactly."""
    cell = np.asarray(cell, dtype=np.int64)
    res = cell >> np.int64(56)
    iq = _unzigzag((cell >> np.int64(28)) & np.int64((1 << 28) - 1))
    ir = _unzigzag(cell & np.int64((1 << 28) - 1))
    offs = hex_kring_offsets(k)
    m = len(offs)
    nq = iq[:, None] + offs[None, :, 0]
    nr = ir[:, None] + offs[None, :, 1]
    nbr = ((np.repeat(res, m).reshape(-1, m) << np.int64(56))
           | (_zigzag(nq) << np.int64(28)) | _zigzag(nr))
    return np.repeat(cell, m), nbr.ravel()


def hilbert_from_xy(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Hilbert-curve distance of grid coords at ``order`` bits per axis
    (the classic xy2d bit loop, vectorized: one pass per bit over the
    whole array).  Unlike the Z-order interleave of ``quad_cell``, the
    Hilbert curve has NO long jumps — consecutive ``d`` values are
    always grid-adjacent — so range-partitioning a dataset on ``d``
    yields spatially compact partitions (the locality key the 100-TB
    layout shuffles on).  Pure int64; the SQL oracle unrolls the same
    ``order`` iterations as chained CTE column updates."""
    x = np.asarray(x, dtype=np.int64).copy()
    y = np.asarray(y, dtype=np.int64).copy()
    n = np.int64(1) << np.int64(order)
    d = np.zeros_like(x)
    s = np.int64(1) << np.int64(order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate quadrant: if ry==0 then (flip when rx==1, then swap)
        flip = (ry == 0) & (rx == 1)
        xf = np.where(flip, n - 1 - x, x)
        yf = np.where(flip, n - 1 - y, y)
        swap = ry == 0
        x = np.where(swap, yf, xf)
        y = np.where(swap, xf, yf)
        s >>= np.int64(1)
    return d


def hilbert_to_xy(d: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``hilbert_from_xy`` (the classic d2xy loop,
    vectorized low-bit-first); used by the adjacency pytest to prove
    the no-long-jumps locality property end-to-end."""
    d = np.asarray(d, dtype=np.int64)
    t = d.copy()
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    s = np.int64(1)
    top = np.int64(1) << np.int64(order)
    while s < top:
        rx = np.int64(1) & (t // 2)
        ry = np.int64(1) & (t ^ rx)
        # rotate back
        flip = (ry == 0) & (rx == 1)
        xf = np.where(flip, s - 1 - x, x)
        yf = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x2 = np.where(swap, yf, xf)
        y2 = np.where(swap, xf, yf)
        x = x2 + s * rx
        y = y2 + s * ry
        t //= 4
        s <<= np.int64(1)
    return x, y
