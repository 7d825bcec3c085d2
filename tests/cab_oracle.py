"""Reference for ``cab.cab_partition_check``: the bitset scan it replaced.

For each level, base vertex x and y at distance i from x (in that order),
every vertex v of the cells C, A, B of the local graph at y is checked
against the first count row seen in its cell at that level, with Python
integers as bitsets.  The differential test in ``test_cab.py`` compares
whole reports against it.
"""

from typing import Dict, List, Optional

from bfs_oracle import bfs_distances
from drglab.cab import CabDeviation, CabLevelParams, CabReport
from drglab.errors import InputError, PreconditionError
from drglab.graph import Graph


def _distance_masks(g: Graph, x: int, cache: Dict[int, List[int]]) -> List[int]:
    if x not in cache:
        dist = bfs_distances(g, x)
        masks = [0] * (max(dist) + 2)
        for v, d in enumerate(dist):
            masks[d] |= 1 << v
        cache[x] = masks
    return cache[x]


def cab_partition_check(g: Graph, i_max: Optional[int] = None) -> CabReport:
    """Check the three-cell local partitions are equitable with
    pair-independent parameters at every level 1..i_max.

    ``i_max`` defaults to the diameter.  At the top level the B cell is empty
    and only (gamma, alpha) are constrained.
    """
    rows = g.bitrows()
    deg0 = g.degree(0)
    if any(g.degree(v) != deg0 for v in range(g.n)):
        raise PreconditionError("graph is not regular")
    if not any(rows[u] & rows[v] for u, v in g.edges()):
        raise PreconditionError("a_1 = 0: local graphs are edgeless, partition degenerates")
    D = g.diameter()
    levels = list(range(1, (i_max if i_max is not None else D) + 1))
    cache: Dict[int, List[int]] = {}
    out_levels = []
    pairs_total = 0
    for i in levels:
        if not 1 <= i <= D:
            raise InputError(f"level {i} outside 1..{D}")
        params = None
        for x in range(g.n):
            masks = _distance_masks(g, x, cache)
            sphere = masks[i]
            y = -1
            while True:
                nxt = sphere >> (y + 1)
                if nxt == 0:
                    break
                y += 1 + (nxt & -nxt).bit_length() - 1
                pairs_total += 1
                ny = rows[y]
                cmask = ny & masks[i - 1]
                amask = ny & masks[i]
                bmask = ny & (masks[i + 1] if i + 1 < len(masks) else 0)
                if params is None:
                    params = {}
                for name, mask in (("C", cmask), ("A", amask), ("B", bmask)):
                    m = mask
                    while m:
                        v = (m & -m).bit_length() - 1
                        m &= m - 1
                        nv = rows[v]
                        counts = (
                            (nv & cmask).bit_count(),
                            (nv & amask).bit_count(),
                            (nv & bmask).bit_count(),
                        )
                        prev = params.setdefault(name, counts)
                        if prev != counts:
                            return CabReport(
                                False, tuple(out_levels),
                                CabDeviation(i, x, y, v, counts, prev,
                                             f"counts differ within cell {name}"),
                                pairs_total)
        params = params or {}
        gamma = params["C"][0] if "C" in params else 0
        alpha = params["A"][0] if "A" in params else None
        beta = params["A"][2] if "A" in params else None
        delta = params["B"][1] if "B" in params else None
        out_levels.append(CabLevelParams(i, gamma, alpha, beta, delta))
    return CabReport(True, tuple(out_levels), None, pairs_total)
