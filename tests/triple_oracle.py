"""Reference for ``graph.triple_intersection_number``: the bitset loop it
replaced.  For every edge x ~ y (x < y) and every z at distance 2 from both,
the common neighbours of x, y and z are counted with Python integers as
bitsets.  The differential tests in ``test_local.py`` compare results and
errors against it.
"""

from typing import Optional

from drglab.errors import InputError
from drglab.graph import Graph, _row_ints


def triple_intersection_number(g: Graph) -> Optional[int]:
    rows = g.bitrows()
    dist2 = _row_ints(g.distance_matrix() == 2)
    gamma = None
    for x, y in g.edges():
        common_xy = rows[x] & rows[y]
        m = dist2[x] & dist2[y]
        while m:
            z = (m & -m).bit_length() - 1
            m &= m - 1
            val = (common_xy & rows[z]).bit_count()
            if gamma is None:
                gamma = val
            elif gamma != val:
                return None
    if gamma is None:
        raise InputError("no triple (x~y, z at distance 2 from both) exists")
    return gamma
