"""Reference for ``homogeneous.local_spectral_checks`` and
``graph.c2_regularity_report``: the routes they replaced.

- ``local_spectral_checks`` builds every local graph, certifies each one
  with ``srg_from_graph`` (its own distance-regularity check), and reads the
  smallest local eigenvalue from the characteristic polynomial of the local
  graph at vertex 0, so it raises ResourceError above valency
  ``SPECTRUM_EXACT_CAP``.
- ``c2_regularity_report`` lists each mu-graph's vertices and collects their
  degrees in the mu-graph with Python integers as bitsets, and searches a
  largest coclique of every mu-graph.
- ``common_neighbourhoods`` is the pair-by-pair lambda- and mu-graph survey
  that ``graph._common_neighbourhoods`` replaced: one Python popcount per
  vertex of every common neighbourhood.
- ``clique_union_structure`` tells whether a graph is a disjoint union of
  equal cliques, on Python sets.  The lambda-graphs of a graph with a_1 > 0
  are (a_1 - 1)-regular exactly when every local graph is such a union, the
  case in which ``local_spectral_checks`` reads no mu-graph.

The differential tests in ``test_local.py`` compare whole reports against
them.
"""

from typing import Optional, Tuple

import numpy as np

from drglab.arrays import IntersectionArray
from drglab.eigen import b_parameter
from drglab.errors import InputError
from drglab.graph import (C2RegularityReport, Graph, _max_coclique_rows,
                          check_distance_regular, graph_spectrum, local_graph)
from drglab.scalars import exact_cmp
from drglab.srg import recognize_srg_family, srg_from_graph


def local_spectral_checks(g: Graph) -> dict:
    ia = check_distance_regular(g)
    if not isinstance(ia, IntersectionArray):
        raise InputError("graph is not distance-regular")
    if ia.D < 3:
        raise InputError("local spectral checks need diameter >= 3")
    b = b_parameter(ia)
    out: dict = {"b": b, "c2": ia.c_at(2)}
    params = None
    for x in range(g.n):
        loc = local_graph(g, x).graph
        try:
            p, _ = srg_from_graph(loc)
        except InputError:
            params = None
            break
        if params is None:
            params = p
        elif params != p:
            params = None
            break
    out["locally_srg"] = params is not None
    loc0 = local_graph(g, 0).graph
    spec = graph_spectrum(loc0)
    smallest = spec.values[-1][0]
    out["min_local_eig"] = smallest
    out["min_local_eig_ok"] = exact_cmp(smallest, -1 - b) >= 0
    if params is None:
        out["reason"] = "not locally SRG"
        return out
    out["local_params"] = params.as_tuple()
    mu_p = params.mu
    out["mu_prime"] = mu_p
    out["c2_ge_mu_plus_1"] = ia.c_at(2) >= mu_p + 1
    out["terwilliger"] = ia.c_at(2) == mu_p + 1
    out["conference_local"] = params.as_tuple() == (
        4 * mu_p + 1, 2 * mu_p, mu_p - 1, mu_p)
    tags = recognize_srg_family(params)
    grid_local = any(t.startswith("LatinSquare(m=2,") for t in tags)
    out["grid_local_with_c2_4"] = grid_local and ia.c_at(2) == 4
    out["local_family_tags"] = tags
    return out


def c2_regularity_report(g: Graph) -> C2RegularityReport:
    dm = g.distance_matrix()
    if int(dm.max()) < 2:
        raise InputError("c2-graph analysis requires diameter >= 2")
    rows = g.bitrows()
    c2 = None
    kappa: Optional[int] = None
    regular = True
    terwilliger = True
    t_max = 0
    xs, ys = np.nonzero(dm == 2)
    for x, y in zip(xs.tolist(), ys.tolist()):
        if y <= x:
            continue
        common = rows[x] & rows[y]
        size = common.bit_count()
        if c2 is None:
            c2 = size
        elif size != c2:
            raise InputError("graph is not distance-regular: |mu-graph| varies")
        verts = []
        m = common
        while m:
            v = (m & -m).bit_length() - 1
            verts.append(v)
            m &= m - 1
        degs = {(rows[v] & common).bit_count() for v in verts}
        if len(degs) > 1:
            regular = False
            terwilliger = False
        else:
            d = degs.pop()
            if kappa is None:
                kappa = d
            elif kappa != d:
                regular = False
            if d != size - 1:
                terwilliger = False
        t_max = max(t_max, _max_coclique_rows(rows, common))
    if not regular:
        kappa = None
        terwilliger = False
    return C2RegularityReport(c2, regular, kappa, terwilliger, t_max)


def common_neighbourhoods(g: Graph, i: int) -> Tuple[Optional[int], Optional[int]]:
    rows = g.bitrows()
    size = valency = None
    regular = True
    for x, y in np.argwhere(np.triu(g.distance_matrix() == i)).tolist():
        common = rows[x] & rows[y]
        if size is None:
            size = common.bit_count()
        elif common.bit_count() != size:
            kind = ("lambda", "mu")[i - 1]
            raise InputError(f"graph is not distance-regular: |{kind}-graph| varies")
        m = common if regular else 0
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (rows[v] & common).bit_count()
            if valency is None:
                valency = d
            elif d != valency:
                regular = False
                break
    return size, valency if regular else None


def clique_union_structure(g: Graph) -> Optional[Tuple[int, int]]:
    """(s, t) if the graph is the disjoint union of t+1 cliques of size s:
    then, and only then, all closed neighbourhoods have size s and each is
    shared by all its members."""
    closed = [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]
    s = len(closed[0]) if closed else 0
    if s == 0 or any(len(c) != s or any(closed[u] != c for u in c) for c in closed):
        return None
    return s, g.n // s - 1
