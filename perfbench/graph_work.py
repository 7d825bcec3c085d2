"""The two graph workloads and their correctness gate.

graph-exhaustive: seeded relabelings (and two edge-switched copies) of a small
corpus, each run through the dense exhaustive verdicts.
large-sampled: families with more than 20000 vertices, built in Python and
checked by the sparse sampled kernel.

Expected verdicts come from the theory of each family, not from drglab.
Every returned witness is re-checked here from breadth-first-search counts.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from harness import Op

SQRT5 = math.sqrt(5.0)


# -- arrays from the theory --------------------------------------------------


def johnson_array(n: int, d: int):
    D = min(d, n - d)
    return (tuple((d - i) * (n - d - i) for i in range(D)),
            tuple(i * i for i in range(1, D + 1)))


def hamming_array(D: int, q: int):
    return tuple((D - i) * (q - 1) for i in range(D)), tuple(range(1, D + 1))


def halved_array(m: int):
    D = m // 2
    return (tuple((m - 2 * i) * (m - 2 * i - 1) // 2 for i in range(D)),
            tuple(i * (2 * i - 1) for i in range(1, D + 1)))


def folded_array(parent):
    """2-antipodal parent of even diameter 2e: c_e picks up b_e."""
    b, c = parent
    e = len(b) // 2
    return b[:e], c[:e - 1] + (c[e - 1] + b[e],)


# -- graph corpus ----------------------------------------------------------
#
# name, family spec, expected array, ops, and per-op expectations:
#   homog/cab: whether the verdict holds; c2: c_2 from the array;
#   local: (locally SRG, smallest local eigenvalue); spectrum: [(value, mult)];
#   srg: (v, k, lambda, mu).

def _corpus():
    full = ("build", "dm", "dr", "homog", "cab", "c2", "local")
    return [
        dict(name="J(10,5)", spec="johnson:10,5", array=johnson_array(10, 5),
             ops=full, homog=True, cab=True, local=(True, -2.0)),
        dict(name="H(5,3)", spec="hamming:5,3", array=hamming_array(5, 3),
             ops=full, homog=True, cab=True, local=(False, -1.0)),
        dict(name="halved 8-cube", spec="halved_cube:8", array=halved_array(8),
             ops=("build", "dm", "dr", "c2")),
        dict(name="J(8,4)", spec="johnson:8,4", array=johnson_array(8, 4),
             ops=full, homog=True, cab=True, local=(True, -2.0)),
        dict(name="folded J(8,4)", spec="folded_johnson:8,4",
             array=folded_array(johnson_array(8, 4)),
             ops=("build", "dm", "dr", "homog", "cab", "c2", "spectrum", "srg"),
             homog=True, cab=True, spectrum=[(16, 1), (2, 20), (-4, 14)],
             srg=(35, 16, 6, 8)),
        dict(name="folded J(12,6)", spec="folded_johnson:12,6",
             array=folded_array(johnson_array(12, 6)),
             ops=("build", "dm", "dr", "c2")),
        dict(name="halved 10-cube", spec="halved_cube:10", array=halved_array(10),
             ops=("build", "dm", "dr")),
        dict(name="T(10)", spec="triangular:10", array=((16, 7), (1, 4)),
             ops=("build", "dm", "dr", "homog", "cab", "c2", "spectrum", "srg"),
             homog=False, cab=False, spectrum=[(16, 1), (6, 9), (-2, 35)],
             srg=(45, 16, 8, 4)),
        dict(name="icosahedron", spec="icosahedron", array=((5, 2, 1), (1, 2, 5)),
             ops=full + ("spectrum",), homog=True, cab=True,
             local=(True, -(1 + SQRT5) / 2),
             spectrum=[(5, 1), (SQRT5, 3), (-1, 5), (-SQRT5, 3)]),
        dict(name="Petersen", spec="petersen", array=((3, 2), (1, 1)),
             ops=("build", "dm", "dr", "homog", "c2", "spectrum", "srg"),
             homog=True, spectrum=[(3, 1), (1, 5), (-2, 4)], srg=(10, 3, 0, 1)),
    ]


#: corpus graphs that also appear edge-switched (not distance-regular)
SWITCHED = ("J(10,5)", "H(5,3)")
SWITCHED_OPS = ("build", "dm", "dr", "homog", "cab")

#: small stand-ins used by the self-test
TINY = ("folded J(8,4)", "icosahedron", "Petersen", "T(10)")
TINY_SWITCHED = ("folded J(8,4)",)


# -- breadth-first search and witness re-checks --------------------------------


def bfs(adj: Sequence[Sequence[int]], x: int) -> List[int]:
    dist = [-1] * len(adj)
    dist[x] = 0
    queue = deque([x])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _layer_counts(adj, dist, y) -> Tuple[int, int, int]:
    i = dist[y]
    c = sum(1 for u in adj[y] if dist[u] == i - 1) if i > 0 else 0
    a = sum(1 for u in adj[y] if dist[u] == i)
    b = sum(1 for u in adj[y] if dist[u] == i + 1)
    return c, a, b


def recheck_dr_witness(adj, w) -> Optional[str]:
    """The pair (x, y) has counts that differ from those proposed at vertex 0."""
    dx = bfs(adj, w.x)
    if dx[w.y] != w.distance:
        return "witness distance is wrong"
    got = _layer_counts(adj, dx, w.y)
    if w.distance == 0 or got != tuple(w.counts):
        return f"witness counts {tuple(w.counts)} but BFS gives {got}"
    d0 = bfs(adj, 0)
    ref = next(v for v in range(len(adj)) if d0[v] == w.distance)
    if _layer_counts(adj, d0, ref) != tuple(w.expected):
        return "witness expected counts do not occur at vertex 0"
    if got == tuple(w.expected):
        return "witness counts equal the expected counts"
    return None


def _cells(adj, x, y):
    dx, dy = bfs(adj, x), bfs(adj, y)
    cell = [(a, b) for a, b in zip(dx, dy)]
    return dx, cell


def _count_row(adj, cell, v) -> Dict[tuple, int]:
    row: Dict[tuple, int] = {}
    for u in adj[v]:
        row[cell[u]] = row.get(cell[u], 0) + 1
    return row


def _quotient(adj, x, y):
    """The quotient of pi(x, y), or None when the partition is not equitable."""
    _, cell = _cells(adj, x, y)
    rows: Dict[tuple, Dict[tuple, int]] = {}
    for v in range(len(adj)):
        row = _count_row(adj, cell, v)
        if rows.setdefault(cell[v], row) != row:
            return None
    return rows


def recheck_homog_witness(adj, level: int, witness) -> Optional[str]:
    x, y, lab, va, vb = witness
    dx, cell = _cells(adj, x, y)
    if dx[y] != level:
        return "witness pair is not at the checked distance"
    if lab is not None:
        if cell[va] != tuple(lab) or cell[vb] != tuple(lab):
            return "witness vertices are not in the named cell"
        if _count_row(adj, cell, va) == _count_row(adj, cell, vb):
            return "witness vertices have equal counts"
        return None
    # the quotient differs from that of another pair at the same distance
    mine = _quotient(adj, x, y)
    if mine is None:
        return None
    for u, v in _pairs_at(adj, level, limit=20):
        if _quotient(adj, u, v) != mine:
            return None
    return "no pair with a different quotient was found"


def _pairs_at(adj, level: int, limit: int):
    """The first ``limit`` ordered pairs at distance ``level``, in lex order."""
    found = 0
    for u in range(len(adj)):
        du = bfs(adj, u)
        for v in range(len(adj)):
            if du[v] == level:
                yield u, v
                found += 1
                if found == limit:
                    return


def recheck_cab_witness(adj, dev) -> Optional[str]:
    """Vertex ``dev.vertex`` in a cell of the (C, A, B) partition at (x, y)
    has counts that differ from the first ones the scan records for that cell."""
    name = dev.reason.rsplit(" ", 1)[-1]
    i = dev.level

    def partition(x, y, dist):
        return {"C": {u for u in adj[y] if dist[u] == i - 1},
                "A": {u for u in adj[y] if dist[u] == i},
                "B": {u for u in adj[y] if dist[u] == i + 1}}

    def counts(cells, v):
        nv = set(adj[v])
        return tuple(len(nv & cells[k]) for k in "CAB")

    dx = bfs(adj, dev.x)
    if dx[dev.y] != i:
        return "witness pair is not at the named level"
    cells = partition(dev.x, dev.y, dx)
    if dev.vertex not in cells[name]:
        return "witness vertex is not in the named cell"
    got = counts(cells, dev.vertex)
    if got != tuple(dev.counts):
        return f"witness counts {tuple(dev.counts)} but BFS gives {got}"
    for x in range(len(adj)):
        dist = bfs(adj, x)
        for y in (v for v in range(len(adj)) if dist[v] == i):
            first = sorted(partition(x, y, dist)[name])
            if first:
                ref = counts(partition(x, y, dist), first[0])
                if ref != tuple(dev.expected):
                    return "witness expected counts are not the first recorded"
                return None if ref != got else "witness counts are not different"
    return "no pair has the named cell"


# -- input generation -----------------------------------------------------------


def relabel(adj, rng: random.Random) -> List[List[int]]:
    n = len(adj)
    perm = list(range(n))
    rng.shuffle(perm)
    out: List[List[int]] = [[] for _ in range(n)]
    for v, nbs in enumerate(adj):
        out[perm[v]] = sorted(perm[u] for u in nbs)
    return out


def _swap(nbr, a, b, c, d) -> Optional[List[List[int]]]:
    """Edges ab, cd replaced by ad, cb, or None when that is not a switch."""
    if len({a, b, c, d}) < 4 or d in nbr[a] or b in nbr[c]:
        return None
    new = [set(s) for s in nbr]
    for u, v in ((a, b), (c, d)):
        new[u].discard(v)
        new[v].discard(u)
    for u, v in ((a, d), (c, b)):
        new[u].add(v)
        new[v].add(u)
    return [sorted(s) for s in new]


def _edges(adj) -> List[Tuple[int, int]]:
    return [(v, u) for v, nb in enumerate(adj) for u in nb if u > v]


def switch(adj, rng: random.Random) -> List[List[int]]:
    """One degree-preserving edge switch ab, cd -> ad, cb that changes the
    number of common neighbours of a new edge, so the result is not even
    edge-regular and every verdict must fail.  Vertex 0 keeps the largest
    eccentricity: below it, check_distance_regular raises IndexError, a
    defect that ``eccentric_switch`` probes on its own."""
    nbr = [set(nb) for nb in adj]
    a1 = len(nbr[0] & nbr[adj[0][0]])
    edges = _edges(adj)
    for _ in range(10_000):
        (a, b), (c, d) = rng.sample(edges, 2)
        out = _swap(nbr, a, b, c, d)
        if out is None or (len(set(out[a]) & set(out[d])) == a1
                           and len(set(out[c]) & set(out[b])) == a1):
            continue
        d0 = bfs(out, 0)
        if min(d0) >= 0 and all(max(bfs(out, v)) <= max(d0) for v in range(len(out))):
            return out
    raise ValueError("no switch keeps vertex 0's eccentricity largest")


def eccentric_switch(adj) -> List[List[int]]:
    """The first switch (in edge order) after which vertex 0's eccentricity is
    below the diameter; check_distance_regular raises IndexError on it."""
    nbr = [set(nb) for nb in adj]
    edges = _edges(adj)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            out = _swap(nbr, a, b, c, d)
            if out is None:
                continue
            eccs = [max(bfs(out, v)) for v in range(len(out))]
            if min(bfs(out, 0)) >= 0 and eccs[0] < max(eccs):
                return out
    raise ValueError("no switch shortens vertex 0's eccentricity")


class GraphExhaustive:
    """The dense exhaustive per-pair verdicts on a small relabeled corpus."""

    name = "graph-exhaustive"
    latency_per_call = False

    def __init__(self, drglab, seed: int, tiny: bool = False):
        self.dg = drglab
        rng = random.Random(seed)
        corpus = _corpus()
        keep = TINY if tiny else [g["name"] for g in corpus]
        switched = TINY_SWITCHED if tiny else SWITCHED
        self.inputs = []
        for g in corpus:
            if g["name"] not in keep and g["name"] not in switched:
                continue
            base = drglab.families.build_family(
                drglab.families.FamilySpec.parse(g["spec"]))
            adj = [list(base.neighbors(v)) for v in range(base.n)]
            if g["name"] in keep:
                self.inputs.append(dict(g, adj=relabel(adj, rng)))
            if g["name"] in switched:
                self.inputs.append(dict(
                    name=f"switched {g['name']}", adj=switch(relabel(adj, rng), rng),
                    array=None, ops=SWITCHED_OPS, homog=False, cab=False))
        ico = drglab.families.icosahedron()
        probe = dict(name="switched icosahedron, eccentric vertex 0",
                     adj=eccentric_switch([list(ico.neighbors(v)) for v in range(ico.n)]),
                     array=None, ops=("build", "dr"))
        self.probes = self._ops(probe, {"dr": (IndexError,)})

    def round_ops(self, index: int) -> List[Op]:
        return [op for g in self.inputs for op in self._ops(g)]

    def _ops(self, g, known_errors=None) -> List[Op]:
        """The graph's op list; ops after "build" use the graph it built."""
        dg = self.dg
        state: dict = {}
        adj = g["adj"]
        n = len(adj)
        b, c = g["array"] if g["array"] is not None else (None, None)

        def build():
            state["g"] = dg.graph.Graph(adj)
            return state["g"]

        def check_build(graph):
            return "result", None if graph.n == n else "vertex count", {}

        def check_dm(dm):
            row = [int(v) for v in dm[0]]
            if row != bfs(adj, 0):
                return "result", "distance matrix row 0 differs from BFS", {}
            if b is not None and int(dm.max()) != len(b):
                return "result", "diameter", {}
            return "result", None, {}

        def check_dr(res):
            if isinstance(res, dg.arrays.IntersectionArray):
                if b is None:
                    return "result", "switched graph certified distance-regular", {}
                ok = (tuple(res.b), tuple(res.c)) == (b, c)
                return "result", None if ok else f"array {res}", {}
            if b is not None:
                return "witness", "distance-regular graph refuted", {}
            return "witness", recheck_dr_witness(adj, res), {}

        def check_homog(rep):
            extras = {"pairs": rep.pairs_checked}
            if rep.holds != g["homog"]:
                return ("result" if rep.holds else "witness",
                        f"1-homogeneity holds={rep.holds}", extras)
            if rep.holds:
                pairs = sum(len(nb) for nb in adj)
                ok = rep.pairs_checked == pairs
                return "result", None if ok else "pairs checked", extras
            return "witness", recheck_homog_witness(adj, 1, rep.witness), extras

        def check_cab(rep):
            extras = {"pairs": rep.pairs_checked}
            if rep.holds != g["cab"]:
                return ("result" if rep.holds else "witness",
                        f"CAB holds={rep.holds}", extras)
            if rep.holds:
                ok = rep.pairs_checked == n * (n - 1)
                return "result", None if ok else "pairs checked", extras
            return "witness", recheck_cab_witness(adj, rep.deviation), extras

        def check_c2(rep):
            return "result", None if rep.c2 == c[1] else f"c2={rep.c2}", {}

        def check_local(out):
            srg, low = g["local"]
            ok = (out["locally_srg"] == srg and out["min_local_eig_ok"]
                  and abs(float(out["min_local_eig"]) - low) < 1e-9)
            return "result", None if ok else f"local checks {out}", {}

        def check_spectrum(rep):
            got = [(float(v), m) for v, m in rep.values]
            want = g["spectrum"]
            ok = rep.exact and len(got) == len(want) and all(
                abs(gv - wv) < 1e-9 and gm == wm
                for (gv, gm), (wv, wm) in zip(got, want))
            return "result", None if ok else f"spectrum {got}", {}

        def check_srg(res):
            ok = res[0].as_tuple() == g["srg"]
            return "result", None if ok else f"srg {res[0]}", {}

        gr = dg.graph
        table = {
            "build": (build, check_build),
            "dm": (lambda: state["g"].distance_matrix(), check_dm),
            "dr": (lambda: gr.check_distance_regular(state["g"]), check_dr),
            "homog": (lambda: dg.homogeneous.check_i_homogeneous(state["g"], 1),
                      check_homog),
            "cab": (lambda: dg.cab.cab_partition_check(state["g"]), check_cab),
            "c2": (lambda: gr.c2_regularity_report(state["g"]), check_c2),
            "local": (lambda: dg.homogeneous.local_spectral_checks(state["g"]),
                      check_local),
            "spectrum": (lambda: gr.graph_spectrum(state["g"]), check_spectrum),
            "srg": (lambda: dg.srg.srg_from_graph(state["g"]), check_srg),
        }
        known_errors = known_errors or {}
        return [Op(g["name"], op, *table[op], known_errors.get(op, ()))
                for op in g["ops"]]


# -- large-sampled -----------------------------------------------------------------

#: name, family spec, vertices, valency, sampled pairs, expected verdict
LARGE = [
    ("H(10,3)", "hamming:10,3", 59049, 20, 8, True),
    ("halved 16-cube", "halved_cube:16", 32768, 120, 4, True),
    ("folded J(18,9)", "folded_johnson:18,9", 24310, 81, 4, False),
]
#: sampled mode in the band 6000 < n <= 20000 raises ResourceError today
LARGE_PROBE = ("H(9,3)", "hamming:9,3", 19683, 18, 4, True)
TINY_LARGE = [("H(4,3)", "hamming:4,3", 81, 8, 4, True),
              ("folded J(10,5)", "folded_johnson:10,5", 126, 25, 4, False)]
TINY_PROBE = ("H(3,3)", "hamming:3,3", 27, 6, 4, True)


class LargeSampled:
    """Python construction and folding, Python BFS, and the sparse sampled
    kernel on graphs with more than 20000 vertices."""

    name = "large-sampled"
    latency_per_call = False

    def __init__(self, drglab, seed: int, tiny: bool = False):
        self.dg = drglab
        self.seed = seed
        self.graphs = TINY_LARGE if tiny else LARGE
        probe = TINY_PROBE if tiny else LARGE_PROBE
        self.probes = self._ops(probe, drglab.errors.ResourceError)

    def round_ops(self, index: int) -> List[Op]:
        """Every round repeats the same builds and the same sampled pairs."""
        return [op for spec in self.graphs for op in self._ops(spec)]

    def _ops(self, spec, known_error: type = None) -> List[Op]:
        dg = self.dg
        name, family, n, k, count, holds = spec
        state: dict = {}

        def build():
            state["g"] = dg.families.build_family(dg.families.FamilySpec.parse(family))
            return state["g"]

        def check_build(g):
            ok = g.n == n and g.degree(0) == k
            return "result", None if ok else f"{g}", {"vertices": g.n}

        def sampled():
            try:
                return dg.homogeneous.check_i_homogeneous(
                    state["g"], 1, "sampled", seed=self.seed, count=count)
            except BaseException:
                del state["g"]
                raise

        def check_sampled(rep):
            g = state.pop("g")
            extras = {"pairs": rep.pairs_checked}
            if rep.holds != holds:
                return ("result" if rep.holds else "witness",
                        f"sampled 1-homogeneity holds={rep.holds}", extras)
            if rep.holds:
                ok = rep.pairs_checked == count
                return "result", None if ok else "pairs checked", extras
            adj = [g.neighbors(v) for v in range(g.n)]
            return "witness", recheck_homog_witness(adj, 1, rep.witness), extras

        errors = (known_error,) if known_error else ()
        return [Op(name, "build", build, check_build),
                Op(name, "sampled", sampled, check_sampled, errors)]
