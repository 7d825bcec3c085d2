"""Reference constructors on Python neighbour lists, kept as the oracle for
the numpy arc builder in ``drglab.families`` and for the arc-array
constructors ``Graph.from_edges`` and ``graph.induced_subgraph``.

Johnson, Hamming and halved-cube graphs are built from explicit tuples
(sorted d-subsets, words) with a label-to-index dict, in the lexicographic
order of the labels.  Folded graphs build the doubled parent and merge each
label with its complement; classes are numbered by their smallest parent
vertex.  Grids, complete multipartite graphs, cycles and the block graphs of
orthogonal arrays and Steiner systems test every pair or neighbour directly.
``antipodal_quotient`` folds any antipodal graph by its distance matrix, so
it checks the folded builders from their unfolded parents.  Every graph goes
through the checked ``Graph(adjacency)``.
"""

import itertools

import numpy as np

from drglab.errors import InputError
from drglab.graph import Graph, InducedSubgraph


def johnson(n, d):
    labels = list(itertools.combinations(range(n), d))
    index = {lab: i for i, lab in enumerate(labels)}
    full = set(range(n))
    adj = []
    for lab in labels:
        inside = set(lab)
        nbs = []
        for a in lab:
            rest = inside - {a}
            for b in full - inside:
                nbs.append(index[tuple(sorted(rest | {b}))])
        adj.append(sorted(nbs))
    return Graph(adj), labels


def hamming(D, q):
    labels = list(itertools.product(range(q), repeat=D))
    index = {lab: i for i, lab in enumerate(labels)}
    adj = []
    for lab in labels:
        nbs = []
        for pos in range(D):
            for val in range(q):
                if val != lab[pos]:
                    nbs.append(index[lab[:pos] + (val,) + lab[pos + 1:]])
        adj.append(sorted(nbs))
    return Graph(adj), labels


def halved_cube(length):
    labels = [w for w in itertools.product((0, 1), repeat=length)
              if sum(w) % 2 == 0]
    index = {lab: i for i, lab in enumerate(labels)}
    adj = []
    for lab in labels:
        nbs = []
        for i, j in itertools.combinations(range(length), 2):
            flipped = list(lab)
            flipped[i] ^= 1
            flipped[j] ^= 1
            nbs.append(index[tuple(flipped)])
        adj.append(sorted(nbs))
    return Graph(adj), labels


def fold(parent, labels, complement):
    """Quotient of ``parent`` on the pairs {label, complement(label)}."""
    index = {lab: i for i, lab in enumerate(labels)}
    cls_of = [0] * parent.n
    reps = []
    for i, lab in enumerate(labels):
        j = index[complement(lab)]
        if i < j:
            cls_of[i] = cls_of[j] = len(reps)
            reps.append(i)
    adj = [set() for _ in reps]
    for v in range(parent.n):
        for u in parent.neighbors(v):
            if cls_of[u] != cls_of[v]:
                adj[cls_of[v]].add(cls_of[u])
    return Graph([sorted(s) for s in adj])


def antipodal_quotient(g):
    """Quotient on the antipodal classes (each vertex with the vertices at
    distance D from it), read from the dense distance matrix; classes are
    numbered by their smallest vertex and adjacent iff some members are
    adjacent."""
    dm = g.distance_matrix()
    closed = dm == dm.max()
    np.fill_diagonal(closed, True)
    first = closed.argmax(axis=1)
    # each vertex must see exactly its first member's class at distance D
    if not (closed == closed[first]).all():
        raise InputError("not antipodal: distance-D relation is not an equivalence")
    sizes = closed.sum(axis=1)
    if sizes.min() != sizes.max() or sizes[0] == 1:
        raise InputError("not antipodal: classes must have a common size >= 2")
    is_first = first == np.arange(g.n)
    cls = ((np.cumsum(is_first) - 1)[first]).tolist()
    adj = [set() for _ in range(int(is_first.sum()))]
    for u, v in g.edges():
        if cls[u] != cls[v]:
            adj[cls[u]].add(cls[v])
            adj[cls[v]].add(cls[u])
    return Graph([sorted(s) for s in adj])


def folded_johnson(n, d):
    parent, labels = johnson(n, d)
    return fold(parent, labels,
                lambda lab: tuple(sorted(set(range(n)) - set(lab))))


def folded_halved_cube(length):
    parent, labels = halved_cube(length)
    return fold(parent, labels, lambda lab: tuple(1 - x for x in lab))


def grid(p, q):
    adj = []
    for i in range(p):
        for j in range(q):
            nbs = [i * q + jj for jj in range(q) if jj != j]
            nbs += [ii * q + j for ii in range(p) if ii != i]
            adj.append(sorted(nbs))
    return Graph(adj)


def complete_multipartite(t, m):
    n = t * m
    return Graph([[u for u in range(n) if u // m != v // m] for v in range(n)])


def complete(n):
    return Graph([[u for u in range(n) if u != v] for v in range(n)])


def cycle(n):
    return Graph([sorted({(v - 1) % n, (v + 1) % n}) for v in range(n)])


def latin_square_graph(oa):
    """Columns of the orthogonal array, adjacent when they agree in exactly
    one row."""
    ncols = len(oa[0])
    cols = list(zip(*oa))
    adj = [[] for _ in range(ncols)]
    for i in range(ncols):
        for j in range(i + 1, ncols):
            if sum(1 for a, b in zip(cols[i], cols[j]) if a == b) == 1:
                adj[i].append(j)
                adj[j].append(i)
    return Graph([sorted(x) for x in adj])


def steiner_block_graph(blocks):
    """Blocks, adjacent when they share exactly one point."""
    bsets = [frozenset(b) for b in blocks]
    nb = len(bsets)
    adj = [[] for _ in range(nb)]
    for i in range(nb):
        for j in range(i + 1, nb):
            if len(bsets[i] & bsets[j]) == 1:
                adj[i].append(j)
                adj[j].append(i)
    return Graph([sorted(x) for x in adj])


def from_edges(n, edges):
    """The edge-by-edge scan: the first edge with an endpoint outside
    0..n-1, or else a loop, is named."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InputError(f"loop at vertex {u}")
        adj[u].add(v)
        adj[v].add(u)
    return Graph([sorted(s) for s in adj])


def induced_subgraph(g, vertices):
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    adj = [[index[u] for u in g.neighbors(v) if u in index] for v in vs]
    return InducedSubgraph(Graph(adj), tuple(vs))
