"""Reference constructors on tuple labels, kept as the oracle for the
integer-label builder in ``drglab.families``.

Each graph is built from explicit tuples (sorted d-subsets, words) with a
label-to-index dict, in the lexicographic order of the labels.  Folded graphs
build the doubled parent and merge each label with its complement; classes
are numbered by their smallest parent vertex.
"""

import itertools

from drglab.graph import Graph


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
    return Graph(adj, validate=False), labels


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
    return Graph(adj, validate=False), labels


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
    return Graph(adj, validate=False), labels


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
    return Graph([sorted(s) for s in adj], validate=False)


def folded_johnson(n, d):
    parent, labels = johnson(n, d)
    return fold(parent, labels,
                lambda lab: tuple(sorted(set(range(n)) - set(lab))))


def folded_halved_cube(length):
    parent, labels = halved_cube(length)
    return fold(parent, labels, lambda lab: tuple(1 - x for x in lab))
