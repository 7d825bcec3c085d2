"""Reference for ``graph.check_distance_regular``: the per-vertex layer scan
it replaced.

The array is proposed from the first vertex of each layer around vertex 0.
Then every base vertex x in turn gets one whole-arc count over its distance
layers (``cell_counts_oracle.cell_counts``, not the library's per-cell
kernel), and each vertex's counts one layer down, in its own layer and one
layer up are compared with the proposal; the first x with a differing
vertex refutes, and the witness names that vertex.  The differential tests
in ``test_distance_regularity.py`` compare arrays and witnesses against
it.
"""

from typing import Union

import numpy as np

from drglab.arrays import IntersectionArray
from drglab.errors import InputError
from cell_counts_oracle import cell_counts
from drglab.graph import DistanceRegularityWitness, Graph


def check_distance_regular(g: Graph
                           ) -> Union[IntersectionArray, DistanceRegularityWitness]:
    """The intersection array, or the first (lex smallest) violating pair."""
    if not g.is_connected():
        raise InputError("distance-regularity is defined for connected graphs")
    n = g.n
    dm = g.distance_matrix()
    D = int(dm.max())
    if D == 0:
        raise InputError("single-vertex graph has no intersection array")
    every = np.arange(n)

    def layer_counts(x):
        """d(x, .) and each vertex's neighbour counts one layer down, in its
        own layer, and one layer up."""
        dx = dm[x].astype(np.intp)
        counts = cell_counts(g, dx, D + 2)
        return (dx, counts[every, np.maximum(dx - 1, 0)], counts[every, dx],
                counts[every, dx + 1])

    # propose the array from the first vertex of each layer around vertex 0;
    # when ecc(0) < D, b at level ecc(0) is 0 here but positive on a geodesic
    # to a diametral vertex, so the scan below finds a violation
    d0, c0, a0, b0 = layer_counts(0)
    ecc0 = int(d0.max())
    first = [int(np.flatnonzero(d0 == i)[0]) for i in range(ecc0 + 1)]
    c, a, b = c0[first], a0[first], b0[first]
    c[0] = 0
    for x in range(n):
        dx, cvals, avals, bvals = layer_counts(x)
        level = np.minimum(dx, ecc0)
        ok = (avals == a[level]) & (bvals == b[level]) & ((dx == 0) | (cvals == c[level]))
        # vertices farther from x than ecc(0) have no proposed counts
        ok |= dx > ecc0
        ok[x] = True
        if not ok.all():
            y = int(np.flatnonzero(~ok)[0])
            i = int(dx[y])
            got = (int(cvals[y]) if i > 0 else 0, int(avals[y]), int(bvals[y]))
            want = (int(c[i]), int(a[i]), int(b[i]))
            return DistanceRegularityWitness(x, y, i, got, want,
                                             "intersection numbers depend on the pair")
    b, c = b.tolist(), c.tolist()
    return IntersectionArray(tuple(b[:D]), tuple(c[1:]))
