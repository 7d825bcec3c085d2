"""Reference for the sparse route of the pair kernel (``graph._pair_keys``
with ``adj`` None): the whole-arc gather it replaced.

Each key word is gathered over every arc of the graph at once, for every
pair of the block, and summed over each vertex's arcs by one reduction, so a
block of one pair holds an int64 entry per arc however many arcs there are.
The kernel now gathers the arcs of consecutive vertex ranges, within
``graph._PAIR_BUDGET`` entries each; ``test_pair_budget.py`` compares its
keys with these.
"""

import numpy as np

from drglab.graph import Graph


def pair_keys(g: Graph, w: np.ndarray) -> np.ndarray:
    """The keys (words, p, n) from the digit weights w (words, p, n) of a
    block of p pairs; every vertex of g has an arc."""
    dst, starts = g._dst, g._starts[:-1]
    p, n = w.shape[1:]
    seg = (np.arange(p)[:, None] * len(dst) + starts).ravel()
    return np.stack([np.add.reduceat(np.take(word, dst, axis=1).ravel(), seg).reshape(p, n)
                     for word in w])
