"""Reference for the per-cell kernel (``graph._cell_counts``): the
whole-arc gather it replaced.

Every arc's source and target cell are gathered at once and counted by one
``bincount``, so a call holds several int64 entries per arc however many
arcs there are.  The kernel now reads the arcs of consecutive vertex
ranges, within ``graph._BUDGET`` arcs each; ``test_pair_budget.py``
compares its counts with these.
"""

import numpy as np

from drglab.graph import Graph


def cell_counts(g: Graph, cell: np.ndarray, ncells: int) -> np.ndarray:
    """Row v counts the neighbours of v in each cell; cell[u] is the cell of
    vertex u, or -1 when u lies in no cell."""
    rows, target = g._sources(), cell[g._dst]
    if target.min(initial=0) < 0:
        inside = target >= 0
        rows, target = rows[inside], target[inside]
    return np.bincount(rows * ncells + target,
                       minlength=g.n * ncells).reshape(g.n, ncells)
