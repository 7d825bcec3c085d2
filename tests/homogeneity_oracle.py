"""Reference for ``homogeneous.check_i_homogeneous``: the pair-by-pair route
it replaced.

Each pair's joint distance partition gets its own whole-arc count
(``cell_counts_oracle.cell_counts``, not the library's per-cell kernel):
the cells are labelled (d(x, v), d(y, v)), ordered lexicographically, and
every vertex is counted against every cell.  Exhaustive mode reads every
pair in ``np.nonzero(dm == i)`` order; sampled mode reads the pairs and
rows that ``sampled_pairs`` draws, all of them before the first pair is
read, as the library did before it streamed its draws in batches.  The
differential tests in ``test_equitability.py`` compare whole reports
against it.
"""

import random

import numpy as np

from drglab.errors import InputError
from cell_counts_oracle import cell_counts
from drglab.graph import EquitabilityWitness, Graph, QuotientParameters
from drglab.homogeneous import HomogeneityReport


def sampled_pairs(g: Graph, i: int, seed: int, count: int):
    """``count`` pairs at distance i, drawn with replacement in at most 50
    count draws of x: x uniformly, then y uniformly in the sorted
    Gamma_i(x).  Returns xs, ys and their distance rows, one (2 count, n)
    int16 array (row t of x, then row count + t of y)."""
    disconnected = InputError("homogeneity is defined for connected graphs")
    rng = random.Random(seed)
    xs, ys = [], []
    for _ in range(50 * count):
        x = rng.randrange(g.n)
        row = None if i == 1 else g._distance_rows([x])[0]
        if row is not None and row.min() < 0:
            raise disconnected
        at_i = np.array(g.neighbors(x)) if i == 1 else np.flatnonzero(row == i)
        if len(at_i):
            xs.append(x)
            ys.append(int(rng.choice(at_i)))
            if len(xs) == count:
                break
    else:
        raise disconnected if not g.is_connected() else InputError(
            f"could not sample pairs at distance {i}")
    rows = g._distance_rows(xs + ys)
    if rows.min() < 0:
        raise disconnected
    return np.array(xs), np.array(ys), rows


def _pair_quotient(g: Graph, dx: np.ndarray, dy: np.ndarray):
    """The quotient of pi(x, y) from the distance rows dx and dy, or the
    witness of its first inequitable cell: the cell's smallest vertex and
    the smallest vertex in it whose count row differs."""
    span = int(max(dx.max(), dy.max())) + 1
    keys = dx.astype(np.intp) * span + dy
    present = np.bincount(keys, minlength=span * span) > 0
    labels = tuple(divmod(int(key), span) for key in np.flatnonzero(present))
    cell = (np.cumsum(present) - 1)[keys]
    counts = cell_counts(g, cell, len(labels))
    # every vertex's count row against that of its cell's first member
    first = np.unique(cell, return_index=True)[1]
    differs = (counts != counts[first[cell]]).any(axis=1)
    if differs.any():
        ci = int(cell[differs].min())
        v = int(np.flatnonzero(differs & (cell == ci))[0])
        return EquitabilityWitness(ci, int(first[ci]), v, tuple(counts[first[ci]].tolist()),
                                   tuple(counts[v].tolist()))
    return QuotientParameters(tuple(map(tuple, counts[first].tolist())), labels)


def check_i_homogeneous(g: Graph, i: int, mode: str = "exhaustive",
                        seed=None, count=None) -> HomogeneityReport:
    if mode == "sampled":
        xs, ys, rows = sampled_pairs(g, i, seed, count)
        pairs = ((xs[t], ys[t], rows[t], rows[count + t]) for t in range(count))
    else:
        dm = g.distance_matrix()
        if dm.min() < 0:
            raise InputError("homogeneity is defined for connected graphs")
        at_i = np.argwhere(dm == i).tolist()
        if not at_i:
            raise InputError(f"no pair of vertices at distance {i}")
        pairs = ((x, y, dm[x], dm[y]) for x, y in at_i)
    ref = None
    checked = 0
    for x, y, dx, dy in pairs:
        checked += 1
        quotient = _pair_quotient(g, dx, dy)
        if isinstance(quotient, EquitabilityWitness):
            a, b = quotient.vertex_a, quotient.vertex_b
            lab = (int(dx[a]), int(dy[a]))
            return HomogeneityReport(i, False, witness=(int(x), int(y), lab, a, b),
                                     mode=mode, pairs_checked=checked)
        if ref is None:
            ref = quotient
        elif quotient != ref:
            return HomogeneityReport(i, False, witness=(int(x), int(y), None, None, None),
                                     mode=mode, pairs_checked=checked)
    return HomogeneityReport(i, True, ref.labels, ref.matrix, None, mode, checked)
