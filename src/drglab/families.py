"""Constructors for the concrete graph families, plus antipodal folding.

Vertex numbering is always the lexicographic rank of the combinatorial label
(subset, word, grid coordinate, ...), so golden files are stable.  Johnson,
Hamming and halved-cube graphs come from one label builder on integer
labels: a word is a base-q integer with coordinate 0 most significant, and a
d-subset is a mask with bit n-1-i for element i, so descending masks are
lexicographic subsets.  The folded Johnson and folded halved cubes come from
the same builder with the complement as antipode: each antipodal pair is
numbered by its first label, and the doubled parent is never built.  The
vertex cap (``DRG_LAB_VERTEX_CAP``) applies to the graph that is returned.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, ResourceError
from .graph import Graph

DEFAULT_VERTEX_CAP = 2_000_000


def vertex_cap() -> int:
    env = os.environ.get("DRG_LAB_VERTEX_CAP")
    return int(env) if env else DEFAULT_VERTEX_CAP


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family descriptor; ``data`` carries Steiner blocks or OA rows."""

    name: str
    params: Tuple[int, ...] = ()
    data: Optional[tuple] = None

    @classmethod
    def parse(cls, text: str, data=None) -> "FamilySpec":
        name, _, rest = text.partition(":")
        params = tuple(int(t) for t in rest.split(",") if t) if rest else ()
        if data is not None:
            data = tuple(tuple(row) for row in data)
        return cls(name.strip().lower().replace("-", "_"), params, data)


def _check_cap(n: int):
    if n > vertex_cap():
        raise ResourceError(f"construction of {n} vertices exceeds cap {vertex_cap()}")


def _label_graph(labels: Iterable[Hashable], moves: Callable[[Hashable], Iterable],
                 antipode: Optional[Callable[[Hashable], Hashable]] = None) -> Graph:
    """Graph on ``labels``, numbered in the given order, where the neighbours
    of a label are ``moves(label)``.

    With ``antipode``, a label whose antipode is already numbered joins the
    antipode's vertex, so each class is named by its first label.  Neighbour
    lists are deduplicated and a class is not its own neighbour: this is the
    antipodal quotient, without building the parent graph.
    """
    index: Dict[Hashable, int] = {}
    kept = []
    for lab in labels:
        twin = index.get(antipode(lab)) if antipode else None
        if twin is None:
            index[lab] = len(kept)
            kept.append(lab)
        else:
            index[lab] = twin
    adj = []
    for v, lab in enumerate(kept):
        nbs = {index[m] for m in moves(lab)}
        nbs.discard(v)
        adj.append(sorted(nbs))
    return Graph(adj, validate=False)


def _subsets(n: int, d: int) -> List[int]:
    """The d-subsets of range(n) as masks (bit n-1-i for element i), in
    lexicographic order."""
    return [sum(1 << (n - 1 - i) for i in c)
            for c in itertools.combinations(range(n), d)]


def _exchanges(n: int) -> Callable[[int], List[int]]:
    """Johnson moves on subset masks: swap one element for a non-element."""
    bits = [1 << i for i in range(n)]

    def moves(mask: int) -> List[int]:
        ones = [b for b in bits if mask & b]
        zeros = [b for b in bits if not mask & b]
        return [mask ^ a ^ b for a in ones for b in zeros]
    return moves


def _even_words(length: int) -> Tuple[List[int], Callable[[int], List[int]]]:
    """Even-weight binary words as integers (coordinate 0 most significant),
    in ascending order, and the moves that flip two coordinates."""
    flips = [(1 << i) | (1 << j) for i, j in itertools.combinations(range(length), 2)]
    words = [w for w in range(1 << length) if w.bit_count() % 2 == 0]
    return words, lambda w: [w ^ f for f in flips]


def johnson(n: int, d: int) -> Graph:
    if not 1 <= d <= n:
        raise InputError("Johnson graph needs 1 <= d <= n")
    _check_cap(comb(n, d))
    return _label_graph(_subsets(n, d), _exchanges(n))


def hamming(D: int, q: int) -> Graph:
    """Words of length D over range(q) as base-q integers, coordinate 0 most
    significant; adjacent when they differ in one coordinate."""
    if D < 1 or q < 2:
        raise InputError("Hamming graph needs D >= 1, q >= 2")
    _check_cap(q ** D)
    weights = [q ** (D - 1 - p) for p in range(D)]

    def moves(x: int) -> List[int]:
        out = []
        for w in weights:
            low = x - x // w % q * w
            out.extend(y for y in range(low, low + q * w, w) if y != x)
        return out
    return _label_graph(range(q ** D), moves)


def hypercube(length: int) -> Graph:
    return hamming(length, 2)


def halved_cube(length: int) -> Graph:
    """Even-weight binary words of the given length, adjacent at Hamming
    distance 2."""
    if length < 2:
        raise InputError("halved cube needs length >= 2")
    _check_cap(2 ** (length - 1))
    return _label_graph(*_even_words(length))


def grid(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise InputError("grid needs positive side lengths")
    _check_cap(p * q)
    adj = []
    for i in range(p):
        for j in range(q):
            nbs = [i * q + jj for jj in range(q) if jj != j]
            nbs += [ii * q + j for ii in range(p) if ii != i]
            adj.append(sorted(nbs))
    return Graph(adj, validate=False)


def complete_multipartite(t: int, m: int) -> Graph:
    if t < 2 or m < 1:
        raise InputError("complete multipartite needs t >= 2, m >= 1")
    _check_cap(t * m)
    n = t * m
    adj = [[u for u in range(n) if u // m != v // m] for v in range(n)]
    return Graph(adj, validate=False)


def cocktail_party(t: int) -> Graph:
    return complete_multipartite(t, 2)


def triangular(n: int) -> Graph:
    return johnson(n, 2)


def complete(n: int) -> Graph:
    if n < 1:
        raise InputError("complete graph needs n >= 1")
    return Graph([[u for u in range(n) if u != v] for v in range(n)], validate=False)


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    return Graph([sorted({(v - 1) % n, (v + 1) % n}) for v in range(n)], validate=False)


def petersen() -> Graph:
    """Kneser graph K(5, 2)."""
    labels = list(itertools.combinations(range(5), 2))
    adj = [[j for j, other in enumerate(labels) if not set(lab) & set(other)]
           for lab in labels]
    return Graph(adj, validate=False)


_ICOSAHEDRON_ADJ = [
    [1, 2, 3, 4, 5], [0, 2, 5, 6, 7], [0, 1, 3, 7, 8], [0, 2, 4, 8, 9],
    [0, 3, 5, 9, 10], [0, 1, 4, 6, 10], [1, 5, 7, 10, 11], [1, 2, 6, 8, 11],
    [2, 3, 7, 9, 11], [3, 4, 8, 10, 11], [4, 5, 6, 9, 11], [6, 7, 8, 9, 10],
]


def icosahedron() -> Graph:
    return Graph(_ICOSAHEDRON_ADJ)


# -- design-backed families -------------------------------------------------


def validate_orthogonal_array(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Check OA(m, n) row-pair axioms; returns (m, n)."""
    m = len(rows)
    if m < 2:
        raise InputError("orthogonal array needs at least 2 rows")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise InputError("orthogonal array rows have unequal length")
    import math
    n = math.isqrt(ncols)
    if n * n != ncols:
        raise InputError("orthogonal array must have n^2 columns")
    for r in rows:
        if any(not (0 <= v < n) for v in r):
            raise InputError("orthogonal array entries must lie in 0..n-1")
    for i in range(m):
        for j in range(i + 1, m):
            pairs = set(zip(rows[i], rows[j]))
            if len(pairs) != n * n:
                raise InputError(
                    f"rows {i}, {j} do not hit every ordered pair exactly once")
    return m, n


def latin_square_graph(m: int = None, n: int = None,
                       oa: Optional[Sequence[Sequence[int]]] = None) -> Graph:
    """Block graph of an orthogonal array.

    With (m, n) given and no OA data, the cyclic table over Z_n supplies
    OA(m, n) for m <= 3 (rows, columns, symbols); larger m needs caller data.
    """
    if oa is None:
        if m is None or n is None:
            raise InputError("latin square graph needs (m, n) or OA data")
        if not 2 <= m <= 3:
            raise InputError(
                "cyclic construction only covers m in {2, 3}; supply OA data for larger m")
        if n < 2:
            raise InputError("latin square graph needs n >= 2")
        cols = list(itertools.product(range(n), repeat=2))
        oa = [[x for x, _ in cols], [y for _, y in cols]]
        if m == 3:
            oa.append([(x + y) % n for x, y in cols])
    m, n = validate_orthogonal_array(oa)
    _check_cap(n * n)
    ncols = n * n
    cols = list(zip(*oa))
    adj: List[List[int]] = [[] for _ in range(ncols)]
    for i in range(ncols):
        for j in range(i + 1, ncols):
            agree = sum(1 for a, b in zip(cols[i], cols[j]) if a == b)
            if agree == 1:
                adj[i].append(j)
                adj[j].append(i)
    return Graph([sorted(x) for x in adj], validate=False)


def validate_steiner_blocks(blocks: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Check the blocks form a 2-(n, m, 1) design; returns (m, n)."""
    if not blocks:
        raise InputError("no blocks given")
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1:
        raise InputError("blocks must have a common size")
    m = sizes.pop()
    if m < 2:
        raise InputError("blocks must have size >= 2")
    points = sorted({p for b in blocks for p in b})
    if any(len(set(b)) != len(b) for b in blocks):
        raise InputError("repeated point inside a block")
    cover: Dict[Tuple[int, int], int] = {}
    for b in blocks:
        for pair in itertools.combinations(sorted(b), 2):
            cover[pair] = cover.get(pair, 0) + 1
            if cover[pair] > 1:
                raise InputError(f"point pair {pair} covered twice (lambda must be 1)")
    for pair in itertools.combinations(points, 2):
        if pair not in cover:
            raise InputError(f"point pair {pair} not covered by any block")
    return m, len(points)


def steiner_block_graph(blocks: Sequence[Sequence[int]]) -> Graph:
    """Block graph of a Steiner system: blocks adjacent iff they share a point."""
    validate_steiner_blocks(blocks)
    bsets = [frozenset(b) for b in blocks]
    _check_cap(len(bsets))
    nb = len(bsets)
    adj: List[List[int]] = [[] for _ in range(nb)]
    for i in range(nb):
        for j in range(i + 1, nb):
            if len(bsets[i] & bsets[j]) == 1:
                adj[i].append(j)
                adj[j].append(i)
    return Graph([sorted(x) for x in adj], validate=False)


# -- antipodal folding ------------------------------------------------------


def antipodal_quotient(g: Graph) -> Graph:
    """Quotient on the antipodal classes (each vertex with the vertices at
    distance D from it), read from the dense distance matrix (at most 6000
    vertices); classes are numbered by their smallest vertex and adjacent iff
    some members are adjacent."""
    dm = g.distance_matrix()
    far = dm == dm.max()
    first = [-1] * g.n
    sizes = set()
    for v in range(g.n):
        if first[v] < 0:
            cls = [v] + np.flatnonzero(far[v]).tolist()
            members = set(cls)
            sizes.add(len(cls))
            for u in cls:
                # each member must see exactly its own class at distance D
                if first[u] >= 0 or {u, *np.flatnonzero(far[u]).tolist()} != members:
                    raise InputError(
                        "not antipodal: distance-D relation is not an equivalence")
                first[u] = v
    if len(sizes) != 1 or sizes == {1}:
        raise InputError("not antipodal: classes must have a common size >= 2")
    return _label_graph(range(g.n), g.neighbors, first.__getitem__)


def folded_johnson(n: int, d: int) -> Graph:
    """J(2d, d) with each d-set identified with its complement."""
    if n != 2 * d or d < 1:
        raise InputError("folded Johnson graph is defined for J(2d, d), d >= 1")
    _check_cap(comb(n, d) // 2)
    full = (1 << n) - 1
    return _label_graph(_subsets(n, d), _exchanges(n), lambda m: m ^ full)


def folded_halved_cube(length: int) -> Graph:
    """Halved cube of even length with each word identified with its
    complement."""
    if length < 2 or length % 2:
        raise InputError("folded halved cube needs even length >= 2")
    _check_cap(2 ** (length - 2))
    full = (1 << length) - 1
    return _label_graph(*_even_words(length), lambda w: w ^ full)


_BUILDERS = {
    "johnson": lambda spec: johnson(*spec.params),
    "hamming": lambda spec: hamming(*spec.params),
    "hypercube": lambda spec: hypercube(*spec.params),
    "halved_cube": lambda spec: halved_cube(*spec.params),
    "halvedcube": lambda spec: halved_cube(*spec.params),
    "folded_johnson": lambda spec: folded_johnson(*spec.params),
    "folded_halved_cube": lambda spec: folded_halved_cube(*spec.params),
    "grid": lambda spec: grid(*spec.params),
    "complete_multipartite": lambda spec: complete_multipartite(*spec.params),
    "cocktail_party": lambda spec: cocktail_party(*spec.params),
    "triangular": lambda spec: triangular(*spec.params),
    "latin_square": lambda spec: (
        latin_square_graph(oa=spec.data) if spec.data
        else latin_square_graph(*spec.params)),
    "steiner_block_graph": lambda spec: steiner_block_graph(spec.data),
    "cycle": lambda spec: cycle(*spec.params),
    "complete": lambda spec: complete(*spec.params),
    "icosahedron": lambda spec: icosahedron(),
    "petersen": lambda spec: petersen(),
}


def build_family(spec: FamilySpec) -> Graph:
    builder = _BUILDERS.get(spec.name)
    if builder is None:
        raise InputError(f"unknown family {spec.name!r}; known: {sorted(_BUILDERS)}")
    try:
        return builder(spec)
    except TypeError as exc:
        raise InputError(f"bad parameters for family {spec.name!r}: {exc}") from exc
