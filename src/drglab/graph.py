"""Graph representation and the empirical machinery: distances, distance
partitions, equitable quotients, distance-regularity testing, local and
mu-graphs, and exact spectra of certified distance-regular graphs, from
their intersection arrays.

A graph is stored as one arc index, intp targets and offsets
(``Graph(adjacency)`` checks outside input).  The arcs feed the one
distance engine (``Graph._distance_rows``, a bit-parallel breadth-first
search behind every distance row and the dense distance matrix of at most
``_DENSE_CAP`` vertices) and the pair kernel (``_check_pairs``), which tests
the joint distance partitions pi(x, y) of a block of pairs at once, for
1-homogeneity and for distance-regularity, its case x = y, by exact keys:
float32 or float64 products with the adjacency matrix of the same dtype
(below 2**24 or 2**53) or int64 sums over the arcs (below 2**63), as
``_dense_keys`` chooses, of nine digits a key, three at x = y, and four on
a graph that carries its certified intersection array (``Graph._dr``),
whose margins fix the other five, so that its dense keys are float32 up to
valency 63 (nine digits: 5).  A scan
allocates one set of buffers for a block of pairs, and every block writes
into it.  Keys decide, and arcs report.  Keys decide every equitability
question outside the local pass: the pairs of both verdicts, and the cells
of an equitable quotient, which are the digits of each vertex's key,
summed over its arcs by one ``bincount`` (``equitable_quotient``).  Keys
are only compared, and the kernel counts no quotient: it returns its first
pair's distance rows and its refuting pair, from which each verdict names
its own witness.  The
arcs report: a verdict counts only the rows it reports, one ``bincount``
over a vertex's arcs each (``_count_rows``): the rows of its witness, or
for its quotient, once, those of each cell's first vertex (``_quotient``,
``equitable_quotient``, the only cells x cells matrices, built after
``require_room`` as int arrays that only a report turns into tuples):
distance-regularity from the pair (0, 0), exhaustive 1-homogeneity before
its scan, sampled 1-homogeneity only when its pairs hold.  The kernel reads
its pairs as a stream of chunks, each with the distance rows it names, and
labels the cells itself, relative to the pair: every pair is at the distance
i of the first pair (x0, y0), so a cell D^h_j(x, y) has |j - h| <= i, and
one table of (2i + 1)(2 ecc(x0) + 1) labels serves every scan.  So a
caller hands over pairs and rows only, and no verdict scans the distance
matrix for the diameter.  It asks for the next chunk only while every pair so
far holds: one chunk for distance-regularity, rows of the distance matrix
for exhaustive 1-homogeneity (``_pairs_at``, a budget's rows at a time,
empty for rows with no pair), batches of sampled draws for sampled mode, so
no scan holds all of its pairs at once; the kernel's blocks, which start at
one pair and double, are the one early-exit schedule of every scan.  One
rule (``_at``) says which pairs of the distance matrix a scan reads: those
of some rows with lo <= d(x, y) <= hi, and y >= x when the scan asks;
``_counts`` counts them in each row, ``_pairs_at`` streams them, and the
local pass selects its centres' rows with it.  Every blocked pass holds
at most ``_BUDGET`` bytes a block, or one item, and states at its call the
bytes it holds per entry (``errors.ResourceError`` lists the passes and
their widths).  The gathers over all arcs (the sparse keys, the keys of
an equitable quotient and the engine's pull) read them in ranges of
consecutive vertices (``_ranges``) within the budget, or of one vertex, so
no block holds an entry for every arc of a large graph.
A graph caches its arcs, once built its read-only distance matrix, once
certified its distance-regularity verdict (``Graph._dr``, written only by
``check_distance_regular``), and once read the (size, valency) of its
lambda- and mu-graphs (``Graph._common``, written only by
``_common_neighbourhoods``), nothing else: the arcs never change, so
nothing invalidates any of them, every reader of the verdict (the
spectrum, the local spectral checks, the SRG parameters) shares one scan of
the pairs (x, x), and the c2 report and the local spectral checks share one
mu-graph pass.  The three readers of an (n, n) 0/1 adjacency (the dense pair
route, ``adjacency_matrix`` and ``bitrows``) each get a fresh one in the
dtype they read, scattered from the arcs in one place
(``Graph._adjacency``).
The one local gather (``_local_gather``) takes any list of centres y,
each with a row of partners x: the distances from x to Gamma(y), which
split it into the cells C, A and B, and the local graphs at y, both
gathered from the distance matrix, by which each caller counts cells in one
stacked float product, exact below 2**24 in float32.  The one
local-partition pass (``_local_blocks``) feeds it the pairs (x, y) whose
distance lies in the caller's range, selected from the rows of the centres
y (``_at``) and counted first (``_counts``), in blocks of centres y.  The
pass is behind the local (C, A, B) check in ``cab``, which reads its
failing level again from the pair stream (``_pairs_at``) through the gather
alone, in (x, y) order, the lambda- and mu-graph valencies, the mu-graph
report and the triple intersection number.  The
spectrum of a graph that ``check_distance_regular`` certifies is its
array's eigenvalues with the multiplicities the array gives
(``eigen.multiplicities``), when every one is rational or a surd, with no
floating point; every other graph is out of scope (``errors.ScopeError``).
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .arrays import IntersectionArray
from .eigen import eigenvalues, multiplicities
from .errors import InputError, ResourceError, ScopeError, require, require_room
from .scalars import ExactScalar, Surd

GRAPH_FORMAT = "drg-graph-v1"

_DENSE_CAP = 6000
#: a frontier with under 1 / _PUSH_SHARE of all arcs pushes (~33 bytes per arc it holds)
_PUSH_SHARE = 16
#: bytes one block of a blocked pass may hold (``errors.ResourceError``
#: lists the passes and the bytes each holds per entry)
_BUDGET = 1 << 21


def _validate_arcs(n: int, src: np.ndarray, dst: np.ndarray):
    """Raise InputError unless the arcs (grouped by source) have targets in
    range, no loops, strictly ascending rows and a reverse for every arc.
    The first bad arc in arc order is named, as a scan of the neighbour
    lists would find it."""
    same_row = np.r_[False, src[1:] == src[:-1]]
    bad = np.flatnonzero((dst < 0) | (dst >= n) | (dst == src)
                         | same_row & (dst <= np.r_[-1, dst[:-1]]))
    for t in bad[:1].tolist():
        v, u = int(src[t]), int(dst[t])
        if not 0 <= u < n:
            raise InputError(f"neighbor {u} of {v} out of range")
        if u == v:
            raise InputError(f"loop at vertex {v}")
        raise InputError(f"neighbor list of {v} not strictly ascending")
    # rows ascend, so the keys of the arcs are sorted and distinct
    keys = src * n + dst
    back = dst * n + src
    found = keys[np.minimum(np.searchsorted(keys, back), len(keys) - 1)] == back
    for t in np.flatnonzero(~found)[:1].tolist():
        raise InputError(f"adjacency not symmetric: {src[t]}->{dst[t]}")


def _row_ints(bits: np.ndarray) -> List[int]:
    """Each row of a 0/1 matrix as a Python int: bit u is set when entry u is."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(bits, axis=-1, bitorder="little")]


def _ranges(offsets: np.ndarray, most: int) -> List[Tuple[int, int]]:
    """Consecutive ranges (i0, i1) of the segments between the ascending
    ``offsets`` (m + 1 of them) that cover all m: each takes as many
    segments as hold at most ``most`` entries in all, and at least one."""
    cuts, i0, m = [], 0, len(offsets) - 1
    while i0 < m:
        i1 = max(i0 + 1, int(np.searchsorted(offsets, offsets[i0] + most, "right")) - 1)
        cuts.append((i0, i1))
        i0 = i1
    return cuts


def _bit_rows(words: np.ndarray, count: int) -> np.ndarray:
    """(count, len(words)) uint8: row j holds bit j of each little-endian word."""
    return np.unpackbits(words.view(np.uint8).reshape(len(words), -1).T, axis=0,
                         bitorder="little")[:count]


def _per_block(size: int, width: int) -> int:
    """How many items of ``size`` entries of ``width`` bytes one block
    takes: as many as fit in ``_BUDGET``, and at least one; items of no
    entries count one entry each."""
    return max(1, _BUDGET // (max(size, 1) * width))


class Graph:
    """Immutable simple graph stored as one arc index: the intp targets
    ``dst`` of every arc, grouped by source in vertex order with targets
    ascending, and the n + 1 intp offsets ``starts`` of each vertex's arcs,
    8 bytes per arc.  The source of an arc is its position's row, derived
    on demand (``_sources``); no sources array is kept.  ``_dm`` keeps the
    distance matrix once built, ``_dr`` the distance-regularity verdict
    once certified, and ``_common`` the (size, valency) of the lambda- and
    mu-graphs, by level 1 or 2, once a pass has read them
    (``_common_neighbourhoods``); an exception is kept in none of them."""

    __slots__ = ("n", "_dst", "_starts", "_dm", "_dr", "_common")

    def __init__(self, adjacency: Sequence[Sequence[int]]):
        n = len(adjacency)
        starts = np.zeros(n + 1, dtype=np.intp)
        try:
            starts[1:] = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
            dst = np.fromiter(map(operator.index, chain.from_iterable(adjacency)),
                              dtype=np.intp, count=int(starts.sum()))
        except OverflowError:
            raise InputError("neighbor out of range") from None
        except (TypeError, ValueError) as exc:
            raise InputError(f"adjacency must be lists of integers: {exc}") from None
        self._set_arcs(n, np.cumsum(starts, out=starts), dst)
        _validate_arcs(n, self._sources(), dst)

    @classmethod
    def _from_arcs(cls, n: int, starts: np.ndarray, dst: np.ndarray) -> "Graph":
        """The graph on the intp targets ``dst``, grouped by source with
        targets ascending and symmetric, and the intp offsets ``starts`` of
        each vertex's arcs, with no check."""
        g = cls.__new__(cls)
        g._set_arcs(n, starts, dst)
        return g

    def _set_arcs(self, n: int, starts: np.ndarray, dst: np.ndarray):
        self.n, self._starts, self._dst, self._dm, self._dr, self._common = (
            n, starts, dst, None, None, {})

    def _sources(self) -> np.ndarray:
        """The intp source of every arc, built on each call."""
        return np.repeat(np.arange(self.n), self.degrees())

    # -- accessors ---------------------------------------------------------

    def _vertex(self, v: int) -> int:
        """v itself; InputError unless 0 <= v < n."""
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range")
        return v

    def neighbors(self, v: int) -> Tuple[int, ...]:
        v = self._vertex(v)
        return tuple(self._dst[self._starts[v]:self._starts[v + 1]].tolist())

    def degree(self, v: int) -> int:
        v = self._vertex(v)
        return int(self._starts[v + 1] - self._starts[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self._starts)

    @property
    def edge_count(self) -> int:
        return len(self._dst) // 2

    def edges(self):
        src = self._sources()
        up = self._dst > src
        return zip(src[up].tolist(), self._dst[up].tolist())

    def _adjacency(self, dtype) -> np.ndarray:
        """A fresh (n, n) 0/1 adjacency of ``dtype``, scattered from the arcs:
        the one place where they become a dense matrix; nothing is cached.
        ``require_room`` checks its bytes first: one entry of ``dtype`` per
        vertex pair and the intp source of every arc."""
        require_room(f"the dense adjacency entries of {self.n} vertices",
                     np.dtype(dtype).itemsize * self.n * self.n + 8 * len(self._dst))
        adj = np.zeros((self.n, self.n), dtype=dtype)
        adj[self._sources(), self._dst] = 1
        return adj

    def bitrows(self) -> List[int]:
        """Row v of the adjacency as a Python int: bit u is set when u ~ v."""
        return _row_ints(self._adjacency(np.uint8))

    def adjacency_matrix(self) -> np.ndarray:
        """A fresh int64 (n, n) 0/1 adjacency matrix."""
        return self._adjacency(np.int64)

    def _vertices(self, vs) -> np.ndarray:
        """vs as an intp array; InputError names the first vertex out of range."""
        vs = np.asarray(vs, dtype=np.intp).reshape(-1)
        for bad in vs[(vs < 0) | (vs >= self.n)][:1].tolist():
            raise InputError(f"vertex {bad} out of range")
        return vs

    def is_adjacent(self, u: int, v: int) -> bool:
        u, v = self._vertex(u), self._vertex(v)
        row = self._dst[self._starts[u]:self._starts[u + 1]]
        t = np.searchsorted(row, v)
        return bool(t < len(row) and row[t] == v)

    # -- distances ---------------------------------------------------------

    def _distance_rows(self, sources) -> np.ndarray:
        """int16 rows d(s, .), -1 where unreachable.  One breadth-first
        search serves 64 sources: bit j of a vertex's word means "reached
        from source j".  A level with few frontier arcs pushes the
        frontier's words along them (``np.bitwise_or.at``); any other level
        pulls: it ORs every vertex's neighbours' words
        (``np.bitwise_or.reduceat``), gathered over the arcs of consecutive
        vertices, as many as ``_BUDGET`` bytes hold at 8 per arc (a word),
        or one vertex's.  The distances are kept bit-sliced, a few words per
        vertex: word b has bit j set where bit b of d(block[j], v) is, so
        each level ORs its new bits into the seen words and into the words
        of the bits of its number, at its new vertices when they are few
        enough to push and over every vertex otherwise.  The block decodes
        them once at its end, one ``np.unpackbits`` per word
        (bit_length(ecc) of them), and -1 where a bit was never reached."""
        sources = self._vertices(sources)
        dst = self._dst
        deg = self.degrees()
        owners = np.flatnonzero(deg)
        offsets = np.append(self._starts[owners], len(dst))
        # a word of at most 8 bytes per arc
        pulls = [(owners[i0:i1], offsets[i0], offsets[i1], offsets[i0:i1] - offsets[i0])
                 for i0, i1 in _ranges(offsets, _BUDGET // 8)]
        rows = np.zeros((len(sources), self.n), dtype=np.int16)
        for lo in range(0, len(sources), 64):
            block = sources[lo:lo + 64]
            word = np.dtype(f"<u{1 << max(0, (len(block) - 1).bit_length() - 3)}")
            bit = np.left_shift(np.ones(len(block), word), np.arange(len(block), dtype=word))
            frontier = np.zeros(self.n, word)
            np.bitwise_or.at(frontier, block, bit)
            seen, every = np.zeros_like(frontier), np.bitwise_or.reduce(bit)
            hit = np.flatnonzero(frontier)
            sliced = []  # word b: bit b of every distance reached so far
            for level in range((1 << 15) - 1):  # level must fit in int16
                if not len(hit):
                    break
                out = deg[hit]
                push = out.sum() * _PUSH_SHARE < len(dst)
                if level.bit_length() > len(sliced):
                    sliced.append(np.zeros_like(frontier))
                # a push's new bits lie at its few new vertices, a pull's anywhere
                at = hit if push else slice(None)
                new = frontier[at]
                seen[at] |= new
                for b in range(len(sliced)):
                    if level >> b & 1:
                        sliced[b][at] |= new
                # a push past the last level is cheap (it finds no vertex), a pull is not
                if not push and (seen == every).all():
                    break
                if push:
                    ends = np.cumsum(out)
                    to = dst[np.repeat(self._starts[hit] - ends + out, out) + np.arange(ends[-1])]
                    words = np.repeat(frontier[hit], out) & ~seen[to]
                    frontier[hit] = 0
                    np.bitwise_or.at(frontier, to, words)
                    to = np.sort(to[words != 0])
                    hit = to[np.diff(to, prepend=-1) != 0]  # the new vertices, once each
                else:
                    reach = np.zeros_like(frontier)
                    for who, a, b, seg in pulls:
                        reach[who] = np.bitwise_or.reduceat(np.take(frontier, dst[a:b]), seg)
                    frontier = reach & ~seen
                    hit = np.flatnonzero(frontier)
            else:
                if len(hit):  # a vertex at distance 32767
                    raise ResourceError("distances above 32766 do not fit the int16 rows")
            d = rows[lo:lo + len(block)]
            for w in reversed(sliced):  # from the top bit down
                d <<= 1
                d |= _bit_rows(w, len(block))
            d -= _bit_rows(every & ~seen, len(block))  # an unreached bit reads 0 - 1
        return rows

    def distances_from(self, x: int) -> List[int]:
        """Distance vector from x; unreachable vertices get -1."""
        return self._distance_rows([x])[0].tolist()

    def distance_matrix(self) -> np.ndarray:
        """Dense all-pairs distance matrix (-1 for unreachable), read-only.
        ``require_room`` checks its bytes first: 2 per int16 entry, 768 per
        vertex for the engine's 64-source blocks (tracemalloc peaks: 221-563
        per vertex above the entries on H(6,3), H(7,3), J(10,5) and the
        halved 11-cube), and two budgets for the blocks of the engine's
        pull and of the verdict that reads the matrix."""
        if self._dm is None:
            if self.n > _DENSE_CAP:
                raise ResourceError(f"dense distance matrix capped at {_DENSE_CAP} vertices")
            require_room(f"the distance matrix entries of {self.n} vertices",
                         2 * self.n * self.n + 768 * self.n + 2 * _BUDGET)
            self._dm = self._distance_rows(range(self.n))
            self._dm.flags.writeable = False
        return self._dm

    def is_connected(self) -> bool:
        """Whether vertex 0 reaches every vertex, read from the distance
        matrix once it is built.  The graph with no vertex is refused
        (InputError): every verdict that needs a connected graph asks this
        first, so this is where they all refuse it."""
        if not self.n:
            raise InputError("graph has no vertices")
        row = self._distance_rows([0])[0] if self._dm is None else self._dm[0]
        return bool(row.min() >= 0)

    def diameter(self) -> int:
        dm = self.distance_matrix()
        if not self.is_connected():
            raise InputError("diameter undefined for a disconnected graph")
        return int(dm.max())

    # -- construction / serialization -------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """The graph on 0..n-1 with the given edges; repeats and reversed
        pairs count once.  The first bad edge is named."""
        e = np.array(list(edges) or np.empty((0, 2), dtype=np.int64))
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
            raise InputError("edges must be pairs of integers")
        outside = ((e < 0) | (e >= n)).any(axis=1)
        for u, v in e[outside | (e[:, 0] == e[:, 1])][:1].tolist():
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            raise InputError(f"loop at vertex {u}")
        u, v = e.astype(np.intp).T
        arcs = np.unique(np.concatenate([u * n + v, v * n + u]))
        return cls._from_arcs(n, np.searchsorted(arcs, np.arange(n + 1) * n), arcs % n)

    def to_json(self) -> dict:
        """The "drg-graph-v1" object.  Its lists and ints, with the one copy
        of the lists that the CLI makes, take up to 48 bytes per arc and 160
        per vertex (tracemalloc peaks: 40-50 per arc on K_1000, H(6,3) and
        J(12,6), 240 per vertex on a cycle); ``require_room`` checks those
        bytes first."""
        require_room(f"JSON lists of {len(self._dst)} arcs", 48 * len(self._dst) + 160 * self.n)
        dst, starts = self._dst.tolist(), self._starts.tolist()
        return {"format": GRAPH_FORMAT, "n": self.n,
                "adj": [dst[starts[v]:starts[v + 1]] for v in range(self.n)]}

    @classmethod
    def from_json(cls, obj: dict) -> "Graph":
        if not isinstance(obj, dict) or obj.get("format") != GRAPH_FORMAT:
            raise InputError(f'expected a JSON object with "format": "{GRAPH_FORMAT}"')
        n, adj = obj.get("n"), obj.get("adj")
        if not isinstance(n, int) or not isinstance(adj, list) or len(adj) != n:
            raise InputError('"n" must match the length of "adj"')
        if n == 0:
            raise InputError("graph has no vertices")
        return cls(adj)

    @classmethod
    def load(cls, path: str) -> "Graph":
        """The graph in the JSON file at ``path``.  Reading it peaks at up to
        17 times the file's bytes (tracemalloc peaks of ``json.load`` and
        ``from_json``: 14.8-16.8 on H(6,3), K_1000 and C_200000);
        ``require_room`` checks those bytes before the file is opened."""
        require_room(f"the JSON lists of graph file {path}", 17 * os.path.getsize(path))
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def dump(self, path: str) -> None:
        """Write the JSON object to ``path``, which is opened only once the
        object exists: a refused dump leaves the file as it was."""
        obj = self.to_json()
        with open(path, "w") as fh:
            json.dump(obj, fh)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


# -- partitions and quotients ---------------------------------------------


@dataclass(frozen=True)
class VertexPartition:
    cells: Tuple[Tuple[int, ...], ...]
    labels: Tuple[object, ...]

    def __post_init__(self):
        seen = set()
        for cell in self.cells:
            if not cell:
                raise InputError("empty cell in partition")
            for v in cell:
                if v in seen:
                    raise InputError(f"vertex {v} appears in two cells")
                seen.add(v)

    @property
    def ground_set(self) -> Tuple[int, ...]:
        return tuple(sorted(v for cell in self.cells for v in cell))


@dataclass(frozen=True)
class QuotientParameters:
    matrix: Tuple[Tuple[int, ...], ...]
    labels: Tuple[object, ...]


@dataclass(frozen=True)
class EquitabilityWitness:
    cell_index: int
    vertex_a: int
    vertex_b: int
    counts_a: Tuple[int, ...]
    counts_b: Tuple[int, ...]


def distance_partition(g: Graph, x: int, y: int) -> VertexPartition:
    """Cells D^h_j(x, y) = Gamma_j(x) n Gamma_h(y), ordered lex by (j, h)."""
    dx, dy = g._distance_rows([x, y]).tolist()
    if min(dx) < 0:
        raise InputError("distance partition requires a connected graph")
    cells: Dict[Tuple[int, int], List[int]] = {}
    for v in range(g.n):
        cells.setdefault((dx[v], dy[v]), []).append(v)
    keys = sorted(cells)
    return VertexPartition(tuple(tuple(cells[k]) for k in keys), tuple(keys))


def equitable_quotient(g: Graph, p: VertexPartition
                       ) -> Union[QuotientParameters, EquitabilityWitness]:
    """Quotient parameters of p within the induced subgraph on its ground set,
    or the lexicographically smallest witness of inequitability: the first
    inequitable cell, its smallest vertex and the smallest vertex in it
    whose count row differs.  Keys decide: the cells are the digits of the
    keys (``_digit_weights``, float64 words exact below 2**53), and each
    arc adds the digit weight of its target's cell to its source's key in
    that cell's word, one ``bincount`` per range of consecutive vertices
    (``_ranges``): one pass over the arcs, and one entry per (vertex, key
    word), however many cells a word holds.  A vertex outside the ground
    set weighs 0, and a vertex with no arc keys 0.  A member refutes when
    its key differs from that of its cell's first member.  Only the rows
    that the result reports are counted from the arcs (``_count_rows``):
    the first members' rows, or the two rows of the witness.
    ``require_room`` checks the bytes first: 24 per cells x cells entry,
    for the quotient's intp rows and tuples, which bounds the weight table
    too (16.5-16.7 traced on the edge partitions of cycles of 1000 and 3000
    vertices); then 17 per (vertex, key word) entry, for the keys, the keys
    of each vertex's first member and their comparison, 48 per vertex and
    a budget for the arc ranges (traced: 2.2 MiB on cycle(20000) in 100
    residue cells, 18.5 MiB on cycle(200000) and 3.2 MiB on the halved
    16-cube's edge partition, against 4.2, 24.1 and 5.6 MiB predicted).  A key word holds the digits of as many cells as
    (k + 1)^cells <= 2^53 allows, k the largest degree.  The partition with
    no cell has the empty quotient."""
    first = np.array([min(members) for members in p.cells], dtype=np.intp)
    if first.min(initial=0) < 0 or any(max(members) >= g.n for members in p.cells):
        raise InputError("partition has a vertex outside the graph")
    ncells = len(first)
    if not ncells:  # no digit to key
        return QuotientParameters((), ())
    # the quotient, counted only for an equitable p, bounds the weight table too
    require_room(f"the quotient entries of {ncells} cells", 24 * ncells * ncells)
    weights = _digit_weights(g, 1 << 53, ncells)
    words, n, starts = len(weights), g.n, g._starts
    require_room(f"the keys of {n} vertices in {ncells} cells", 17 * words * n + 48 * n + _BUDGET)
    cell = np.full(n, ncells, dtype=np.intp)
    for ci, members in enumerate(p.cells):
        cell[list(members)] = ci
    # each cell's digit lies in one word; cell ncells, outside the ground set, weighs 0
    word = np.append(weights.argmax(axis=0), 0)[cell]
    weight = np.append(weights.max(axis=0), 0)[cell]
    keys = np.empty((n, words))
    # 40 bytes per arc (its target's word and weight, its index, which is its
    # source's row and its target's word, and the sum) and 8 per (vertex,
    # word) entry of the range's keys
    for i0, i1 in _ranges(40 * starts + 8 * words * np.arange(n + 1), _BUDGET):
        target = g._dst[starts[i0]:starts[i1]]
        index = np.repeat(np.arange(0, words * (i1 - i0), words), np.diff(starts[i0:i1 + 1]))
        index += word[target]
        keys[i0:i1] = np.bincount(index, weight[target], words * (i1 - i0)).reshape(-1, words)
    bad = (keys != keys[np.append(first, 0)[cell]]).any(axis=1) & (cell < ncells)
    if bad.any():
        v = int(np.flatnonzero(bad)[np.argmin(cell[bad])])
        ci = int(cell[v])
        a, b = _count_rows(g, cell, [first[ci], v], ncells).tolist()
        return EquitabilityWitness(ci, int(first[ci]), v, tuple(a), tuple(b))
    return QuotientParameters(tuple(map(tuple, _count_rows(g, cell, first, ncells).tolist())),
                              p.labels)


# -- the pair kernel -------------------------------------------------------


#: vertex cap of the dense route: its adjacency takes at most 8 n^2 bytes
_DENSE_KEYS_CAP = 1024
#: the key dtype whose integers are exact below each word limit
_KEY_DTYPE = {1 << 24: np.float32, 1 << 53: np.float64, 1 << 63: np.int64}


def _dense_keys(g: Graph, pairs: int) -> bool:
    """Whether the pair kernel sums the keys of ``pairs`` pairs by a float
    product with the adjacency matrix (an n^2 fill, then n^2 work per pair)
    rather than over the arcs (one gather per arc and pair).  The dense
    route is taken when n <= 1024, n^2 <= 32 arcs and
    4 n^2 <= pairs x arcs: the matrix is at most 8 MB, the graph has at
    least n / 32 neighbours per vertex on average, and the pairs would
    gather at least four times as many arcs as the matrix has entries.  The
    rule was timed with one BLAS thread; on a machine whose cores are busy,
    set ``OPENBLAS_NUM_THREADS=1``."""
    n, arcs = g.n, len(g._dst)
    return n <= _DENSE_KEYS_CAP and n * n <= 32 * arcs and 4 * n * n <= pairs * arcs


def _digit_weights(g: Graph, limit: int, digits: int = 9) -> np.ndarray:
    """(words, digits) weights, in the dtype whose integers are exact below
    ``limit`` (``_KEY_DTYPE``: float32 below 2**24, float64 below 2**53,
    int64 below 2**63), that pack the neighbour counts of a vertex v into
    exact words, in base max degree + 1, as many digits to a word as
    base**digits <= limit allows: digit r counts the neighbours u of v in
    the cells of digit r.  For the pair kernel those are the cells of
    residue r, (3 d(x, u) + d(y, u)) mod 9 with nine digits and
    d(x, u) mod 3 with three, which suffice when x = y (a neighbour of v
    lies in the layers d(x, v) - 1, d(x, v) and d(x, v) + 1, three
    residues); with four, on a graph that carries its certified array,
    digit 2 (d(x, u) mod 3) + (d(y, u) mod 3) counts the cells whose two
    residues are 0 or 1, and no digit the rest (``_check_pairs``); for
    ``equitable_quotient`` each cell is its own digit.  The
    counts of a vertex sum to at most its degree, so no digit carries and
    every key and partial sum stays below the limit.  Keys are only
    compared: equal keys are equal count rows, and nothing reads a count
    back out of a key (``_count_rows`` counts from the arcs)."""
    base = int(g.degrees().max(initial=0)) + 1
    per_word = min(digits, max(t for t in range(1, 64) if base ** t <= limit))
    weights = np.zeros((-(-digits // per_word), digits), dtype=_KEY_DTYPE[limit])
    for r in range(digits):
        weights[r // per_word, r] = base ** (r % per_word)
    return weights


def _pair_keys(g: Graph, adj: Optional[np.ndarray], w: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """The pair kernel: the keys (words, p, n) of the count rows of every
    vertex in pi(x, y) for a block of p pairs, from the digit weight
    w (words, p, n) of every vertex, written to ``out`` when given.

    A neighbour u of v has d(x, u) - d(x, v) and d(y, u) - d(y, v) in
    {-1, 0, 1}, so the residue of u's cell (``_digit_weights``) names it
    among the cells around v, and v's count row is one key per word: the
    digit weights of its neighbours, summed.  On the dense route (``adj``
    the float adjacency, of the weights' dtype) that is one product per
    word, w @ adj; on the sparse route (``adj`` None), for each range of
    consecutive vertices whose arcs fit ``_BUDGET`` bytes at 8 p bytes an
    arc, an int64 per pair (or of one vertex), an int64 gather over the
    range's arcs and a reduction over each vertex's arcs."""
    if adj is not None:
        return np.matmul(w, adj, out=out)
    keys = np.empty(w.shape, dtype=w.dtype) if out is None else out
    dst, starts = g._dst, g._starts
    if not len(dst):  # the one-vertex graph: no neighbour, so every key is 0
        return np.multiply(w, 0, out=keys)
    # every other connected graph has an arc at each vertex, so the segments
    # of each reduction are the arcs of each vertex in the range
    for i0, i1 in _ranges(starts, _BUDGET // (8 * w.shape[1])):
        a, b = starts[i0], starts[i1]
        for word, out_word in zip(w, keys):
            np.add.reduceat(np.take(word, dst[a:b], axis=1), starts[i0:i1] - a, axis=1,
                            out=out_word[:, i0:i1])
    return keys


def _narrow(lab: np.ndarray, count: int) -> np.ndarray:
    """Labels below ``count`` as int16 when that is at most 2^15, for the
    sorts of ``np.unique``: its stable sort is a radix sort at 16 bits, 4 to
    7 times as fast as the merge sort of int64 (int32 gains little)."""
    return lab.astype(np.int16) if count <= 1 << 15 else lab


def _count_rows(g: Graph, cell: np.ndarray, vs, ncells: int) -> np.ndarray:
    """(len(vs), ncells) intp: row t counts the neighbours of vs[t] in each
    cell, one ``bincount`` over its arcs; cell[u] is the cell of vertex u,
    ncells when u lies in no cell.  The one place that counts a vertex's
    row: the quotients that verdicts report, and the rows of a witness."""
    rows = np.empty((len(vs), ncells), dtype=np.intp)
    for t, v in enumerate(vs):
        rows[t] = np.bincount(cell[g._dst[g._starts[v]:g._starts[v + 1]]],
                              minlength=ncells + 1)[:ncells]
    return rows


def _cells(dx: np.ndarray, dy: np.ndarray):
    """(first, cell) of pi(x, y) from the distance rows dx of x and dy of y:
    its cells ascending by (d(x, v), d(y, v)), sorted by the key
    d(x, v) * span + d(y, v) with span one above the largest distance
    (``_narrow``), the first vertex of each and the cell of each vertex."""
    dx = dx.astype(np.intp)
    span = 1 + int(max(dx.max(), dy.max()))
    _, first, cell = np.unique(_narrow(dx * span + dy, span * span), return_index=True,
                               return_inverse=True)
    return first, cell


def _quotient(g: Graph, dx: np.ndarray, dy: np.ndarray):
    """(labels, matrix) of pi(x, y) from the distance rows dx of x and dy of
    y, as int arrays: the labels (cells, 2), (d(x, v), d(y, v)) of its cells
    ascending (``_cells``), and the matrix (cells, cells), as row c the
    neighbours of the first vertex of cell c in each cell, counted from its
    arcs (``_count_rows``), which is the quotient when pi(x, y) is
    equitable.  ``require_room`` checks the matrix's bytes first: 24 per
    cells x cells entry, for its intp counts, the tuples of the report
    (``homogeneous.HomogeneityReport``) and the one copy ``drglab homog``
    makes, its JSON lists (tracemalloc peaks: 16.2-17.4 per entry for
    ``homog --sample`` on cycles of 1000-3000 vertices; 17.0 in process for
    exhaustive 1-homogeneity on cycles, whose symmetry test holds the
    quotient and one copy of its matrix in the order of the swapped
    labels).  The pair kernel counts none; each verdict calls this once for
    the quotient it reports."""
    first, cell = _cells(dx, dy)
    require_room(f"the quotient entries of {len(first)} cells", 24 * len(first) ** 2)
    return np.stack([dx[first], dy[first]], axis=1), _count_rows(g, cell, first, len(first))


def _witness(x: int, y: int, dx: np.ndarray, dy: np.ndarray, keys: np.ndarray):
    """The witness of the refuting pair (x, y) from its distance rows dx and
    dy and its keys (words, n): the least (cell, vertex) whose key differs
    from that of the first vertex of its cell (``_cells``), named with its
    cell label (d(x, v), d(y, v)) and that first vertex; (x, y, None, None,
    None) when the pair is equitable and only its quotient differs."""
    first, cell = _cells(dx, dy)
    differs = np.flatnonzero((keys != keys[:, first[cell]]).any(axis=0))
    if not len(differs):
        return x, y, None, None, None
    v = int(differs[np.argmin(cell[differs])])
    return x, y, (int(dx[v]), int(dy[v])), int(first[cell[v]]), v


def _check_pairs(g: Graph, total: int, chunks):
    """Run the pairs of the stream ``chunks`` through the pair kernel in
    order: each chunk (xs, ys, rows, at_x, at_y) holds the pairs (xs[t],
    ys[t]), whose distance rows are rows[at_x[t]] and rows[at_y[t]];
    ``total``, the pairs of the whole stream, chooses the route
    (``_dense_keys``).  Every pair of a stream is at the distance i of its
    first pair (x0, y0), which each block checks (``require``): then
    |d(y, v) - d(x, v)| <= i and d(x, v) <= 2 ecc(x0) for every vertex v,
    so the kernel alone labels v's cell 2i d(x, v) + d(y, v), that is
    (2i + 1) d(x, v) + (d(y, v) - d(x, v)), distinct, at least 0 and below
    (2i + 1)(2 ecc(x0) + 1), in the order of (d(x, v), d(y, v)).  At i = 0
    (x = y) the label is d(x, v) itself, read from the one row with no
    arithmetic, and the key has three digits, not nine
    (``_digit_weights``).  Above level 0 a graph that carries its
    certified array (``Graph._dr``) keys four digits, not nine: the
    neighbours of v lie in a 3 x 3 block of cells, rows d(x, v) - 1,
    d(x, v), d(x, v) + 1 and columns likewise in d(y, v), whose row sums
    are c, a and b at d(x, v) and whose column sums are those at d(y, v)
    (BCN 4.1), the same for every vertex of v's cell; so the 2 x 2
    sub-block of the rows and columns of residue 0 or 1 mod 3 fixes the
    other five entries, and only its cells carry a digit weight (the other
    labels read a zero column).  Equal keys under equal labels are still
    equal count rows, so every report, witness and pair count is the nine
    digits' own.  A dense key is float32 when one word holds every key
    below 2**24 ((k + 1)^3 <= 2**24 at i = 0, k <= 255; (k + 1)^4 with
    four digits, k <= 63; (k + 1)^9 with nine, k <= 5), float64
    otherwise, and the adjacency takes the same dtype; a sparse key is
    int64.  A label reads its digit weight and its reference key from two
    tables of every label, whose bytes, two keys per label per key word,
    ``require_room`` checks first.  The scan allocates one set of buffers,
    for as many pairs as a block takes, and each block writes into it
    (``out=``): per (pair, vertex) entry an int16 distance, an intp label
    and, per key word, its digit weight (then its reference key), its key
    and their comparison, 10 + 9 bytes for one float32 word, 10 + 17 for one
    float64 or int64 word, the width it states to ``_per_block``.  A block
    takes as many pairs of a chunk as ``_BUDGET`` bytes hold at that width,
    and on the sparse route at 8 bytes per (pair, arc) entry too, its int64
    gather.  The first pair is the reference: for each of its cells, the
    key of the cell's first vertex.  A pair refutes when some vertex's key
    differs from the reference key of its label (a label the first pair
    lacks has none, so it differs too), and counts as checked.  Equal keys under equal labels
    are equal count rows, and the quotient is connected, so a pair that
    does not refute is equitable with the reference quotient.
    Blocks start at one pair and double up to the budget, the step carried
    from one chunk to the next, and the next chunk is read only while every
    pair so far holds, so a refutation reads about as many pairs as it
    needs.  Returns the pairs checked, the refuting pair or None, and the
    reference pair's distance rows (dx, dy).  The refuting pair is (x, y,
    dx, dy, keys, differs): its distance rows, its keys (words, n) and
    whether each vertex's key differs from the reference key of its label,
    from which each verdict names its own witness (``_witness``,
    ``check_distance_regular``).  No quotient is counted here: the caller
    counts the one it reports (``_quotient``)."""
    dense, n = _dense_keys(g, total), g.n
    reference, done, step = None, 0, 1
    for xs, ys, rows, at_x, at_y in chunks:
        lo = 0
        while lo < len(xs):
            if reference is None:
                reference = rows[at_x[0]], rows[at_y[0]]
                i, height = int(reference[0][ys[0]]), 2 * int(reference[0].max()) + 1
                # a certified array fixes the margins of each 3 x 3 block
                four = i and isinstance(g._dr, IntersectionArray)
                count, digits = (2 * i + 1) * height, 4 if four else 9 if i else 3
                # a dense key is float32 when one word holds all its digits
                wide = (int(g.degrees().max(initial=0)) + 1) ** digits > 1 << 24
                wf = _digit_weights(g, 1 << (53 if wide else 24) if dense else 1 << 63, digits)
                require_room(f"the tables of {count} cell labels", 2 * count * wf.nbytes // digits)
                # label (2i + 1) a + e - i, grid cell (a, e), has d(x, v) = a
                # and d(y, v) = a + e - i, residues ra and rb mod 3; its digit
                # is ra at i = 0, 2 ra + rb with four digits when ra, rb < 2
                # (any other label reads the zero column, digit 4), and
                # 3 ra + rb with nine
                ra = np.arange(height)[:, None] % 3
                rb = (ra + np.arange(-i, i + 1)) % 3
                digit = (np.where((ra < 2) & (rb < 2), 2 * ra + rb, 4) if four
                         else 3 * ra + rb if i else ra)
                wl = np.pad(wf, ((0, 0), (0, 1)))[:, digit.ravel()[i:]]
                adj = g._adjacency(wf.dtype) if dense else None
                width = 10 + len(wf) * (2 * wf.itemsize + 1)
                # the sparse route's gathers hold 8 bytes per (pair, arc) too
                most = min(total, _per_block(n, width),
                           total if dense else _per_block(len(g._dst), 8))
                dist, lab = np.empty((most, n), np.int16), np.empty((most, n), np.intp)
                flat = [np.empty(len(wf) * most * n, t) for t in (wf.dtype, wf.dtype, bool)]
            s = min(step, len(xs) - lo)
            d, lb = dist[:s], lab[:s]
            np.take(rows, at_x[lo:lo + s], axis=0, out=d, mode="clip")
            np.copyto(lb, d)
            if i:
                lb *= 2 * i
                np.take(rows, at_y[lo:lo + s], axis=0, out=d, mode="clip")
                lb += d
            # v = y has the label 2i^2 exactly when d(x, y) = i
            require(bool((lb[np.arange(s), ys[lo:lo + s]] == 2 * i * i).all()),
                    "every pair of a pair stream is at the distance of its first pair")
            w, keys, differ = (f[:f.size // most * s].reshape(-1, s, n) for f in flat)
            np.take(wl, lb, axis=1, out=w, mode="clip")
            _pair_keys(g, adj, w, keys)
            if not done and not lo:  # the first pair: its cells' first keys
                cells, first = np.unique(_narrow(lb[0], count), return_index=True)
                ref = np.full_like(wl, -1)
                ref[:, cells] = keys[:, 0, first]
            # the weights are read, so their buffer takes the reference keys
            np.take(ref, lb, axis=1, out=w, mode="clip")
            fails = np.not_equal(keys, w, out=differ).any(axis=(0, 2))
            if fails.any():
                t = int(np.argmax(fails))
                return done + lo + t + 1, (
                    int(xs[lo + t]), int(ys[lo + t]), rows[at_x[lo + t]], rows[at_y[lo + t]],
                    keys[:, t], differ[:, t].any(axis=0)), reference
            lo, step = lo + s, min(2 * step, most)
        done += len(xs)
    return done, None, reference


def _at(dm: np.ndarray, rows, lo: int, hi: int, upper: bool) -> np.ndarray:
    """The one pair selection of every scan: the pairs (x, y) of the rows
    ``rows`` (a slice or intp indices) of the distance matrix ``dm`` with
    lo <= d(x, y) <= hi, and y >= x when ``upper``, as a bool (rows, n)
    array, true at [t, y] for x the t-th row.  It holds at most 3 bytes per
    entry (two bool comparisons, or the selection and the upper mask, and
    their conjunction), and 2 more for the int16 copy of indexed rows."""
    d = dm[rows]
    on = d == lo if lo == hi else (d >= lo) & (d <= hi)
    return on & (np.arange(len(dm)) >= np.arange(len(dm))[rows][:, None]) if upper else on


def _counts(dm: np.ndarray, lo: int, hi: int, upper: bool) -> np.ndarray:
    """The pairs that ``_at`` selects in each row of ``dm``, counted a
    budget's rows at a time at its 3 bytes per entry."""
    count, step = np.zeros(len(dm), dtype=np.intp), _per_block(len(dm), 3)
    for x0 in range(0, len(dm), step):
        count[x0:x0 + step] = np.count_nonzero(_at(dm, slice(x0, x0 + step), lo, hi, upper), 1)
    return count


def _pairs_at(dm: np.ndarray, lo: int, hi: int, upper: bool):
    """The pairs (x, y) that ``_at`` selects in ``dm``, in lexicographic
    order, as chunks for ``_check_pairs``: the rows of as many x as a budget
    holds at 27 bytes per entry (3 for the selection and 24 per pair: the
    flat indices, xs and ys), every chunk but the last alike.  The stream
    has no schedule of its own: the kernel's blocks, which start at one pair
    and double, are what lets an early refutation read few pairs."""
    n = len(dm)
    step = _per_block(n, 27)
    for x0 in range(0, n, step):
        xs, ys = np.divmod(np.flatnonzero(_at(dm, slice(x0, x0 + step), lo, hi, upper)) + x0 * n, n)
        yield xs, ys, dm, xs, ys


# -- distance-regularity ----------------------------------------------------


@dataclass(frozen=True)
class DistanceRegularityWitness:
    x: int
    y: int
    distance: int
    counts: Tuple[int, int, int]
    expected: Tuple[int, int, int]
    reason: str


def check_distance_regular(g: Graph
                           ) -> Union[IntersectionArray, DistanceRegularityWitness]:
    """The intersection array, or the first (lex smallest) violating pair.
    The graph keeps the verdict (``Graph._dr``, written only here), so its
    pairs are scanned once however many verdicts read it; an exception is
    not kept, so a refused graph is refused again on every call.

    The pair test of 1-homogeneity at x = y: pi(x, x) is the distance
    partition from x, its cells the layers (j, j), so the pairs (x, x) run
    through the pair kernel, and the array is read from the quotient of
    pi(0, 0): b_j = matrix[j][j + 1], c_j = matrix[j][j - 1], its length
    ecc(0), which is the diameter when the check holds.  When x refutes,
    its row in the kernel names y: the first vertex but x whose key differs
    from the reference key of its layer, that is whose counts one layer
    down, in its own layer and one layer up differ from those of the first
    vertex of its layer around vertex 0; vertices farther from x than
    ecc(0), whose layers the reference lacks, are skipped.  Those three
    layers are three distinct residues of d(x, .) mod 3, and a vertex has
    no neighbour in any other layer, so y's counts are read from its own
    arcs in the three residues (``_count_rows``), and must differ
    (``require``) from its layer's row of the quotient.  So the verdict
    reads no distance row but those of the chunk it hands the kernel."""
    if g._dr is None:
        g._dr = _distance_regularity(g)
    return g._dr


def _distance_regularity(g: Graph) -> Union[IntersectionArray, DistanceRegularityWitness]:
    """``check_distance_regular``'s verdict, computed on each call."""
    if not g.is_connected():
        raise InputError("distance-regularity is defined for connected graphs")
    if g.n == 1:
        raise InputError("single-vertex graph has no intersection array")
    every = np.arange(g.n)
    _, refuted, reference = _check_pairs(
        g, g.n, [(every, every, g.distance_matrix(), every, every)])
    labels, matrix = _quotient(g, *reference)
    # row j + 1 of q holds the counts of layer j around vertex 0 in layers
    # j - 1, j and j + 1; when ecc(0) < D, b at level ecc(0) is 0 here but
    # positive on a geodesic to a diametral vertex, so some pair refutes
    q = np.pad(matrix, 1)
    c, a, b = q.diagonal(-1)[:-1], q.diagonal()[1:-1], q.diagonal(1)[1:]
    if refuted is None:
        return IntersectionArray(tuple(b[:-1].tolist()), tuple(c[1:].tolist()))
    x, _, dx, _, _, differs = refuted
    # a vertex beyond ecc(0) has a label the reference lacks
    differs &= dx < len(labels)
    differs[x] = False
    require(bool(differs.any()), "a refuting vertex of distance-regularity differs within ecc(0)")
    y = int(np.argmax(differs))
    d = int(dx[y])
    got = _count_rows(g, dx % 3, [y], 3)[0, [(d - 1) % 3, d % 3, (d + 1) % 3]].tolist()
    want = [int(c[d]), int(a[d]), int(b[d])]
    require(got != want, "the witness's layer counts differ from its layer's row around 0")
    return DistanceRegularityWitness(x, y, d, tuple(got), tuple(want),
                                     "intersection numbers depend on the pair")


# -- induced subgraphs -------------------------------------------------------


@dataclass(frozen=True)
class InducedSubgraph:
    graph: Graph
    vertex_map: Tuple[int, ...]  # position -> original vertex id


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> InducedSubgraph:
    """Subgraph induced on the given vertices, numbered in ascending order."""
    vs = np.unique(g._vertices(vertices))
    inside = np.zeros(g.n, dtype=bool)
    inside[vs] = True
    keep = inside[g._sources()] & inside[g._dst]
    rank = np.cumsum(inside) - 1  # monotone, so rows stay grouped and ascending
    # the kept arcs of vs[j] are those between its offsets
    kept = np.r_[0, np.cumsum(keep)][np.r_[g._starts[vs], len(keep)]]
    return InducedSubgraph(Graph._from_arcs(len(vs), kept, rank[g._dst[keep]]),
                           tuple(vs.tolist()))


def local_graph(g: Graph, x: int) -> InducedSubgraph:
    """Subgraph induced on Gamma(x)."""
    (x,) = g._vertices(x)
    return induced_subgraph(g, g.neighbors(x))


def mu_graph(g: Graph, x: int, y: int) -> InducedSubgraph:
    """Subgraph induced on Gamma(x) n Gamma(y); requires d(x, y) = 2."""
    x, y = g._vertices([x, y]).tolist()
    common = np.intersect1d(g.neighbors(x), g.neighbors(y), assume_unique=True)
    if g.is_adjacent(x, y) or x == y or not len(common):
        raise InputError(f"vertices {x}, {y} are not at distance 2")
    return induced_subgraph(g, common)


# -- mu-graph regularity -----------------------------------------------------


@dataclass(frozen=True)
class C2RegularityReport:
    c2: int
    regular: bool
    kappa: Optional[int]
    terwilliger: bool
    t_max: int


def _max_coclique_rows(rows: Sequence[int], universe: int, best: int = 0) -> int:
    """The larger of ``best`` and the largest coclique within ``universe``
    (bit v set for vertex v, whose neighbours are ``rows[v]``); a known
    ``best`` prunes every branch that cannot beat it."""

    def grow(candidates: int, size: int):
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = max(best, size)
            return
        v = (candidates & -candidates).bit_length() - 1
        # branch: exclude v, then include v
        grow(candidates & ~(1 << v), size)
        grow(candidates & ~(1 << v) & ~rows[v], size + 1)

    grow(universe, 0)
    return best


def max_coclique(g: Graph) -> int:
    """Exact maximum coclique size, branch-and-bound with a greedy bound,
    over neighbour rows read from the arcs, so that no dense adjacency is
    built (the c2 report searches its first mu-graph with it)."""
    return _max_coclique_rows([sum(1 << u for u in g.neighbors(v)) for v in range(g.n)],
                              (1 << g.n) - 1)


# -- local partitions --------------------------------------------------------


def _local_gather(g: Graph, ys: np.ndarray, xs: np.ndarray):
    """(dist, local) for the centres ys (B,), repeats allowed, and their
    partner rows xs (B, p): dist (B, k, p) int16, d(xs[b, t], v) at [b, a,
    t] for v the a-th neighbour of ys[b] (-1 for padding v), so that the v
    at distance i - 1, i and i + 1 from x are the cells C, A and B of
    d(x, y) = i; and the uint8 local graphs at ys, 1 where two neighbours
    are at distance 1.  The neighbour rows, k the largest degree, are read
    from the arcs, short rows padded with n; both arrays are read from the
    rows of the distance matrix at each centre's neighbours, at its
    neighbours and partners, in gathers of as many centres as keep the intp
    index within an eighth of the budget, so no index spans a full block."""
    flat, dst, starts = g.distance_matrix().reshape(-1), g._dst, g._starts
    n, k = g.n, int(g.degrees().max(initial=0))
    arc = starts[ys, None] + np.arange(k)
    nby = np.where(arc < starts[ys + 1, None], dst.take(arc, mode="clip"), n)
    cols = np.concatenate([nby, xs], axis=1)
    rows = np.empty((len(ys), k, cols.shape[1]), dtype=np.int16)
    # as many centres to a gather as keep its intp index within an eighth
    # of the budget: 64 bytes an entry
    per = _per_block(k * cols.shape[1], 64)
    for b in range(0, len(ys), per):
        flat.take((nby[b:b + per] * n)[:, :, None] + cols[b:b + per, None],
                  mode="clip", out=rows[b:b + per])
    pad = nby == n
    if pad.any():  # the padding n is no vertex
        rows[pad] = -1
        np.copyto(rows[:, :, :k], -1, where=pad[:, None, :])
    return rows[:, :, k:], (rows[:, :, :k] == 1).view(np.uint8)


def _local_blocks(g: Graph, lo: int, hi: int, upper: bool, width: int, grow: bool = False):
    """The pairs (x, y) with lo <= d(x, y) <= hi, and x >= y when ``upper``,
    in blocks of centres y ascending, read from row y of the distance
    matrix (``_at``).  Yields (ys, xs, dist, local): the centres ys (B,)
    with partners; their partners xs (B, p), ascending, a short list
    repeating its last; and ``_local_gather``'s (dist, local) for them.
    The partners of every centre are counted first (``_counts``), and a
    block's rows are selected again, so no (n, n) array is held.  A block
    holds ``_BUDGET`` bytes at the caller's ``width`` bytes per entry, k
    per partner and k^2 and its n selected entries per centre, or one
    centre; ``grow`` starts at one centre and doubles."""
    dm, n, k = g.distance_matrix(), g.n, int(g.degrees().max(initial=0))
    count = _counts(dm, lo, hi, upper)
    centres = np.flatnonzero(count)
    # the longest list from a centre on bounds the lists of a block from it
    reach = np.maximum.accumulate(count[centres][::-1])[::-1]
    b0, step = 0, 1 if grow else len(centres)
    while b0 < len(centres):
        step = min(step, _per_block((int(reach[b0]) + k) * k + n, width))
        ys = centres[b0:b0 + step]
        b0, step = b0 + step, 2 * step
        cnt = count[ys]
        at = np.minimum(np.arange(int(cnt.max())), cnt[:, None] - 1)
        # the columns selected in the rows ys, by a flat scan (a 2-d
        # np.nonzero takes about 4 ns an entry, a flat bool scan 0.6)
        xs = np.flatnonzero(_at(dm, ys, lo, hi, upper))[at + (np.cumsum(cnt) - cnt)[:, None]] % n
        yield (ys, xs, *_local_gather(g, ys, xs))


def _bounds(local: np.ndarray, cell: np.ndarray, where: Optional[np.ndarray] = None):
    """Each pair's size of the cell ``cell`` (bool (B, k, p)) in a block,
    and the count of a v's neighbours in the cell that every v where
    ``where`` holds (the cell itself by default) has, or None when the
    counts differ: one stacked float32 product of the local graphs, with a
    row of ones for the sizes.  A v of ``where`` counts less top = k + 1,
    below zero, so the least count is the least entry plus top: for the
    cell itself by -top on the diagonal of the local graphs, which are 0
    there, otherwise by a subtraction."""
    B, k, _ = local.shape
    top = k + 1
    weights = np.ones((B, k + 1, k), dtype=np.float32)
    weights[:, :k] = local
    if where is None:
        where = cell
        weights[:, np.arange(k), np.arange(k)] = -top
    counts = np.matmul(weights, cell.astype(np.float32))
    if where is not cell:
        counts[:, :-1] -= where * np.float32(top)
    inside = counts[:, :-1]
    least = inside.min(initial=0)
    same = np.count_nonzero(inside == least) == np.count_nonzero(where)
    return counts[:, -1], int(least) + top if same else None


def _common_neighbourhoods(g: Graph, i: int, patterns: Optional[list] = None,
                           known: Optional[int] = None
                           ) -> Tuple[Optional[int], Optional[int]]:
    """(size, valency) over the unordered pairs {x, y} at distance i (1 or 2):
    the common size |Gamma(x) n Gamma(y)|, and the valency of the graphs
    induced on it (the lambda- or mu-graphs), None unless they are all
    regular with one valency and have vertices.  At y it is the A cell at
    level 1 and the C cell at level 2.  Raises InputError when the size
    varies.  A list ``patterns`` gets the distinct patterns of each block
    whose graphs are not all regular of valency ``known`` (of every block
    when ``known`` is None).  The graph keeps the result (``Graph._common``,
    written only here; an exception is not kept), which a later call reads
    in place of the pass when it asks for no patterns, or when the kept
    valency is ``known``, so that no block could give one."""
    kept = g._common.get(i)
    if kept and (patterns is None or known is not None and kept[1] == known):
        return kept
    size, valencies = None, set()
    # bytes written per entry: an int16 distance, a bool member, its float32
    # weight and count, a bool comparison, the member's copy in pair order
    # (for the patterns) and at most one of the gather's index; the pairs
    # x > y, read at their centre y
    for _, _, dist, local in _local_blocks(g, i, i, True, 14):
        member = dist == 1
        sizes, valency = _bounds(local, member)
        size = int(sizes.flat[0]) if size is None else size
        if (sizes != size).any():
            kind = ("lambda", "mu")[i - 1]
            raise InputError(f"graph is not distance-regular: |{kind}-graph| varies")
        if size:
            valencies.add(valency)
            if patterns is not None and (known is None or valency != known):
                patterns.extend(_patterns(local, member, size))
    return g._common.setdefault(i, (size, valencies.pop() if len(valencies) == 1 else None))


def _patterns(local: np.ndarray, member: np.ndarray, size: int):
    """The distinct adjacency patterns of the graphs on the members
    (``member``, bool (B, k, p): the v at distance 1 from x) of a block's
    pairs: the bits above the diagonal (on it when size = 1), packed, as
    one integer, which sorts faster, when they fit in 8 bytes; at most
    ``_BUDGET`` bytes at a time, 25 per bit: three intp arrays (the row and
    column of each bit, and their sum) and the bit."""
    _, k, p = member.shape
    # the members in (b, t, a) order: each pair's, ascending
    pair, col = np.divmod(np.flatnonzero(member.transpose(0, 2, 1)), k)
    col = col.reshape(-1, size)
    row = col * k + (pair[::size] // p * (k * k))[:, None]
    u, w = np.triu_indices(size, size > 1)
    step = _per_block(len(u), 25)
    for lo in range(0, len(col), step):
        keys = np.packbits(np.take(local, row[lo:lo + step, u] + col[lo:lo + step, w]), axis=1)
        width = keys.shape[1]
        keys = (np.concatenate([keys, np.zeros((len(keys), 8 - width), np.uint8)], 1).view("<u8")
                if width <= 8 else keys.view(np.dtype((np.void, width))))
        yield np.unique(keys.ravel())


def _coclique_bound(size: int, valency: Optional[int]) -> int:
    """The largest coclique a graph on ``size`` vertices can have when it is
    regular of ``valency`` (None: any graph): a coclique I of a
    kappa-regular graph, kappa >= 1, sends its kappa |I| edges to the
    size - |I| other vertices, and the kappa neighbours of any vertex of I
    lie outside it, so |I| <= min(size / 2, size - kappa)."""
    return min(size // 2, size - valency) if valency else size


def c2_regularity_report(g: Graph) -> C2RegularityReport:
    """mu-graph valency/completeness survey over all distance-2 pairs, and
    the largest coclique t_max of a mu-graph, in one pass over the pairs.
    The mu-graph of the first pair at distance 2 is searched first; when
    its largest coclique meets the bound of a graph regular of its valency
    (``_coclique_bound``), no mu-graph regular of that valency can beat it,
    so the pass collects patterns only from blocks whose mu-graphs are not
    all of that valency, and none when every mu-graph is.  The largest
    coclique is searched once per distinct pattern collected (mu-graphs
    with equal patterns are equal up to relabelling), each search pruned by
    the largest found so far, and no more once that meets the bound.  A
    graph whose kept mu-graph pass (``Graph._common``, from the local
    spectral checks or an earlier report) found every mu-graph regular of
    the first one's valency, when that one's coclique meets the bound,
    makes no pass: no pattern could beat it."""
    dm = g.distance_matrix()
    if int(dm.max(initial=0)) < 2:
        raise InputError("c2-graph analysis requires diameter >= 2")
    x = next(v for v in range(g.n) if (dm[v] == 2).any())
    mu = mu_graph(g, x, int(np.argmax(dm[x] == 2))).graph
    deg = mu.degrees()
    first = int(deg[0]) if (deg == deg[0]).all() else None
    t_max, patterns = max_coclique(mu), []
    known = first if t_max >= _coclique_bound(mu.n, first) else None
    c2, kappa = _common_neighbourhoods(g, 2, patterns, known)
    most = _coclique_bound(c2, kappa)
    a, b = np.triu_indices(c2, c2 > 1)
    for pattern in np.unique(np.concatenate(patterns)) if patterns else ():
        if t_max >= most:
            break
        bits = np.zeros((c2, c2), dtype=np.uint8)
        bits[a, b] = np.unpackbits(np.frombuffer(pattern.tobytes(), dtype=np.uint8))[:len(a)]
        t_max = _max_coclique_rows(_row_ints(bits | bits.T), (1 << c2) - 1, t_max)
    return C2RegularityReport(c2, kappa is not None, kappa, kappa == c2 - 1, t_max)


def triple_intersection_number(g: Graph) -> Optional[int]:
    """The number of common neighbours of (x, y, z) where x ~ y and z is at
    distance 2 from both, if that count is constant over all such triples;
    None when it varies: at x against z, y's neighbours in the C cell, for y
    in the A cell at level 2.  Requires at least one such triple, and reads
    the dense distance matrix, so at most ``_DENSE_CAP`` vertices."""
    found = set()
    # bytes written per entry: an int16 distance, two bool cells, float32
    # weights, counts and their correction, a bool comparison and at most one
    # of the gather's index
    for _, _, dist, local in _local_blocks(g, 2, 2, False, 18):
        if (dist == 2).any():
            found.add(_bounds(local, dist == 1, dist == 2)[1])
            if None in found or len(found) > 1:
                return None
    if not found:
        raise InputError("no triple (x~y, z at distance 2 from both) exists")
    return found.pop()


# -- spectra -----------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumReport:
    values: Tuple[Tuple[ExactScalar, int], ...]  # (eigenvalue, multiplicity), descending
    exact: bool = True


def graph_spectrum(g: Graph) -> SpectrumReport:
    """Exact adjacency spectrum with multiplicities (descending) of a
    certified distance-regular graph whose eigenvalues are all rational or
    surds: the eigenvalues of its array (``eigen.eigenvalues``) with the
    multiplicities that the array gives (``eigen.multiplicities``, which
    checks them against n, the trace and the trace of A^2), at any size the
    certification (``check_distance_regular``) reaches.

    Every other graph raises ``ScopeError``: one that is not distance-regular
    (not regular, disconnected, a single vertex or the empty graph, or
    refuted by the certification), or whose array has an eigenvalue of
    degree 3 or more.  A connected graph of valency 2 is a polygon, and the
    n-gon has the eigenvalue 2 cos(2 pi / n) of degree phi(n) / 2 >= 3 once
    n > 12, so such polygons are refused before any eigenvalue is found."""
    deg = g.degrees()
    if (g.n >= 2 and (deg == deg[0]).all() and (deg[0] != 2 or g.n <= 12)
            and g.is_connected()):
        ia = check_distance_regular(g)
        if isinstance(ia, IntersectionArray):
            thetas = eigenvalues(ia).values
            if all(isinstance(t, (Fraction, Surd)) for t in thetas):
                return SpectrumReport(tuple(zip(thetas, multiplicities(ia))))
    raise ScopeError("an exact spectrum needs a distance-regular graph whose "
                     "eigenvalues are all rational or surds")
