"""The block budget ``graph._BUDGET``, in bytes, on every arc-sized gather
and on the local-partition pass: the sparse keys of the pair kernel
(``graph._pair_keys``), the keys of an equitable quotient
(``graph.equitable_quotient``) and the pull step of the distance engine
(``Graph._distance_rows``) read the arcs of consecutive vertex ranges
(``graph._ranges``), within the budget or of one vertex each.

The keys are compared with the whole-arc gather they replaced
(``pair_keys_oracle``), the quotients with the bitset oracle
(``test_equitability.oracle_quotient``), and the rows with the queue search
(``bfs_oracle``), under budgets small enough that every block splits, on
relabelled and switched corpus graphs and on K_{40,40}, where one vertex's
arcs exceed the budget.  ``tracemalloc`` holds the keys and the rows to the
budget on the halved 14-cube, an equitable quotient to its prediction on
the halved 16-cube and to its keys on cycle(20000), and the CAB check and
the c2 report on folded J(12,6).  With
the distance matrix built, the exhaustive pair scans hold no (n, n)
selection and stay within three budgets, a dense pair scan holds its
adjacency and one block of buffers at the width it states, and sampled
draws hold one batch of rows, however many there are.  The ranges of the passes that large
sampled runs take are pinned at 2^18 arcs.  The one pair selection of the
scans (``graph._at``), its counts per row (``graph._counts``) and its
stream of growing chunks (``graph._pairs_at``) are compared with a
brute-force pair list from the queue search.
"""

import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import cell_counts_oracle
import drglab.graph as graph
import pair_keys_oracle
from bfs_oracle import bfs_distances
from drglab.cab import cab_partition_check
from drglab.families import (complete, complete_multipartite, cycle, folded_johnson,
                             halved_cube, hamming, johnson)
from drglab.homogeneous import check_i_homogeneous
from test_distance_engine import path, union
from test_equitability import BASES, oracle_quotient, relabel, switch
from test_local import varying_degree_graphs

# in int64 entries of 8 bytes: the budget in bytes is 8 budget, which the
# sparse keys and the pull read as 1, 7 and 64 arcs a range
BUDGETS = pytest.mark.parametrize("budget", [1, 7, 64])


def corpus():
    """Every base relabelled and switched, and K_{40,40} (valency 40)."""
    rng = random.Random(26)
    graphs = [complete_multipartite(2, 40)]
    for base in BASES:
        graphs += [relabel(base, rng), switch(relabel(base, rng), rng)]
    return graphs


CORPUS = corpus()


@pytest.mark.parametrize("most", [0, 1, 7, 64, 1 << 18])
def test_ranges_take_the_most_segments_within_the_budget(most):
    offsets = [g._starts for g in CORPUS[:3]] + [np.array([0, 0, 3, 3, 10, 10, 11]),
                                                 np.array([0])]
    for off in offsets:
        cuts = graph._ranges(off, most)
        m = len(off) - 1
        # consecutive, from 0 to m
        assert [i0 for i0, _ in cuts] + [m] == [0] + [i1 for _, i1 in cuts]
        for i0, i1 in cuts:
            assert i1 == i0 + 1 or off[i1] - off[i0] <= most
            # no further segment fits
            assert i1 == m or off[i1 + 1] - off[i0] > most


@BUDGETS
@pytest.mark.parametrize("pairs", [1, 3])
def test_blocked_keys_match_the_whole_arc_gather(monkeypatch, budget, pairs):
    monkeypatch.setattr(graph, "_BUDGET", 8 * budget)
    rng = np.random.default_rng(budget * 10 + pairs)
    for g in CORPUS:
        for words in (1, 2):
            w = rng.integers(0, 1 << 40, size=(words, pairs, g.n))
            got = graph._pair_keys(g, None, w)
            assert got.dtype == np.int64
            assert np.array_equal(got, pair_keys_oracle.pair_keys(g, w))


#: distance ranges (lo, hi) of the one pair selection: lo < hi, lo = hi,
#: level 0, and every pair, unreachable ones (-1) too
RANGES = [(1, 3), (0, 2), (1, 1), (2, 2), (0, 0), (-1, 16)]


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(varying_degree_graphs())
def test_the_one_pair_selection_matches_a_brute_force_pair_list(g):
    # every range, upper and not, under a budget of one byte (a row to every
    # chunk and count step) and of 2 MiB; every chunk of the stream but the
    # last holds a budget's rows at 27 bytes per entry
    bfs = [bfs_distances(g, x) for x in range(g.n)]
    dm = g.distance_matrix()
    for budget, (lo, hi), upper in itertools.product([1, 1 << 21], RANGES, [False, True]):
        want = [(x, y) for x in range(g.n) for y in range(g.n)
                if lo <= bfs[x][y] <= hi and (y >= x or not upper)]
        at = graph._at(dm, slice(0, g.n), lo, hi, upper)
        assert at.shape == (g.n, g.n) and list(zip(*np.nonzero(at))) == want
        order = np.arange(g.n)[::-1].copy()  # indexed rows, in any order
        assert [(int(order[t]), int(y)) for t, y in zip(*np.nonzero(
            graph._at(dm, order, lo, hi, upper)))] == sorted(want, key=lambda p: (-p[0], p[1]))
        with mock.patch.object(graph, "_BUDGET", budget), \
                mock.patch.object(graph, "_at", wraps=graph._at) as spy:
            counts = graph._counts(dm, lo, hi, upper)
            assert counts.tolist() == [sum(x == v for x, _ in want) for v in range(g.n)]
            spy.reset_mock()
            chunks = list(graph._pairs_at(dm, lo, hi, upper))
        assert [(int(x), int(y)) for xs, ys, *_ in chunks for x, y in zip(xs, ys)] == want
        assert all(rows is dm and at_x is xs and at_y is ys
                   for xs, ys, rows, at_x, at_y in chunks)
        spans = [call.args[1] for call in spy.call_args_list]
        sizes = [min(s.stop, g.n) - s.start for s in spans]
        assert [s.start for s in spans] == np.cumsum([0] + sizes[:-1]).tolist()
        assert sum(sizes) == g.n
        assert all(size == max(1, budget // (27 * g.n)) for size in sizes[:-1])
        assert max(sizes, default=1) <= max(1, budget // (27 * g.n))


def test_sparse_keys_over_no_arcs_are_zero():
    # the one-vertex graph, whose level 0 is the pair (0, 0)
    w = np.ones((2, 3, 1), dtype=np.int64)
    assert np.array_equal(graph._pair_keys(complete(1), None, w), np.zeros_like(w))


@BUDGETS
def test_blocked_quotients_match_the_oracle(monkeypatch, budget):
    # an equitable quotient's keys read the arcs in ranges at 40 bytes an
    # arc: budgets of 8, 56 and 512 bytes split them down to one vertex a
    # range; random cells with and without vertices outside them (cell
    # -1), and the partition from an edge, on the corpus and on a union
    # with a path and an isolated vertex, whose vertices have no arc
    monkeypatch.setattr(graph, "_BUDGET", 8 * budget)
    rng = np.random.default_rng(budget)
    for g in CORPUS + [union(CORPUS[1], path(30), graph.Graph([[]]))]:
        parts = [graph.distance_partition(g, 0, g.neighbors(0)[0])] if g.is_connected() else []
        for ncells, low in ((1, 0), (5, 0), (5, -1)):
            cell = rng.integers(low, ncells, size=g.n)
            cells = tuple(c for c in (tuple(np.flatnonzero(cell == c).tolist())
                                      for c in range(ncells)) if c)
            parts.append(graph.VertexPartition(cells, tuple(range(len(cells)))))
        for p in parts:
            assert graph.equitable_quotient(g, p) == oracle_quotient(g, p)


@BUDGETS
def test_distance_rows_match_the_oracle(monkeypatch, budget):
    # 9, 16 and 64 sources take words of one, two and eight bytes; 70 makes
    # two blocks; isolated vertices and a path leave some vertices out of
    # the pull and make it push
    monkeypatch.setattr(graph, "_BUDGET", 8 * budget)
    rng = random.Random(budget)
    for g in CORPUS + [union(CORPUS[1], path(30), graph.Graph([[]]))]:
        for count in (1, 9, 16, 64, 70):
            sources = [rng.randrange(g.n) for _ in range(count)]
            want = np.array([bfs_distances(g, s) for s in sources], dtype=np.int16)
            assert np.array_equal(g._distance_rows(sources), want)


def traced_peak(call):
    """The call's result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def hc14():
    # 8192 vertices and 745472 arcs: a whole-arc gather of int64 takes 6 MB
    return halved_cube(14)


def test_sparse_keys_stay_within_the_budget(hc14):
    w = np.ones((1, 1, hc14.n), dtype=np.int64)
    keys, peak = traced_peak(lambda: graph._pair_keys(hc14, None, w))
    assert np.array_equal(keys, pair_keys_oracle.pair_keys(hc14, w))
    # one range's gather is 2 MiB (2^18 int64 entries)
    assert peak - keys.nbytes < 3 << 20


def test_cell_counts_stay_within_the_budget():
    # 32768 vertices and 3932160 arcs, whose edge partition has 23 cells:
    # the keys' arc ranges take one budget, and the peak stays within the
    # bytes the call predicts; the quotient's rows are the whole-arc counts
    # of each cell's first vertex, alike within each cell
    g = halved_cube(16)
    p = graph.distance_partition(g, 0, 1)
    asked = []
    with mock.patch.object(graph, "require_room", lambda what, need: asked.append(need)):
        q, peak = traced_peak(lambda: graph.equitable_quotient(g, p))
    assert peak <= max(asked), (peak, asked)
    cell = np.empty(g.n, dtype=np.intp)
    for c, members in enumerate(p.cells):
        cell[list(members)] = c
    counts = cell_counts_oracle.cell_counts(g, cell, len(p.cells))
    assert all((counts[list(members)] == row).all() for members, row in zip(p.cells, q.matrix))


def test_an_equitable_quotient_holds_its_keys_not_its_counts():
    # cycle(20000) in 100 residue cells: keys of four float64 words a
    # vertex, where the (vertex, cell) counts peaked at 18.0 MiB
    g = cycle(20000)
    p = graph.VertexPartition(tuple(tuple(range(r, 20000, 100)) for r in range(100)),
                              tuple(range(100)))
    q, peak = traced_peak(lambda: graph.equitable_quotient(g, p))
    assert q.matrix[0] == (0, 1) + (0,) * 97 + (1,)
    assert peak <= 4 << 20, peak


def test_pull_stays_within_the_budget(hc14):
    rows, peak = traced_peak(lambda: hc14._distance_rows(range(64)))
    assert np.array_equal(rows[0], bfs_distances(hc14, 0))
    # per vertex: the degree and the pull's owners, offsets and segments,
    # four uint64 words (frontier, seen, reach and the new vertices) and the
    # distances bit-sliced into bit_length(7) = 3 more; the one decode at the
    # block's end (64 unpacked bits of a byte each) holds less.  One range of
    # the pull's gather takes at most 2 MiB (measured: 2.18 MiB above these)
    assert peak - rows.nbytes - hc14.n * (4 * 8 + 4 * 8 + 3 * 8) < 5 << 19


def test_local_pass_stays_within_the_budget():
    # 462 vertices of valency 36; the distance matrix is built first, so
    # what is traced is the pass: one block within the budget, the gather's
    # index within an eighth of it, and a budget's rows of the selection
    # while the partners are counted (blocks of 2^18 entries, whatever their bytes,
    # peaked at 4.4 MiB in the CAB check and 4.0 in the c2 report)
    g = folded_johnson(12, 6)
    g.distance_matrix()
    for check in (cab_partition_check, graph.c2_regularity_report):
        _, peak = traced_peak(lambda: check(g))
        assert peak < 3 * graph._BUDGET // 2


def test_pair_scans_stay_within_three_budgets():
    # with the distance matrix built, what is traced is the scan: chunks of
    # its rows, blocks of pairs or centres and their selected rows, and no (n, n)
    # selection.  On H(7,3) (2187 vertices) the selections made exhaustive
    # 1-homogeneity, CAB, the c2 report and the triple number peak at 4.8,
    # 9.9, 6.9 and 6.2 MiB; on cycle(4000) the lambda pass read every
    # centre in one block and copied its selection rows, 30.9 MiB
    g, c = hamming(7, 3), cycle(4000)
    g.distance_matrix()
    c.distance_matrix()
    checks = [(lambda: check_i_homogeneous(g, 1).holds, True),
              (lambda: cab_partition_check(g).holds, True),
              (lambda: graph.c2_regularity_report(g).c2, 2),
              (lambda: graph.triple_intersection_number(g), 1),
              (lambda: graph._common_neighbourhoods(c, 1), (0, None))]
    for check, want in checks:
        got, peak = traced_peak(check)
        assert got == want
        assert peak < 3 * graph._BUDGET


def test_dense_scans_hold_their_adjacency_and_one_block(monkeypatch):
    # the dense route allocates one set of buffers a scan, for as many
    # pairs as a block takes at the width it states (``_per_block``), and
    # every block writes into it: above its adjacency a scan holds that
    # block, the label tables and the 64 KiB buffers of a ufunc's casts.
    # Level 0 (distance-regularity) keys float32 words at 19 bytes an
    # entry, level 1 float64 ones at 27; blocks that allocated their
    # temporaries held 42-44 bytes an entry against a stated 32
    widths, per_block = [], graph._per_block
    monkeypatch.setattr(graph, "_per_block",
                        lambda size, width: widths.append(width) or per_block(size, width))
    adjacency, build = [], graph.Graph._adjacency
    monkeypatch.setattr(graph.Graph, "_adjacency",
                        lambda g, dtype: adjacency.append(adj := build(g, dtype)) or adj)
    for g in (johnson(10, 5), halved_cube(10)):
        dm, every = g.distance_matrix(), np.arange(g.n)
        for level, chunks in enumerate([[(every, every, dm, every, every)],
                                        list(graph._pairs_at(dm, 1, 1, True))]):
            total = sum(len(xs) for xs, *_ in chunks)
            widths.clear()
            adjacency.clear()
            (checked, witness, _), peak = traced_peak(
                lambda: graph._check_pairs(g, total, chunks))
            assert (checked, witness) == (total, None)
            (width,), (adj,) = widths, adjacency
            assert (width, adj.dtype) == ((19, np.float32), (27, np.float64))[level]
            assert peak - adj.nbytes < width * min(total, per_block(g.n, width)) * g.n + (1 << 17)


def test_sampled_draws_hold_one_batch_of_rows():
    # a batch's 64 rows, not a row per draw: 30 times the draws peak
    # within a batch's rows more (H(6,3): 729 vertices, 93 KiB a batch)
    g = hamming(6, 3)
    peaks = []
    for count in (100, 3000):
        rep, peak = traced_peak(lambda: check_i_homogeneous(g, 1, "sampled", seed=3, count=count))
        assert rep.holds and rep.pairs_checked == count
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 64 * 2 * g.n


def test_large_sampled_passes_keep_their_arc_ranges(monkeypatch, hc14):
    # the sparse keys of one pair and the engine's pull read 2^18 arcs a
    # range at the default budget, 8 bytes an arc
    seen = []

    def recorded(offsets, most):
        cuts = ranges(offsets, most)
        seen.append((most, [int(offsets[i1] - offsets[i0]) for i0, i1 in cuts]))
        return cuts

    ranges = graph._ranges
    monkeypatch.setattr(graph, "_ranges", recorded)
    graph._pair_keys(hc14, None, np.ones((1, 1, hc14.n), dtype=np.int64))
    hc14._distance_rows([0])
    # 91 arcs a vertex: 2880 vertices to a range, and the last takes the rest
    assert [most for most, _ in seen] == [1 << 18, 1 << 18]
    for _, arcs in seen:
        assert arcs == [2880 * 91] * 2 + [745472 - 2 * 2880 * 91]
