"""Differential tests of the pair kernel behind ``check_i_homogeneous`` and
the per-cell counting kernel behind ``equitable_quotient``.

The oracles are the earlier, independent implementations: a dense
adjacency-times-one-hot product per pair for 1-homogeneity, the
pair-by-pair counting route (``homogeneity_oracle``) for both modes, the
per-vertex layer scan (``dr_oracle``), and a bitset loop for equitable
quotients.  The pair kernel's two key routes (float32 or float64 products
with the adjacency matrix, int64 sums over the arcs) are each forced in
turn and held to the same oracles, at and across the float64 word boundary
and the float32 one of distance-regularity's three-digit keys.
Examples are derandomized, so runs are repeatable.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cell_counts_oracle
import dr_oracle
import drglab.graph as graph
import drglab.homogeneous as homogeneous
import homogeneity_oracle
from drglab.errors import InputError, InternalError, ResourceError
from drglab.families import (cocktail_party, complete, cycle, folded_johnson, grid,
                             halved_cube, hamming, hypercube, icosahedron, johnson,
                             petersen, triangular)
from drglab.graph import (EquitabilityWitness, Graph, QuotientParameters,
                          VertexPartition, check_distance_regular,
                          distance_partition, equitable_quotient)
from drglab.homogeneous import HomogeneityReport, check_i_homogeneous

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BASES = [petersen(), icosahedron(), johnson(6, 3), hamming(3, 3),
         folded_johnson(8, 4), hypercube(4), triangular(6)]


# -- oracles -------------------------------------------------------------------


def oracle_homogeneity(g: Graph, i: int) -> HomogeneityReport:
    """Exhaustive 1-homogeneity from dense float64 products, pair by pair;
    a refutation counts the pairs read up to and including its own."""
    dm = g.distance_matrix().astype(np.int64)
    span = int(dm.max()) + 1
    Af = g.adjacency_matrix().astype(np.float64)
    ref = None
    pairs = np.argwhere(dm == i)
    for checked, (x, y) in enumerate(pairs.tolist(), 1):
        keys = dm[x] * span + dm[y]
        labels, cells = np.unique(keys, return_inverse=True)
        onehot = np.zeros((g.n, len(labels)))
        onehot[np.arange(g.n), cells] = 1.0
        counts = (Af @ onehot).astype(np.int64)
        rows = []
        for ci in range(len(labels)):
            members = np.flatnonzero(cells == ci)
            block = counts[members]
            same = (block == block[0]).all(axis=1)
            if not same.all():
                bad = int(members[np.flatnonzero(~same)[0]])
                lab = divmod(int(labels[ci]), span)
                return HomogeneityReport(i, False, witness=(x, y, lab, int(members[0]), bad),
                                         pairs_checked=checked)
            rows.append(tuple(int(v) for v in block[0]))
        table = (tuple(divmod(int(l), span) for l in labels), tuple(rows))
        if ref is None:
            ref = table
        elif table != ref:
            return HomogeneityReport(i, False, witness=(x, y, None, None, None),
                                     pairs_checked=checked)
    return HomogeneityReport(i, True, ref[0], ref[1], None, "exhaustive", len(pairs))


def oracle_quotient(g: Graph, p: VertexPartition):
    """Quotient or witness from per-vertex bitset rows."""
    rows = [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]
    masks = [sum(1 << v for v in cell) for cell in p.cells]
    matrix = []
    for ci, cell in enumerate(p.cells):
        ordered = sorted(cell)
        ref = None
        for v in ordered:
            counts = tuple((rows[v] & mask).bit_count() for mask in masks)
            if ref is None:
                ref = counts
            elif counts != ref:
                return EquitabilityWitness(ci, ordered[0], v, ref, counts)
        matrix.append(ref)
    return QuotientParameters(tuple(matrix), p.labels)


# -- graphs ----------------------------------------------------------------------


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def switch(g: Graph, rng: random.Random) -> Graph:
    """Replace edges ab, cd by ad, cb (both new edges absent before).  A
    complete graph has no such edges and is returned as it is; ValueError
    when 100 draws per edge find none (a star has none either)."""
    edges = sorted(g.edges())
    if 2 * len(edges) == g.n * (g.n - 1):
        return g
    for _ in range(100 * len(edges)):
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.is_adjacent(a, d) \
                and not g.is_adjacent(c, b):
            kept = set(edges) - {(a, b), (c, d)}
            return Graph.from_edges(g.n, kept | {(a, d), (c, b)})
    raise ValueError(f"no edge switch of the graph on {g.n} vertices with edges {edges} "
                     f"in {100 * len(edges)} draws")


def test_switch_gives_up_on_a_star():
    # every two edges of K_{1,3} meet, so no draw is a switch
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match=r"no edge switch of the graph on 4 vertices"):
        switch(star, random.Random(0))


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(0, 2 ** 32), st.booleans())
def test_homogeneity_matches_dense_oracle(index, seed, switched):
    rng = random.Random(seed)
    g = relabel(BASES[index], rng)
    if switched:
        g = switch(g, rng)
        assume(g.is_connected())
    for i in range(1, g.diameter() + 1):
        assert check_i_homogeneous(g, i) == oracle_homogeneity(g, i)


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(0, 2 ** 32),
       st.integers(1, 6), st.floats(0.3, 1.0))
def test_quotient_matches_bitset_oracle(index, seed, ncells, share):
    rng = random.Random(seed)
    g = relabel(BASES[index], rng)
    ground = rng.sample(range(g.n), max(ncells, round(share * g.n)))
    cells = [ground[c::ncells] for c in range(ncells)]
    rng.shuffle(cells)
    p = VertexPartition(tuple(tuple(c) for c in cells), tuple(range(ncells)))
    assert equitable_quotient(g, p) == oracle_quotient(g, p)


def test_quotient_of_distance_partition_matches_oracle():
    g = relabel(johnson(8, 4), random.Random(5))
    p = distance_partition(g, 0, g.neighbors(0)[0])
    got = equitable_quotient(g, p)
    assert isinstance(got, QuotientParameters) and got == oracle_quotient(g, p)


def test_size_policy_between_the_dense_cap_and_twenty_thousand():
    g = hamming(9, 3)
    assert g.n == 19683
    with pytest.raises(ResourceError):
        check_i_homogeneous(g, 1)
    rep = check_i_homogeneous(g, 1, "sampled", seed=1, count=2)
    assert rep.holds and rep.pairs_checked == 2
    assert rep.labels[:3] == ((0, 1), (1, 0), (1, 1))
    assert all(sum(row) == 18 for row in rep.matrix)


def outcome(check):
    """The report, or the error's type and message."""
    try:
        return check()
    except InputError as exc:
        return type(exc).__name__, str(exc)


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(0, 2 ** 32), st.booleans(),
       st.sampled_from([1, 2]), st.integers(1, 12))
def test_both_modes_match_the_pair_by_pair_oracle(index, seed, switched, level, count):
    rng = random.Random(seed)
    g = relabel(BASES[index], rng)
    if switched:
        g = switch(g, rng)
    assert outcome(lambda: check_i_homogeneous(g, level)) == \
        outcome(lambda: homogeneity_oracle.check_i_homogeneous(g, level))
    assert outcome(lambda: check_i_homogeneous(g, level, "sampled", seed=seed, count=count)) == \
        outcome(lambda: homogeneity_oracle.check_i_homogeneous(
            g, level, "sampled", seed=seed, count=count))


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(0, 2 ** 32), st.booleans(),
       st.integers(1, 4), st.sampled_from([1, 31, 32, 33, 65]))
def test_sampled_batches_match_the_all_at_once_oracle(index, seed, switched, level, count):
    # the draws stream in batches of at most 32 pairs, and the counts cross
    # the batch edges; the oracle draws every pair and its rows first.  A
    # level above the diameter has no pair: both run out of draws
    rng = random.Random(seed)
    g = relabel(BASES[index], rng)
    if switched:
        g = switch(g, rng)
    level = min(level, g.diameter() + 1)
    got = outcome(lambda: check_i_homogeneous(g, level, "sampled", seed=seed, count=count))
    assert got == outcome(lambda: homogeneity_oracle.check_i_homogeneous(
        g, level, "sampled", seed=seed, count=count))
    if level > g.diameter():
        assert got == ("InputError", f"could not sample pairs at distance {level}")


@pytest.mark.parametrize("level", [-1, 13])
@pytest.mark.parametrize("connected", [True, False])
def test_an_impossible_sampled_level_is_refused_at_once(level, connected):
    # H(6,3) has every eccentricity 6, so no pair lies at distance -1 or
    # 13 > 2 ecc(x): the oracle runs out of its 50 count draws (about 0.4 ms
    # each), the check stops before its second.  Beside a triangle the graph
    # is disconnected, and both give the connected-graph error
    g = hamming(6, 3)
    if not connected:
        g = Graph.from_edges(g.n + 3, list(g.edges()) + [(729, 730), (730, 731), (729, 731)])
    want = outcome(lambda: homogeneity_oracle.check_i_homogeneous(
        g, level, "sampled", seed=1, count=2))
    start = time.perf_counter()
    got = outcome(lambda: check_i_homogeneous(g, level, "sampled", seed=1, count=100000))
    assert time.perf_counter() - start < 1
    assert got == want == ("InputError", f"could not sample pairs at distance {level}"
                           if connected else "homogeneity is defined for connected graphs")


def test_a_refutation_in_a_later_batch_counts_every_pair_before_it():
    # K_5 with 60 leaves at distance 4 from one leaf b: a draw from a leaf
    # gives (a, b), one from b gives (b, a), whose quotient differs.  With
    # seeds 0 and 8 the first pair is (a, b) and the first (b, a) comes in
    # the second batch, so the count runs through every pair of the first
    m, p = 5, 60
    v1, v3, b = m, m + 1 + p, m + 2 + p
    edges = [(u, w) for u in range(m) for w in range(u + 1, m)] + [(v1, 0), (v3, 0), (v3, b)]
    g = Graph.from_edges(b + 1, edges + [(v1, a) for a in range(m + 1, m + 1 + p)])
    for seed, checked in ((0, 36), (8, 52)):
        rep = check_i_homogeneous(g, 4, "sampled", seed=seed, count=65)
        assert rep.witness[0] == b and rep.pairs_checked == checked
        assert rep == homogeneity_oracle.check_i_homogeneous(g, 4, "sampled", seed=seed, count=65)


def test_a_refuting_batch_is_reported_before_the_draws_run_out():
    # K_194 with the path a - v1 - 0 - v3 and two leaves at v3: only a and
    # the two leaves are at distance 4 from some vertex, so 3250 draws find
    # about 49 of the 65 pairs.  The first batch of 32 refutes, and its
    # witness is reported; drawn all at once, the pairs run out first
    m = 194
    a, v1, v3, b1, b2 = range(m, m + 5)
    edges = [(u, w) for u in range(m) for w in range(u + 1, m)]
    g = Graph.from_edges(m + 5, edges + [(a, v1), (v1, 0), (0, v3), (v3, b1), (v3, b2)])
    rep = check_i_homogeneous(g, 4, "sampled", seed=0, count=65)
    # pi(b1, a) has the cell (2, 4) of b2, which no pair (a, b) has
    assert rep.witness == (b1, a, None, None, None) and rep.pairs_checked == 2
    assert not check_i_homogeneous(g, 4).holds
    with pytest.raises(InputError, match="could not sample pairs at distance 4"):
        homogeneity_oracle.check_i_homogeneous(g, 4, "sampled", seed=0, count=65)


@pytest.mark.parametrize("cut", [False, True], ids=["K_65x2", "K_65x2 less an edge"])
def test_keys_of_two_words_match_dense_oracle(cut):
    # valency 128 needs base 129, and 129**9 > 2**63 > 2**53: each key takes
    # two words on either route
    rng = random.Random(65)
    g = relabel(cocktail_party(65), rng)
    assert graph._digit_weights(g, 1 << 63).shape == (2, 9)
    assert graph._digit_weights(g, 1 << 53).shape == (2, 9)
    if cut:
        edges = sorted(g.edges())
        edges.remove(rng.choice(edges))
        g = Graph.from_edges(g.n, edges)
    for i in (1, 2):
        assert check_i_homogeneous(g, i) == oracle_homogeneity(g, i)


# -- the two key routes ----------------------------------------------------------


ROUTES = pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])


@pytest.fixture
def route(monkeypatch, dense):
    """Force the pair kernel's route, and record the digit weights of every
    check with the word limit and the digits it asked for; the weights come
    in the dtype of their keys."""
    monkeypatch.setattr(graph, "_dense_keys", lambda g, pairs: dense)
    seen = []
    weights = graph._digit_weights

    def recorded(g, limit, digits):
        w = weights(g, limit, digits)
        seen.append((int(g.degrees().max()) + 1, limit, digits, w))
        return w

    monkeypatch.setattr(graph, "_digit_weights", recorded)
    return seen


#: the bound below which each key dtype holds every integer exactly
EXACT = {np.dtype(np.float32): 1 << 24, np.dtype(np.float64): 1 << 53,
         np.dtype(np.int64): 1 << 63}


def assert_words_exact(seen, dense):
    """Every key word stays below its own dtype's exactness bound: 2**24 for
    float32 and 2**53 for float64 products (the dense route), 2**63 for
    int64 sums (the sparse one).  A word of t digits holds keys below
    base**t, its largest weight times the base.  A float32 key is one word;
    a scan keys three digits at level 0 (distance-regularity) and nine at
    every other level."""
    assert seen
    for base, asked, digits, w in seen:
        limit = EXACT[w.dtype]
        assert asked == limit
        assert (w.dtype != np.int64) == dense
        assert w.shape[1] == digits and digits in (3, 9)
        assert w.dtype != np.float32 or len(w) == 1
        assert all(int(top) * base <= limit for top in w.max(axis=1))


def assert_base_matches_the_oracles(index):
    """BASES[index], relabelled and switched: exhaustive and sampled
    1-homogeneity at levels 1-2 and distance-regularity equal the oracles."""
    rng = random.Random(index)
    for g in (relabel(BASES[index], rng), switch(relabel(BASES[index], rng), rng)):
        for level in (1, 2):
            assert outcome(lambda: check_i_homogeneous(g, level)) == \
                outcome(lambda: homogeneity_oracle.check_i_homogeneous(g, level))
            assert outcome(lambda: check_i_homogeneous(g, level, "sampled", seed=index, count=7)) \
                == outcome(lambda: homogeneity_oracle.check_i_homogeneous(
                    g, level, "sampled", seed=index, count=7))
        assert outcome(lambda: check_distance_regular(g)) == \
            outcome(lambda: dr_oracle.check_distance_regular(g))


@ROUTES
@pytest.mark.parametrize("index", range(len(BASES)))
def test_both_routes_match_the_oracles(route, dense, index):
    assert_base_matches_the_oracles(index)
    assert_words_exact(route, dense)


@ROUTES
@pytest.mark.parametrize("index", [1, 2, 4])
def test_one_item_blocks_match_the_oracles(monkeypatch, route, dense, index):
    # a budget of no bytes makes every block of every pass one item
    monkeypatch.setattr(graph, "_BUDGET", 0)
    assert_base_matches_the_oracles(index)


@ROUTES
@pytest.mark.parametrize("parts,words", [(30, 1), (31, 2)], ids=["K_30x2", "K_31x2"])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "less an edge"])
def test_keys_at_the_float64_word_boundary(route, dense, parts, words, cut):
    # valency 58 has base 59 and 59**9 < 2**53: nine digits fit one float64
    # word; valency 60 has base 61 and 61**9 > 2**53: two words
    rng = random.Random(parts)
    g = relabel(cocktail_party(parts), rng)
    if cut:
        edges = sorted(g.edges())
        edges.remove(rng.choice(edges))
        g = Graph.from_edges(g.n, edges)
    for i in (1, 2):
        assert check_i_homogeneous(g, i) == oracle_homogeneity(g, i)
        assert check_i_homogeneous(g, i, "sampled", seed=parts, count=9) == \
            homogeneity_oracle.check_i_homogeneous(g, i, "sampled", seed=parts, count=9)
    assert check_distance_regular(g) == dr_oracle.check_distance_regular(g)
    assert_words_exact(route, dense)
    assert {w.shape for _, _, digits, w in route if digits == 9} == {(words if dense else 1, 9)}


@ROUTES
@pytest.mark.parametrize("n", [256, 257], ids=["K_256", "K_257"])
@pytest.mark.parametrize("cut", [False, True], ids=["whole", "less an edge"])
def test_keys_at_the_float32_word_boundary(route, dense, n, cut):
    # valency 255 has base 256 and 256**3 = 2**24: the three digits of a
    # distance-regularity key fit one float32 word; valency 256 has base
    # 257 and 257**3 > 2**24: one float64 word.  Less an edge, the largest
    # valency stays, and every check refutes
    rng = random.Random(n)
    g = complete(n)
    if cut:
        edges = sorted(g.edges())
        edges.remove(rng.choice(edges))
        g = Graph.from_edges(n, edges)
    assert check_distance_regular(g) == dr_oracle.check_distance_regular(g)
    level0 = np.float32 if n == 256 else np.float64
    assert {(w.dtype, w.shape) for _, _, digits, w in route if digits == 3} == \
        {(np.dtype(level0 if dense else np.int64), (1, 3))}
    assert check_i_homogeneous(g, 1, "sampled", seed=n, count=9) == \
        homogeneity_oracle.check_i_homogeneous(g, 1, "sampled", seed=n, count=9)
    if cut:
        # the first pair refutes at level 1; level 2 is the one cut edge
        for i in (1, 2):
            assert check_i_homogeneous(g, i) == homogeneity_oracle.check_i_homogeneous(g, i)
    elif dense:
        # every ordered pair holds, with the quotient of the first one (the
        # sparse route would gather 2 * 10^9 arcs, and keys int64 anyway)
        rep, dm = check_i_homogeneous(g, 1), g.distance_matrix()
        want = homogeneity_oracle._pair_quotient(g, dm[0], dm[1])
        assert rep.holds and rep.pairs_checked == n * (n - 1)
        assert (rep.labels, rep.matrix) == (want.labels, want.matrix)
    assert_words_exact(route, dense)


def test_long_cycles_match_the_oracles(monkeypatch):
    # ecc 515: a pair at distance i labels its cells below (2i + 1) 1031,
    # so level 0 (distance-regularity) and the sampled levels 1 and 2 each
    # fill tables of a few thousand labels
    counts, narrow = set(), graph._narrow
    monkeypatch.setattr(graph, "_narrow",
                        lambda lab, count: counts.add(count) or narrow(lab, count))
    rng = random.Random(1030)
    g = relabel(cycle(1030), rng)
    chorded = Graph.from_edges(g.n, sorted(g.edges()) + [(0, 500)])
    for h in (g, chorded):
        for i in (1, 2):
            assert check_i_homogeneous(h, i, "sampled", seed=i, count=6) == \
                homogeneity_oracle.check_i_homogeneous(h, i, "sampled", seed=i, count=6)
    assert check_distance_regular(g) == dr_oracle.check_distance_regular(g)
    assert {1031, 3 * 1031, 5 * 1031} <= counts


def test_a_stream_that_leaves_its_first_distance_is_refused():
    # cell labels relative to the pair are distinct only at the first pair's
    # distance: a second pair at another distance raises InternalError
    # rather than merging its cells
    g = cycle(12)
    xs, ys = np.array([0, 0]), np.array([1, 2])
    with pytest.raises(InternalError, match="at the distance of its first pair"):
        graph._check_pairs(g, 2, [(xs, ys, g.distance_matrix(), xs, ys)])


@pytest.mark.parametrize("n", [180, 182])
def test_labels_narrow_to_int16_up_to_span_181(monkeypatch, n):
    # span = 2 ecc(x) + 1, and a pair at distance 90 has 181 span labels:
    # 181 * 181 = 32761 fit int16, 181 * 183 = 33123 do not; a relabelled
    # cycle, a switched copy (one cycle or two) and a chorded copy, whose
    # pairs refute and are named by the witness's sort
    narrowed, narrow = set(), graph._narrow
    monkeypatch.setattr(graph, "_narrow", lambda lab, count: narrowed.add(
        (count, (out := narrow(lab, count)).dtype.itemsize)) or out)
    rng = random.Random(n)
    g = relabel(cycle(n), rng)
    u, w = sorted(g.edges())[0]
    chorded = Graph.from_edges(n, sorted(g.edges()) + [(v, w) for v in g.neighbors(u)
                                                       if v != w][:1])
    for h in (g, switch(g, rng), chorded):
        for i in (1, 90):
            assert outcome(lambda: check_i_homogeneous(h, i)) == \
                outcome(lambda: homogeneity_oracle.check_i_homogeneous(h, i))
            assert outcome(lambda: check_i_homogeneous(h, i, "sampled", seed=i, count=5)) == \
                outcome(lambda: homogeneity_oracle.check_i_homogeneous(
                    h, i, "sampled", seed=i, count=5))
    assert ((32761, 2) if n == 180 else (33123, 8)) in narrowed


def test_route_rule():
    # an exhaustive check (one pair per arc) goes dense on every graph of
    # at most 1024 vertices and n / 32 average valency, and so does its half
    # scan at level 1 (one pair per edge); a few sampled pairs do not pay
    # for the adjacency matrix
    for g in (johnson(10, 5), hamming(5, 3), petersen(), cocktail_party(65),
              halved_cube(11)):
        arcs = 2 * g.edge_count
        assert graph._dense_keys(g, arcs)
        assert graph._dense_keys(g, g.edge_count)
        assert not graph._dense_keys(g, 4)
    # thin or large graphs keep the sums over the arcs
    for g in (cycle(1000), hypercube(10), hamming(6, 3), hamming(7, 3), halved_cube(12)):
        assert not graph._dense_keys(g, 2 * g.edge_count)


def test_counted_quotient_matches_the_count_rows_and_the_oracle():
    # the reference quotient is counted from the arcs: for each cell, the
    # count row of its first vertex, on every pair (equitable or not), and
    # the oracle's quotient on an equitable one; every pair of relabelled
    # and switched bases, level 0 (x = y) and the one-vertex graph included
    seen, graphs = set(), [complete(1)]
    for index, base in enumerate(BASES):
        rng = random.Random(400 + index)
        graphs += [relabel(base, rng), switch(relabel(base, rng), rng)]
    for g in graphs:
        dm = g.distance_matrix()
        for x, y in np.ndindex(g.n, g.n):
            labels, matrix = (tuple(map(tuple, q.tolist()))
                              for q in graph._quotient(g, dm[x], dm[y]))
            pairs = np.stack([dm[x], dm[y]], axis=1)
            cells, first, cell = np.unique(pairs, axis=0, return_index=True,
                                           return_inverse=True)
            assert labels == tuple(map(tuple, cells.tolist()))
            rows = cell_counts_oracle.cell_counts(g, cell.reshape(-1), len(cells))[first]
            assert matrix == tuple(map(tuple, rows.tolist()))
            want = homogeneity_oracle._pair_quotient(g, dm[x], dm[y])
            if isinstance(want, QuotientParameters):
                assert (labels, matrix) == (want.labels, want.matrix)
            seen.add((x == y, isinstance(want, QuotientParameters)))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_each_verdict_counts_one_quotient(monkeypatch):
    # the pair kernel only compares keys; each verdict counts the quotient
    # it reports once: exhaustive 1-homogeneity before its scan (its
    # symmetry test reads pi(y, x) off that count), distance-regularity from
    # (0, 0), and sampled mode only when its pairs hold
    calls, count = [], graph._quotient

    def counted(*args):
        calls.append(1)
        return count(*args)

    for module in (graph, homogeneous):
        monkeypatch.setattr(module, "_quotient", counted)
    g = relabel(johnson(8, 4), random.Random(42))
    g.distance_matrix()
    rep = check_i_homogeneous(g, 1)
    assert rep.holds and rep == homogeneity_oracle.check_i_homogeneous(g, 1)
    assert len(calls) == 1
    calls.clear()
    h = folded_johnson(10, 5)
    rep = check_i_homogeneous(h, 1, "sampled", seed=1, count=4)
    assert not rep.holds and calls == []
    assert rep == homogeneity_oracle.check_i_homogeneous(h, 1, "sampled", seed=1, count=4)
    want = dr_oracle.check_distance_regular(g)
    calls.clear()
    assert graph._distance_regularity(g) == want and len(calls) == 1


def test_long_cycle_is_one_homogeneous():
    # its pair partitions have about n cells each
    rep = check_i_homogeneous(cycle(1000), 1)
    assert rep.holds and rep.pairs_checked == 2000


def test_cycles_match_the_pair_by_pair_oracle():
    for n in range(5, 41):
        g = relabel(cycle(n), random.Random(n))
        for i in range(1, n // 2 + 1):
            assert check_i_homogeneous(g, i) == homogeneity_oracle.check_i_homogeneous(g, i)


def test_exhaustive_check_calls_the_kernel_at_most_once_per_vertex(monkeypatch):
    kernel, budget = graph._pair_keys, graph._BUDGET
    g = relabel(johnson(8, 4), random.Random(8))
    for dense in (True, False):
        calls = []

        def counted(g, adj, w, out=None):
            assert (adj is not None) == dense
            calls.append(w.shape[1])
            return kernel(g, adj, w, out)

        monkeypatch.setattr(graph, "_pair_keys", counted)
        monkeypatch.setattr(graph, "_dense_keys", lambda g, pairs: dense)
        monkeypatch.setattr(graph, "_BUDGET", budget)
        # the reference is counted from the arcs, so the kernel reads the
        # 560 unordered pairs once each; the report counts the 1120 ordered
        rep = check_i_homogeneous(g, 1)
        assert rep.holds and rep.pairs_checked == 1120
        assert 1 <= len(calls) <= g.n and sum(calls) == 560
        calls.clear()
        # one byte, less than any pair takes: one pair to a call
        monkeypatch.setattr(graph, "_BUDGET", 1)
        assert check_i_homogeneous(g, 1) == rep
        assert calls == [1] * 560


@pytest.fixture
def scans(monkeypatch):
    """Record the pairs of every scan ``check_i_homogeneous`` runs: the
    total of its stream."""
    scans, check = [], homogeneous._check_pairs

    def recorded(g, total, *rest):
        scans.append(total)
        return check(g, total, *rest)

    monkeypatch.setattr(homogeneous, "_check_pairs", recorded)
    return scans


def test_half_pair_scan_matches_the_pair_by_pair_oracle(scans):
    # every level of every base, relabelled and switched, level 0 (the pairs
    # (x, x)) included; each check is one scan: with a symmetric reference,
    # of the pairs x <= y, whose first failure is the first failing ordered
    # pair, whose rank is the pair count
    seen, graphs = set(), []
    for index, base in enumerate(BASES):
        rng = random.Random(300 + index)
        graphs += [relabel(base, rng), switch(relabel(base, rng), rng)]
    # one vertex and no arc: level 0 is the one pair (0, 0)
    for g in graphs + [complete(1), johnson(4, 4), grid(1, 1)]:
        dm = g.distance_matrix()
        for i in range(0, int(dm.max()) + 1):
            scans.clear()
            got = outcome(lambda: check_i_homogeneous(g, i))
            assert got == outcome(lambda: homogeneity_oracle.check_i_homogeneous(g, i))
            if scans:
                half = np.count_nonzero(np.triu(dm == i))
                assert scans in ([half], [np.count_nonzero(dm == i)])
                seen.add((got.holds, i > 0, scans[0] == half))
    # holding and failing at level 0, holding, failing on the half scan, and
    # failing on the ordered scan above it
    assert seen == {(True, False, True), (False, False, True), (True, True, True),
                    (False, True, True), (False, True, False)}


def test_path_numbered_from_its_middle_matches_the_pair_by_pair_oracle():
    # the 9-vertex path numbered from its middle, vertex 0, so that
    # ecc(0) = 4 and D = 8: its ends, 1 and 8, are the only pairs at
    # distance 8, so exhaustive mode streams an empty chunk for row 0
    # before its first pair, from whose x the kernel bounds its labels; the
    # first pair (0, y) of level 4 bounds them by 2 ecc(0) + 1 = D + 1, and
    # DR (in test_distance_regularity.py) reads (1, 1), whose distances
    # reach D, in its second block
    order = [1, 3, 5, 7, 0, 2, 4, 6, 8]
    g = Graph.from_edges(9, zip(order, order[1:]))
    assert check_i_homogeneous(g, 8).holds
    for i in range(9):
        assert outcome(lambda: check_i_homogeneous(g, i)) == outcome(
            lambda: homogeneity_oracle.check_i_homogeneous(g, i))
        for seed in range(3):
            assert outcome(lambda: check_i_homogeneous(g, i, "sampled", seed=seed, count=5)
                           ) == outcome(lambda: homogeneity_oracle.check_i_homogeneous(
                               g, i, "sampled", seed=seed, count=5))


@pytest.mark.parametrize("n", range(4, 13))
def test_paths_scan_the_ordered_pairs(scans, n):
    # the first pair (0, i) of the path P_n has the cell (i + 1, 1) and, for
    # i < n - 1, no cell (1, i + 1): its quotient is not that of (i, 0), so
    # the level fails and the ordered pairs are scanned, not the pairs x < y
    g = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
    for i in range(1, n):
        scans.clear()
        rep = check_i_homogeneous(g, i)
        assert rep == homogeneity_oracle.check_i_homogeneous(g, i)
        pairs = 2 * (n - i)
        assert scans == [pairs if i < n - 1 else 1]
        assert rep.holds == (i == n - 1)


def test_a_refutation_in_a_later_chunk_keeps_its_rank(monkeypatch):
    # a budget of one byte makes each row of the distance matrix a chunk of
    # its own; on paths and K_{m,n} the ordered scan fails in a later row,
    # whose pair is ranked among the pairs of every row
    monkeypatch.setattr(graph, "_BUDGET", 1)
    graphs = [Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]) for n in (5, 8)]
    graphs += [Graph.from_edges(5, [(a, 2 + b) for a in range(2) for b in range(3)])]
    for g in graphs:
        for i in range(1, g.diameter() + 1):
            rep = check_i_homogeneous(g, i)
            assert rep == homogeneity_oracle.check_i_homogeneous(g, i)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (3, 4)])
def test_unequal_counts_scan_the_ordered_pairs(scans, m, n):
    # K_{m,n}, the part of m first: every pair x < y is (a, b), a in the
    # first part, with one quotient, whose labels are closed under the swap
    # but whose counts are not (a has n - 1 neighbours in the cell (1, 2), b
    # has m - 1 in the cell (2, 1)); so the pairs (b, a) fail
    g = Graph.from_edges(m + n, [(a, m + b) for a in range(m) for b in range(n)])
    rep = check_i_homogeneous(g, 1)
    assert rep == homogeneity_oracle.check_i_homogeneous(g, 1)
    assert scans == [2 * m * n]
    assert not rep.holds and rep.witness[:2] == (m, 0) and rep.pairs_checked == m * n + 1


@pytest.mark.parametrize("index", range(len(BASES)))
def test_one_pair_per_kernel_call_gives_the_same_reports(monkeypatch, index):
    rng = random.Random(index)
    graphs = [relabel(BASES[index], rng), switch(relabel(BASES[index], rng), rng)]
    want = [outcome(lambda: check_i_homogeneous(g, 1)) for g in graphs]
    # one byte, less than any pair takes
    monkeypatch.setattr(graph, "_BUDGET", 1)
    assert [outcome(lambda: check_i_homogeneous(g, 1)) for g in graphs] == want
