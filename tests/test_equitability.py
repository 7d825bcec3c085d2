"""Differential tests of the pair kernel behind ``check_i_homogeneous`` and
the per-cell counting kernel behind ``equitable_quotient``.

The oracles are the earlier, independent implementations: a dense
adjacency-times-one-hot product per pair for 1-homogeneity, the
pair-by-pair counting route (``homogeneity_oracle``) for both modes, and a
bitset loop for equitable quotients.  Examples are derandomized, so runs are
repeatable.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import drglab.graph as graph
import homogeneity_oracle
from drglab.errors import InputError, ResourceError
from drglab.families import (cocktail_party, cycle, folded_johnson, hamming, hypercube,
                             icosahedron, johnson, petersen, triangular)
from drglab.graph import (EquitabilityWitness, Graph, QuotientParameters,
                          VertexPartition, distance_partition,
                          equitable_quotient)
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
    """Replace edges ab, cd by ad, cb (both new edges absent before)."""
    edges = sorted(g.edges())
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.is_adjacent(a, d) \
                and not g.is_adjacent(c, b):
            kept = set(edges) - {(a, b), (c, d)}
            return Graph.from_edges(g.n, kept | {(a, d), (c, b)})


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


@pytest.mark.parametrize("cut", [False, True], ids=["K_65x2", "K_65x2 less an edge"])
def test_keys_of_two_words_match_dense_oracle(cut):
    # valency 128 needs base 129, and 129**9 > 2**63: each key takes two words
    rng = random.Random(65)
    g = relabel(cocktail_party(65), rng)
    assert graph._digit_weights(g).shape == (2, 9)
    if cut:
        edges = sorted(g.edges())
        edges.remove(rng.choice(edges))
        g = Graph.from_edges(g.n, edges)
    for i in (1, 2):
        assert check_i_homogeneous(g, i) == oracle_homogeneity(g, i)


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
    calls = []
    kernel = graph._pair_block

    def counted(*args):
        calls.append(len(args[2]))
        return kernel(*args)

    monkeypatch.setattr(graph, "_pair_block", counted)
    g = relabel(johnson(8, 4), random.Random(8))
    rep = check_i_homogeneous(g, 1)
    assert rep.holds and rep.pairs_checked == 1120
    assert 1 <= len(calls) <= g.n and sum(calls) == 1120


@pytest.mark.parametrize("index", range(len(BASES)))
def test_one_pair_per_kernel_call_gives_the_same_reports(monkeypatch, index):
    rng = random.Random(index)
    graphs = [relabel(BASES[index], rng), switch(relabel(BASES[index], rng), rng)]
    want = [outcome(lambda: check_i_homogeneous(g, 1)) for g in graphs]
    monkeypatch.setattr(graph, "_PAIR_BUDGET", 1)
    assert [outcome(lambda: check_i_homogeneous(g, 1)) for g in graphs] == want
