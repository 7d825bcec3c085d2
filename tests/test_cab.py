"""Three-cell local partitions: empirical checks, recursion, closed forms."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cab_oracle as oracle
import drglab.cab
import drglab.graph
from drglab.cab import (CabLevelParams, LocalSrgData, c2_bound,
                        cab2_closed_form, cab_formula_params,
                        cab_partition_check, predict_cab2)
from drglab.errors import (DomainError, InputError, PreconditionError,
                           ResourceError, SingularityError)
from drglab.families import (complete, complete_multipartite, cycle,
                             folded_johnson, halved_cube, hamming, icosahedron,
                             johnson, triangular)
from drglab.graph import (Graph, _common_neighbourhoods, c2_regularity_report,
                          triple_intersection_number)
from drglab.homogeneous import check_i_homogeneous
from drglab.scalars import exact_eq
from test_equitability import relabel, switch
from test_local import outcome, paley, shrikhande, taylor


def test_icosahedron_cab_holds(icosa):
    rep = cab_partition_check(icosa)
    assert rep.holds


A1_ZERO = "a_1 = 0: local graphs are edgeless, partition degenerates"


def test_requires_positive_a1(monkeypatch):
    # no edge lies in a triangle, decided before any pair is read
    def forbidden(*args):
        raise AssertionError("a pair was read")

    monkeypatch.setattr(drglab.cab, "_local_gather", forbidden)
    monkeypatch.setattr(drglab.cab, "_local_blocks", forbidden)
    with pytest.raises(PreconditionError, match=A1_ZERO):
        cab_partition_check(cycle(6))  # a1 = 0
    with pytest.raises(PreconditionError, match=A1_ZERO):
        cab_partition_check(Graph([]))  # no vertex, so no edge either
    with pytest.raises(PreconditionError, match=A1_ZERO):
        cab_partition_check(Graph([[], []]))  # regular of valency 0
    with pytest.raises(PreconditionError, match=A1_ZERO):
        cab_partition_check(complete_multipartite(2, 1000))  # K_{1000,1000}


PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def test_every_labelling_of_the_prism_gives_one_outcome():
    # two triangles joined by three rungs: a_1 is 1 on the triangles' edges
    # and 0 on the rungs, whichever edge vertex 0 meets first
    for perm in itertools.permutations(range(6)):
        g = Graph.from_edges(6, [(perm[u], perm[v]) for u, v in PRISM])
        rep = cab_partition_check(g)
        assert not rep.holds and rep.deviation.level == 1
        assert rep == oracle.cab_partition_check(g)


@pytest.mark.parametrize("i_max", [0, -3, 5])
def test_rejects_levels_outside_the_diameter(i_max):
    with pytest.raises(InputError):
        cab_partition_check(johnson(8, 4), i_max=i_max)


def test_rejects_levels_above_the_diameter_before_any_pair(t10):
    # level 1 fails on T(10), but i_max = 3 > D = 2 is an argument error
    with pytest.raises(InputError):
        cab_partition_check(t10, i_max=3)


def test_large_valency_check_runs_in_bounded_memory():
    # K_{3 x 100}: n = 300, k = 200.  An array of every local graph peaked at
    # 149 MiB here; the local-partition pass holds a few centres at a time
    g = complete_multipartite(3, 100)
    tracemalloc.start()
    try:
        rep = cab_partition_check(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.holds and rep.pairs_checked == 300 * 299
    assert peak < 32 << 20


# -- differential test against the bitset scan ---------------------------------

CAB_BASES = [johnson(8, 4), hamming(4, 3), folded_johnson(8, 4), icosahedron(),
             halved_cube(8), triangular(10)]


def switched(g, rng):
    """An edge switch of g that keeps it connected; ValueError when 100
    switches per edge leave it disconnected."""
    for _ in range(100 * g.edge_count):
        h = switch(g, rng)
        if h.is_connected():
            return h
    raise ValueError(f"no connected edge switch of the graph on {g.n} vertices with edges "
                     f"{sorted(g.edges())} in {100 * g.edge_count} switches")


def test_switched_gives_up_when_every_switch_disconnects():
    # every switch of two disjoint edges gives two disjoint edges
    with pytest.raises(ValueError, match="no connected edge switch of the graph on 4 vertices"):
        switched(Graph.from_edges(4, [(0, 1), (2, 3)]), random.Random(0))


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(CAB_BASES))), st.integers(0, 2 ** 32),
       st.booleans(), st.data())
def test_report_matches_bitset_oracle(index, seed, is_switched, data):
    rng = random.Random(seed)
    g = relabel(CAB_BASES[index], rng)
    if is_switched:
        g = switched(g, rng)
    i_max = data.draw(st.integers(1, g.diameter()), label="i_max")
    rep = cab_partition_check(g, i_max)
    assert rep == oracle.cab_partition_check(g, i_max)
    if rep.holds:
        # a holding report covers every ordered pair at distance 1..i_max
        dm = g.distance_matrix()
        assert rep.pairs_checked == np.count_nonzero((dm > 0) & (dm <= i_max))


@pytest.mark.parametrize("index", range(len(CAB_BASES)))
@pytest.mark.parametrize("is_switched", [False, True])
def test_full_report_matches_bitset_oracle(index, is_switched):
    rng = random.Random(index)
    g = relabel(CAB_BASES[index], rng)
    if is_switched:
        g = switched(g, rng)
    assert cab_partition_check(g) == oracle.cab_partition_check(g)


def cocktail_party(m: int) -> Graph:
    """K_{m x 2}: 2m vertices, each adjacent to all but itself and its twin."""
    return Graph([[u for u in range(2 * m) if u // 2 != v // 2] for v in range(2 * m)])


@pytest.mark.parametrize("is_switched", [False, True])
def test_widest_key_matches_bitset_oracle(is_switched):
    # k = 128 gives the widest float32 key of the corpus, 2^21 < (k + 1)^3
    # <= 2^22
    rng = random.Random(65)
    g = relabel(cocktail_party(65), rng)
    if is_switched:
        g = switched(g, rng)
    assert g.degree(0) == 128
    assert cab_partition_check(g) == oracle.cab_partition_check(g)


def test_float64_keys_match_bitset_oracle():
    # k = 162 is the least valency of float64 keys, (k + 1)^3 > 2^22
    g = relabel(cocktail_party(82), random.Random(82))
    assert g.degree(0) == 162
    assert cab_partition_check(g) == oracle.cab_partition_check(g)


LOCAL_BASES = CAB_BASES + [shrikhande(), taylor(paley(13))]
LOCAL_CHECKS = [cab_partition_check, lambda g: _common_neighbourhoods(g, 1),
                lambda g: _common_neighbourhoods(g, 2), c2_regularity_report,
                triple_intersection_number]


@pytest.mark.parametrize("index", range(len(LOCAL_BASES)))
def test_one_base_vertex_per_block_gives_the_same_reports(index, monkeypatch):
    # the CAB check, the lambda- and mu-graph passes, the c2 report and the
    # triple intersection number all read graph._local_blocks; a budget of
    # one byte, less than any item takes, puts one base vertex (a centre y,
    # whose local graph is read) in every block and one pair in every
    # pattern step
    rng = random.Random(100 + index)
    graphs = [relabel(LOCAL_BASES[index], rng)]
    graphs.append(switched(graphs[0], rng))
    wide = [[outcome(check, g) for check in LOCAL_CHECKS] for g in graphs]
    monkeypatch.setattr(drglab.graph, "_BUDGET", 1)
    assert [[outcome(check, g) for check in LOCAL_CHECKS] for g in graphs] == wide
    assert [reports[0] for reports in wide] == [oracle.cab_partition_check(g) for g in graphs]


@pytest.mark.parametrize("index", range(len(CAB_BASES)))
@pytest.mark.parametrize("is_switched", [False, True])
def test_every_level_cap_matches_bitset_oracle(index, is_switched):
    # a higher level may fail first while the lower levels scan on
    rng = random.Random(200 + index)
    g = relabel(CAB_BASES[index], rng)
    if is_switched:
        g = switched(g, rng)
    dm = g.distance_matrix()
    for i_max in range(1, g.diameter() + 1):
        rep = cab_partition_check(g, i_max)
        assert rep == oracle.cab_partition_check(g, i_max)
        if rep.holds:
            # a holding report covers every ordered pair at distance 1..i_max
            assert rep.pairs_checked == np.count_nonzero((dm > 0) & (dm <= i_max))


@pytest.mark.parametrize("index,seed", [(1, 4), (4, 3)], ids=["H(4,3)", "halved 8-cube"])
def test_a_deviation_past_the_first_block_keeps_its_rank(monkeypatch, index, seed):
    # the failing level is read again in blocks of two pairs (k + 1) k
    # entries each at 16 bytes (float32 keys); the deviation is the fourth or
    # sixth pair of its x, in a later block, and x is not the first vertex
    rng = random.Random(seed)
    g = switched(relabel(CAB_BASES[index], rng), rng)
    k = g.degree(0)
    monkeypatch.setattr(drglab.graph, "_BUDGET", 2 * (k + 1) * k * 16)
    rep = cab_partition_check(g)
    dev = rep.deviation
    assert dev.x > 0
    assert np.flatnonzero(g.distance_matrix()[dev.x] == dev.level).tolist().index(dev.y) >= 2
    assert rep == oracle.cab_partition_check(g)


def nearest_last(base: Graph, seed: int) -> Graph:
    """A connected edge switch of a relabelled ``base``, numbered by falling
    distance from the ends of the switched edges (ties by label), so that
    the pairs it breaks come late in the scan."""
    rng = random.Random(seed)
    g = relabel(base, rng)
    h = switched(g, rng)
    ends = sorted({v for e in set(g.edges()) ^ set(h.edges()) for v in e})
    near = h.distance_matrix()[ends].min(axis=0)
    label = {v: t for t, v in enumerate(sorted(range(h.n), key=lambda v: (-near[v], v)))}
    return Graph.from_edges(h.n, [(label[u], label[v]) for u, v in h.edges()])


@pytest.mark.parametrize("base,first", [(hamming(5, 3), 100), (johnson(10, 5), 15)],
                         ids=["H(5,3)", "J(10,5)"])
@pytest.mark.parametrize("budget", ["2 MiB", "four rows"])
def test_a_late_deviation_keeps_its_rank_across_chunks(monkeypatch, base, first, budget):
    # the failing level is read again from the pair stream, whose chunks
    # start at one row and double (to 64 rows at 2 MiB); at four rows a
    # chunk, and a few pairs to a gather, the rank crosses dozens of chunks
    # and blocks.  Either way pairs_checked counts every pair before the
    # deviation's chunk
    g = nearest_last(base, 0)
    want = oracle.cab_partition_check(g)
    if budget == "four rows":
        monkeypatch.setattr(drglab.graph, "_BUDGET", 4 * 27 * g.n)
    rep = cab_partition_check(g)
    assert rep.deviation.x >= first
    assert rep == want


def test_equivalence_check_refutes_a_switched_graph():
    g = switched(relabel(johnson(8, 4), random.Random(2)), random.Random(3))
    assert not check_i_homogeneous(g, 1).holds
    assert not cab_partition_check(g).holds


def test_local_srg_data_from_eigenvalues():
    loc = LocalSrgData.from_eigenvalues(8, 3, -2)
    assert (loc.k, loc.mu) == (25, 2)
    assert loc.lam == 2 + 3 - 2  # mu' + r + s


def test_local_srg_data_from_params_roundtrip():
    loc = LocalSrgData.from_params(25, 8, 3, 2)
    assert (loc.r, loc.s) == (Fraction(3), Fraction(-2))


def test_closed_form_predictions():
    pred = predict_cab2("latin_square", 2, 5)
    assert (pred.alpha2, pred.beta2, pred.delta2) == (2, 3, 4)
    assert (pred.a2, pred.b2, pred.c2) == (12, 9, 4)
    pred = predict_cab2("steiner", 2, 8)
    assert (pred.alpha2, pred.beta2, pred.delta2) == (3, 5, 8)
    assert (pred.a2, pred.b2, pred.c2) == (24, 15, 6)
    with pytest.raises(DomainError):
        predict_cab2("latin_square", 3, 2)


def test_closed_form_agrees_with_recursion():
    loc = LocalSrgData.from_params(25, 8, 3, 2)
    g2, a2, b2, d2, bb2 = cab2_closed_form(loc, 4)
    levels, b_pred = cab_formula_params(loc, [1, 4], levels=2)
    assert (g2, a2, b2, d2) == levels[1].as_tuple()
    assert bb2 == b_pred[1]


def test_c2_bound_values():
    assert c2_bound(1, 4) == 25
    assert c2_bound(1, 2) == 15


def test_triple_intersection_constant(j105):
    assert triple_intersection_number(j105) == 2


def test_triple_intersection_follows_the_dense_size_policy(monkeypatch):
    # the count reads the cached distance matrix and computes no rows of its
    # own, so above the dense cap it raises before any search
    def fail(self, sources):
        raise AssertionError("distance rows recomputed")

    g = johnson(10, 5)
    g.distance_matrix()
    monkeypatch.setattr(Graph, "_distance_rows", fail)
    assert triple_intersection_number(g) == 2
    with pytest.raises(ResourceError):
        triple_intersection_number(cycle(6001))


def test_singularity_reported_at_top_level():
    # delta_{D-1} = a1 empties the B cell; asking for one level more than
    # the array supports must fail loudly, not silently divide by zero
    loc = LocalSrgData.from_eigenvalues(8, 3, -2)
    with pytest.raises(SingularityError):
        cab_formula_params(loc, [1, 4, 9, 16, 25], levels=5)
