"""Local structure from common neighbourhoods: ``local_spectral_checks``,
``c2_regularity_report``, the lambda- and mu-graph survey behind them and
``triple_intersection_number``, all read from the local-partition pass,
against the routes they replaced (``local_oracle``, ``triple_oracle``).

Graphs: corpus graphs and their relabelled and edge-switched copies; Taylor
graphs over Paley(q) (locally Paley, so conference-local; q = 5 gives the
icosahedron); the Shrikhande graph, whose mu-graphs are not regular; and
H(4,4), J(9,3) and the 4-cube, which are not locally strongly regular; and
random graphs of at most 16 vertices whose degrees vary, with isolated
vertices and several components.  Examples are derandomized, so runs are
repeatable.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drglab.graph
import drglab.homogeneous
import drglab.srg
import local_oracle
import triple_oracle
from drglab.errors import DrgError
from drglab.families import (cycle, folded_johnson, halved_cube, hamming, hypercube,
                             icosahedron, johnson, petersen, triangular)
from drglab.graph import (Graph, _common_neighbourhoods, _local_blocks,
                          c2_regularity_report, local_graph,
                          triple_intersection_number)
from drglab.homogeneous import local_spectral_checks
from drglab.scalars import Interval, Surd, scalar_bounds
from test_equitability import relabel, switch

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def paley(q: int) -> Graph:
    """Paley graph of prime order q = 1 mod 4: u ~ v when u - v is a square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in squares])


def taylor(delta: Graph) -> Graph:
    """Taylor double of a graph on m vertices: vertex 0 and 2m + 1 are joined
    to the copies 1..m and m+1..2m of delta; u+ ~ v- when u, v are distinct
    and not adjacent in delta."""
    m = delta.n
    edges = [(0, 1 + v) for v in range(m)] + [(2 * m + 1, m + 1 + v) for v in range(m)]
    for u in range(m):
        for v in range(u + 1, m):
            if delta.is_adjacent(u, v):
                edges += [(1 + u, 1 + v), (m + 1 + u, m + 1 + v)]
            else:
                edges += [(1 + u, m + 1 + v), (1 + v, m + 1 + u)]
    return Graph.from_edges(2 * m + 2, edges)


def shrikhande() -> Graph:
    """Cayley graph of Z_4^2 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    steps = [(1, 0), (0, 1), (1, 1)]
    return Graph.from_edges(16, {tuple(sorted((4 * a + b, 4 * ((a + s) % 4) + (b + t) % 4)))
                                 for a in range(4) for b in range(4) for s, t in steps})


BASES = {
    "J(6,3)": johnson(6, 3), "J(7,3)": johnson(7, 3), "J(8,4)": johnson(8, 4),
    "H(3,3)": hamming(3, 3), "halved 6-cube": halved_cube(6),
    "icosahedron": icosahedron(), "Petersen": petersen(),
    "folded J(8,4)": folded_johnson(8, 4), "T(6)": triangular(6), "C7": cycle(7),
    "Taylor(Paley(5))": taylor(paley(5)), "Taylor(Paley(13))": taylor(paley(13)),
    "Taylor(Paley(29))": taylor(paley(29)), "Shrikhande": shrikhande(),
    "H(4,4)": hamming(4, 4), "J(9,3)": johnson(9, 3), "4-cube": hypercube(4),
}
CHECKS = [(local_spectral_checks, local_oracle.local_spectral_checks),
          (c2_regularity_report, local_oracle.c2_regularity_report)]


def outcome(check, g: Graph):
    """The report, or the error's type and message."""
    try:
        return check(g)
    except DrgError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    if isinstance(got, dict) and isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in got:
            assert_same(got[key], want[key])
    elif isinstance(got, Interval) or isinstance(want, Interval):
        # two enclosures of one value of degree >= 3 only have to overlap
        (alo, ahi), (blo, bhi) = scalar_bounds(got, 12), scalar_bounds(want, 12)
        assert alo <= bhi and blo <= ahi
    else:
        assert got == want


@pytest.mark.parametrize("name", BASES)
def test_reports_match_the_oracle(name):
    for check, oracle in CHECKS:
        # fresh copies, so that neither side reads the other's caches
        g, h = (Graph.from_json(BASES[name].to_json()) for _ in range(2))
        assert_same(outcome(check, g), outcome(oracle, h))


@SETTINGS
@given(st.sampled_from(sorted(BASES)), st.integers(0, 2 ** 32), st.booleans())
def test_relabelled_and_switched_reports_match_the_oracle(name, seed, switched):
    rng = random.Random(seed)
    g = relabel(BASES[name], rng)
    if switched:
        g = switch(g, rng)
    for check, oracle in CHECKS:
        assert_same(outcome(check, g), outcome(oracle, Graph.from_json(g.to_json())))


def test_named_cases():
    assert not c2_regularity_report(shrikhande()).regular
    for name in ("H(4,4)", "J(9,3)", "4-cube", "C7"):
        rep = local_spectral_checks(BASES[name])
        assert not rep["locally_srg"] and rep["reason"] == "not locally SRG"
    rep = local_spectral_checks(BASES["Taylor(Paley(13))"])
    assert rep["local_params"] == (13, 6, 2, 3) and rep["conference_local"]
    assert local_spectral_checks(BASES["Taylor(Paley(5))"]) == \
        local_spectral_checks(icosahedron())


@pytest.mark.parametrize("name", BASES)
def test_lambda_graphs_are_cliques_exactly_on_clique_union_locals(name):
    # local_spectral_checks reads no mu-graph when lambda' = a_1 - 1: every
    # local graph is then a disjoint union of (a_1 + 1)-cliques
    g = BASES[name]
    a1, lam = _common_neighbourhoods(g, 1)
    unions = [local_oracle.clique_union_structure(local_graph(g, x).graph)
              for x in range(g.n)]
    assert (a1 > 0 and lam == a1 - 1) == (a1 > 0 and all(unions))
    if lam == a1 - 1 and a1 > 0:
        assert set(unions) == {(a1 + 1, g.degree(0) // (a1 + 1) - 1)}


@pytest.mark.parametrize("build", [lambda: johnson(10, 5), lambda: taylor(paley(29)),
                                   lambda: hamming(5, 3)],
                         ids=["J(10,5)", "Taylor(Paley(29))", "H(5,3)"])
def test_locally_srg_graphs_build_no_local_graph(monkeypatch, build):
    g = build()
    want = local_oracle.local_spectral_checks(Graph.from_json(g.to_json()))

    def forbidden(*args, **kwargs):
        raise AssertionError("a locally SRG graph needs no local graph or spectrum")

    for module in (drglab.graph, drglab.homogeneous, drglab.srg):
        for name in ("local_graph", "srg_from_graph", "graph_spectrum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert local_spectral_checks(g) == want


@pytest.mark.parametrize("name", ["J(7,3)", "J(9,3)", "4-cube", "C7"])
def test_other_graphs_build_no_local_graph_and_have_no_local_eigenvalue(monkeypatch, name):
    # K_3 x K_4 and K_3 x K_6 are not strongly regular, and a graph with
    # a_1 = 0 has edgeless local graphs: no closed form gives their smallest
    # eigenvalue, so neither key is reported
    def forbidden(*args, **kwargs):
        raise AssertionError("a local graph or a spectrum was computed")

    for attr in ("local_graph", "graph_spectrum"):
        monkeypatch.setattr(drglab.graph, attr, forbidden)
    rep = local_spectral_checks(BASES[name])
    assert not rep["locally_srg"] and rep["reason"] == "not locally SRG"
    assert "min_local_eig" not in rep and "min_local_eig_ok" not in rep


def test_taylor_graph_over_paley_257_has_a_full_report():
    # valency 257 is above the exact-spectrum cap, so the old route raised
    # ResourceError after certifying all 516 local graphs
    rep = local_spectral_checks(taylor(paley(257)))
    assert rep["locally_srg"] and rep["local_params"] == (257, 128, 63, 64)
    assert rep["conference_local"]
    assert rep["min_local_eig"] == Surd(-1, -1, 257, 2)


def mu_patterns(g: Graph) -> set:
    """The distinct adjacency matrices of the mu-graphs, members ascending,
    read from the local-partition pass: the members of a pair are the
    neighbours of its centre y at distance 1 from its partner x."""
    adj = g.adjacency_matrix()
    found = set()
    # the pairs x > y at distance 2, read at their centre y; one byte per
    # entry: the fewest blocks
    for ys, xs, dist, _ in _local_blocks(g, 2, 2, True, 1):
        for b, t in np.ndindex(xs.shape):
            m = np.array(g.neighbors(int(ys[b])))[dist[b, :, t] == 1]
            found.add(adj[np.ix_(m, m)].tobytes())
    return found


@SETTINGS
@given(st.sampled_from(["folded J(8,4)", "Shrikhande", "J(7,3)", "H(3,3)", "4-cube"]),
       st.integers(0, 2 ** 32), st.booleans())
def test_common_neighbourhoods_match_the_pair_by_pair_oracle(name, seed, switched):
    rng = random.Random(seed)
    g = relabel(BASES[name], rng)
    if switched:
        g = switch(g, rng)
    for i in (1, 2):
        assert outcome(lambda h: _common_neighbourhoods(h, i), g) == \
            outcome(lambda h: local_oracle.common_neighbourhoods(h, i), g)
    assert outcome(c2_regularity_report, g) == \
        outcome(local_oracle.c2_regularity_report, Graph.from_json(g.to_json()))


SMALL = [name for name in BASES if BASES[name].n <= 16]


@st.composite
def varying_degree_graphs(draw) -> Graph:
    """At most 16 vertices: a random graph of some density beside, at times,
    a small base graph; isolated vertices and several components allowed."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    base = draw(st.sampled_from([None] + SMALL))
    edges = list(BASES[base].edges()) if base else []
    m = BASES[base].n if base else 0
    n = m + draw(st.integers(0 if base else 1, 16 - m))
    density = draw(st.sampled_from([0.0, 0.15, 0.3, 0.5, 0.8, 1.0]))
    edges += [(u, v) for u in range(m, n) for v in range(u + 1, n) if rng.random() < density]
    return relabel(Graph.from_edges(n, edges), rng)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(varying_degree_graphs())
@example(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)]))  # K_{1,3} and a vertex
def test_graphs_of_varying_degree_match_the_oracle(g):
    # vertices of smaller degree pad their neighbour rows with vertex n
    for i in (1, 2):
        assert outcome(lambda h: _common_neighbourhoods(h, i), g) == \
            outcome(lambda h: local_oracle.common_neighbourhoods(h, i), g)
    assert outcome(c2_regularity_report, g) == \
        outcome(local_oracle.c2_regularity_report, Graph.from_json(g.to_json()))
    assert outcome(triple_intersection_number, g) == \
        outcome(triple_oracle.triple_intersection_number, g)


@SETTINGS
@given(st.sampled_from(sorted(BASES)), st.integers(0, 2 ** 32), st.booleans())
def test_triple_intersection_number_matches_the_bitset_oracle(name, seed, switched):
    rng = random.Random(seed)
    g = relabel(BASES[name], rng)
    if switched:
        g = switch(g, rng)
    assert outcome(triple_intersection_number, g) == \
        outcome(triple_oracle.triple_intersection_number, Graph.from_json(g.to_json()))


@pytest.mark.parametrize("name", ["folded J(8,4)", "Shrikhande"])
def test_mu_graphs_with_several_patterns_match_the_oracle(name):
    # the largest coclique is searched once per pattern, so the report must
    # not depend on which pair shows a pattern first
    g = relabel(BASES[name], random.Random(7))
    assert len(mu_patterns(g)) > 1
    assert c2_regularity_report(g) == local_oracle.c2_regularity_report(g)


def test_c2_report_reads_the_mu_graphs_once(monkeypatch):
    # the mu-graphs of Shrikhande's graph are an edge or two non-adjacent
    # vertices, so the first one's coclique meets the bound for its valency
    # while the others do not all share it: one pass collects the patterns
    # of the blocks whose mu-graphs are not all of that valency
    passes, common = [], drglab.graph._common_neighbourhoods
    monkeypatch.setattr(drglab.graph, "_common_neighbourhoods",
                        lambda *args: passes.append(1) or common(*args))
    for seed in range(5):
        g = relabel(BASES["Shrikhande"], random.Random(seed))
        passes.clear()
        rep = c2_regularity_report(g)
        assert passes == [1] and not rep.regular
        assert rep == local_oracle.c2_regularity_report(g)


@pytest.mark.parametrize("order", [CHECKS, CHECKS[::-1]], ids=["local first", "c2 first"])
def test_c2_report_and_local_checks_share_one_mu_pass(monkeypatch, order):
    # the graph keeps the (size, valency) of its lambda- and mu-graph passes
    # (Graph._common): the local checks read the c2 report's mu pass, and the
    # c2 report skips its pass after the local checks' when every mu-graph
    # is regular of the first one's valency (a 4-cycle on J(10,5)) and the
    # first one's coclique meets the bound
    g = relabel(johnson(10, 5), random.Random(10))
    wants = [oracle(Graph.from_json(g.to_json())) for _, oracle in order]
    passes, blocks = [], drglab.graph._local_blocks
    monkeypatch.setattr(drglab.graph, "_local_blocks",
                        lambda g, lo, *rest: passes.append(lo) or blocks(g, lo, *rest))
    for (check, _), want in zip(order, wants):
        assert_same(check(g), want)
    assert passes.count(2) == 1 and "mu_prime" in wants[order.index(CHECKS[0])]


@pytest.mark.parametrize("name", ["folded J(8,4)", "Shrikhande", "Taylor(Paley(13))"])
def test_one_row_per_step_gives_the_same_reports(monkeypatch, name):
    # a budget of one byte, less than any item takes, reads one centre per
    # block and packs one mu-graph pattern per step, so the patterns are
    # merged across many blocks; the budget test in test_cab compares the
    # reports of the other callers
    g = relabel(BASES[name], random.Random(3))

    def reports():
        patterns: list = []
        _common_neighbourhoods(g, 2, patterns)
        # a fresh copy, whose lambda- and mu-graph passes run at this budget
        return (mu_patterns(g), np.unique(np.concatenate(patterns)).tobytes(),
                outcome(local_spectral_checks, Graph.from_json(g.to_json())))

    want = reports()
    monkeypatch.setattr(drglab.graph, "_BUDGET", 1)
    assert reports() == want
