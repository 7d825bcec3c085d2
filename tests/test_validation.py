"""Differential test of the adjacency check of ``Graph(adjacency)``, run on
the arc arrays, against the neighbour-list scan in ``validation_oracle``.

Inputs are relabelled corpus graphs with isolated vertices, perturbed by up
to three edits: an out-of-range neighbour, a loop, a repeated neighbour, two
swapped neighbours, an arc without its reverse, or rows emptied.  Both sides
must accept the same inputs and reject the rest with the same InputError.
Examples are derandomized, so runs are repeatable.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drglab.errors import InputError
from drglab.families import cycle, folded_johnson, hamming, petersen
from drglab.graph import Graph
from test_equitability import relabel
from validation_oracle import validate

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

BASES = [petersen(), cycle(5), hamming(2, 3), folded_johnson(6, 3), Graph([[1], [0]]),
         Graph([[]]), Graph([])]

EDITS = ("range", "loop", "repeat", "swap", "one-way", "empty")


def edit(adj, kind: str, rng: random.Random) -> None:
    n = len(adj)
    rows = [v for v in range(n) if adj[v]]
    if kind == "range" and n:
        v = rng.randrange(n)
        bad = rng.choice([-1, -2 ** 40, n, n + 7, 2 ** 40])
        adj[v].insert(rng.randint(0, len(adj[v])), bad)
    elif kind == "loop" and n:
        v = rng.randrange(n)
        adj[v] = sorted(adj[v] + [v])
    elif kind == "repeat" and rows:
        v = rng.choice(rows)
        t = rng.randrange(len(adj[v]))
        adj[v].insert(t, adj[v][t])
    elif kind == "swap" and [v for v in rows if len(adj[v]) > 1]:
        v = rng.choice([v for v in rows if len(adj[v]) > 1])
        s, t = rng.sample(range(len(adj[v])), 2)
        adj[v][s], adj[v][t] = adj[v][t], adj[v][s]
    elif kind == "one-way" and n > 1:
        v, u = rng.sample(range(n), 2)
        if u in adj[v]:
            adj[v].remove(u)
        else:
            adj[v] = sorted(adj[v] + [u])
    elif kind == "empty":
        for v in rng.sample(range(n), rng.randint(0, n)):
            adj[v] = []


@st.composite
def adjacencies(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32), label="seed"))
    g = draw(st.sampled_from(BASES), label="base")
    g = relabel(g, rng) if g.n else g
    adj = g.to_json()["adj"] + [[] for _ in range(draw(st.integers(0, 2), label="isolated"))]
    for kind in draw(st.lists(st.sampled_from(EDITS), max_size=3), label="edits"):
        edit(adj, kind, rng)
    return adj


def outcome(check, adj):
    """None when accepted, else the InputError's message."""
    try:
        check(adj)
    except InputError as exc:
        return str(exc)
    return None


@SETTINGS
@given(adjacencies())
def test_array_check_matches_the_oracle(adj):
    want = outcome(validate, adj)
    assert outcome(Graph, adj) == want
    if want is None:
        assert Graph(adj).to_json()["adj"] == adj


@pytest.mark.parametrize("adj", [[], [[]], [[], []], [[1], [0], []]])
def test_graphs_with_empty_rows_are_accepted(adj):
    assert outcome(validate, adj) is None
    assert Graph(adj).to_json()["adj"] == adj


@pytest.mark.parametrize("adj", [[[2 ** 70], []], [[1.5], [0]], [["1"], [0]], [3]])
def test_entries_beyond_int64_or_not_integers_raise_input_error(adj):
    with pytest.raises(InputError):
        Graph(adj)
