"""Family constructors: vertex counts, intersection arrays, design inputs,
the numpy arc builder against the list builders of ``family_oracle``, the
size limits, and two Cayley graphs that share the array of a family without
being in it."""

import itertools
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import cab_oracle
import family_oracle as oracle
import homogeneity_oracle

from drglab import errors, families
from drglab.arrays import IntersectionArray
from drglab.cab import cab_partition_check
from drglab.errors import InputError, ResourceError
from drglab.families import (FamilySpec, _cayley, _of_weight, build_family,
                             complete, complete_multipartite, cycle,
                             folded_halved_cube, folded_johnson, grid,
                             halved_cube, hamming, hypercube, johnson,
                             latin_square_graph, steiner_block_graph,
                             triangular, validate_orthogonal_array,
                             validate_steiner_blocks)
from drglab.graph import check_distance_regular
from drglab.homogeneous import check_i_homogeneous, recognize_named_family


def _array(g):
    ia = check_distance_regular(g)
    assert isinstance(ia, IntersectionArray)
    return ia


def test_johnson_array():
    g = johnson(10, 5)
    assert g.n == 252
    assert _array(g) == IntersectionArray((25, 16, 9, 4, 1), (1, 4, 9, 16, 25))


def test_halved_cube_arrays():
    g = halved_cube(10)
    assert g.n == 512
    assert _array(g) == IntersectionArray((45, 28, 15, 6, 1), (1, 6, 15, 28, 45))
    g = halved_cube(11)
    assert g.n == 1024
    assert _array(g) == IntersectionArray((55, 36, 21, 10, 3), (1, 6, 15, 28, 45))


def test_hamming_array():
    g = hamming(5, 3)
    assert g.n == 243
    assert _array(g) == IntersectionArray((10, 8, 6, 4, 2), (1, 2, 3, 4, 5))


def test_small_families():
    assert _array(hypercube(4)) == IntersectionArray((4, 3, 2, 1), (1, 2, 3, 4))
    assert _array(grid(3, 3)) == IntersectionArray((4, 2), (1, 2))
    assert _array(triangular(10)) == IntersectionArray((16, 7), (1, 4))
    assert _array(complete_multipartite(3, 2)) == IntersectionArray((4, 1), (1, 4))
    assert _array(cycle(5)) == IntersectionArray((2, 1), (1, 1))


def test_folded_johnson_array():
    g = folded_johnson(12, 6)
    assert g.n == 462
    assert _array(g) == IntersectionArray((36, 25, 16), (1, 4, 18))


def test_folded_halved_cube_array():
    g = folded_halved_cube(8)
    assert g.n == 64
    ia = _array(g)
    assert ia.k == 28


def test_antipodal_quotient_fold_rule():
    # folding a 2-antipodal parent of even diameter 2e keeps b_i, c_i for
    # i < e and sets the last c to c_e + b_e
    parent = johnson(12, 6)
    pia = _array(parent)
    folded = oracle.antipodal_quotient(parent)
    fia = _array(folded)
    e = pia.D // 2
    assert fia.b == pia.b[:e]
    assert fia.c[:-1] == pia.c[:e - 1]
    assert fia.c_at(e) == pia.c_at(e) + pia.b_at(e)


def test_antipodal_quotient_of_johnson_2d_d():
    # J(10,5) is 2-antipodal: complementary 5-sets are at distance 5.
    # Odd parent diameter folds to diameter 2, the SRG on 126 vertices.
    folded = oracle.antipodal_quotient(johnson(10, 5))
    assert folded.n == 126
    assert _array(folded) == IntersectionArray((25, 16), (1, 4))


def test_antipodal_quotient_rejects_nonantipodal():
    with pytest.raises(InputError):
        oracle.antipodal_quotient(hamming(3, 3))  # distance-3 classes don't pair up


def test_orthogonal_array_validation():
    oa = [[i // 4 for i in range(16)], [i % 4 for i in range(16)]]
    m, n = validate_orthogonal_array(oa)
    assert (m, n) == (2, 4)
    with pytest.raises(InputError):
        validate_orthogonal_array([[0, 0, 1, 1], [0, 0, 1, 1]])
    # symbols are the integers 0..n-1; 1.0 is the symbol 1, 0.5 is none
    with pytest.raises(InputError, match="lie in 0..n-1"):
        validate_orthogonal_array([[0, 0.5, 1, 1.5], [0, 1, 0, 1]])
    assert latin_square_graph(oa=[[float(s) for s in oa[0]], oa[1]]).to_json() == \
        latin_square_graph(oa=oa).to_json()


def test_latin_square_graph_parameters():
    g = latin_square_graph(2, 5)
    ia = _array(g)
    assert (g.n, ia.k, ia.a_at(1), ia.c_at(2)) == (25, 8, 3, 2)


def test_steiner_block_graph_fano():
    fano = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5],
            [1, 4, 6], [2, 3, 6], [2, 4, 5]]
    m, n = validate_steiner_blocks(fano)
    assert (m, n) == (3, 7)
    g = steiner_block_graph(fano)
    assert g.n == 7 and _array(g).k == 6  # K_7: any two lines meet


def test_steiner_blocks_reject_bad_design():
    with pytest.raises(InputError):
        validate_steiner_blocks([[0, 1, 2], [0, 1, 3]])


def test_family_spec_parse_and_build():
    spec = FamilySpec.parse("johnson:10,5")
    assert spec.name == "johnson" and spec.params == (10, 5)
    assert build_family(spec).n == 252
    with pytest.raises(InputError):
        build_family(FamilySpec.parse("nosuchfamily:3"))


def test_build_family_with_design_data():
    oa = [[i // 5 for i in range(25)], [i % 5 for i in range(25)]]
    spec = FamilySpec.parse("latin_square", data=oa)
    g = build_family(spec)
    assert g.n == 25


# -- the label builder against the tuple-label oracle -------------------------


SLOW = pytest.mark.slow


def _case(name, *params, marks=()):
    return pytest.param(name, params, marks=marks,
                        id=f"{name}:{','.join(map(str, params))}")


CASES = (
    [_case("johnson", 2 * d, d) for d in range(2, 7)]
    + [_case("johnson", 9, 4), _case("johnson", 7, 1)]
    # subset masks of 64 and 70 bits do not fit an int64
    + [_case("johnson", 64, 1), _case("johnson", 70, 2)]
    + [_case("folded_johnson", 2 * d, d) for d in range(1, 7)]
    + [_case("halved_cube", L) for L in range(2, 13)]
    + [_case("folded_halved_cube", L) for L in range(2, 13, 2)]
    + [_case("hamming", *p) for p in ((1, 2), (3, 3), (4, 4), (6, 3), (7, 2))]
    + [_case("folded_johnson", 2 * d, d, marks=SLOW) for d in (7, 9)]
    + [_case(name, *p, marks=SLOW) for name, p in (
        ("folded_halved_cube", (16,)), ("johnson", (14, 7)), ("johnson", (16, 8)),
        ("halved_cube", (16,)), ("hamming", (10, 3)))])


def assert_same_graph(g, expected):
    """The same neighbour lists and the same intp arc index: targets and
    offsets, with no sources array."""
    assert g.to_json() == expected.to_json()
    for got, want in ((g._dst, expected._dst), (g._starts, expected._starts)):
        assert got.dtype == want.dtype == np.intp
        assert np.array_equal(got, want)
    assert not hasattr(g, "_src") and not hasattr(expected, "_src")


@pytest.mark.parametrize("name,params", CASES)
def test_label_builder_matches_oracle(name, params):
    g = getattr(oracle, name)(*params)
    expected = g[0] if isinstance(g, tuple) else g
    assert_same_graph(build_family(FamilySpec(name, params)), expected)


#: OA(4, 3): rows, columns and the two orthogonal Latin squares x + y, x + 2y
OA43 = [[c // 3 for c in range(9)], [c % 3 for c in range(9)],
        [(c // 3 + c % 3) % 3 for c in range(9)], [(c // 3 + 2 * (c % 3)) % 3 for c in range(9)]]
FANO = [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]]
#: the lines of AG(2, 3) on the points 3 x + y, in descending order
AG23 = sorted({tuple(sorted(3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3)))
               for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2))
               for x in range(3) for y in range(3)}, reverse=True)

ARC_CASES = (
    [pytest.param(grid, oracle.grid, p, id=f"grid:{p[0]},{p[1]}")
     for p in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3))]
    + [pytest.param(complete_multipartite, oracle.complete_multipartite, p,
                    id=f"complete_multipartite:{p[0]},{p[1]}")
       for p in ((2, 1), (2, 3), (3, 2), (4, 3))]
    + [pytest.param(complete, oracle.complete, (n,), id=f"complete:{n}") for n in (1, 2, 5)]
    + [pytest.param(cycle, oracle.cycle, (n,), id=f"cycle:{n}") for n in (3, 4, 7)]
    + [pytest.param(lambda oa: latin_square_graph(oa=oa), oracle.latin_square_graph, (oa,),
                    id=name)
       for name, oa in (("OA(4,3)", OA43), ("OA(2,1)", [[0], [0]]),
                        ("OA(3,2)", [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]))]
    + [pytest.param(steiner_block_graph, oracle.steiner_block_graph, (blocks,), id=name)
       for name, blocks in (
           ("Fano", FANO),
           ("Fano, points 10 p + 3", [[10 * p + 3 for p in b] for b in FANO]),
           ("Fano, blocks reversed", [b[::-1] for b in FANO[::-1]]),
           ("AG(2,3)", AG23),
           ("K4 edges, points -1..2", [[u - 1, v - 1] for u, v in
                                       itertools.combinations(range(4), 2)]),
           ("one block", [[7, 3]]))])


@pytest.mark.parametrize("build,reference,args", ARC_CASES)
def test_arc_builder_matches_list_oracle(build, reference, args):
    assert_same_graph(build(*args), reference(*args))


def test_latin_square_cyclic_tables_match_oracle():
    for m, n in ((2, 2), (2, 5), (3, 4), (3, 5)):
        g = latin_square_graph(m, n)
        cols = list(itertools.product(range(n), repeat=2))
        oa = [[x for x, _ in cols], [y for _, y in cols], [(x + y) % n for x, y in cols]]
        assert_same_graph(g, oracle.latin_square_graph(oa[:m]))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, pytest.param(7, marks=SLOW)])
def test_folded_johnson_is_antipodal_quotient(d):
    assert_same_graph(folded_johnson(2 * d, d), oracle.antipodal_quotient(johnson(2 * d, d)))


@pytest.mark.parametrize("length", range(4, 13, 2))
def test_folded_halved_cube_is_antipodal_quotient(length):
    assert_same_graph(folded_halved_cube(length), oracle.antipodal_quotient(halved_cube(length)))


@pytest.mark.parametrize("length", [3, 5, 11])
def test_folded_halved_cube_rejects_odd_length(length):
    with pytest.raises(InputError):
        folded_halved_cube(length)


@pytest.mark.parametrize("n,d", [(9, 4), (3, 1), (12, 5)])
def test_folded_johnson_rejects_n_not_2d(n, d):
    with pytest.raises(InputError):
        folded_johnson(n, d)


def test_folded_halved_cube_beyond_dense_cap():
    # the 8192-vertex parent is past the dense distance matrix; the fold is not
    g = folded_halved_cube(14)
    assert g.n == 4096
    assert {g.degree(v) for v in range(g.n)} == {91}
    # the parent's diameter 7 is odd, so the fold (diameter 3) is not
    # 1-homogeneous, like folded halved 10-cube; the last cell splits
    rep = check_i_homogeneous(g, 1, "sampled", seed=14, count=4)
    assert not rep.holds and rep.witness[2] == (3, 3)
    assert not check_i_homogeneous(folded_halved_cube(10), 1).holds


def test_folded_halved_cube_16_sampled_homogeneous():
    g = folded_halved_cube(16)
    assert g.n == 16384
    rep = check_i_homogeneous(g, 1, "sampled", seed=16, count=4)
    assert rep.holds and rep.pairs_checked == 4


@pytest.mark.parametrize("build,n", [(lambda: folded_johnson(12, 6), 462),
                                     (lambda: folded_halved_cube(10), 256),
                                     (lambda: hypercube(4), 16),
                                     (lambda: hamming(3, 3), 27),
                                     (lambda: johnson(8, 4), 70),
                                     (lambda: halved_cube(6), 32),
                                     (lambda: folded_johnson(4, 2), 3)])
def test_vertex_cap_counts_folded_vertices(monkeypatch, build, n):
    # a folded graph predicts the bytes of its own vertices, and the lower
    # bound 2^min_bits on a count (2^1 < C(4, 2)/2 = 3) does not refuse a
    # graph that fits exactly: with the room patched to the predicted bytes
    # the graph builds, and one byte less refuses it
    asked = []
    monkeypatch.setattr(families, "require_room", lambda what, nbytes: asked.append((what, nbytes)))
    build()
    what, need = asked[-1]
    assert what.startswith(f"{n} vertices of width ")
    monkeypatch.undo()
    monkeypatch.setattr(errors, "_room", lambda: need)
    assert build().n == n
    monkeypatch.setattr(errors, "_room", lambda: need - 1)
    with pytest.raises(ResourceError, match=rf"^({n}|2\^\d+ or more) vertices of width "):
        build()


#: each oversized spec and the graph its refusal names
OVERSIZED = {
    "hamming:99999999999999999999,2": "2^64 or more vertices of width 99999999999999999999",
    "johnson:3000000,1500000": "2^64 or more vertices of width 2250000000000",
    "folded_johnson:100000000,50000000": "2^64 or more vertices of width 2500000000000000",
    "halved_cube:100000000": "2^64 or more vertices of width 4999999950000000",
    "folded_halved_cube:100000000": "2^64 or more vertices of width 4999999950000000",
    "latin_square:3,100000000": "10000000000000000 vertices of width 300000000",
    "complete:3000000": "3000000 vertices of width 2999999"}


@pytest.mark.parametrize("spec", list(OVERSIZED))
def test_oversized_family_is_refused_before_it_is_counted(spec):
    # the bytes are predicted from the parameters, before a count with
    # millions of digits, C(n, n/2), a connection set or a list of n^2
    # columns is computed; the timeout catches a builder that computes it
    # first
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys\n"
            "from drglab.errors import ResourceError\n"
            "from drglab.families import FamilySpec, build_family\n"
            "try:\n"
            "    build_family(FamilySpec.parse(sys.argv[1]))\n"
            "except ResourceError as exc:\n"
            "    print(exc)\n")
    done = subprocess.run([sys.executable, "-c", code, spec], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(re.escape(OVERSIZED[spec]) + r" need \S+ GiB; \S+ GiB of memory is left\n",
                        done.stdout), done.stdout


def test_cycle_of_3000000_vertices_builds():
    # 3 million vertices but 48 MB of arcs: bytes, not vertices, bound a build
    g = cycle(3000000)
    assert g.n == 3000000 and g.edge_count == 3000000


def _build_under_3gb(spec):
    """``drglab build spec`` under a 3 GB address-space limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "drglab.cli", "build", spec], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("spec,n,width", [("complete:100000", 100000, 99999),
                                          ("grid:1000,1000", 1000000, 1998)])
def test_arcs_beyond_memory_are_refused_before_they_are_allocated(spec, n, width):
    # 74.5 and 14.9 GiB of intp arc targets: under a 3 GB address-space
    # limit the CLI exits 2 at once, not 3 on a MemoryError
    done = _build_under_3gb(spec)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"error: {n} vertices of width {width} need ")


def test_one_vertex_johnson_predicts_no_binomial_table():
    # J(n, n) has one vertex and no exchanges, so no (n + 1) x (n + 2)
    # table is predicted (74.5 GiB here) or built
    done = _build_under_3gb("johnson:100000,100000")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["n"] == 1
    assert johnson(3, 3).to_json()["adj"] == [[]]


# -- Cayley graphs with the array of a family they are not in -------------------


def doob_d13():
    """Doob D(1,3) on Z_4^5: the Shrikhande moves +-(1,0), +-(0,1), +-(1,1)
    on coordinates 0-1, and every nonzero digit on each of coordinates 2-4."""
    shrikhande = [(a, b, 0, 0, 0) for a, b in ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3))]
    return _cayley((4,) * 5, shrikhande + [(0, 0) + w for w in _of_weight((4,) * 3, 1)])


def bilinear_forms_233():
    """H_2(3,3): the 3 x 3 matrices over GF(2) as words of Z_2^9, adjacent
    when they differ by one of the 49 rank-one matrices u v^T."""
    nonzero = [u for u in itertools.product((0, 1), repeat=3) if any(u)]
    return _cayley((2,) * 9, [tuple(a * b for a in u for b in v)
                              for u in nonzero for v in nonzero])


@pytest.mark.parametrize("build,array,named", [
    (doob_d13, IntersectionArray((15, 12, 9, 6, 3), (1, 2, 3, 4, 5)), ["Hamming H(5,4)"]),
    (bilinear_forms_233, IntersectionArray((49, 36, 16), (1, 6, 28)), [])],
    ids=["Doob D(1,3)", "bilinear forms H_2(3,3)"])
def test_cayley_look_alikes_are_refuted(build, array, named):
    g = build()
    ia = _array(g)
    assert ia == array
    # the name comes from the array alone: D(1,3) is not H(5,4)
    assert recognize_named_family(ia) == named
    # fresh copies, so that no side reads the other's caches
    homog = check_i_homogeneous(build(), 1)
    assert not homog.holds and homog == homogeneity_oracle.check_i_homogeneous(build(), 1)
    cab = cab_partition_check(build())
    assert not cab.holds and cab == cab_oracle.cab_partition_check(build())
