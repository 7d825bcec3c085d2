"""Family constructors: vertex counts, intersection arrays, design inputs,
and the numpy arc builder against the list builders of ``family_oracle``."""

import itertools

import numpy as np
import pytest

import family_oracle as oracle

from drglab.arrays import IntersectionArray
from drglab.errors import InputError, ResourceError
from drglab.families import (FamilySpec, antipodal_quotient, build_family,
                             complete, complete_multipartite, cycle,
                             folded_halved_cube, folded_johnson, grid,
                             halved_cube, hamming, hypercube, johnson,
                             latin_square_graph, steiner_block_graph,
                             triangular, validate_orthogonal_array,
                             validate_steiner_blocks)
from drglab.graph import check_distance_regular
from drglab.homogeneous import check_i_homogeneous


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
    folded = antipodal_quotient(parent)
    fia = _array(folded)
    e = pia.D // 2
    assert fia.b == pia.b[:e]
    assert fia.c[:-1] == pia.c[:e - 1]
    assert fia.c_at(e) == pia.c_at(e) + pia.b_at(e)


def test_antipodal_quotient_of_johnson_2d_d():
    # J(10,5) is 2-antipodal: complementary 5-sets are at distance 5.
    # Odd parent diameter folds to diameter 2, the SRG on 126 vertices.
    folded = antipodal_quotient(johnson(10, 5))
    assert folded.n == 126
    assert _array(folded) == IntersectionArray((25, 16), (1, 4))


def test_antipodal_quotient_rejects_nonantipodal():
    with pytest.raises(InputError):
        antipodal_quotient(hamming(3, 3))  # distance-3 classes don't pair up


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
    """The same neighbour lists and the same int32 arc arrays."""
    assert g.to_json() == expected.to_json()
    for got, want in ((g._src, expected._src), (g._dst, expected._dst)):
        assert got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)


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
    assert_same_graph(folded_johnson(2 * d, d), antipodal_quotient(johnson(2 * d, d)))


@pytest.mark.parametrize("length", range(4, 13, 2))
def test_folded_halved_cube_is_antipodal_quotient(length):
    assert_same_graph(folded_halved_cube(length), antipodal_quotient(halved_cube(length)))


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
                                     (lambda: folded_halved_cube(10), 256)])
def test_vertex_cap_counts_folded_vertices(monkeypatch, build, n):
    monkeypatch.setenv("DRG_LAB_VERTEX_CAP", str(n))
    assert build().n == n
    monkeypatch.setenv("DRG_LAB_VERTEX_CAP", str(n - 1))
    with pytest.raises(ResourceError):
        build()
