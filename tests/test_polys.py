"""Exact polynomial roots and characteristic polynomials."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import drglab.polys as polys
from drglab.arrays import IntersectionArray
from drglab.classical import ClassicalParams, classical_array, gaussian_binomial
from drglab.polys import (_roots_above, charpoly, charpoly_tridiagonal, eval_poly, poly_mul,
                          real_roots, tridiagonal_roots)
from drglab.scalars import Interval, Surd, exact_cmp, exact_eq, scalar_bounds

coeff = st.integers(min_value=-9, max_value=9)


@given(st.lists(coeff, min_size=1, max_size=5),
       st.lists(coeff, min_size=1, max_size=5))
def test_poly_mul_matches_evaluation(p, q):
    x = Fraction(3, 7)
    assert eval_poly(poly_mul(p, q), x) == eval_poly(p, x) * eval_poly(q, x)


def test_rational_roots_with_multiplicity():
    # (x-1)^2 (x+2): coefficients low-to-high? use eval to stay agnostic
    coeffs = poly_mul(poly_mul([-1, 1], [-1, 1]), [2, 1])
    roots = real_roots(coeffs)
    assert sorted((r, m) for r, m in roots) == [(Fraction(-2), 1),
                                                (Fraction(1), 2)]


def test_irrational_roots_are_surds():
    roots = real_roots([-5, 0, 1])  # x^2 - 5
    vals = [r for r, _ in roots]
    assert any(exact_eq(v, Surd(0, 1, 5, 1)) for v in vals)
    assert any(exact_eq(v, Surd(0, -1, 5, 1)) for v in vals)


def test_charpoly_tridiagonal_path_graph():
    # path on 3 vertices: eigenvalues 0, +-sqrt(2)
    coeffs = charpoly_tridiagonal([0, 0, 0], [1, 1], [1, 1])
    roots = [r for r, _ in real_roots(coeffs)]
    assert any(exact_eq(r, Fraction(0)) for r in roots)
    assert any(exact_eq(r, Surd(0, 1, 2, 1)) for r in roots)


def test_charpoly_dense_matches_tridiagonal():
    rows = [[1, 2, 0], [3, 4, 5], [0, 6, 7]]
    assert charpoly(rows) == charpoly_tridiagonal([1, 4, 7], [3, 6], [2, 5])
    half = [[Fraction(v, 2) for v in row] for row in rows]
    assert charpoly(half) == charpoly_tridiagonal(
        [Fraction(1, 2), 2, Fraction(7, 2)], [Fraction(3, 2), 3], [1, Fraction(5, 2)])


@given(st.lists(coeff, min_size=2, max_size=3))
def test_real_roots_vanish_on_polynomial(coeffs):
    if coeffs[-1] == 0:
        return  # degenerate leading coefficient
    for r, _ in real_roots(coeffs):
        assert exact_eq(eval_poly(coeffs, r), Fraction(0))


def test_cubic_root_is_bracketing_interval():
    # x^3 - 2: one real root, irrational and non-quadratic
    (root, mult), = real_roots([-2, 0, 0, 1])
    assert mult == 1
    lo, hi = scalar_bounds(root, 12)
    assert eval_poly([-2, 0, 0, 1], lo) < 0 < eval_poly([-2, 0, 0, 1], hi)


def test_roots_of_a_cubic_sympy_would_rescale_refine_with_sign_changes():
    # CRootOf(x^3 - 10x^2 + 88, i) is 2*CRootOf(x^3 - 5x^2 + 11, i), which
    # has no rational refinement; the isolating intervals need no CRootOf
    coeffs = [88, 0, -10, 1]
    roots = real_roots(coeffs)
    assert [m for _, m in roots] == [1, 1, 1]
    for root, _ in roots:
        assert isinstance(root, Interval) and root.width <= polys.ROOT_WIDTH
        for prec in (9, 50):
            lo, hi = scalar_bounds(root, prec)
            assert hi - lo <= Fraction(1, 10 ** prec)
            assert eval_poly(coeffs, lo) * eval_poly(coeffs, hi) < 0


# -- tridiagonal_roots against real_roots(charpoly_tridiagonal(...)) ----------

SETTINGS = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def tridiagonal(ia: IntersectionArray):
    """(diag, lower, upper) of the intersection matrix, rows (c_i, a_i, b_i)."""
    D = ia.D
    return ([ia.a_at(i) for i in range(D + 1)], [ia.c_at(i) for i in range(1, D + 1)],
            [ia.b_at(i) for i in range(D)])


def assert_matches_reference(diag, lower, upper):
    expected = real_roots(charpoly_tridiagonal(diag, lower, upper))
    with mock.patch.object(polys, "real_roots", wraps=real_roots) as leftover:
        found = tridiagonal_roots(diag, lower, upper)
    assert [(str(r), m) for r, m in found] == [(str(r), m) for r, m in expected]
    # sympy sees one polynomial, of the irrational roots alone, or none at all
    irrational = sum(not isinstance(r, Fraction) for r, _ in found)
    assert ([len(call.args[0]) - 1 for call in leftover.call_args_list]
            == ([irrational] if irrational else []))


@st.composite
def tridiagonal_arrays(draw):
    """Rows (c_i, a_i, b_i) summing to k, with b_i, c_i >= 1 and a_i >= 0:
    small k gives many integer roots, large k few."""
    D = draw(st.integers(1, 6))
    k = draw(st.one_of(st.integers(2, 8), st.integers(2, 10 ** 4)))
    bs, cs = [k], []
    for i in range(1, D + 1):
        cs.append(draw(st.integers(1, k if i == D else k - 1)))
        if i < D:
            bs.append(draw(st.integers(1, k - cs[-1])))
    diag = [0] + [k - c - b for c, b in zip(cs, bs[1:] + [0])]
    return diag, cs, bs


@settings(SETTINGS, max_examples=60)
@given(tridiagonal_arrays())
# its leftover x^3 - 10x^2 + 88 is a cubic that sympy's CRootOf rescales
@example(([0, 6, 5, 9], [2, 4, 1], [10, 2, 1]))
def test_tridiagonal_roots_match_factoring(array):
    assert_matches_reference(*array)


@st.composite
def classical_arrays(draw):
    """classical_array(D, b, alpha, beta) with integers b >= 1, 0 <= alpha <= b
    and beta > alpha [D-1], so that every b_i and c_i is a positive integer."""
    D = draw(st.integers(3, 6))
    b = draw(st.integers(1, 4))
    alpha = draw(st.integers(0, b))
    beta = alpha * gaussian_binomial(D - 1, b) + draw(st.integers(1, 60))
    return classical_array(ClassicalParams(D, b, alpha, beta))


@settings(SETTINGS, max_examples=30)
@given(classical_arrays())
@example(classical_array(ClassicalParams(3, -2, -3, 7)))  # Hermitian forms
@example(classical_array(ClassicalParams(4, -2, -3, -17)))
def test_tridiagonal_roots_match_factoring_on_classical_arrays(ia):
    assert_matches_reference(*tridiagonal(ia))


#: arrays with irrational eigenvalues: GH(s, 1) has surds, the rest cubics
NAMED = {"Biggs-Smith": "3,2,2,2,1,1,1;1,1,1,1,1,1,3",
         "Foster": "3,2,2,2,2,1,1,1;1,1,1,1,2,2,2,3",
         "dodecahedron": "3,2,1,1,1;1,1,1,2,3",
         "Coxeter": "3,2,2,1;1,1,1,2",
         "GH(5,1)": "10,5,5;1,1,2",
         "GH(7,1)": "14,7,7;1,1,2",
         "J(8,4)": "16,9,4,1;1,4,9,16",
         "6-cube": "6,5,4,3,2,1;1,2,3,4,5,6"}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_tridiagonal_roots_match_factoring_on_named_arrays(name):
    assert_matches_reference(*tridiagonal(IntersectionArray.parse(NAMED[name])))


@settings(SETTINGS, max_examples=20)
@given(st.integers(1, 40))
def test_tridiagonal_roots_of_generalized_hexagons_are_surds(s):
    assert_matches_reference(*tridiagonal(IntersectionArray((2 * s, s, s), (1, 1, 2))))


@pytest.mark.parametrize("name", sorted(NAMED))
def test_sign_changes_count_the_roots_above_every_integer(name):
    diag, lower, upper = tridiagonal(IntersectionArray.parse(NAMED[name]))
    coeffs = charpoly_tridiagonal(diag, lower, upper)
    roots = [r for r, _ in real_roots(coeffs)]
    offs = [lo * up for lo, up in zip(lower, upper)]
    k = upper[0]
    for x in range(-k - 1, k + 1):
        assert _roots_above(diag, offs, x) == (
            sum(exact_cmp(r, x) > 0 for r in roots), eval_poly(coeffs, x))


def test_inner_minor_vanishes_at_an_integer_root():
    # J(8,4): q_2(x) = x(x - a_1) - b_0 c_1 = x(x - 6) - 16 vanishes at 8, an
    # eigenvalue, and at -2, one too
    diag, lower, upper = tridiagonal(IntersectionArray.parse(NAMED["J(8,4)"]))
    q2 = charpoly_tridiagonal(diag[:2], lower[:1], upper[:1])
    assert eval_poly(q2, 8) == eval_poly(q2, -2) == 0
    assert [r for r, _ in tridiagonal_roots(diag, lower, upper)] == [16, 8, 2, -2, -4]


def test_tridiagonal_roots_need_positive_off_diagonal_products():
    with pytest.raises(ValueError):
        tridiagonal_roots([0, 0], [1], [0])
