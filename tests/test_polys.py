"""Exact polynomial roots and characteristic polynomials."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from drglab.polys import charpoly, charpoly_tridiagonal, eval_poly, poly_mul, real_roots
from drglab.scalars import Surd, exact_eq, scalar_bounds

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
