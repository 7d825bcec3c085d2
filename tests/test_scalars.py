"""Exact scalar arithmetic: surds, intervals, and decidable comparisons."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drglab.scalars as scalars
import surd_oracle
from drglab.errors import DomainError, UndecidableComparison
from drglab.polys import real_roots
from drglab.scalars import (REFINEMENT_DIGITS, Interval, Surd, exact_cmp,
                            exact_eq, scalar_bounds, scalar_json, scalar_str,
                            sort_desc)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_ints = st.integers(min_value=-20, max_value=20)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])
denominators = st.integers(min_value=1, max_value=12)


# Surds over a shared radical, so that sums and products stay in one field.
shared_surd_pairs = st.tuples(
    radicands, small_ints, small_ints, denominators,
    small_ints, small_ints, denominators,
).map(lambda t: (Surd(t[1], t[2], t[0], t[3]), Surd(t[4], t[5], t[0], t[6])))

shared_surd_triples = st.tuples(
    radicands, *(small_ints,) * 3, *(small_ints,) * 3,
).map(lambda t: tuple(Surd(t[1 + 2 * i], t[2 + 2 * i], t[0], 1)
                      for i in range(3)))


def test_surd_normalizes_squarefree():
    s = Surd(0, 1, 8, 2)  # sqrt(8)/2 = sqrt(2)
    assert s.d == 2 and s.q == 1 and s.e == 1


def test_surd_rational_collapse():
    assert Surd(3, 2, 4, 1) == Fraction(7)  # 3 + 2*sqrt(4)
    assert Surd(1, 0, 5, 2) == Fraction(1, 2)


def test_golden_ratio_identity():
    # x = (-1+sqrt(5))/2 satisfies x^2 + x - 1 = 0
    x = Surd(-1, 1, 5, 2)
    assert exact_eq(x * x + x, Fraction(1))


@given(shared_surd_pairs)
def test_surd_add_commutes(pair):
    a, b = pair
    assert exact_eq(a + b, b + a)


@given(shared_surd_triples)
def test_surd_mul_distributes(triple):
    a, b, c = triple
    assert exact_eq(a * (b + c), a * b + a * c)


@given(shared_surd_pairs)
def test_surd_sub_self_is_zero(pair):
    a, _ = pair
    assert exact_eq(a - a, Fraction(0))


@given(shared_surd_pairs, rationals)
def test_rational_shift_shifts_bounds(pair, q):
    a, _ = pair
    lo, hi = scalar_bounds(a + q, 30)
    alo, ahi = scalar_bounds(a, 30)
    assert alo + q <= hi and lo <= ahi + q


@given(shared_surd_pairs)
def test_sign_agrees_with_bounds(pair):
    a, _ = pair
    if isinstance(a, Fraction):
        return
    lo, hi = scalar_bounds(a, 40)
    if a.sign() > 0:
        assert hi > 0
    elif a.sign() < 0:
        assert lo < 0
    else:
        assert exact_eq(a, Fraction(0))


@given(shared_surd_pairs)
def test_cmp_antisymmetric(pair):
    a, b = pair
    assert exact_cmp(a, b) == -exact_cmp(b, a)


def test_conjugate_product_is_rational():
    s = Surd(3, 2, 5, 4)
    prod = s * s.conjugate()
    assert isinstance(prod, Fraction)
    assert prod == Fraction(9 - 4 * 5, 16)


def test_scalar_str_forms():
    assert scalar_str(Fraction(3, 2)) == "3/2"
    assert scalar_str(7) == "7"
    assert "sqrt" in scalar_str(Surd(1, 1, 5, 2))


def test_sort_desc_exact_and_stable():
    root2 = Surd(0, 1, 2, 1)
    pairs = [(Fraction(7, 5), "a"), (root2, "b"), (1, "c"), (Fraction(3, 2), "d"),
             (Fraction(2, 2), "e"), (-root2, "f")]
    sort_desc(pairs)
    # 3/2 > sqrt(2) > 7/5 > 1 = 1 > -sqrt(2); the two 1s keep their order
    assert [tag for _, tag in pairs] == ["d", "b", "a", "c", "e", "f"]


def test_surds_over_distinct_radicals_compare():
    # the switched icosahedron has both -sqrt(5) and -sqrt(3) as eigenvalues
    r5, r3 = Surd(0, 1, 5, 1), Surd(0, 1, 3, 1)
    assert -r5 < -r3 and r5 > r3 and not r5 <= r3
    assert exact_cmp(Surd(1, 1, 2, 1), Surd(0, 1, 6, 1)) == -1  # 1 + sqrt(2) < sqrt(6)
    assert not exact_eq(r5, r3)
    pairs = [(-r5, "a"), (r3, "b"), (1, "c"), (-r3, "d")]
    sort_desc(pairs)
    assert [tag for _, tag in pairs] == ["b", "c", "d", "a"]


def test_exact_cmp_stops_on_two_copies_of_one_root():
    # two enclosures of the cube root of 2 never separate; precision doubles
    # each round, so refinement stops at REFINEMENT_DIGITS digits
    r = real_roots([-2, 0, 0, 1])[0][0]
    other = real_roots([-2, 0, 0, 1])[0][0]
    widths = []

    def counted(width):
        widths.append(width)
        return other.refiner(width)

    copy = Interval(other.lo, other.hi, counted)
    assert exact_cmp(r, r) == 0 and exact_eq(r, r)
    with pytest.raises(UndecidableComparison):
        exact_cmp(r, copy)
    assert len(widths) <= REFINEMENT_DIGITS.bit_length()
    assert min(widths) == Fraction(1, 10 ** REFINEMENT_DIGITS)


# -- interval arithmetic -----------------------------------------------------------

CBRT2 = real_roots([-2, 0, 0, 1])[0][0]  # the real cube root of 2, an Interval
CBRT3 = real_roots([-3, 0, 0, 1])[0][0]
OPERANDS = [3, Fraction(-7, 4), Surd(1, 2, 5, 3), CBRT3,
            Interval(Fraction(1, 3), Fraction(1, 3))]
OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
       "*": lambda a, b: a * b, "/": lambda a, b: a / b}


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("other", range(len(OPERANDS)))
def test_interval_arithmetic_encloses_and_refines(op, other):
    y = OPERANDS[other]
    for a, b in ((CBRT2, y), (y, CBRT2)):
        got = OPS[op](a, b)
        assert isinstance(got, Interval)
        lo, hi = scalar_bounds(got, 40)
        assert hi - lo <= Fraction(1, 10 ** 40)
        # op on points of the operands' enclosures at 30 digits is within
        # 10^-25 of op(a, b), which the enclosure at 40 digits holds
        want = OPS[op](scalar_bounds(a, 30)[0], scalar_bounds(b, 30)[0])
        assert lo - Fraction(1, 10 ** 25) <= want <= hi + Fraction(1, 10 ** 25)


def test_interval_negation_and_exact_consequences():
    x = -CBRT2
    assert exact_cmp(x, -1) == -1 and exact_cmp(x, Fraction(-13, 10)) == 1
    # 2^(1/3) cubed is 2; the enclosures of the product separate it from
    # any other rational
    cube = CBRT2 * CBRT2 * CBRT2
    assert exact_cmp(cube, Fraction(2000001, 1000000)) == -1
    assert exact_cmp(cube, Fraction(1999999, 1000000)) == 1
    assert exact_cmp((CBRT2 + 1) / (CBRT2 - 1), 8) == 1  # 8.69...


def test_interval_division_by_zero_enclosure_is_undecidable():
    with pytest.raises(UndecidableComparison):
        CBRT2 / Interval(Fraction(-1, 10), Fraction(1, 10))
    with pytest.raises(UndecidableComparison):
        CBRT2 / 0
    # sqrt(2) - 1.4142 = 1.356e-5 is refined until its enclosure excludes 0
    q = CBRT2 / (Surd(0, 1, 2, 1) - Fraction(14142, 10000))  # 92898.27...
    assert exact_cmp(q, 92898) == 1 and exact_cmp(q, 92899) == -1


def test_b_parameter_of_an_irrational_cubic_theta1():
    # the 7-gon: theta_1 = 2 cos(2 pi / 7), a root of x^3 + x^2 - 2x - 1
    from drglab.arrays import IntersectionArray
    from drglab.eigen import b_parameter
    b = b_parameter(IntersectionArray((2, 1, 1), (1, 1, 1)))
    assert isinstance(b, Interval)
    lo, hi = scalar_bounds(b, 50)
    assert hi - lo <= Fraction(1, 10 ** 50)
    assert exact_cmp(b, Fraction(4450418679126, 10 ** 13)) == 1  # b = 0.44504186791262...
    assert exact_cmp(b, Fraction(4450418679127, 10 ** 13)) == -1
    assert exact_cmp(-1 - b, -1) == -1


def test_interval_float_is_refined_to_double_precision():
    # the enclosure real_roots hands back is about 1e-9 wide; float() refines
    # it the way it refines a surd, instead of returning its midpoint
    import math
    from drglab.arrays import IntersectionArray
    from drglab.eigen import eigenvalues
    theta1 = eigenvalues(IntersectionArray((2, 1, 1), (1, 1, 1)))[1]
    assert isinstance(theta1, Interval)
    assert abs(float(theta1) - 2 * math.cos(2 * math.pi / 7)) <= 1e-15


@dataclass(frozen=True)
class _Leaf:
    value: Fraction
    root: Surd
    missing: Optional[int]


@dataclass(frozen=True)
class _Report:
    name: str
    leaves: Tuple[_Leaf, ...]
    pair: Tuple[int, Fraction]
    holds: bool


def test_scalar_json_encodes_nested_dataclasses_field_by_field():
    rep = _Report("r", (_Leaf(Fraction(-3, 4), Surd(1, 2, 5, 3), None),
                        _Leaf(Fraction(2), Surd(0, -1, 2), 7)),
                  (1, Fraction(1, 2)), True)
    assert scalar_json(rep) == {
        "name": "r",
        "leaves": [{"value": "-3/4", "root": "(1+2*sqrt(5))/3", "missing": None},
                   {"value": "2", "root": "0-1*sqrt(2)", "missing": 7}],
        "pair": [1, "1/2"], "holds": True}
    # a dataclass type is not a report
    with pytest.raises(DomainError):
        scalar_json(_Leaf)


# -- the (p, q, d, e) class it replaced, as an oracle ------------------------

ORACLE_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

# radicands with square parts and perfect squares too, so the constructor's
# split and its collapse to a Fraction are compared
oracle_radicands = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 12, 13, 18, 50, 75])
components = st.integers(min_value=-30, max_value=30)
nonzero = components.filter(bool)


@st.composite
def oracle_operands(draw, d):
    """A surd over d, or a rational, built by both classes from one
    (p, q, d, e)."""
    p, e = draw(components), draw(nonzero)
    q = draw(components) if draw(st.booleans()) else 0
    return Surd(p, q, d, e), surd_oracle.Surd(p, q, d, e)


def assert_same(new, old):
    """``new`` is the oracle's ``old``: equal Fractions, or surds with the
    same components, str, repr and hash."""
    if isinstance(old, Fraction):
        assert isinstance(new, Fraction) and new == old
        return
    assert isinstance(new, Surd)
    assert (new.p, new.q, new.d, new.e) == (old.p, old.q, old.d, old.e)
    assert (str(new), repr(new), hash(new)) == (str(old), repr(old), hash(old))


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@ORACLE_SETTINGS
@given(oracle_radicands.flatmap(lambda d: st.tuples(oracle_operands(d), oracle_operands(d))))
def test_surd_matches_the_pqe_oracle_over_one_radical(pair):
    (x, x_old), (y, y_old) = pair
    assert_same(x, x_old)
    for a, b, a_old, b_old in ((x, y, x_old, y_old), (y, x, y_old, x_old)):
        for op in OPS.values():
            got, want = outcome(op, a, b), outcome(op, a_old, b_old)
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert_same(got, want)
        assert (a == b) == (a_old == b_old)
        assert (a < b, a <= b, a > b, a >= b) == (
            a_old < b_old, a_old <= b_old, a_old > b_old, a_old >= b_old)
        assert exact_cmp(a, b) == (a_old > b_old) - (a_old < b_old)
    if isinstance(x_old, surd_oracle.Surd):
        assert_same(-x, -x_old)
        assert_same(x.conjugate(), x_old.conjugate())
        assert x.sign() == x_old.sign()
        assert (x.a, x.b) == (Fraction(x.p, x.e), Fraction(x.q, x.e))


# -- surds over distinct radicals --------------------------------------------

squarefree = st.sampled_from([2, 3, 5, 6, 7, 10, 13, 17])
distinct_radicals = st.tuples(squarefree, squarefree).filter(lambda t: t[0] != t[1])


@st.composite
def mixed_surd_pairs(draw):
    d1, d2 = draw(distinct_radicals)
    return tuple(Surd(draw(small_ints), draw(small_ints.filter(bool)), d, draw(denominators))
                 for d in (d1, d2))


@ORACLE_SETTINGS
@given(mixed_surd_pairs())
def test_arithmetic_over_distinct_radicals_gives_enclosing_intervals(pair):
    a, b = pair
    for x, y in (pair, pair[::-1]):
        for op in OPS.values():
            got = op(x, y)
            assert isinstance(got, Interval)
            lo, hi = scalar_bounds(got, 20)
            want = op(float(x), float(y))
            slack = 1e-9 * (1 + abs(want))
            assert float(lo) - slack <= want <= float(hi) + slack
    if abs(float(a) - float(b)) > 1e-9:
        assert exact_cmp(a, b) == (1 if float(a) > float(b) else -1)
        assert (a < b) == (float(a) < float(b))
    assert exact_cmp(a, b) == -exact_cmp(b, a) != 0


@ORACLE_SETTINGS
@given(mixed_surd_pairs(), st.integers(min_value=1, max_value=8))
def test_mixed_comparisons_refine_the_operands_alone(pair, scale):
    # surds over distinct radicals, some with |b| above 100: their
    # difference would be an interval over both enclosures, so exact_cmp
    # never builds it and refines the operands; the sign is the float order
    def combined(*args):
        raise AssertionError("exact_cmp built the difference of mixed surds")

    a, b = pair[0] * 37 ** (scale - 1), pair[1]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scalars, "_combine", combined)
        got = exact_cmp(a, b), exact_cmp(b, a)
    assert got == ((1, -1) if float(a) > float(b) else (-1, 1))


@ORACLE_SETTINGS
@given(st.fractions(max_denominator=50), st.integers(-10 ** 6, 10 ** 6).filter(bool),
       denominators, squarefree, st.integers(min_value=0, max_value=12))
def test_surd_bounds_are_at_most_the_width_they_name(a, q, e, d, prec):
    # |b| from 1/12 to 10^6: the enclosure is 10^-prec wide at most, and
    # holds the value
    x = Surd(0, q, d, e) + a
    lo, hi = x.bounds(prec)
    assert 0 < hi - lo <= Fraction(1, 10 ** prec)
    # lo <= a + b sqrt(d) <= hi, compared through t |t|, which is monotone
    assert (lo - x.a) * abs(lo - x.a) <= x.b * abs(x.b) * d <= (hi - x.a) * abs(hi - x.a)


def test_surd_bounds_of_a_large_coefficient():
    # sqrt(2) to within 10^-3 times 1000 was 1.0 wide; ceil(|b| / 100) more
    # digits of sqrt(d) keep the width that was asked for
    lo, hi = Surd(0, 1000, 2).bounds(1)
    assert hi - lo <= Fraction(1, 10) and lo < 1000 * 2 ** 0.5 < hi
    # |b| <= 100 gives the enclosure it always gave
    assert Surd(1, 3, 5, 2).bounds(3) == (Fraction(385409, 100000), Fraction(770821, 200000))
