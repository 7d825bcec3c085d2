"""Classical parameters, the valency bound, and the tight classifier."""

import dataclasses
import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import classical_oracle as oracle
import drglab.classical as classical
import drglab.eigen
from drglab.arrays import IntersectionArray
from drglab.classical import (ClassicalParams, a1_zero_criterion,
                              beta_bound_check, classical_array,
                              classical_eigenvalues, classify_classical,
                              classify_tight, fundamental_bound,
                              gaussian_binomial, recognize_classical)
from drglab.cli import main
from drglab.eigen import b_parameter, eigenvalues, multiplicities
from drglab.errors import InputError, PreconditionError
from drglab.scalars import Interval, exact_cmp, scalar_json

J105 = IntersectionArray((25, 16, 9, 4, 1), (1, 4, 9, 16, 25))
HC10 = IntersectionArray((45, 28, 15, 6, 1), (1, 6, 15, 28, 45))
H53 = IntersectionArray((10, 8, 6, 4, 2), (1, 2, 3, 4, 5))


def test_gaussian_binomial():
    assert gaussian_binomial(4, 1) == 4
    assert gaussian_binomial(3, 2) == 7
    assert gaussian_binomial(3, Fraction(1, 2)) == Fraction(7, 4)


def test_classical_array_known_cases():
    # (5,1,1,5) is J(10,5); (5,1,2,9) is the halved 10-cube;
    # (5,1,0,2) is H(5,3); (5,1,0,1) is the 5-cube
    assert classical_array(ClassicalParams(5, 1, 1, 5)) == J105
    assert classical_array(ClassicalParams(5, 1, 2, 9)) == HC10
    assert classical_array(ClassicalParams(5, 1, 0, 2)) == H53
    assert classical_array(ClassicalParams(5, 1, 0, 1)) == IntersectionArray(
        (5, 4, 3, 2, 1), (1, 2, 3, 4, 5))


def test_classical_array_rejects_nonintegral():
    with pytest.raises(InputError):
        classical_array(ClassicalParams(3, 2, Fraction(1, 3), 1))


def test_recognize_classical_roundtrip():
    for params in ((5, 1, 1, 5), (5, 1, 2, 9), (5, 1, 0, 2)):
        cp = ClassicalParams(*params)
        found = recognize_classical(classical_array(cp))
        assert any(f.as_tuple() == cp.as_tuple() for f in found)


def test_classical_eigenvalues_match_tridiagonal():
    for params in ((5, 1, 1, 5), (5, 1, 2, 9), (5, 1, 0, 2)):
        cp = ClassicalParams(*params)
        ia = classical_array(cp)
        assert list(classical_eigenvalues(cp)) == list(eigenvalues(ia))


def test_beta_bound_equality_iff_aD_zero():
    for params in ((5, 1, 1, 5), (5, 1, 2, 9), (5, 1, 0, 2)):
        cp = ClassicalParams(*params)
        out = beta_bound_check(cp)
        assert out["ok"]
        ia = classical_array(cp)
        assert out["equality"] == (ia.a_at(ia.D) == 0)


def test_a1_zero_criterion():
    out = a1_zero_criterion(ClassicalParams(5, 1, 0, 1))
    assert out["a1_zero"] and out["criterion"]
    out = a1_zero_criterion(ClassicalParams(5, 1, 1, 5))
    assert not out["a1_zero"] and not out["criterion"]


def test_fundamental_bound_tight_cases():
    rep = fundamental_bound(J105)
    assert rep.lhs == rep.rhs == Fraction(-3200, 81)
    assert rep.tight and not rep.bipartite and rep.a_D == 0
    assert (rep.r, rep.s) == (Fraction(3), Fraction(-2))
    rep = fundamental_bound(HC10)
    assert rep.lhs == rep.rhs == Fraction(-20160, 289)
    assert rep.tight
    assert (rep.r, rep.s) == (Fraction(6), Fraction(-2))


def test_fundamental_bound_strict_case():
    rep = fundamental_bound(H53)
    assert not rep.tight
    assert rep.lhs > rep.rhs
    assert rep.lhs == Fraction(0) and rep.rhs == Fraction(-20)


@pytest.mark.parametrize("text", ["3,2,1,1;1,1,2,3", "4,2,2,1;1,1,2,4"])
def test_fundamental_bound_over_distinct_radicals(text):
    # theta_1 and theta_D lie over distinct radicals, so lhs is an interval
    ia = IntersectionArray.parse(text)
    ev = eigenvalues(ia)
    assert ev[1].d != ev[ia.D].d
    rep = fundamental_bound(ia)
    assert isinstance(rep.lhs, Interval)
    assert exact_cmp(rep.lhs, rep.rhs) >= 0 and not rep.tight


def test_classify_classical_branches():
    assert classify_classical(ClassicalParams(5, 1, 1, 5)).branch == "ii"
    assert classify_classical(ClassicalParams(5, 1, 2, 9)).branch == "iii"
    assert classify_classical(ClassicalParams(5, 1, 0, 2)).branch == "i"


def test_classify_classical_diameter_cap():
    out = classify_classical(ClassicalParams(5, 2, 1, 21))
    assert out.theorem == "classical"
    # alpha > 0 and b >= 2 falls into the bounded-diameter branch
    assert out.branch == "vi"


def test_classify_tight():
    assert classify_tight(J105).branch == "i"
    assert classify_tight(HC10).branch == "ii"
    with pytest.raises(PreconditionError):
        classify_tight(H53)


def test_classify_tight_falls_back_to_the_F_bound(monkeypatch):
    # a tight array no named family matches is locally connected with
    # k <= F(b); J(10,5) has b = 1 and F(1) = 861
    monkeypatch.setattr(classical, "_named_branches", lambda ia, evidence, theorem: [])
    out = classify_tight(J105)
    assert (out.branch, out.name, out.branches) == (
        "iii", "locally connected with k <= F(b)", ("iii",))
    assert out.evidence[-1].rule == "F-bound" and out.evidence[-1].values == (25, 861)


# -- recognition: the cubic-root search against the b-scan oracle ------------

SETTINGS = settings(derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])

#: the oracle scans O(k) bases, so arrays stay small enough for it
K_MAX = 3000

#: Hermitian forms graphs: (D, -2, -3, -(-2)^D - 1)
HERMITIAN = [classical_array(ClassicalParams(D, -2, -3, -(-2) ** D - 1))
             for D in (3, 4, 5)]


def _classical_near(D, b, c2, t0):
    """The first array with classical parameters (D, b, alpha, beta) where
    alpha comes from c_2 and b_{D-1} = t >= t0, or None within 60 steps."""
    alpha = Fraction(c2, 1 + b) - 1
    lead = alpha * gaussian_binomial(D - 1, b)
    for t in range(t0, t0 + 60):
        beta = lead + Fraction(t, b ** (D - 1))
        try:
            ia = classical_array(ClassicalParams(D, b, alpha, beta))
        except InputError:
            continue
        return ia if ia.k <= K_MAX else None
    return None


classical_arrays = st.builds(
    _classical_near, st.integers(3, 7), st.sampled_from([-4, -3, -2, 1, 2, 3, 4, 5]),
    st.integers(1, 40), st.integers(1, 150))


@st.composite
def monotone_arrays(draw, c3_equals_c2=False):
    """b_0 = k >= b_1 >= ... and 1 = c_1 <= c_2 <= ..., optionally c_3 = c_2."""
    D = draw(st.integers(3, 7))
    k = draw(st.integers(2, K_MAX))
    bs = [k]
    for _ in range(D - 1):
        bs.append(draw(st.integers(1, bs[-1])))
    cs = [1]
    for i in range(1, D):
        if c3_equals_c2 and i == 2:
            cs.append(cs[-1])
        else:
            cs.append(draw(st.integers(cs[-1], max(cs[-1], k))))
    return IntersectionArray(tuple(bs), tuple(cs))


@st.composite
def perturbed_classical(draw):
    """A classical array with one of c_2, ..., c_D moved by +-1."""
    ia = draw(classical_arrays)
    assume(ia is not None)
    i = draw(st.integers(1, ia.D - 1))
    c = list(ia.c)
    c[i] += draw(st.sampled_from([-1, 1]))
    assume(c[i] > 0)
    return IntersectionArray(ia.b, tuple(c))


def _assert_matches_oracle(ia):
    assume(ia is not None)
    assert ([cp.as_tuple() for cp in recognize_classical(ia)]
            == [cp.as_tuple() for cp in oracle.recognize_classical(ia)])


#: classical arrays with fractional alpha and beta, one per base b != -2
FRACTIONAL = ["230,210,261,27;1,1,28,190", "935,884,1072,64;1,1,65,833",
              "50,30,15,5;1,7,18,34", "100,84,56,16;1,5,21,85",
              "170,156,117,27;1,5,26,170", "442,420,336,64;1,6,42,442",
              "962,930,775,125;1,7,62,962"]


@settings(SETTINGS, max_examples=40)
@given(classical_arrays)
@example(IntersectionArray.parse("21,20,16;1,2,12"))
def test_recognize_classical_arrays_matches_scan_oracle(ia):
    _assert_matches_oracle(ia)


@pytest.mark.parametrize("text", FRACTIONAL)
def test_recognize_fractional_parameters(text):
    ia = IntersectionArray.parse(text)
    found = recognize_classical(ia)
    assert len(found) == 1
    assert found[0].alpha.denominator > 1 and found[0].beta.denominator > 1
    assert ([cp.as_tuple() for cp in found]
            == [cp.as_tuple() for cp in oracle.recognize_classical(ia)])


@settings(SETTINGS, max_examples=20)
@given(perturbed_classical())
def test_recognize_perturbed_classical_matches_scan_oracle(ia):
    _assert_matches_oracle(ia)


@settings(SETTINGS, max_examples=10)
@given(monotone_arrays(c3_equals_c2=True))
def test_recognize_c3_equals_c2_matches_scan_oracle(ia):
    # b = 0 is a root of the cubic and is skipped
    _assert_matches_oracle(ia)


@settings(SETTINGS, max_examples=15)
@given(monotone_arrays())
def test_recognize_monotone_arrays_matches_scan_oracle(ia):
    _assert_matches_oracle(ia)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 200), st.integers(-10**4, 10**4), st.integers(1, 200),
       st.integers(-200, 200))
def test_classical_bases_are_all_integer_roots(c2, c3, k, b):
    # every integer root of the cubic in [-k, k], ascending; half the
    # examples plant a root b
    if -k <= b <= k and b % 2:
        c3 = (b * b + b + 1) * (c2 - b)
    roots = [x for x in range(-k, k + 1) if (x * x + x + 1) * (c2 - x) == c3]
    assert classical._classical_bases(c2, c3, k) == roots


@pytest.mark.parametrize("D,ia", list(zip((3, 4, 5), HERMITIAN)), ids=str)
def test_recognize_hermitian_forms(D, ia):
    found = [cp.as_tuple() for cp in recognize_classical(ia)]
    assert found == [(D, -2, -3, -(-2) ** D - 1)]
    assert found == [cp.as_tuple() for cp in oracle.recognize_classical(ia)]


def test_recognition_builds_at_most_three_candidates(monkeypatch):
    # H(5, 1501): k = 7500, yet the cubic admits at most three bases
    calls = []

    def counted(cp):
        calls.append(cp.b)
        return classical_array(cp)

    monkeypatch.setattr(classical, "classical_array", counted)
    found = recognize_classical(IntersectionArray((7500, 6000, 4500, 3000, 1500),
                                                  (1, 2, 3, 4, 5)))
    assert [cp.as_tuple() for cp in found] == [(5, 1, 0, 1500)]
    assert 1 <= len(calls) <= 3


@pytest.fixture
def roots_calls(monkeypatch):
    """The arguments of every ``tridiagonal_roots`` call that ``eigen`` makes."""
    calls = []
    tridiagonal_roots = drglab.eigen.tridiagonal_roots

    def counted(*args):
        calls.append(args)
        return tridiagonal_roots(*args)

    monkeypatch.setattr(drglab.eigen, "tridiagonal_roots", counted)
    return calls


def test_classify_factors_the_spectrum_once(roots_calls, capsys):
    assert main(["classify", "--ia", "25,16,9,4,1;1,4,9,16,25"]) == 0
    capsys.readouterr()
    assert len(roots_calls) == 1


def test_each_array_object_keeps_its_spectrum(roots_calls):
    # every reader of one array object shares one computation; an equal
    # array parsed apart computes its own
    ia, twin = (IntersectionArray.parse("25,16,9,4,1;1,4,9,16,25") for _ in range(2))
    spectrum = eigenvalues(ia)
    assert eigenvalues(ia) is spectrum
    assert multiplicities(ia) == (1, 9, 35, 75, 90, 42)
    assert b_parameter(ia) == 1
    assert len(roots_calls) == 1
    assert eigenvalues(twin) == spectrum and eigenvalues(twin) is not spectrum
    assert len(roots_calls) == 2
    # kept outside the fields: the fields, ==, hash, repr and JSON are the
    # array's alone
    assert [f.name for f in dataclasses.fields(IntersectionArray)] == ["b", "c"]
    assert ia == twin == J105 and hash(ia) == hash(J105) and repr(ia) == repr(J105)
    assert scalar_json(ia) == {"b": [25, 16, 9, 4, 1], "c": [1, 4, 9, 16, 25]}
    # an infeasible array is refused on every call, before any root is sought
    bad = IntersectionArray((2, 2), (1, 3))
    for _ in range(2):
        with pytest.raises(InputError, match="infeasible"):
            eigenvalues(bad)
    assert len(roots_calls) == 2


@pytest.mark.parametrize("text", ["25,16,9,4,1;1,4,9,16,25",  # J(10,5)
                                  "6,5,4,3,2,1;1,2,3,4,5,6"])  # 6-cube: -k is a root
def test_classify_an_integral_spectrum_without_factoring(monkeypatch, capsys, text):
    def refuse(*args, **kwargs):
        raise AssertionError("factor_list called on an integral spectrum")

    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    monkeypatch.setattr(sympy, "factor_list", refuse)
    assert main(["classify", "--ia", text]) == 0
    assert json.loads(capsys.readouterr().out)["ia"] == text
