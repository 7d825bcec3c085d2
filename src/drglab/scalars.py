"""Exact scalar arithmetic: rationals, quadratic surds, and certified intervals.

Every quantity that enters a verdict is one of:

* a :class:`fractions.Fraction` (or plain ``int``),
* a :class:`Surd` ``(p + q*sqrt(d))/e`` with integer components, or
* an :class:`Interval` with rational endpoints and an optional refiner;
  intervals have arithmetic with every exact scalar, refined on demand.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import operator
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, gcd, isqrt
from numbers import Rational
from typing import Callable, Optional, Tuple, Union

from .errors import DomainError, UndecidableComparison

#: decimal digits an interval is refined to, at most, before a comparison
#: is declared undecidable; precision doubles from 1 digit each round, so an
#: operand is refined to 1 + 2 + ... + 1024 digits in all
REFINEMENT_DIGITS = 1024


def _squarefree_split(d: int) -> Tuple[int, int]:
    """Return (s, f) with d = s**2 * f and f squarefree."""
    if d == 0:
        return 1, 0
    s, f, n, p = 1, 1, d, 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    return s, f * n


class Surd:
    """The real number ``(p + q*sqrt(d))/e``.

    Normalized so that ``d`` is squarefree and > 1, ``q != 0``, ``e > 0`` and
    ``gcd(p, q, e) == 1``.  Constructing a surd whose radical part vanishes
    (``q == 0`` or ``d`` a perfect square) yields a plain ``Fraction``.
    """

    __slots__ = ("p", "q", "d", "e")

    def __new__(cls, p: int, q: int, d: int, e: int = 1):
        if e == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d < 0:
            raise DomainError("negative discriminant in a real surd")
        s, f = _squarefree_split(d)
        q, d = q * s, f
        if d == 1:
            p, q = p + q, 0
        if q == 0 or d == 0:
            return Fraction(p, e)
        if e < 0:
            p, q, e = -p, -q, -e
        g = gcd(gcd(abs(p), abs(q)), e)
        obj = object.__new__(cls)
        obj.p, obj.q, obj.d, obj.e = p // g, q // g, d, e // g
        return obj

    # -- helpers -----------------------------------------------------------

    def _ab(self) -> Tuple[Fraction, Fraction]:
        """The pair (A, B) of rationals with value A + B*sqrt(d)."""
        return Fraction(self.p, self.e), Fraction(self.q, self.e)

    @staticmethod
    def _from_ab(a: Fraction, b: Fraction, d: int):
        if b == 0:
            return a
        den = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        return Surd(a.numerator * (den // a.denominator),
                    b.numerator * (den // b.denominator), d, den)

    def conjugate(self) -> "Surd":
        return Surd(self.p, -self.q, self.d, self.e)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                raise DomainError("cannot mix surds over distinct radicals")
            a1, b1 = self._ab()
            a2, b2 = other._ab()
            return Surd._from_ab(a1 + a2, b1 + b2, self.d)
        if isinstance(other, (int, Rational)):
            a, b = self._ab()
            return Surd._from_ab(a + Fraction(other), b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.d, self.e)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                raise DomainError("cannot mix surds over distinct radicals")
            a1, b1 = self._ab()
            a2, b2 = other._ab()
            return Surd._from_ab(a1 * a2 + b1 * b2 * self.d,
                                 a1 * b2 + a2 * b1, self.d)
        if isinstance(other, (int, Rational)):
            f = Fraction(other)
            if f == 0:
                return Fraction(0)
            a, b = self._ab()
            return Surd._from_ab(a * f, b * f, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def _invert(self):
        a, b = self._ab()
        norm = a * a - b * b * self.d  # nonzero: sqrt(d) irrational
        return Surd._from_ab(a / norm, -b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            return self * other._invert()
        if isinstance(other, (int, Rational)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Rational)):
            return self._invert() * Fraction(other)
        return NotImplemented

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value."""
        p, q = self.p, self.q
        if p >= 0 and q > 0:
            return 1
        if p <= 0 and q < 0:
            return -1
        # p and q have opposite signs; compare p^2 with q^2 d
        lhs, rhs = p * p, q * q * self.d
        if lhs == rhs:  # would mean sqrt(d) rational
            raise DomainError("degenerate surd")
        if q > 0:  # p < 0
            return 1 if rhs > lhs else -1
        return 1 if lhs > rhs else -1

    def _cmp(self, other) -> int:
        if isinstance(other, Surd) and other.d != self.d:
            # 1, sqrt(d) and sqrt(d') are independent over Q, so the values
            # differ and their enclosures separate
            prec = 1
            while True:
                (alo, ahi), (blo, bhi) = self.bounds(prec), other.bounds(prec)
                if ahi < blo or bhi < alo:
                    return -1 if ahi < blo else 1
                prec *= 2
        diff = self - other
        if isinstance(diff, Surd):
            return diff.sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.p, self.q, self.d, self.e) == (other.p, other.q, other.d, other.e)
        if isinstance(other, (int, Rational)):
            return False  # surds are irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.d, self.e))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- approximation -----------------------------------------------------

    def bounds(self, prec: int) -> Tuple[Fraction, Fraction]:
        """Rational enclosure of width <= 10**-prec."""
        scale = 10 ** (prec + 2)
        root_lo = Fraction(isqrt(self.d * scale * scale), scale)
        root_hi = root_lo + Fraction(1, scale)
        a, b = self._ab()
        if b >= 0:
            lo, hi = a + b * root_lo, a + b * root_hi
        else:
            lo, hi = a + b * root_hi, a + b * root_lo
        return lo, hi

    def __float__(self):
        lo, hi = self.bounds(17)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"Surd(({self.p}{self.q:+d}*sqrt({self.d}))/{self.e})"

    def __str__(self):
        if self.e == 1:
            return f"{self.p}{self.q:+d}*sqrt({self.d})"
        return f"({self.p}{self.q:+d}*sqrt({self.d}))/{self.e}"


class Interval:
    """A certified enclosure ``[lo, hi]`` with an optional refiner.

    ``refiner(width)`` must return a new enclosure of width <= ``width``.
    """

    __slots__ = ("lo", "hi", "refiner")

    def __init__(self, lo, hi, refiner: Optional[Callable[[Fraction], Tuple[Fraction, Fraction]]] = None):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise DomainError("interval endpoints out of order")
        self.lo, self.hi, self.refiner = lo, hi, refiner

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, width: Fraction) -> "Interval":
        if self.width <= width or self.refiner is None:
            return self
        lo, hi = self.refiner(width)
        return Interval(lo, hi, self.refiner)

    def bounds(self, prec: int) -> Tuple[Fraction, Fraction]:
        r = self.refined(Fraction(1, 10 ** prec))
        return r.lo, r.hi

    # -- arithmetic with int, Fraction, Surd or Interval operands ---------

    def __add__(self, other):
        return _combine(operator.add, self, other)

    def __radd__(self, other):
        return _combine(operator.add, other, self)

    def __sub__(self, other):
        return _combine(operator.sub, self, other)

    def __rsub__(self, other):
        return _combine(operator.sub, other, self)

    def __mul__(self, other):
        return _combine(operator.mul, self, other)

    def __rmul__(self, other):
        return _combine(operator.mul, other, self)

    def __truediv__(self, other):
        return _combine(operator.truediv, self, other)

    def __rtruediv__(self, other):
        return _combine(operator.truediv, other, self)

    def __neg__(self):
        return _combine(operator.sub, 0, self)

    def __float__(self):
        lo, hi = self.bounds(17)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


ExactScalar = Union[int, Fraction, Surd, Interval]


def _combine(op, a, b):
    """``op(a, b)`` as an Interval, for op one of + - * / and exact scalars a
    and b: op over the ends of the operands' enclosures from
    ``scalar_bounds``.  A refinement reads the operands at the precision of
    the last one plus the digits the width must lose, doubling it until the
    width is met, so nested results mostly refine in one pass each.  A
    divisor is refined until its enclosure excludes 0; past
    ``REFINEMENT_DIGITS`` digits that raises UndecidableComparison."""
    if not all(isinstance(x, (int, Rational, Surd, Interval)) for x in (a, b)):
        return NotImplemented
    last = [1, Fraction(0)]  # precision and width of the last enclosure

    def refiner(width=None):
        # a width shrinks tenfold per digit of precision
        prec = last[0] + (len(str(ceil(last[1] / width))) if width and last[1] > width else 0)
        while True:
            (alo, ahi), (blo, bhi) = scalar_bounds(a, prec), scalar_bounds(b, prec)
            box = None
            if op is not operator.truediv or not blo <= 0 <= bhi:
                ends = [op(x, y) for x in (alo, ahi) for y in (blo, bhi)]
                box = min(ends), max(ends)
                last[:] = prec, box[1] - box[0]
                if width is None or last[1] <= width:
                    return box
            if prec > REFINEMENT_DIGITS:
                if box is None:
                    raise UndecidableComparison(f"cannot separate the divisor {b} from 0")
                return box  # an operand without a refiner bounds the width
            prec *= 2

    return Interval(*refiner(), refiner)


def scalar_bounds(x: ExactScalar, prec: int) -> Tuple[Fraction, Fraction]:
    if isinstance(x, (int, Rational)):
        f = Fraction(x)
        return f, f
    return x.bounds(prec)


def exact_eq(a: ExactScalar, b: ExactScalar) -> bool:
    """Exact equality; decidable for rational/surd operands.

    Interval operands are equal only to themselves in the degenerate
    zero-width case; otherwise equality with an interval is resolved by
    separation (False) or raises :class:`UndecidableComparison`.
    """
    if not isinstance(a, Interval) and not isinstance(b, Interval):
        if isinstance(a, Surd) or isinstance(b, Surd):
            return a == b
        return Fraction(a) == Fraction(b)
    return exact_cmp(a, b) == 0


def exact_cmp(a: ExactScalar, b: ExactScalar) -> int:
    """Exact three-way comparison with adaptive interval refinement.

    A scalar equals itself.  Two distinct enclosures of one irrational value
    never separate, so refinement stops at ``REFINEMENT_DIGITS`` digits and
    raises :class:`UndecidableComparison`.
    """
    if a is b:
        return 0
    if not isinstance(a, Interval) and not isinstance(b, Interval):
        if isinstance(a, Surd):
            return a._cmp(b)
        if isinstance(b, Surd):
            return -b._cmp(a)
        fa, fb = Fraction(a), Fraction(b)
        return (fa > fb) - (fa < fb)
    prec = 1
    while prec <= REFINEMENT_DIGITS:
        alo, ahi = scalar_bounds(a, prec)
        blo, bhi = scalar_bounds(b, prec)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        if alo == blo and ahi == bhi and alo == ahi:
            return 0
        prec *= 2
    raise UndecidableComparison(f"cannot separate {a} and {b}")


def sort_desc(pairs: list) -> None:
    """Sort (exact scalar, payload) pairs in place, largest scalar first;
    ties keep their order."""
    pairs.sort(key=cmp_to_key(lambda a, b: exact_cmp(a[0], b[0])), reverse=True)


def scalar_str(x: ExactScalar) -> str:
    if isinstance(x, (int, Fraction, Surd, Interval)):
        return str(x)
    raise DomainError(f"not an exact scalar: {x!r}")


def scalar_json(x):
    """JSON-ready copy of x: exact scalars become strings, sequences lists,
    dicts are converted value by value and dataclass instances (the reports)
    field by field, keyed by field name; None, str, bool and int stay."""
    if x is None or isinstance(x, (str, bool, int)):
        return x
    if isinstance(x, (list, tuple)):
        return [scalar_json(v) for v in x]
    if isinstance(x, dict):
        return {k: scalar_json(v) for k, v in x.items()}
    if is_dataclass(x) and not isinstance(x, type):
        return {f.name: scalar_json(getattr(x, f.name)) for f in fields(x)}
    return scalar_str(x)


def as_exact(x):
    """A rational as an int when it is integral, else as a Fraction; other
    exact scalars unchanged."""
    if isinstance(x, Rational):
        f = Fraction(x)
        return int(f) if f.denominator == 1 else f
    return x
