"""Exact scalar arithmetic: rationals, quadratic surds, and certified intervals.

Every quantity that enters a verdict is one of:

* a :class:`fractions.Fraction` (or plain ``int``),
* a :class:`Surd` ``a + b*sqrt(d)`` with Fraction parts ``a`` and
  ``b != 0`` and a squarefree integer ``d > 1``, or
* an :class:`Interval` with rational endpoints and an optional refiner;
  intervals have arithmetic with every exact scalar, refined on demand.

Surds over one radical form a field, so their arithmetic stays exact.  A
result that would need two radicals, such as a sum of surds over sqrt(2)
and sqrt(3), is an Interval over the operands' enclosures.  ``exact_cmp``
takes the sign of the exact difference when it is rational or a surd, and
refines the operands otherwise.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import operator
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, isqrt, lcm
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
    """The real number ``a + b*sqrt(d)``: Fractions ``a`` and ``b != 0`` and
    a squarefree integer ``d > 1``.

    Built as ``Surd(p, q, d, e)``, the value ``(p + q*sqrt(d))/e`` for
    integers with ``e != 0`` and ``d >= 0``; a value whose radical part
    vanishes (``q == 0`` or ``d`` a perfect square) is a plain ``Fraction``.
    Read back, ``p``, ``q`` and ``e`` are the least such integers with
    ``e > 0``.  Arithmetic with a rational or a surd over the same radical is
    exact; with a surd over another radical, or an ``Interval``, it gives an
    ``Interval`` (``_combine``).
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, p: int, q: int, d: int, e: int = 1):
        if d < 0:
            raise DomainError("negative discriminant in a real surd")
        s, f = _squarefree_split(d)
        if f <= 1:  # d is 0 or a perfect square
            return Fraction(p + q * s * f, e)
        return cls._of(Fraction(p, e), Fraction(q * s, e), f)

    @staticmethod
    def _of(a: Fraction, b: Fraction, d: int):
        """``a + b*sqrt(d)`` for d squarefree and > 1: ``a`` when b = 0."""
        if not b:
            return a
        obj = object.__new__(Surd)
        obj.a, obj.b, obj.d = a, b, d
        return obj

    @property
    def e(self) -> int:
        return lcm(self.a.denominator, self.b.denominator)

    @property
    def p(self) -> int:
        return int(self.a * self.e)

    @property
    def q(self) -> int:
        return int(self.b * self.e)

    def conjugate(self) -> "Surd":
        return Surd._of(self.a, -self.b, self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Rational):
            return Surd._of(self.a + Fraction(other), self.b, self.d)
        if isinstance(other, Surd) and other.d == self.d:
            return Surd._of(self.a + other.a, self.b + other.b, self.d)
        return _combine(operator.add, self, other)

    __radd__ = __add__

    def __neg__(self):
        return Surd._of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Rational):
            f = Fraction(other)
            return Surd._of(self.a * f, self.b * f, self.d)
        if isinstance(other, Surd) and other.d == self.d:
            a, b, c, e = self.a, self.b, other.a, other.b
            return Surd._of(a * c + b * e * self.d, a * e + b * c, self.d)
        return _combine(operator.mul, self, other)

    __rmul__ = __mul__

    def _invert(self):
        norm = self.a * self.a - self.b * self.b * self.d  # nonzero: sqrt(d) irrational
        return Surd._of(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Rational):
            return self * (1 / Fraction(other))
        if isinstance(other, Surd) and other.d == self.d:
            return self * other._invert()
        return _combine(operator.truediv, self, other)

    def __rtruediv__(self, other):
        return self._invert() * other

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the value: that of b when a has it too or
        b^2 d > a^2, else that of a (b^2 d = a^2 would make sqrt(d)
        rational); in integers, over the common denominator."""
        an, ad = self.a.numerator, self.a.denominator
        bn, bd = self.b.numerator, self.b.denominator
        if (an >= 0) == (bn > 0) or (bn * ad) ** 2 * self.d > (an * bd) ** 2:
            return 1 if bn > 0 else -1
        return 1 if an > 0 else -1

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, Rational):
            return False  # surds are irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q, self.d, self.e))

    def __lt__(self, other):
        return exact_cmp(self, other) < 0

    def __le__(self, other):
        return exact_cmp(self, other) <= 0

    def __gt__(self, other):
        return exact_cmp(self, other) > 0

    def __ge__(self, other):
        return exact_cmp(self, other) >= 0

    # -- approximation -----------------------------------------------------

    def bounds(self, prec: int) -> Tuple[Fraction, Fraction]:
        """Rational enclosure of width <= 10**-prec: sqrt(d) to within
        1/scale, with scale 10**(prec + 2) times ceil(|b|/100), so b times
        it is within 10**-prec."""
        scale = 10 ** (prec + 2) * ceil(abs(self.b) / 100)
        root_lo = Fraction(isqrt(self.d * scale * scale), scale)
        ends = (self.a + self.b * root_lo,
                self.a + self.b * (root_lo + Fraction(1, scale)))
        return min(ends), max(ends)

    def __float__(self):
        lo, hi = self.bounds(17)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"Surd(({self.p}{self.q:+d}*sqrt({self.d}))/{self.e})"

    def __str__(self):
        p, q, e = self.p, self.q, self.e
        if e == 1:
            return f"{p}{q:+d}*sqrt({self.d})"
        return f"({p}{q:+d}*sqrt({self.d}))/{e}"


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
    if isinstance(a, Interval) or isinstance(b, Interval):
        return exact_cmp(a, b) == 0
    return a == b


def exact_cmp(a: ExactScalar, b: ExactScalar) -> int:
    """Exact three-way comparison: the sign of ``a - b`` when that is
    rational or a surd, else adaptive refinement of the operands.

    A scalar equals itself.  Surds over distinct radicals differ (1,
    sqrt(d) and sqrt(d') are independent over Q), so their enclosures
    separate.  Two distinct enclosures of one irrational value never
    separate, so refinement stops at ``REFINEMENT_DIGITS`` digits and raises
    :class:`UndecidableComparison`.
    """
    if a is b:
        return 0
    # the difference of surds over distinct radicals is an interval, so only
    # the operands are refined
    mixed = isinstance(a, Surd) and isinstance(b, Surd) and a.d != b.d
    if not (mixed or isinstance(a, Interval) or isinstance(b, Interval)):
        diff = a - b
        if isinstance(diff, Surd):
            return diff.sign()
        if not isinstance(diff, Interval):
            return (diff > 0) - (diff < 0)
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
