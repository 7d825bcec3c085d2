"""Reference for ``scalars.Surd``: the class it replaced, which stored
``(p + q*sqrt(d))/e`` as four integers normalised by their gcd.

Every result went through ``Surd._ab``/``Surd._from_ab`` (the rationals A
and B of A + B*sqrt(d)) and the constructor, which split off the square
part of d again; arithmetic over two distinct radicals raised
``DomainError``.  The differential test in ``test_scalars.py`` compares the
library against it over one radical and the rationals.
"""

from fractions import Fraction
from math import gcd, isqrt
from numbers import Rational
from typing import Tuple

from drglab.errors import DomainError
from drglab.scalars import _squarefree_split


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
