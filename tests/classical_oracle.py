"""Reference recognition of classical parameters, kept as the oracle for
the cubic-root search in ``drglab.classical.recognize_classical``.

It scans every integer base b in [-k, k] except 0 and -1, solves alpha from
c_2 and beta from k, and keeps each candidate whose generated array equals
the input: O(k) candidates per array.
"""

from fractions import Fraction

from drglab.classical import ClassicalParams, classical_array, gaussian_binomial
from drglab.errors import InputError


def recognize_classical(ia):
    if ia.D < 3:
        raise InputError("classical recognition needs D >= 3")
    out = []
    k = ia.k
    for b in range(-k, k + 1):
        if b in (0, -1):
            continue
        alpha = Fraction(ia.c_at(2)) / (1 + b) - 1
        gD = gaussian_binomial(ia.D, b)
        if gD == 0:
            continue
        beta = Fraction(k) / gD
        cand = ClassicalParams(ia.D, b, alpha, beta)
        try:
            if classical_array(cand) == ia:
                out.append(cand)
        except InputError:
            continue
    return out
