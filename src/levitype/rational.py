"""Exact rational scalars.

Everything in this package computes over Q.  gmpy2.mpq is used when available,
with a silent fallback to the stdlib's fractions.Fraction.  The series
kernel's inner loops run on Python ints (integer numerators over one
denominator per series, see jets), so Q is met only at the boundaries; what
the gmpy2 backend changes in speed there has not been measured.  Both
backends print integers as "p" and non-integers as "p/q", and both accept
those strings back, which is what the serializers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

try:
    from gmpy2 import mpq as _Q

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as _Q

    BACKEND = "fractions"

#: Constructor for exact rationals: Q(3), Q(3, 4), Q("3/4"), Q(other rational).
Q = _Q

ZERO = Q(0)


def rat(value):
    """Coerce ints, strings like '3/2', Fractions or backend rationals to Q.

    Floats are rejected: the engine is exact and a float almost always means
    an upstream mistake.
    """
    if type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass ints, strings or rationals")
    return Q(value)


@dataclass(frozen=True)
class QC:
    """Complex number with exact rational real and imaginary parts."""

    re: object
    im: object

    def conj(self) -> "QC":
        return QC(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"
