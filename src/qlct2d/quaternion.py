"""Quaternion scalar arithmetic.

The algebra H of numbers q = q0 + i*q1 + j*q2 + k*q3 with
i^2 = j^2 = k^2 = ijk = -1.  All components are 64-bit floats.  ``==``
compares the components exactly; :func:`isclose` is the tolerance test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "Quaternion",
    "ONE",
    "I",
    "J",
    "K",
    "mul",
    "conj",
    "norm",
    "inverse",
    "exp_i",
    "exp_j",
    "sc",
    "vec",
    "dot",
    "cross",
    "isclose",
]


@dataclass(frozen=True, init=False)
class Quaternion:
    """A quaternion with real components (q0, q1, q2, q3) = (1, i, j, k) parts."""

    q0: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def __init__(self, q0=0.0, q1=0.0, q2=0.0, q3=0.0):
        # normalize numpy scalars and ints to plain floats, stored once
        # each through the instance dict (the frozen __setattr__ raises)
        d = self.__dict__
        d["q0"], d["q1"], d["q2"], d["q3"] = (float(q0), float(q1),
                                              float(q2), float(q3))

    def __add__(self, other):
        other = _coerce(other)
        return Quaternion(self.q0 + other.q0, self.q1 + other.q1,
                          self.q2 + other.q2, self.q3 + other.q3)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Quaternion(self.q0 - other.q0, self.q1 - other.q1,
                          self.q2 - other.q2, self.q3 - other.q3)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Quaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Quaternion(self.q0 / other, self.q1 / other,
                              self.q2 / other, self.q3 / other)
        return mul(self, inverse(_coerce(other)))

    def __rtruediv__(self, other):
        # a real numerator commutes, so r / q = r q^-1 = q^-1 r
        return mul(_coerce(other), inverse(self))

    def conj(self) -> "Quaternion":
        return conj(self)

    def norm(self) -> float:
        return norm(self)

    def inverse(self) -> "Quaternion":
        return inverse(self)

    def components(self):
        return (self.q0, self.q1, self.q2, self.q3)

    def __repr__(self):
        return (f"Quaternion({self.q0!r}, {self.q1!r}, "
                f"{self.q2!r}, {self.q3!r})")


def _coerce(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, numbers.Real):  # numpy scalars included
        return Quaternion(float(x))
    raise TypeError(f"cannot interpret {type(x).__name__} as a quaternion")


ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def _hamilton(p0, p1, p2, p3, q0, q1, q2, q3):
    """Components of the Hamilton product p*q, on floats or on arrays."""
    return (p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0)


def mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product p*q (non-commutative; i*j = k, j*i = -k, ...)."""
    return Quaternion(*_hamilton(p.q0, p.q1, p.q2, p.q3,
                                 q.q0, q.q1, q.q2, q.q3))


def conj(q: Quaternion) -> Quaternion:
    """Conjugate q* = q0 - i q1 - j q2 - k q3; (pq)* = q* p*."""
    return Quaternion(q.q0, -q.q1, -q.q2, -q.q3)


def norm(q: Quaternion) -> float:
    """Modulus |q| = sqrt(q0^2 + q1^2 + q2^2 + q3^2)."""
    return math.sqrt(q.q0 * q.q0 + q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3)


def inverse(q: Quaternion) -> Quaternion:
    """Multiplicative inverse q* / |q|^2.  Raises on the zero quaternion."""
    n2 = q.q0 * q.q0 + q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3
    if n2 == 0.0:
        raise ZeroDivisionError("zero quaternion has no inverse")
    return Quaternion(q.q0 / n2, -q.q1 / n2, -q.q2 / n2, -q.q3 / n2)


def exp_i(theta: float) -> Quaternion:
    """Unit exponential e^{i*theta} = cos(theta) + i sin(theta)."""
    return Quaternion(math.cos(theta), math.sin(theta), 0.0, 0.0)


def exp_j(theta: float) -> Quaternion:
    """Unit exponential e^{j*theta} = cos(theta) + j sin(theta)."""
    return Quaternion(math.cos(theta), 0.0, math.sin(theta), 0.0)


def sc(q: Quaternion) -> float:
    """Scalar part Sc(q) = q0."""
    return q.q0


def vec(q: Quaternion) -> Quaternion:
    """Vector part Vec(q) = i q1 + j q2 + k q3."""
    return Quaternion(0.0, q.q1, q.q2, q.q3)


def dot(p: Quaternion, q: Quaternion) -> float:
    """Dot product of the vector parts."""
    return p.q1 * q.q1 + p.q2 * q.q2 + p.q3 * q.q3


def cross(p: Quaternion, q: Quaternion) -> Quaternion:
    """Cross product of the vector parts, as a pure quaternion."""
    return Quaternion(
        0.0,
        p.q2 * q.q3 - p.q3 * q.q2,
        p.q3 * q.q1 - p.q1 * q.q3,
        p.q1 * q.q2 - p.q2 * q.q1,
    )


def isclose(p: Quaternion, q: Quaternion,
            rel_tol: float = 1e-12, abs_tol: float = 1e-12) -> bool:
    """Componentwise closeness with combined absolute + relative tolerance."""
    p = _coerce(p)
    q = _coerce(q)
    scale = max(norm(p), norm(q))
    tol = abs_tol + rel_tol * scale
    return (abs(p.q0 - q.q0) <= tol and abs(p.q1 - q.q1) <= tol
            and abs(p.q2 - q.q2) <= tol and abs(p.q3 - q.q3) <= tol)
