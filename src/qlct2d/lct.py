"""Linear canonical transform kernel parameterization and evaluation.

Each axis carries one unimodular 2x2 matrix (a, b, c, d) with b != 0.
The axis-1 kernel lives in span{1, i}, the axis-2 kernel in span{1, j}:

    (2*pi*|b|)^{-1/2} * exp(unit * (a/(2b) x^2 - x u / b + d/(2b) u^2 - pi/4))

kernel_matrix evaluates it on a node grid blockwise, from the
angle-addition identity exp(unit (t + s)) = exp(unit t) exp(unit s):
on uniform frequency nodes, about 2 n_x sqrt(n_u) complex exponentials
and two complex products over the n_x x n_u output replace n_x n_u
exponentials, and the temporaries hold about 2 n_x sqrt(n_u) values.
The inverse kernel exp(-unit * phase) is the conjugate of this one;
the transform module builds its factored form itself.

A matrix with b = 0 is rejected: there the transform is the chirp-scaled
dilation sqrt(d) exp(unit * (c d / 2) u^2) f(d u), which has no integral
kernel and so no place in the quadrature sandwich.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .quaternion import Quaternion

__all__ = [
    "LctParams",
    "TransformParams",
    "kernel_i",
    "kernel_j",
    "fourier_params",
    "kernel_matrix",
]

_DET_TOL = 1e-9


@dataclass(frozen=True)
class LctParams:
    """Entries of one unimodular matrix ((a, b), (c, d))."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name, v in self.to_dict().items():
            # a numpy scalar is stored as the Python number json encodes
            if isinstance(v, np.generic):
                v = v.item()
                object.__setattr__(self, name, v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite entry {name} = {v!r}")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise ValueError(f"det(A) != 1 (got {det!r})")
        if self.b == 0.0:
            raise ValueError("b = 0 has no integral kernel (the transform "
                             "is a chirp-scaled dilation)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LctParams":
        try:
            args = (float(d["a"]), float(d["b"]), float(d["c"]), float(d["d"]))
        except (ValueError, OverflowError) as e:
            # a non-numeric entry is mistyped, not an invariant violation
            raise TypeError(f"non-numeric entry: {e}") from e
        return cls(*args)


@dataclass(frozen=True)
class TransformParams:
    """Per-axis matrices: A1 drives the i-kernel, A2 the j-kernel."""

    A1: LctParams
    A2: LctParams

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TransformParams":
        return cls(LctParams.from_dict(d["A1"]), LctParams.from_dict(d["A2"]))


def fourier_params() -> TransformParams:
    """Both axes set to (0, 1, -1, 0): the transform reduces to the 2DQFT."""
    f = LctParams(0.0, 1.0, -1.0, 0.0)
    return TransformParams(f, f)


def kernel_matrix(p: LctParams, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Kernel values K(x_r, u_c) as a complex (len(x), len(u)) array.

    The imaginary axis stands for the kernel's own unit (i for axis 1,
    j for axis 2).

    Built blockwise from the angle-addition identity: with u_c =
    u[C*B] + c'*h for c = C*B + c' and B = isqrt(len(u)),

        K[r, c] = coarse[r, C] * fine[r, c'] * col[c]
        coarse  = amp * exp(unit * (a/(2b) x^2 - x u[C*B] / b - pi/4))
        fine    = exp(-unit * x c' h / b)
        col     = exp(unit * d/(2b) u^2)

    Nodes u that are not uniform within rounding take B = 1, one
    exponential per entry.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(p.b))
    n = len(u)
    if n == 0:
        return np.empty((len(x), 0), dtype=complex)
    h = (u[-1] - u[0]) / max(n - 1, 1)
    tol = 8.0 * np.finfo(float).eps * np.max(np.abs(u))
    uniform = np.all(np.abs(u - (u[0] + h * np.arange(n))) <= tol)
    block = math.isqrt(n) if uniform else 1
    coarse = amp * np.exp(1j * ((p.a / (2.0 * p.b)) * x[:, None] ** 2
                                - np.outer(x, u[::block]) / p.b
                                - math.pi / 4.0))
    fine = np.exp(-1j * np.outer(x, np.arange(block) * (h / p.b)))
    col = np.exp(1j * (p.d / (2.0 * p.b)) * u ** 2)
    k = np.empty((len(x), n), dtype=complex)
    whole, rest = divmod(n, block)
    np.multiply(coarse[:, :whole, None], fine[:, None, :],
                out=k[:, :n - rest].reshape(len(x), whole, block))
    # the last, partial block when block does not divide n
    np.multiply(coarse[:, whole:], fine[:, :rest], out=k[:, n - rest:])
    k *= col
    return k


def kernel_i(p: LctParams, x1: float, u1: float) -> Quaternion:
    """Axis-1 kernel value; lies in span{1, i}."""
    k = complex(kernel_matrix(p, np.array([x1]), np.array([u1]))[0, 0])
    return Quaternion(k.real, k.imag, 0.0, 0.0)


def kernel_j(p: LctParams, x2: float, u2: float) -> Quaternion:
    """Axis-2 kernel value; lies in span{1, j}."""
    k = complex(kernel_matrix(p, np.array([x2]), np.array([u2]))[0, 0])
    return Quaternion(k.real, 0.0, k.imag, 0.0)
