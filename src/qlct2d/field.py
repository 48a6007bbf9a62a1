"""Quaternion-valued functions on R^2 sampled on uniform rectangular grids.

A field is stored as a real array of shape (n1, n2, 4) holding the four
quaternion components at every node; node (r, c) sits at
(x1_min + r*h1, x2_min + c*h2).  Quadrature uses an endpoint-corrected
trapezoid rule (Gregory weights) so that polynomial moments up to cubic
per axis integrate exactly; interior weights stay uniform, which keeps
discrete-delta convolution identities valid away from the boundary.
The rule is a product of two 1-D rules, and every integral is reduced
one axis at a time, with no n1 x n2 weight matrix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .quaternion import Quaternion, _hamilton

__all__ = [
    "GridSpec",
    "SampledField",
    "sample",
    "integrate",
    "l2_norm",
    "inner_product",
    "convolve",
    "quad_weights_1d",
    "qmul_values",
    "qconj_values",
    "qnorm_values",
]

@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over [x1_min, x1_max] x [x2_min, x2_max]."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n1: int
    n2: int

    def __post_init__(self):
        # a numpy scalar bound is stored as the Python number json
        # encodes; Python ints and floats are kept as given
        for name in ("x1_min", "x1_max", "x2_min", "x2_max"):
            v = getattr(self, name)
            if isinstance(v, np.generic):
                object.__setattr__(self, name, v.item())
        if not np.all(np.isfinite([self.x1_min, self.x1_max,
                                   self.x2_min, self.x2_max])):
            raise ValueError("GridSpec: bounds must be finite")
        if not (self.x1_min < self.x1_max):
            raise ValueError("GridSpec: x1_min must be < x1_max")
        if not (self.x2_min < self.x2_max):
            raise ValueError("GridSpec: x2_min must be < x2_max")
        # n % 1 is nonzero, or NaN, for a fractional or non-finite count
        if self.n1 % 1 or self.n2 % 1:
            raise ValueError("GridSpec: n1 and n2 must be integers")
        # stored as plain ints, which the CSV and JSON writers need
        object.__setattr__(self, "n1", int(self.n1))
        object.__setattr__(self, "n2", int(self.n2))
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("GridSpec: n1 and n2 must be >= 2")

    @property
    def h1(self) -> float:
        return (self.x1_max - self.x1_min) / (self.n1 - 1)

    @property
    def h2(self) -> float:
        return (self.x2_max - self.x2_min) / (self.n2 - 1)

    def x1_nodes(self) -> np.ndarray:
        return self.x1_min + self.h1 * np.arange(self.n1)

    def x2_nodes(self) -> np.ndarray:
        return self.x2_min + self.h2 * np.arange(self.n2)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        try:
            args = (float(d["x1_min"]), float(d["x1_max"]),
                    float(d["x2_min"]), float(d["x2_max"]),
                    _count(d["n1"]), _count(d["n2"]))
        except (ValueError, OverflowError) as e:
            # a non-numeric entry is mistyped, not an invariant violation
            raise TypeError(f"non-numeric entry: {e}") from e
        return cls(*args)


def _count(v) -> int:
    """int(v) for a grid count; a float with a fractional part is a
    mistyped entry, not one to truncate."""
    n = int(v)
    if isinstance(v, float) and n != v:
        raise TypeError(f"non-integral count {v!r}")
    return n


@dataclass(frozen=True)
class SampledField:
    """Quaternion samples on a grid; values has shape (n1, n2, 4)."""

    spec: GridSpec
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _grid_values(self.spec, self.values))


def _grid_values(spec: GridSpec, values) -> np.ndarray:
    """values as a float (n1, n2, 4) array; ValueError on a shape that
    does not match the grid or on a non-finite entry."""
    v = np.asarray(values, dtype=float)
    if v.shape != (spec.n1, spec.n2, 4):
        raise ValueError(f"values shape {v.shape} does not match grid "
                         f"({spec.n1}, {spec.n2}, 4)")
    if not np.all(np.isfinite(v)):
        r, c, _ = np.argwhere(~np.isfinite(v))[0]
        raise ValueError(f"non-finite value at node ({r}, {c})")
    return v


def _require_same_spec(f: SampledField, g: SampledField):
    if f.spec != g.spec:
        raise ValueError("fields are sampled on different grids")


def quad_weights_1d(n: int, h: float) -> np.ndarray:
    """Quadrature weights on n uniform nodes with spacing h.

    Trapezoid with two Gregory endpoint-correction terms (boundary weights
    3/8, 7/6, 23/24) for n >= 6; plain trapezoid for smaller n.  The
    corrected rule is exact for cubics and O(h^4) on smooth integrands.
    """
    w = np.ones(n)
    if n >= 6:
        w[[0, -1]] = 3.0 / 8.0
        w[[1, -2]] = 7.0 / 6.0
        w[[2, -3]] = 23.0 / 24.0
    else:
        w[[0, -1]] = 0.5
    return w * h


def _axis_weights(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The 1-D quadrature weights of the grid's two axes."""
    return (quad_weights_1d(spec.n1, spec.h1),
            quad_weights_1d(spec.n2, spec.h2))


def _quadrature(values: np.ndarray, w1: np.ndarray,
                w2: np.ndarray) -> np.ndarray:
    """Separable quadrature sum_rc w1[r] w2[c] values[r, c, ...], one
    einsum per axis: no n1 x n2 weight matrix, and no BLAS product,
    whose last digits would change with the BLAS thread count."""
    rows = np.einsum("r,rc...->c...", w1, values)
    return np.einsum("c,c...->...", w2, rows)


def sample(f, spec: GridSpec) -> SampledField:
    """Sample a callable (x1, x2) -> Quaternion (or float) on the grid."""
    x1 = spec.x1_nodes()
    x2 = spec.x2_nodes()
    v = np.empty((spec.n1, spec.n2, 4))
    for r, a in enumerate(x1):
        for c, b in enumerate(x2):
            q = f(a, b)
            if isinstance(q, Quaternion):
                v[r, c] = q.components()
            else:
                v[r, c] = (float(q), 0.0, 0.0, 0.0)
    return SampledField(spec, v)


def integrate(f: SampledField) -> Quaternion:
    """Componentwise quadrature of f over its box."""
    return Quaternion(*_quadrature(f.values, *_axis_weights(f.spec)))


def l2_norm(f: SampledField) -> float:
    """L2 norm sqrt( integral |f|^2 )."""
    sq = np.sum(f.values ** 2, axis=-1)
    return float(np.sqrt(_quadrature(sq, *_axis_weights(f.spec))))


def inner_product(f: SampledField, g: SampledField) -> Quaternion:
    """<f, g> = integral f(x) g(x)* dx."""
    _require_same_spec(f, g)
    prod = qmul_values(f.values, qconj_values(g.values))
    return Quaternion(*_quadrature(prod, *_axis_weights(f.spec)))


def qmul_values(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise Hamilton product of two (..., 4) component arrays (p*q)."""
    return np.stack(_hamilton(*np.moveaxis(p, -1, 0), *np.moveaxis(q, -1, 0)),
                    axis=-1)


def qconj_values(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def qnorm_values(q: np.ndarray) -> np.ndarray:
    """Pointwise modulus of a (..., 4) component array."""
    return np.sqrt(np.sum(q ** 2, axis=-1))


def _origin_offset(spec: GridSpec) -> tuple[int, int]:
    """Index offsets o with x_min = o*h, which must be integral."""
    o1 = spec.x1_min / spec.h1
    o2 = spec.x2_min / spec.h2
    if abs(o1 - round(o1)) > 1e-9 or abs(o2 - round(o2)) > 1e-9:
        raise ValueError("the grid must align with the coordinate origin "
                         "(x_min must be a multiple of h)")
    return int(round(o1)), int(round(o2))


def _fft_len(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n, a fast FFT length."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _qconv(fv: np.ndarray, gv: np.ndarray,
           shift: tuple[int, int]) -> np.ndarray:
    """Window out[r, c] = full[r + s1, c + s2] of the linear quaternion
    convolution full[t] = sum_s fv[s] * gv[t - s] of two (n1, n2, 4)
    arrays; zero where an index falls outside full's support [0, 2n - 1).

    Per axis, with the window clipped to the support as [lo, hi), a
    circular convolution of length L >= max(hi, 2n - 1 - lo) wraps
    nothing into it, so the FFT pads only to that bound, not to 2n - 1.
    The Hamilton product is bilinear with real coefficients, so it is
    folded once on the complex component spectra, keeping the factor
    order f * g (Ell & Sangwine, IEEE TIP 16(1), 2007).
    """
    out = np.zeros(fv.shape)
    src, dst, shape = [], [], []
    for n, s in zip(fv.shape[:2], shift):
        lo, hi = max(s, 0), min(s + n, 2 * n - 1)
        if lo >= hi:
            return out
        src.append(slice(lo, hi))
        dst.append(slice(lo - s, hi - s))
        shape.append(_fft_len(max(hi, 2 * n - 1 - lo)))
    fs = np.fft.rfft2(fv, s=shape, axes=(0, 1))
    gs = np.fft.rfft2(gv, s=shape, axes=(0, 1))
    circ = np.fft.irfft2(qmul_values(fs, gs), s=shape, axes=(0, 1))
    out[tuple(dst)] = circ[tuple(src)]
    return out


def convolve(f: SampledField, g: SampledField) -> SampledField:
    """(f * g)(x) = integral f(y) g(x - y) dy on f's grid.

    g is taken as zero outside its box; the quaternion factor order
    f(y) * g(x - y) is preserved.  Evaluated by an FFT zero-padded only
    as far as the n1 x n2 output window needs.
    """
    _require_same_spec(f, g)
    o1, o2 = _origin_offset(f.spec)
    fw = f.values * np.outer(*_axis_weights(f.spec))[..., None]
    # full discrete convolution index t = r' + s; output index r maps to
    # t = r - o per axis (coordinates: x - y = (r - r')h, g node s = r-r'-o).
    return SampledField(f.spec, _qconv(fw, g.values, (-o1, -o2)))
