"""Two-sided quaternion linear canonical transform on sampled fields.

The forward transform evaluates, for every frequency node (u1, u2),

    T{f}(u1, u2) = sum_x  K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w(x)

with quadrature weights w; the i-kernel always multiplies from the left
and the j-kernel from the right.  As the kernels live in span{1,i} and
span{1,j}, each half-sandwich is one complex matrix product on the
symplectic pairs q = (q0 + q1 i) + (q2 + q3 i) j (Ell & Sangwine 2007),
which keeps the direct quadrature affordable without an FFT factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (GridSpec, SampledField, _axis_weights, _origin_offset,
                    _qconv, _require_same_spec, convolve, l2_norm,
                    qconj_values, qmul_values)
from .lct import TransformParams, kernel_matrix

__all__ = [
    "Spectrum",
    "forward",
    "inverse",
    "parseval_ratio",
    "correlate",
    "phase_strip",
    "product_residuals",
]


@dataclass(frozen=True)
class Spectrum(SampledField):
    """Transform values over a (u1, u2) frequency grid, with the
    parameters that produced them (None when there are none, as for a
    fourier-mode characteristic function)."""

    params: TransformParams | None = None


def _sandwich(values: np.ndarray, kl: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """Quaternion sandwich sum_rc kl[m,r] * q[r,c] * kr[c,n].

    kl's imaginary unit acts as i, kr's as j.  Left multiplication by
    span{1,i} acts on the pairs (q0,q1), (q2,q3): the values viewed as
    complex, one product.  Right multiplication by span{1,j} acts on
    (q0,q2), (q1,q3): the rows g1.re + i g2.re, g1.im + i g2.im of g.
    """
    m, (n1, n2) = kl.shape[0], values.shape[:2]
    # g is rebound at each stage, so a full-size buffer is freed as soon
    # as its successor exists: at most two are alive at once
    g = kl @ np.ascontiguousarray(values).view(complex).reshape(n1, 2 * n2)
    g = g.view(float).reshape(m, n2, 2, 2).transpose(0, 3, 1, 2).copy()
    g = g.view(complex).reshape(2 * m, n2) @ kr
    # g's rows alternate d1 = (q0, q2) and d2 = (q1, q3) pairs
    g = g.view(float).reshape(m, 2, -1, 2).transpose(0, 2, 3, 1)
    return g.reshape(m, -1, 4)


def forward(f: SampledField, params: TransformParams,
            freq: GridSpec) -> Spectrum:
    """Forward transform of f onto the given frequency grid."""
    x1, x2 = f.spec.x1_nodes(), f.spec.x2_nodes()
    u1, u2 = freq.x1_nodes(), freq.x2_nodes()
    w1, w2 = _axis_weights(f.spec)
    kl = kernel_matrix(params.A1, x1, u1).T * w1[None, :]
    kr = kernel_matrix(params.A2, x2, u2) * w2[:, None]
    return Spectrum(freq, _sandwich(f.values, kl, kr), params)


def inverse(s: Spectrum, space: GridSpec) -> SampledField:
    """Inverse transform of a spectrum onto a spatial grid.

    Uses the unit-conjugated forward kernels exp(-i phase), exp(-j phase)
    with the matrices the spectrum was produced with, which is the exact
    left/right inverse of the kernels.
    """
    if s.params is None:
        raise ValueError("spectrum carries no transform parameters")
    u1, u2 = s.spec.x1_nodes(), s.spec.x2_nodes()
    x1, x2 = space.x1_nodes(), space.x2_nodes()
    wu1, wu2 = _axis_weights(s.spec)
    kl = kernel_matrix(s.params.A1, x1, u1, conjugate=True) * wu1[None, :]
    kr = kernel_matrix(s.params.A2, x2, u2, conjugate=True).T * wu2[:, None]
    return SampledField(space, _sandwich(s.values, kl, kr))


def parseval_ratio(f: SampledField, params: TransformParams,
                   freq: GridSpec) -> float:
    """Measured (spectrum energy) / (field energy); no constant asserted."""
    norm = l2_norm(f)
    if norm == 0.0:
        raise ValueError("parseval_ratio requires a nonzero field")
    return (l2_norm(forward(f, params, freq)) / norm) ** 2


def correlate(f: SampledField, g: SampledField) -> SampledField:
    """(f o g)(x) = integral f(x + y) conj(g(y)) dy on the shared grid.

    Factor order f(x+y) * conj(g(y)) is preserved; g is zero outside
    its box.  Evaluated by FFT, zero-padded only as the output window needs.
    """
    _require_same_spec(f, g)
    spec = f.spec
    o1, o2 = _origin_offset(spec)
    gw = qconj_values(g.values) * np.outer(*_axis_weights(spec))[..., None]

    # C[r] = sum_{r'} f[r + r' + o] gw[r'], equal to the full convolution
    # of f with gw flipped on both axes, sampled at (r + o) + (n - 1).
    shift = (o1 + spec.n1 - 1, o2 + spec.n2 - 1)
    return SampledField(spec, _qconv(f.values, gw[::-1, ::-1], shift))


def phase_strip(s: Spectrum) -> Spectrum:
    """Remove the kernels' constant -pi/4 phases: e^{i pi/4} T e^{j pi/4}.

    This maps the transform to its constant-phase-free normalization,
    under which the separable convolution and correlation identities
    hold with a plain 2*pi scale.
    """
    ei = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4), 0.0, 0.0])
    ej = np.array([math.cos(math.pi / 4), 0.0, math.sin(math.pi / 4), 0.0])
    v = qmul_values(np.broadcast_to(ei, s.values.shape), s.values)
    v = qmul_values(v, np.broadcast_to(ej, v.shape))
    return Spectrum(s.spec, v, s.params)


def product_residuals(f: SampledField, g: SampledField,
                      params: TransformParams, freq: GridSpec,
                      correlation: bool = False) -> tuple[float, float]:
    """Relative residuals || T{h} - 2*pi T{f}.T{g}' || / || T{h} || of the
    product identities, with h = f * g and T{g}' = T{g}, or with
    correlation=True h = f o g and T{g}' = conj(T{g}).

    Returns (literal, normalized): the residual on the transforms as they
    are, and on S = phase_strip(T).  The normalized identity holds exactly
    for separable f = alpha(x1) beta(x2), g = gamma(x1) delta(x2) with
    alpha in span{1,i}, gamma real and even, beta/delta in span{1,j};
    there the literal form picks up the unit factor e^{-j pi/4} e^{-i pi/4}
    between the kernels' constant phases and misses by exactly 1.  For
    other pairs both values are diagnostics with no threshold implied.
    """
    h = correlate(f, g) if correlation else convolve(f, g)
    spectra = [forward(x, params, freq) for x in (h, f, g)]
    if l2_norm(spectra[0]) == 0.0:
        op = "correlation" if correlation else "convolution"
        raise ValueError(f"transform of the {op} is identically zero")

    def residual(th: Spectrum, tf: Spectrum, tg: Spectrum) -> float:
        tgv = qconj_values(tg.values) if correlation else tg.values
        diff = th.values - 2.0 * math.pi * qmul_values(tf.values, tgv)
        return l2_norm(SampledField(freq, diff)) / l2_norm(th)

    return residual(*spectra), residual(*map(phase_strip, spectra))
