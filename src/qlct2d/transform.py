"""Two-sided quaternion linear canonical transform on sampled fields.

The forward transform evaluates, for every frequency node (u1, u2),

    T{f}(u1, u2) = sum_x  K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w(x)

with quadrature weights w; the i-kernel always multiplies from the left
and the j-kernel from the right.  Both sides reduce to complex
transforms (the orthogonal planes split, Hitzer & Sangwine 2013), so one
complex half transform over the rows of an array serves both.

On uniform nodes centred on their midpoint, each side's kernel is a
chirp in the input node s, the core e^{unit β s t} and a chirp in the
output node t.  The core's cosine is even and its sine odd, so folding
the input into z(s) ± z(-s) turns a half transform into two half-size
real products (the even/odd fold of the fast DCT, Makhoul 1980): a
quarter of the flops of the one complex product it replaces, which keeps
the direct quadrature affordable without an FFT factorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .field import (GridSpec, SampledField, _axis_weights, _origin_offset,
                    _qconv, _require_same_spec, convolve, l2_norm,
                    qconj_values, qmul_values, quad_weights_1d)
from .lct import LctParams, TransformParams, kernel_matrix

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


@dataclass(frozen=True)
class _Side:
    """One side's weighted kernel amp e^{σ u (α p² + β p q + γ q² + φ)} w(p)
    from input node p onto output node q, with u the side's unit.

    On centred nodes p = μp + s, q = μq + t it factors as
    pre(s) e^{σ u β s t} post(t), whose middle factor has a cosine even
    and a sine odd in s and in t.  So only its s >= 0, t >= 0 quarter is
    kept: cos and sin are the real (⌈n/2⌉, ⌈m/2⌉) arrays cos(β s t) and
    sin(β s t).  pre (n,) carries the weights; pre and post are complex.
    """

    pre: np.ndarray
    post: np.ndarray
    cos: np.ndarray
    sin: np.ndarray
    sigma: int


# the most column blocks the first side of _sandwich folds its input in
_MAX_BLOCKS = 32


def _axes(spec: GridSpec) -> tuple[tuple, tuple]:
    """(midpoint, spacing, count) of each of the grid's two axes."""
    return ((0.5 * (spec.x1_min + spec.x1_max), spec.h1, spec.n1),
            (0.5 * (spec.x2_min + spec.x2_max), spec.h2, spec.n2))


def _side(sigma: int, src: tuple, dst: tuple, alpha: float = 0.0,
          b: float = -1.0, gamma: float = 0.0, phi: float = 0.0,
          amp: float = 1.0) -> _Side:
    """Factor the kernel with β = -1/b that sums over the src axis onto
    the dst axis, each given as (midpoint, spacing, count).  The
    defaults give the Fourier kernel e^{σ u p q}."""
    (mp, hp, n), (mq, hq, m) = src, dst
    s = hp * (np.arange(n) - 0.5 * (n - 1))  # exactly antisymmetric
    t = hq * (np.arange(m) - 0.5 * (m - 1))
    beta = -1.0 / b
    pre = quad_weights_1d(n, hp) * np.exp(
        sigma * 1j * (alpha * s ** 2 + (2.0 * alpha * mp + beta * mq) * s))
    phase0 = alpha * mp ** 2 + beta * mp * mq + gamma * mq ** 2 + phi
    post = amp * np.exp(sigma * 1j * (
        gamma * t ** 2 + (2.0 * gamma * mq + beta * mp) * t + phase0))
    # with a = d = 0 the kernel's phase is β s t - π/4
    core = kernel_matrix(LctParams(0.0, b, -1.0 / b, 0.0), s[n // 2:],
                         t[m // 2:])
    core *= cmath.rect(math.sqrt(2.0 * math.pi * abs(b)), math.pi / 4.0)
    return _Side(pre, post, core.real.copy(), core.imag.copy(), sigma)


def _lct_side(p: LctParams, sigma: int, src: tuple, dst: tuple) -> _Side:
    """The kernel of p (sigma = 1), or its unit conjugate summed over u
    onto x, in which a and d trade places (sigma = -1, the inverse)."""
    a, d = (p.a, p.d) if sigma > 0 else (p.d, p.a)
    return _side(sigma, src, dst, a / (2.0 * p.b), p.b, d / (2.0 * p.b),
                 -math.pi / 4.0, 1.0 / math.sqrt(2.0 * math.pi * abs(p.b)))


def _fold_factors(side: _Side):
    """cos; the sine's columns t > 0 in reverse, the order of the rows
    -t (its t = 0 column, where it vanishes, dropped); and pre with the
    centre node of an odd count, which pairs with itself in the fold, at
    half weight.  A real, even pre (a Fourier kernel onto a centred
    grid) goes into cos and sin instead of over the data, and None is
    returned for it."""
    pre = side.pre.copy()
    n, h, m = len(pre), len(side.cos), len(side.post)
    if n % 2:
        pre[n // 2] *= 0.5
    cos, sin = side.cos, side.sin[:, m % 2:][:, ::-1]
    if not pre.imag.any() and np.array_equal(pre, pre[::-1]):
        w = pre.real[n - h:, None]
        cos, sin, pre = cos * w, sin * w, None
    return cos, np.ascontiguousarray(sin), pre


def _unfold(side: _Side, out: np.ndarray):
    """Finish the complex (m, k) out in place.  Rows m // 2 on hold C z_e
    at the nodes t >= 0; the m // 2 rows before them hold S z_o at |t|
    for their nodes t < 0.  Each row becomes post(t) (C z_e ± σ u S z_o),
    with the sign of t, in its own row.
    """
    m = len(side.post)
    up, lo = out[m - m // 2:], out[:m // 2][::-1]
    lo *= side.sigma * 1j
    up += lo
    lo *= -2.0
    lo += up
    out *= side.post[:, None]


def _half(z: np.ndarray, side: _Side) -> np.ndarray:
    """The complex (m, k) sum over the rows s of the complex (n, k) z
    with the side's kernel pre(s) e^{σ i β s t} post(t), i standing for
    its unit.  z times pre is folded about the centre into
    z_e, z_o = z(s) ± z(-s), whose halves the real cos and sin contract:
    two half-size real products in place of one complex product.
    """
    cos, sin, pre = _fold_factors(side)
    (n, k), (h, mh), m = z.shape, cos.shape, len(side.post)
    out = np.empty((m, k), dtype=complex)
    zu, zl, up, lo = z[n - h:], z[h - 1::-1], out[m - mh:], out[:m // 2]
    # in ⌈4h/m⌉ equal column blocks, whose (h, step) fold temporaries,
    # at most four at once with numpy's buffers, fit in out; but in no
    # more than _MAX_BLOCKS, whose temporaries stay under about
    # 2/_MAX_BLOCKS of z, or a small output would cost hundreds of
    # blocks of numpy call overhead
    step = -(-k // min(-(-4 * h // m), _MAX_BLOCKS))
    for c in range(0, k, step):
        cols = slice(c, c + step)
        ze, zo = zu[:, cols], zl[:, cols]
        if pre is not None:
            ze, zo = ze * pre[n - h:, None], zo * pre[h - 1::-1, None]
        ze, zo = ze + zo, ze - zo
        np.matmul(cos.T, ze.view(float), out=up[:, cols].view(float))
        np.matmul(sin.T, zo.view(float), out=lo[:, cols].view(float))
        del ze, zo
    _unfold(side, out)
    return out


def _sandwich(values: np.ndarray, left: _Side, right: _Side) -> np.ndarray:
    """Quaternion sandwich sum_rc kl[m,r] * q[r,c] * kr[c,n] of the
    factored kernels kl (left, unit i) and kr (right, unit j).

    Write q = z1 + z2 j with z1 = q0 + q1 i, z2 = q2 + q3 i.  A left
    factor in span{1,i} multiplies z1 and z2: the values viewed as
    complex.  A right factor a + b j multiplies w = z1 + i z2 by a + b i
    and v = z1 - i z2 by a - b i (the split of a two-sided transform into
    complex ones, Pei, Ding & Chang 2001), so the right side is one
    complex half transform of the transposed w with the side and one of
    v with its conjugate; then z1 = (W + V)/2 and z2 = i(V - W)/2.
    """
    (n1, n2), m, n = values.shape[:2], len(left.post), len(right.post)
    z = np.ascontiguousarray(values).view(complex).reshape(n1, 2 * n2)
    g = _half(z, left).reshape(m, n2, 2)
    # w and v, transposed, share one block, which then holds W and V
    # transposed back: fewer and like-sized buffers keep the heap compact
    block = np.empty((2, m * max(n2, n)), dtype=complex)
    w, v = (b[:n2 * m].reshape(n2, m) for b in block)
    w[...], v[...] = g[..., 0].T, g[..., 1].T
    del z, g
    # w = z1 + i z2, then v = w - 2 i z2 = z1 - i z2
    v *= 1j
    w += v
    v *= -2.0
    v += w
    # the 1/2 of z1 and z2 rides on post
    right = replace(right, post=0.5 * right.post)
    conj = replace(right, pre=right.pre.conj(), post=right.post.conj(),
                   sigma=-right.sigma)
    W, V = (b[:m * n].reshape(m, n) for b in block)
    W[...] = _half(w, right).T
    V[...] = _half(v, conj).T
    out = np.empty((m, n, 2), dtype=complex)
    np.add(W, V, out=out[..., 0])
    V -= W
    np.multiply(V, 1j, out=out[..., 1])
    return out.view(float)


def forward(f: SampledField, params: TransformParams,
            freq: GridSpec) -> Spectrum:
    """Forward transform of f onto the given frequency grid."""
    (x1, x2), (u1, u2) = _axes(f.spec), _axes(freq)
    return Spectrum(freq, _sandwich(f.values, _lct_side(params.A1, 1, x1, u1),
                                    _lct_side(params.A2, 1, x2, u2)), params)


def inverse(s: Spectrum, space: GridSpec) -> SampledField:
    """Inverse transform of a spectrum onto a spatial grid.

    Uses the unit-conjugated forward kernels exp(-i phase), exp(-j phase)
    with the matrices the spectrum was produced with, which is the exact
    left/right inverse of the kernels.
    """
    if s.params is None:
        raise ValueError("spectrum carries no transform parameters")
    (u1, u2), (x1, x2) = _axes(s.spec), _axes(space)
    return SampledField(space, _sandwich(s.values,
                                         _lct_side(s.params.A1, -1, u1, x1),
                                         _lct_side(s.params.A2, -1, u2, x2)))


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
