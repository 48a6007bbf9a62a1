"""Two-sided quaternion linear canonical transform on sampled fields.

The forward transform evaluates, for every frequency node (u1, u2),

    T{f}(u1, u2) = sum_x  K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w(x)

with quadrature weights w; the i-kernel always multiplies from the left
and the j-kernel from the right.  Both sides reduce to complex
transforms of component pairs, (q0, q1) and (q2, q3) on the left and
(q0, q2) and (q1, q3) on the right, so one complex half transform over
the rows of an array serves both.

On uniform nodes centred on their midpoint, each side's kernel is a
chirp in the input node s, the core e^{unit β s t} and a chirp in the
output node t.  The core's cosine is even and its sine odd, so folding
the input into z(s) ± z(-s) turns a half transform into two half-size
real products (the even/odd fold of the fast DCT, Makhoul 1980): a
quarter of the flops of the one complex product it replaces, which keeps
the direct quadrature affordable without an FFT factorization.  Each
side's factors are built in that folded form once, so a half transform
folds only the data.

A transform holds one buffer the size of its output (or of the left
side's result, if that is larger), that result at its end and the
output at its start; one side's factors; and at any time the
temporaries of one column block of the left side or one band of output
rows of the right side: a quarter of the buffer for large transforms,
all of it for small ones.  One function, `_sizes`, derives the buffer,
the block width, the band height and the peak estimate from the array
shapes.  Each side is built just before its pass and dropped after it,
and a fold makes at most three temporaries.  A whole transform, sides
included, traces about 1.33 times its output from 513² up.  Before it
builds anything, a transform whose estimated peak exceeds the machine's
physical memory raises ValueError.
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

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
    from input node p onto output node q, u the side's unit, stored
    folded for `_contract` and `_unfold`.

    On centred nodes p = μp + s, q = μq + t it factors as
    pre(s) e^{σ u β s t} post(t), whose middle factor has a cosine even
    and a sine odd in s and in t.  So cos (⌈n/2⌉, ⌈m/2⌉) holds cos(β s t)
    at s, t >= 0, and sin (⌈n/2⌉, m // 2) holds σ sin(β s t) at s >= 0,
    t > 0, its columns reversed into the order of the nodes -t.  pre (n,)
    carries the weights, the centre node of an odd count (which pairs
    with itself in the fold) at half weight; a real, even pre (a Fourier
    kernel onto a centred grid) is multiplied into the rows of cos and
    sin instead, and pre is None.  post (m,) is complex.
    """

    pre: np.ndarray | None
    post: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


# the most column blocks the left side of _sandwich folds its input in
_MAX_BLOCKS = 32
# the temporaries of one block or band of _sandwich: 1/_SHARE of its
# buffer, but at least _CHUNK bytes (and at most the buffer), so that a
# small transform is not cut into many blocks of numpy call overhead
_SHARE = 4
_CHUNK = 2 ** 18


def _sizes(n1: int, n2: int, m: int, n: int) -> tuple[int, int, int, int]:
    """(buffer, step, rows, peak) of `_sandwich` from (n1, n2) values
    onto an (m, n) output: the bytes of its buffer of m * max(n2, n)
    quaternions, the complex columns of a left block, the output rows of
    a right band, and the estimate of its peak bytes, the buffer, one
    block's or band's budget and the larger side's cos and sin.

    The block width and band height are sized for four fold
    temporaries, one more than `_contract` makes: at the ledger's sizes
    they keep every BLAS product within 128 columns, whose bits do not
    depend on the BLAS thread count."""
    buf = 32 * m * max(n2, n)
    budget = min(max(_CHUNK, buf // _SHARE), buf)
    # a column of a left block: four ⌈n1/2⌉-row fold temporaries
    step = max(budget // (64 * -(-n1 // 2)), -(-2 * n2 // _MAX_BLOCKS))
    # a row of a band: two columns in the band's block and in each of
    # four ⌈n2/2⌉-row fold temporaries
    rows = max(budget // (32 * max(n2, n) + 128 * -(-n2 // 2)), 1)
    return buf, step, rows, buf + budget + 8 * max(-(-n1 // 2) * m,
                                                   -(-n2 // 2) * n)


def _memory() -> float:
    """The machine's physical memory in bytes, inf where the platform
    does not give it."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return size * pages if size > 0 and pages > 0 else math.inf


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
    cos = np.ascontiguousarray(core.real)
    sin = np.ascontiguousarray(sigma * core.imag[:, m % 2:][:, ::-1])
    if n % 2:
        pre[n // 2] *= 0.5
    if not pre.imag.any() and np.array_equal(pre, pre[::-1]):
        # in place: new arrays here left heap holes worth a 513² field
        cos *= pre.real[n // 2:, None]
        sin *= pre.real[n // 2:, None]
        pre = None
    return _Side(pre, post, cos, sin)


def _lct_side(p: LctParams, sigma: int, src: tuple, dst: tuple) -> _Side:
    """The kernel of p (sigma = 1), or its unit conjugate summed over u
    onto x, in which a and d trade places (sigma = -1, the inverse)."""
    a, d = (p.a, p.d) if sigma > 0 else (p.d, p.a)
    return _side(sigma, src, dst, a / (2.0 * p.b), p.b, d / (2.0 * p.b),
                 -math.pi / 4.0, 1.0 / math.sqrt(2.0 * math.pi * abs(p.b)))


def _unfold(side: _Side, out: np.ndarray):
    """Finish the complex (m, k) out in place.  Rows m // 2 on hold C z_e
    at the nodes t >= 0; the m // 2 rows before them hold S z_o at |t|
    for their nodes t < 0.  Each row becomes post(t) (C z_e ± u S z_o),
    with the sign of t, in its own row; S already carries σ.
    """
    m = len(side.post)
    up, lo = out[m - m // 2:], out[:m // 2][::-1]
    lo *= 1j
    up += lo
    lo *= -2.0
    lo += up
    out *= side.post[:, None]


def _contract(z: np.ndarray, side: _Side, out: np.ndarray):
    """Fold z times pre about the centre into z_e, z_o = z(s) ± z(-s)
    and contract their halves with the side's real cos and sin into the
    rows of out that `_unfold` reads: two half-size real products in
    place of one complex product.  z is read in full before out is
    written, so the two may share memory.  The fold's temporaries are
    at most three (⌈n/2⌉, k) arrays: with a pre, the two products and
    their difference, the sum taking the first product's place; without
    one, the sum and the difference.
    """
    cos, sin, pre = side.cos, side.sin, side.pre
    (n, k), (h, mh), m = z.shape, cos.shape, len(side.post)
    ze, zo = z[n - h:], z[h - 1::-1]
    if pre is None:
        ze, zo = ze + zo, ze - zo
    else:
        ze, zo = ze * pre[n - h:, None], zo * pre[h - 1::-1, None]
        diff = ze - zo
        ze += zo
        zo = diff
    np.matmul(cos.T, ze.view(float), out=out[m - mh:].view(float))
    np.matmul(sin.T, zo.view(float), out=out[:m // 2].view(float))


def _sandwich(values: np.ndarray, shape: tuple[int, int],
              left: Callable[[], _Side], right: Callable[[], _Side]
              ) -> np.ndarray:
    """Quaternion sandwich sum_rc kl[m,r] * q[r,c] * kr[c,n] of the
    factored kernels kl (left, unit i) and kr (right, unit j) onto an
    output of the given (m, n) shape; left() and right() build the two
    `_Side`s.

    Write q = z1 + z2 j with z1 = q0 + q1 i, z2 = q2 + q3 i: a left
    factor in span{1,i} multiplies z1 and z2, the values viewed as
    complex.  Write q = p + i r with p = q0 + q2 j, r = q1 + q3 j: a
    right factor c in span{1,j} gives q c = p c + i (r c), so the right
    side is the same complex half transform, with j in the role of i, of
    the transposed pairs (q0, q2) and (q1, q3).

    Both sides run in one flat buffer of m * max(n2, n) quaternions, and
    each side is built just before its pass and dropped after it, so one
    side's factors are alive at a time.  The left side writes its
    (m, n2) result g at the end of the buffer, in column blocks.  The
    right side then runs upwards in bands of output rows: each band's
    rows of g are copied into a small block of the two transposed pairs,
    transformed there, and written into the same rows of the output, in
    its (m, n) layout at the start of the buffer.  Output rows [0, r)
    end no later than g's row r begins, as r (n - n2) <= m max(0,
    n - n2), so no band overwrites a row of g still to be read.

    `_sizes` gives the buffer, the block width, the band height and
    the peak estimate; before anything is built, a peak above the
    machine's physical memory raises ValueError.
    """
    (n1, n2), (m, n) = values.shape[:2], shape
    (nbuf, step, rows, peak), memory = _sizes(n1, n2, m, n), _memory()
    if peak > memory:
        raise ValueError(
            f"a transform of {n1}x{n2} nodes onto {m}x{n} needs about "
            f"{peak / 1e9:.1f} GB, more than this machine's "
            f"{memory / 1e9:.1f} GB of memory")
    z = np.ascontiguousarray(values).view(complex).reshape(n1, 2 * n2)
    buf = np.empty(nbuf // 8)
    g = buf[len(buf) - m * n2 * 4:].reshape(m, n2, 4)
    gz = g.view(complex).reshape(m, 2 * n2)
    side = left()
    for c in range(0, 2 * n2, step):
        _contract(z[:, c:c + step], side, gz[:, c:c + step])
    _unfold(side, gz)
    del z, gz, side
    out = buf[:m * n * 4].reshape(m, n, 4)
    side = right()
    # the block holds a band's (q0, q2) pairs, then its (q1, q3) pairs,
    # and then their transforms, which overwrite them once folded
    yb = np.empty(max(n2, n) * 2 * rows, dtype=complex)
    for a in range(0, m, rows):
        gb, ob = g[a:a + rows], out[a:a + rows]
        k = len(gb)
        y = yb[:n2 * 2 * k].reshape(n2, 2, k)
        y.real[...] = gb[..., :2].transpose(1, 2, 0)
        y.imag[...] = gb[..., 2:].transpose(1, 2, 0)
        t = yb[:n * 2 * k].reshape(n, 2, k)
        _contract(y.reshape(n2, 2 * k), side, t.reshape(n, 2 * k))
        _unfold(side, t.reshape(n, 2 * k))
        for j in (0, 1):
            ob[..., j], ob[..., j + 2] = t.real[:, j].T, t.imag[:, j].T
    del g, out, gb, ob
    if n < n2:
        # no view of buf is left, so it shrinks in place to the output
        buf.resize(m * n * 4, refcheck=False)
    return buf.reshape(m, n, 4)


def forward(f: SampledField, params: TransformParams,
            freq: GridSpec) -> Spectrum:
    """Forward transform of f onto the given frequency grid."""
    (x1, x2), (u1, u2) = _axes(f.spec), _axes(freq)
    return Spectrum(freq, _sandwich(f.values, (freq.n1, freq.n2),
                                    partial(_lct_side, params.A1, 1, x1, u1),
                                    partial(_lct_side, params.A2, 1, x2, u2)),
                    params)


def inverse(s: Spectrum, space: GridSpec) -> SampledField:
    """Inverse transform of a spectrum onto a spatial grid.

    Uses the unit-conjugated forward kernels exp(-i phase), exp(-j phase)
    with the matrices the spectrum was produced with, which is the exact
    left/right inverse of the kernels.
    """
    if s.params is None:
        raise ValueError("spectrum carries no transform parameters")
    (u1, u2), (x1, x2) = _axes(s.spec), _axes(space)
    return SampledField(space, _sandwich(
        s.values, (space.n1, space.n2),
        partial(_lct_side, s.params.A1, -1, u1, x1),
        partial(_lct_side, s.params.A2, -1, u2, x2)))


def parseval_ratio(f: SampledField, params: TransformParams,
                   freq: GridSpec) -> float:
    """Measured (spectrum energy) / (field energy); no constant asserted."""
    return _energy_ratio(f, forward(f, params, freq))


def _energy_ratio(f: SampledField, s: Spectrum) -> float:
    """(energy of s) / (energy of f), for a spectrum s of f."""
    norm = l2_norm(f)
    if norm == 0.0:
        raise ValueError("parseval_ratio requires a nonzero field")
    return (l2_norm(s) / norm) ** 2


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
