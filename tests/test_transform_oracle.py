"""forward and inverse against a scalar reference sum.

The reference evaluates K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w node
by node with `Quaternion.mul`, the scalar kernels `kernel_i`/`kernel_j`
and `quad_weights_1d`, so it shares neither the complex-pair split nor
the matrix layout of the sandwich it checks: it pins the factor order,
the transposes and the quadrature weights.  Grids cover n1 != n2 and
both quadrature rules (n < 6 and n >= 6); parameters have b != 0 of
either sign and differ between the axes.

`_sandwich` itself is checked against the four complex products on the
pairs (q0 + i q1, q2 + i q3), on shapes where every dimension differs
and on shapes that cut its right side into bands of output rows taken
in either order, and the half transform of the identity, `_contract`
then `_unfold`, against the dense kernel; both references evaluate the
kernel formula from `_side`'s arguments, so the tests do not depend on
how a side stores its folded factors.  Fourier-mode `charfn` and
`invert_charfn` are checked against the direct e^{±iux} sums on a box
and a frequency grid that are not centred on 0.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlct2d.field import GridSpec, SampledField, qnorm_values, quad_weights_1d
from qlct2d.lct import LctParams, TransformParams, kernel_i, kernel_j
from qlct2d.prob import CharFn, charfn, invert_charfn
from qlct2d.quaternion import Quaternion, conj, mul
from qlct2d.transform import (Spectrum, _contract, _sandwich, _side, _sizes,
                              _unfold, forward, inverse)


def _sandwich_sum(values: np.ndarray, src: GridSpec, dst: GridSpec,
                  params: TransformParams, conjugate: bool) -> np.ndarray:
    """out[a, b] = sum_rc K_i(x_r, u_a) v[r, c] K_j(y_c, u_b) w_r w_c with
    src the summed grid; conjugate=True sums the unit-conjugated kernels
    of the inverse, whose kernel arguments run (dst node, src node)."""
    s1, s2 = src.x1_nodes(), src.x2_nodes()
    d1, d2 = dst.x1_nodes(), dst.x2_nodes()
    w1 = quad_weights_1d(src.n1, src.h1)
    w2 = quad_weights_1d(src.n2, src.h2)

    def k(kernel, p, s, d):
        q = kernel(p, d, s) if conjugate else kernel(p, s, d)
        return conj(q) if conjugate else q

    ki = [[k(kernel_i, params.A1, s, d) for d in d1] for s in s1]
    kj = [[k(kernel_j, params.A2, s, d) for d in d2] for s in s2]
    vq = [[Quaternion(*values[r, c]) for c in range(src.n2)]
          for r in range(src.n1)]
    out = np.zeros((dst.n1, dst.n2, 4))
    for a in range(dst.n1):
        for b in range(dst.n2):
            acc = Quaternion()
            for r in range(src.n1):
                for c in range(src.n2):
                    term = mul(mul(ki[r][a], vq[r][c]), kj[c][b])
                    acc = acc + term * float(w1[r] * w2[c])
            out[a, b] = acc.components()
    return out


def _spec(draw) -> GridSpec:
    n1 = draw(st.integers(2, 8))
    n2 = draw(st.integers(2, 8))
    x1 = draw(st.floats(-3.0, 1.0))
    x2 = draw(st.floats(-3.0, 1.0))
    return GridSpec(x1, x1 + draw(st.floats(0.5, 4.0)),
                    x2, x2 + draw(st.floats(0.5, 4.0)), n1, n2)


def _axis(draw) -> LctParams:
    b = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    a = draw(st.floats(-2.0, 2.0))
    d = draw(st.floats(-2.0, 2.0))
    return LctParams(a, b, (a * d - 1.0) / b, d)


@st.composite
def _cases(draw):
    params = TransformParams(_axis(draw), _axis(draw))
    return _spec(draw), _spec(draw), params, draw(st.integers(0, 2 ** 32 - 1))


def _assert_matches(got: np.ndarray, want: np.ndarray):
    err = float(np.max(qnorm_values(got - want)))
    assert err <= 1e-12 * float(np.max(qnorm_values(want)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases())
def test_forward_matches_scalar_sum(case):
    space, freq, params, seed = case
    v = np.random.default_rng(seed).standard_normal((space.n1, space.n2, 4))
    got = forward(SampledField(space, v), params, freq).values
    _assert_matches(got, _sandwich_sum(v, space, freq, params, False))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases())
def test_inverse_matches_scalar_sum(case):
    space, freq, params, seed = case
    v = np.random.default_rng(seed).standard_normal((freq.n1, freq.n2, 4))
    got = inverse(Spectrum(freq, v, params), space).values
    _assert_matches(got, _sandwich_sum(v, freq, space, params, True))


def _four_product_sandwich(values: np.ndarray, kl: np.ndarray,
                           kr: np.ndarray) -> np.ndarray:
    """One complex product per pair and side: kl on c1 = q0 + i q1 and
    c2 = q2 + i q3, then kr on g1.re + i g2.re and g1.im + i g2.im."""
    c1 = values[..., 0] + 1j * values[..., 1]
    c2 = values[..., 2] + 1j * values[..., 3]
    g1 = kl @ c1
    g2 = kl @ c2
    d1 = (g1.real + 1j * g2.real) @ kr
    d2 = (g1.imag + 1j * g2.imag) @ kr
    return np.stack([d1.real, d2.real, d1.imag, d2.imag], axis=-1)


def _nodes(axis) -> np.ndarray:
    mid, h, count = axis
    return mid + h * (np.arange(count) - 0.5 * (count - 1))


def _kernel(args) -> np.ndarray:
    """The (m, n) kernel amp e^{σ i (α p² - p q / b + γ q² + φ)} w(p) of
    `_side(*args)` from input node p onto output node q, from the
    formula, not from the factors."""
    sigma, src, dst, alpha, b, gamma, phi, amp = args
    p, q = _nodes(src), _nodes(dst)
    phase = (alpha * p[None, :] ** 2 - np.outer(q, p) / b
             + gamma * q[:, None] ** 2 + phi)
    return amp * np.exp(sigma * 1j * phase) * quad_weights_1d(len(p), src[1])


@st.composite
def _side_args(draw, n_in: int, n_out: int):
    """`_side`'s arguments: random kernel coefficients between random
    grids; in about half the draws α = 0 onto a centred grid, so that
    pre is real and even and goes into cos and sin."""
    def axis(count, mid):
        return (mid, draw(st.floats(0.1, 0.6)), count)

    even = draw(st.booleans())
    coefs = [draw(st.floats(-2.0, 2.0)) for _ in range(5)]
    b = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return (draw(st.sampled_from([-1, 1])), axis(n_in, coefs[0]),
            axis(n_out, 0.0 if even else coefs[1]),
            0.0 if even else coefs[2], b, coefs[3], coefs[4],
            1.0 + abs(coefs[0]))


@st.composite
def _sandwich_operands(draw):
    m, n1, n2, n = draw(st.lists(st.integers(1, 9), min_size=4,
                                 max_size=4, unique=True))
    return (draw(_side_args(n1, m)), draw(_side_args(n2, n)),
            draw(st.integers(0, 2 ** 32 - 1)))


def _fourier(sigma: int, src: tuple, dst: tuple) -> tuple:
    """`_side`'s arguments for its default, the Fourier kernel."""
    return (sigma, src, dst, 0.0, -1.0, 0.0, 0.0, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sandwich_operands())
# (m, n1, n2, n) = (1, 5, 3, 7), (6, 4, 2, 1) and (1, 2, 3, 1): a single
# output node, two input rows; on each, one side with a complex pre and
# one Fourier side onto a centred grid, with a real, even pre
@example(((1, (0.3, 0.2, 5), (-0.4, 0.5, 1), 0.4, 0.7, -0.3, 0.2, 1.5),
          _fourier(-1, (0.0, 0.3, 3), (0.0, 0.4, 7)), 0))
@example((_fourier(-1, (0.1, 0.3, 4), (0.0, 0.2, 6)),
          (1, (-0.5, 0.4, 2), (0.7, 0.3, 1), -0.6, -1.2, 0.8, -0.1, 0.9),
          1))
@example(((1, (0.2, 0.5, 2), (-0.3, 0.1, 1), 0.5, 1.1, 0.2, 0.3, 1.0),
          _fourier(1, (0.0, 0.2, 3), (0.0, 0.6, 1)), 2))
def test_sandwich_matches_four_products(operands):
    left, right, seed = operands
    (n1, m), (n2, n) = ((a[1][2], a[2][2]) for a in (left, right))
    values = np.random.default_rng(seed).standard_normal((n1, n2, 4))
    got = _sandwich(values, (m, n), partial(_side, *left),
                    partial(_side, *right))
    want = _four_product_sandwich(values, _kernel(left), _kernel(right).T)
    assert got.shape == (m, n, 4)
    assert float(np.max(qnorm_values(got - want))) \
        <= 1e-13 * float(np.max(qnorm_values(want)))


# (n1, n2, m, n) for the right side's bands of output rows, which run
# upwards from the buffer's start over the left result g at its end,
# each writing over rows of g already read; the test checks each case's
# band layout
_BAND_CASES = {
    "n>n2-2-bands-partial": ((5, 6, 9, 24), lambda m, n2, n, rows:
                             n > n2 and len(rows) == 2 and m % rows[0]),
    "n>n2-3-bands-partial": ((9, 12, 10, 20), lambda m, n2, n, rows:
                             n > n2 and len(rows) == 3 and m % rows[0]),
    "n<n2-m>n1-3-bands": ((7, 20, 15, 6), lambda m, n2, n, rows:
                          n < n2 and len(rows) == 3 and not m % rows[0]),
    "n<n2-m>n1-4-bands-partial": ((7, 20, 16, 6), lambda m, n2, n, rows:
                                  n < n2 and len(rows) == 4
                                  and m % rows[0]),
    "m=1": ((8, 10, 1, 7), lambda m, n2, n, rows: rows == [1]),
    "n>n2-5-bands-of-many-rows": ((33, 40, 300, 500),
                                  lambda m, n2, n, rows:
                                  n > n2 and len(rows) == 5
                                  and m % rows[0] and rows[0] > 32),
}


@pytest.mark.parametrize("case", list(_BAND_CASES))
def test_banded_sandwich_matches_four_products(case):
    (n1, n2, m, n), layout = _BAND_CASES[case]
    # nodes spanning about 2 keep the phases, and so the roundoff of the
    # formula kernels, as small as in the drawn cases above
    left = (1, (0.3, 2.0 / n1, n1), (-0.4, 2.0 / m, m), 0.4, 0.7, -0.3, 0.2,
            1.5)
    right = (-1, (0.1, 2.0 / n2, n2), (0.2, 2.0 / n, n), -0.6, -1.2, 0.8,
             -0.1, 0.9)
    rows = _sizes(n1, n2, m, n)[2]
    heights = [min(rows, m - a) for a in range(0, m, rows)]
    values = np.random.default_rng(n1).standard_normal((n1, n2, 4))
    got = _sandwich(values, (m, n), partial(_side, *left),
                    partial(_side, *right))
    want = _four_product_sandwich(values, _kernel(left), _kernel(right).T)
    assert layout(m, n2, n, heights)
    assert got.shape == (m, n, 4) and got.base.nbytes == got.nbytes
    assert float(np.max(qnorm_values(got - want))) \
        <= 1e-13 * float(np.max(qnorm_values(want)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_side_factors_its_kernel(n_in, n_out, data):
    # the half transform of the identity is the side's dense kernel
    args = data.draw(_side_args(n_in, n_out))
    side = _side(*args)
    got = np.empty((n_out, n_in), dtype=complex)
    _contract(np.eye(n_in, dtype=complex), side, got)
    _unfold(side, got)
    want = _kernel(args)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n1, n2, m, n, box, fbox", [
    # a box and a frequency grid that are not centred on 0
    (9, 8, 5, 6, (0.0, 1.0, 0.0, 1.0), (-1.0, 7.0, 0.5, 4.5)),
    (8, 9, 6, 5, (0.0, 1.0, 0.0, 1.0), (-1.0, 7.0, 0.5, 4.5)),
    # centred grids: a real, even pre, carried in cos and sin
    (9, 8, 5, 6, (-1.0, 1.0, -1.0, 1.0), (-6.0, 6.0, -3.0, 3.0)),
])
def test_fourier_charfn_and_inversion_match_direct_sums(n1, n2, m, n, box,
                                                        fbox):
    space = GridSpec(*box, n1, n2)
    freq = GridSpec(*fbox, m, n)
    rng = np.random.default_rng(n1)
    x1, x2 = space.x1_nodes(), space.x2_nodes()
    u, v = freq.x1_nodes(), freq.x2_nodes()

    def weights(spec):
        return (quad_weights_1d(spec.n1, spec.h1),
                quad_weights_1d(spec.n2, spec.h2))

    f = rng.standard_normal((n1, n2, 4))
    w1, w2 = weights(space)
    want = _four_product_sandwich(f, np.exp(1j * np.outer(u, x1)) * w1,
                                  np.exp(1j * np.outer(x2, v)) * w2[:, None])
    got = charfn(SampledField(space, f), freq).spectrum.values
    assert np.max(qnorm_values(got - want)) <= 1e-13 * np.max(qnorm_values(want))

    phi = rng.standard_normal((m, n, 4))
    wu, wv = weights(freq)
    want = _four_product_sandwich(phi, np.exp(-1j * np.outer(x1, u)) * wu,
                                  np.exp(-1j * np.outer(v, x2)) * wv[:, None])
    want /= (2.0 * math.pi) ** 2
    got = invert_charfn(CharFn(Spectrum(freq, phi)), space).values
    assert np.max(qnorm_values(got - want)) <= 1e-13 * np.max(qnorm_values(want))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_forward_is_real_linear(case, a, b):
    space, freq, params, seed = case
    rng = np.random.default_rng(seed)
    f, g = (SampledField(space, rng.standard_normal((space.n1, space.n2, 4)))
            for _ in range(2))
    tf, tg = forward(f, params, freq).values, forward(g, params, freq).values
    got = forward(SampledField(space, a * f.values + b * g.values), params,
                  freq).values
    scale = abs(a) * np.max(qnorm_values(tf)) + abs(b) * np.max(qnorm_values(tg))
    assert float(np.max(qnorm_values(got - (a * tf + b * tg)))) \
        <= 1e-12 * float(scale)
