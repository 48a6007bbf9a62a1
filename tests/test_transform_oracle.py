"""forward and inverse against a scalar reference sum.

The reference evaluates K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w node
by node with `Quaternion.mul`, the scalar kernels `kernel_i`/`kernel_j`
and `quad_weights_1d`, so it shares neither the complex-pair split nor
the matrix layout of the sandwich it checks: it pins the factor order,
the transposes and the quadrature weights.  Grids cover n1 != n2 and
both quadrature rules (n < 6 and n >= 6); parameters have b != 0 of
either sign and differ between the axes.

`_sandwich` itself is checked against the four complex products on the
pairs (q0 + i q1, q2 + i q3), with the dense kernels assembled from the
same factored sides, on shapes where every dimension differs.  Each
side's factors are checked against the kernel formula they factor, and
fourier-mode `charfn` and `invert_charfn` against the direct e^{±iux}
sums on a box and a frequency grid that are not centred on 0.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qlct2d.field import GridSpec, SampledField, qnorm_values, quad_weights_1d
from qlct2d.lct import LctParams, TransformParams, kernel_i, kernel_j
from qlct2d.prob import CharFn, charfn, invert_charfn
from qlct2d.quaternion import Quaternion, conj, mul
from qlct2d.transform import Spectrum, _sandwich, _side, forward, inverse


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


def _dense(side) -> np.ndarray:
    """The (m, n) kernel post(t) e^{σ u β s t} pre(s) of a factored side,
    its core unfolded from the s >= 0, t >= 0 quarter by the parity of
    cos and sin."""
    def mirror(count):
        k = 2 * np.arange(count) - (count - 1)  # 2 s / spacing
        return np.abs(k) // 2, np.sign(k)

    (ip, sp), (iq, sq) = mirror(len(side.pre)), mirror(len(side.post))
    core = (side.cos[np.ix_(ip, iq)]
            + side.sigma * 1j * np.outer(sp, sq) * side.sin[np.ix_(ip, iq)])
    return (side.pre[:, None] * core * side.post[None, :]).T


@st.composite
def _factored_side(draw, n_in: int, n_out: int):
    """A side with random kernel coefficients between random grids; in
    about half the draws α = 0 onto a centred grid, so that pre is real
    and even and goes into cos and sin."""
    def axis(count, mid):
        return (mid, draw(st.floats(0.1, 0.6)), count)

    even = draw(st.booleans())
    coefs = [draw(st.floats(-2.0, 2.0)) for _ in range(5)]
    b = draw(st.floats(0.3, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    args = (draw(st.sampled_from([-1, 1])), axis(n_in, coefs[0]),
            axis(n_out, 0.0 if even else coefs[1]),
            0.0 if even else coefs[2], b, coefs[3], coefs[4],
            1.0 + abs(coefs[0]))
    return args, _side(*args)


@st.composite
def _sandwich_operands(draw):
    m, n1, n2, n = draw(st.lists(st.integers(1, 9), min_size=4,
                                 max_size=4, unique=True))
    left = draw(_factored_side(n1, m))[1]
    right = draw(_factored_side(n2, n))[1]
    return left, right, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sandwich_operands())
# (m, n1, n2, n) = (1, 5, 3, 7), (6, 4, 2, 1) and (1, 2, 3, 1): a single
# output node, two input rows; on each, one side with a complex pre and
# one Fourier side onto a centred grid, with a real, even pre
@example((_side(1, (0.3, 0.2, 5), (-0.4, 0.5, 1), 0.4, 0.7, -0.3, 0.2, 1.5),
          _side(-1, (0.0, 0.3, 3), (0.0, 0.4, 7)), 0))
@example((_side(-1, (0.1, 0.3, 4), (0.0, 0.2, 6)),
          _side(1, (-0.5, 0.4, 2), (0.7, 0.3, 1), -0.6, -1.2, 0.8, -0.1, 0.9),
          1))
@example((_side(1, (0.2, 0.5, 2), (-0.3, 0.1, 1), 0.5, 1.1, 0.2, 0.3, 1.0),
          _side(1, (0.0, 0.2, 3), (0.0, 0.6, 1)), 2))
def test_sandwich_matches_four_products(operands):
    left, right, seed = operands
    n1, n2 = len(left.pre), len(right.pre)
    values = np.random.default_rng(seed).standard_normal((n1, n2, 4))
    kl, kr = _dense(left), _dense(right).T
    got = _sandwich(values, left, right)
    want = _four_product_sandwich(values, kl, kr)
    assert got.shape == (len(left.post), len(right.post), 4)
    assert float(np.max(qnorm_values(got - want))) \
        <= 1e-13 * float(np.max(qnorm_values(want)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_side_factors_its_kernel(n_in, n_out, data):
    # amp e^{σ u (α p² + β p q + γ q² + φ)} w(p) with β = -1/b, on the
    # nodes p = μp + s, q = μq + t
    args, side = data.draw(_factored_side(n_in, n_out))
    sigma, (mp, hp, _), (mq, hq, _), alpha, b, gamma, phi, amp = args
    p = mp + hp * (np.arange(n_in) - 0.5 * (n_in - 1))
    q = mq + hq * (np.arange(n_out) - 0.5 * (n_out - 1))
    phase = (alpha * p[None, :] ** 2 - np.outer(q, p) / b
             + gamma * q[:, None] ** 2 + phi)
    want = amp * np.exp(sigma * 1j * phase) * quad_weights_1d(n_in, hp)
    got = _dense(side)
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
