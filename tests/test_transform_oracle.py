"""forward and inverse against a scalar reference sum.

The reference evaluates K_i(x1, u1) * f(x1, x2) * K_j(x2, u2) * w node
by node with `Quaternion.mul`, the scalar kernels `kernel_i`/`kernel_j`
and `quad_weights_1d`, so it shares neither the complex-pair split nor
the matrix layout of the sandwich it checks: it pins the factor order,
the transposes and the quadrature weights.  Grids cover n1 != n2 and
both quadrature rules (n < 6 and n >= 6); parameters have b != 0 of
either sign and differ between the axes.

`_sandwich` itself is checked against the four complex products on the
pairs (q0 + i q1, q2 + i q3) that its two stacked products replace, on
shapes where every dimension differs and on transposed kernel layouts.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qlct2d.field import GridSpec, SampledField, qnorm_values, quad_weights_1d
from qlct2d.lct import LctParams, TransformParams, kernel_i, kernel_j
from qlct2d.quaternion import Quaternion, mul
from qlct2d.transform import Spectrum, _sandwich, forward, inverse


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
        return q.conj() if conjugate else q

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


@st.composite
def _sandwich_operands(draw):
    m, n1, n2, n = draw(st.lists(st.integers(1, 9), min_size=4,
                                 max_size=4, unique=True))
    return m, n1, n2, n, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_sandwich_operands())
@example((1, 5, 3, 7, False, 0))
@example((6, 4, 2, 1, True, 1))
@example((1, 2, 3, 1, True, 2))
def test_sandwich_matches_four_products(operands):
    m, n1, n2, n, transposed, seed = operands
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    values = rng.standard_normal((n1, n2, 4))
    # a transposed kl is an F-ordered view, as kernel_matrix(...).T is
    kl = cplx(n1, m).T if transposed else cplx(m, n1)
    kr = cplx(n2, n)
    got = _sandwich(values, kl, kr)
    want = _four_product_sandwich(values, kl, kr)
    assert got.shape == (m, n, 4)
    assert float(np.max(qnorm_values(got - want))) \
        <= 1e-13 * float(np.max(qnorm_values(want)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_cases(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_forward_is_real_linear(case, a, b):
    space, freq, params, seed = case
    rng = np.random.default_rng(seed)
    f, g = (SampledField(space, rng.standard_normal((space.n1, space.n2, 4)))
            for _ in range(2))
    tf, tg = forward(f, params, freq).values, forward(g, params, freq).values
    got = forward(f.scale(a) + g.scale(b), params, freq).values
    scale = abs(a) * np.max(qnorm_values(tf)) + abs(b) * np.max(qnorm_values(tg))
    assert float(np.max(qnorm_values(got - (a * tf + b * tg)))) \
        <= 1e-12 * float(scale)
