"""FFT convolution and correlation against a direct quadruple-loop sum.

The reference sums scalar `Quaternion` products node by node, so it
shares neither the FFT nor the array Hamilton product with the code it
checks.  Grids cover n1 != n2, both quadrature rules (n < 6 and n >= 6)
and boxes with the origin centred, off-centre, just outside and far
outside, which reaches every case of the output windows.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qlct2d.field import (GridSpec, SampledField, convolve, qnorm_values,
                          quad_weights_1d)
from qlct2d.quaternion import Quaternion
from qlct2d.transform import correlate


def _direct(f: SampledField, g: SampledField, correlation: bool) -> np.ndarray:
    """On a grid with x_min = o*h per axis:
    convolve   out[r] = sum_s w[s] f[s] g[r - s - o]
    correlate  out[r] = sum_s w[s] f[r + s + o] conj(g[s])."""
    spec = f.spec
    n1, n2 = spec.n1, spec.n2
    o1 = round(spec.x1_min / spec.h1)
    o2 = round(spec.x2_min / spec.h2)
    w = np.outer(quad_weights_1d(n1, spec.h1), quad_weights_1d(n2, spec.h2))
    fq = [[Quaternion(*f.values[a, b]) for b in range(n2)] for a in range(n1)]
    gq = [[Quaternion(*g.values[a, b]) for b in range(n2)] for a in range(n1)]
    out = np.zeros((n1, n2, 4))
    for r1 in range(n1):
        for r2 in range(n2):
            acc = Quaternion()
            for s1 in range(n1):
                for s2 in range(n2):
                    ws = float(w[s1, s2])
                    if correlation:
                        a1, a2 = r1 + s1 + o1, r2 + s2 + o2
                        if 0 <= a1 < n1 and 0 <= a2 < n2:
                            acc = acc + fq[a1][a2] * (gq[s1][s2].conj() * ws)
                    else:
                        b1, b2 = r1 - s1 - o1, r2 - s2 - o2
                        if 0 <= b1 < n1 and 0 <= b2 < n2:
                            acc = acc + (fq[s1][s2] * ws) * gq[b1][b2]
            out[r1, r2] = acc.components()
    return out


@st.composite
def _cases(draw):
    n1 = draw(st.integers(2, 9))
    n2 = draw(st.integers(2, 9))
    h1 = draw(st.sampled_from([0.25, 0.5, 1.0]))
    h2 = draw(st.sampled_from([0.25, 0.5, 1.0]))
    o1 = draw(st.integers(-2 * n1 - 1, n1 + 1))
    o2 = draw(st.integers(-2 * n2 - 1, n2 + 1))
    spec = GridSpec(o1 * h1, (o1 + n1 - 1) * h1,
                    o2 * h2, (o2 + n2 - 1) * h2, n1, n2)
    return spec, draw(st.integers(0, 2 ** 32 - 1))


def _operands(spec: GridSpec, seed: int):
    rng = np.random.default_rng(seed)
    shape = (spec.n1, spec.n2, 4)
    return (SampledField(spec, rng.standard_normal(shape)),
            SampledField(spec, rng.standard_normal(shape)))


def _assert_matches(got: np.ndarray, want: np.ndarray):
    err = float(np.max(qnorm_values(got - want)))
    assert err <= 1e-12 * float(np.max(qnorm_values(want)))


_EDGE_CASES = [
    GridSpec(-2.0, 2.0, -1.5, 1.5, 5, 7),     # origin centred, n1 < 6 <= n2
    GridSpec(-1.0, 2.5, -0.5, 1.0, 8, 4),     # origin off-centre
    GridSpec(0.5, 2.5, 0.5, 3.0, 5, 6),       # origin just outside (x_min = h)
    GridSpec(-9.0, -6.0, 4.0, 6.0, 7, 5),     # origin far outside both axes
    # the FFT length bound max(hi, 2n - 1 - lo) is tight: n = 7 with
    # o = -3 gives L = 10 exactly on both axes; o = -2 gives a bound of
    # 11 on axis 1, where L = 10 would wrap full[12] into convolve's window
    GridSpec(-1.5, 1.5, -0.75, 0.75, 7, 7),   # origin centred, L = 10
    GridSpec(-1.0, 2.0, -0.5, 1.5, 7, 5),     # origin off-centre, bound 11
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cases())
@example((_EDGE_CASES[0], 1))
@example((_EDGE_CASES[1], 2))
@example((_EDGE_CASES[2], 3))
@example((_EDGE_CASES[3], 4))
@example((_EDGE_CASES[4], 9))
@example((_EDGE_CASES[5], 10))
def test_convolve_matches_direct_sum(case):
    f, g = _operands(*case)
    _assert_matches(convolve(f, g).values, _direct(f, g, correlation=False))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_cases())
@example((_EDGE_CASES[0], 5))
@example((_EDGE_CASES[1], 6))
@example((_EDGE_CASES[2], 7))
@example((_EDGE_CASES[3], 8))
@example((_EDGE_CASES[4], 11))
@example((_EDGE_CASES[5], 12))
def test_correlate_matches_direct_sum(case):
    f, g = _operands(*case)
    _assert_matches(correlate(f, g).values, _direct(f, g, correlation=True))
