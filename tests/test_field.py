"""Grids, sampling, quadrature, and discrete quaternion convolution."""

import json
import math

import numpy as np
import pytest

from qlct2d.field import (GridSpec, SampledField, convolve, inner_product,
                          integrate, l2_norm, qmul_values, quad_weights_1d,
                          sample)
from qlct2d.quaternion import Quaternion, isclose


def _numerator(x1, x2):
    return Quaternion(2.0 * x1 + x2, x1 ** 2 - x2 ** 2, x1 * x2,
                      3.0 * x1 - x2)


def _const_field(spec, q):
    v = np.zeros((spec.n1, spec.n2, 4))
    v[...] = q.components()
    return SampledField(spec, v)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0, 0.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 2.0, 1.0, 5, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1, 5)
    # a fractional or non-finite count would place nodes outside the box
    with pytest.raises(ValueError, match="integers"):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 9.5, 9)
    with pytest.raises(ValueError, match="integers"):
        GridSpec(-1.0, 1.0, -1.0, 1.0, 9, math.inf)
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9.0, np.int64(9))
    assert spec.x1_nodes()[-1] == 1.0 and spec.x2_nodes().size == 9


def test_gridspec_stores_numpy_bounds_as_python_numbers():
    spec = GridSpec(np.float32(-1.0), np.float64(1.0), -1, 1.0, 9, 9)
    assert [type(v) for v in (spec.x1_min, spec.x1_max,
                              spec.x2_min, spec.x2_max)] == [float, float,
                                                             int, float]
    # the header json keeps a Python int's bytes
    assert json.dumps(spec.to_dict()) == (
        '{"x1_min": -1.0, "x1_max": 1.0, "x2_min": -1, "x2_max": 1.0, '
        '"n1": 9, "n2": 9}')


def test_gridspec_rejects_nonfinite_bounds():
    with pytest.raises(ValueError, match="finite"):
        GridSpec(-math.inf, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(0.0, 1.0, 0.0, math.inf, 3, 3)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(0.0, 1.0, math.nan, 1.0, 3, 3)


def test_gridspec_geometry():
    spec = GridSpec(-1.0, 1.0, 0.0, 3.0, 5, 7)
    assert spec.h1 == pytest.approx(0.5)
    assert spec.h2 == pytest.approx(0.5)
    assert np.allclose(spec.x1_nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert spec.x2_nodes()[0] == 0.0 and spec.x2_nodes()[-1] == 3.0
    assert GridSpec.from_dict(spec.to_dict()) == spec


def test_quad_weights_sum_to_length():
    for n in (2, 4, 6, 17, 100):
        w = quad_weights_1d(n, 0.25)
        assert np.sum(w) == pytest.approx(0.25 * (n - 1))


def test_quad_weights_exact_for_cubics():
    n, h = 21, 1.0 / 20
    x = h * np.arange(n)
    w = quad_weights_1d(n, h)
    for p, exact in ((0, 1.0), (1, 0.5), (2, 1.0 / 3.0), (3, 0.25)):
        assert float(w @ x ** p) == pytest.approx(exact, abs=1e-14)


def test_sample_values_and_at():
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 5, 5)
    f = sample(_numerator, spec)
    assert f.values[2, 2].tolist() == [3.0, 0.0, 1.0, 2.0]
    g = sample(lambda a, b: a + b, spec)
    assert g.values[4, 0].tolist() == [2.0, 0.0, 0.0, 0.0]


def test_sample_rejects_nonfinite():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        sample(lambda a, b: math.inf, spec)


def test_field_shape_validation():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        SampledField(spec, np.zeros((4, 4, 3)))
    bad = np.zeros((4, 4, 4))
    bad[1, 2, 0] = math.nan
    with pytest.raises(ValueError):
        SampledField(spec, bad)


def test_integrate_constant_and_product():
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 33, 33)
    assert isclose(integrate(_const_field(spec, Quaternion(1.0))),
                   Quaternion(4.0))
    box = GridSpec(0.0, 1.0, 0.0, 1.0, 33, 33)
    f = sample(lambda a, b: a * b, box)
    assert integrate(f).q0 == pytest.approx(0.25, abs=1e-12)


def test_integrate_polynomial_field():
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 257, 257)
    total = integrate(sample(_numerator, spec))
    assert isclose(total, Quaternion(12.0, 0.0, 4.0, 8.0),
                   rel_tol=0.0, abs_tol=1e-6)


def test_quadrature_convergence_order():
    # endpoint-corrected trapezoid should gain well over a factor 3.5
    # per halving of h on a smooth integrand
    exact = (math.e - 1.0) ** 2
    errs = []
    for n in (41, 81):
        f = sample(lambda a, b: math.exp(a + b),
                   GridSpec(0.0, 1.0, 0.0, 1.0, n, n))
        errs.append(abs(integrate(f).q0 - exact))
    assert errs[0] / errs[1] >= 3.5


def test_l2_and_inner_product():
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, 21, 21)
    fi = _const_field(spec, Quaternion(0.0, 1.0, 0.0, 0.0))
    fj = _const_field(spec, Quaternion(0.0, 0.0, 1.0, 0.0))
    assert l2_norm(fi) == pytest.approx(1.0, abs=1e-12)
    # <i, i> = i * (-i) = 1
    assert isclose(inner_product(fi, fi), Quaternion(1.0))
    # <i, j> = i * (-j) = -k
    assert isclose(inner_product(fi, fj), Quaternion(0.0, 0.0, 0.0, -1.0))


def test_left_constant_linearity_of_integrate():
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 33, 33)
    f = sample(_numerator, spec)
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    qv = _const_field(spec, q).values
    qf = SampledField(spec, qmul_values(qv, f.values))
    fq = SampledField(spec, qmul_values(f.values, qv))
    assert isclose(integrate(qf), q * integrate(f),
                   rel_tol=1e-10, abs_tol=1e-10)
    assert isclose(integrate(fq), integrate(f) * q,
                   rel_tol=1e-10, abs_tol=1e-10)


def test_field_arithmetic_requires_same_grid():
    a = _const_field(GridSpec(0.0, 1.0, 0.0, 1.0, 5, 5), Quaternion(1.0))
    b = _const_field(GridSpec(0.0, 2.0, 0.0, 2.0, 5, 5), Quaternion(1.0))
    with pytest.raises(ValueError, match="different grids"):
        inner_product(a, b)
    with pytest.raises(ValueError, match="different grids"):
        convolve(a, b)


def test_convolve_with_delta_is_identity():
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 41)
    x1 = spec.x1_nodes()[:, None]
    x2 = spec.x2_nodes()[None, :]
    v = np.empty((41, 41, 4))
    v[..., 0] = np.exp(-x1 ** 2 - x2 ** 2)
    v[..., 1] = x1 * np.exp(-x1 ** 2 - x2 ** 2)
    v[..., 2] = 0.3
    v[..., 3] = np.sin(x1 + x2)
    g = SampledField(spec, v)
    # unit mass on the origin node (20, 20)
    d = np.zeros((41, 41, 4))
    d[20, 20, 0] = 1.0 / (spec.h1 * spec.h2)
    out = convolve(SampledField(spec, d), g)
    assert np.max(np.abs(out.values - g.values)) <= 1e-12


def test_convolve_indicator_pair():
    # two unit-square indicators: the convolution at (1,1) is the full
    # overlap area 1
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 129, 129)
    ind = sample(lambda a, b: 1.0 if (a <= 1.0 and b <= 1.0) else 0.0, spec)
    out = convolve(ind, ind)
    r = 64  # node at (1, 1)
    assert out.values[r, r, 0] == pytest.approx(1.0, abs=2e-2)
    assert abs(out.values[r, r, 3]) <= 1e-12


def test_convolve_preserves_factor_order():
    # i * j = k: the i-field convolved with the j-field lands in +k
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21)
    fi = _const_field(spec, Quaternion(0.0, 1.0, 0.0, 0.0))
    fj = _const_field(spec, Quaternion(0.0, 0.0, 1.0, 0.0))
    out = convolve(fi, fj)
    center = out.values[10, 10]
    assert center[3] > 1.0
    assert np.sum(np.abs(center[:3])) <= 1e-12
    # reversed operands land in -k
    rev = convolve(fj, fi)
    assert rev.values[10, 10, 3] == pytest.approx(-center[3], abs=1e-12)


def test_convolve_requires_origin_aligned_grid():
    spec = GridSpec(0.05, 1.05, 0.0, 1.0, 11, 11)
    f = _const_field(spec, Quaternion(1.0))
    with pytest.raises(ValueError):
        convolve(f, f)

