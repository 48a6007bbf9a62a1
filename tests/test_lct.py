"""Kernel parameterization: values, modulus, inversion, validation."""

import math

import numpy as np
import pytest

from qlct2d.field import GridSpec
from qlct2d.lct import (LctParams, TransformParams, fourier_params,
                        kernel_i, kernel_j, kernel_matrix)
from qlct2d.quaternion import Quaternion, exp_i, isclose, mul, norm


def test_det_validation():
    with pytest.raises(ValueError, match="det"):
        LctParams(1.0, 0.5, 0.0, 0.9)
    with pytest.raises(ValueError, match="det"):
        LctParams(2.0, 1.0, 0.0, 1.0)
    # determinant within tolerance is accepted
    LctParams(1.0, 0.5, 0.0, 1.0 + 1e-12)


def test_b_zero_requires_nonzero_d():
    with pytest.raises(ValueError):
        LctParams(1.0, 0.0, 5.0, 0.0)


def test_params_dict_roundtrip():
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    assert LctParams.from_dict(p.to_dict()) == p
    t = TransformParams(p, fourier_params().A2)
    assert TransformParams.from_dict(t.to_dict()) == t


def test_transform_params_from_one_matrix():
    # a single matrix, as a --params file may hold, applies to both axes
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    assert TransformParams.from_dict(p.to_dict()) == TransformParams(p, p)


def test_transform_params_from_dict_names_the_bad_matrix():
    good = fourier_params().A1.to_dict()
    bad = {"a": 1.0, "b": 0.5, "c": 0.0, "d": 0.9}
    with pytest.raises(ValueError, match=r"^A2: det\(A2\) != 1"):
        TransformParams.from_dict({"A1": good, "A2": bad})
    with pytest.raises(KeyError, match="missing matrix A2"):
        TransformParams.from_dict({"A1": good})
    with pytest.raises(TypeError, match="expected a JSON object"):
        TransformParams.from_dict([good, good])


def test_params_from_dict_refuses_booleans():
    # (1, 1, 0, 1) is unimodular, so booleans would pass every invariant
    with pytest.raises(TypeError, match="a boolean"):
        LctParams.from_dict({"a": True, "b": True, "c": False, "d": True})
    assert LctParams.from_dict({"a": np.int64(1), "b": "1", "c": 0.0,
                                "d": 1}) == LctParams(1.0, 1.0, 0.0, 1.0)


def test_fourier_kernel_value_at_origin():
    p = fourier_params().A1
    amp = 1.0 / math.sqrt(2.0 * math.pi)
    expected = amp * exp_i(-math.pi / 4.0)
    assert isclose(kernel_i(p, 0.0, 0.0), expected)
    # generic point: phase is -x*u - pi/4
    k = kernel_i(p, 0.3, 0.7)
    assert isclose(k, amp * exp_i(-0.3 * 0.7 - math.pi / 4.0))


def test_kernel_j_mirrors_kernel_i():
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    ki = kernel_i(p, 0.4, -1.1)
    kj = kernel_j(p, 0.4, -1.1)
    assert kj.q0 == pytest.approx(ki.q0)
    assert kj.q2 == pytest.approx(ki.q1)
    assert kj.q1 == 0.0 and kj.q3 == 0.0


def test_kernel_modulus_is_constant():
    rng = np.random.default_rng(17)
    for p in (fourier_params().A1, LctParams(1.0, 0.5, 0.0, 1.0),
              LctParams(0.6, -2.0, 0.7, -0.666666666666666666)):
        amp = 1.0 / math.sqrt(2.0 * math.pi * abs(p.b))
        for x, u in rng.uniform(-5.0, 5.0, size=(20, 2)):
            assert norm(kernel_i(p, x, u)) == pytest.approx(amp)


@pytest.mark.parametrize("a, c, d", [
    (2.0, 3.0, 0.5), (1.0, 0.5, 1.0), (1.0, 0.0, 1.0)])
def test_b_zero_matrix_is_rejected(a, c, d):
    # b = 0 has no integral kernel, even with d > 0; the matrix is
    # rejected when it is built, before any kernel is evaluated
    with pytest.raises(ValueError, match="b = 0"):
        LctParams(a, 0.0, c, d)


def test_b_zero_kernel_needs_positive_d():
    # a b = 0 matrix with d <= 0 is rejected at construction as well,
    # by the same b = 0 check
    with pytest.raises(ValueError, match="b = 0"):
        LctParams(-2.0, 0.0, 3.0, -0.5)


def test_forward_plus_inverse_phase_is_minus_half_pi():
    # kernel(p, x, u) * kernel(p^-1, u, x), with the inverse matrix
    # p^-1 = (d, -b, -c, a), has constant phase -pi/2 and modulus amp^2
    # for every (x, u) with b != 0
    rng = np.random.default_rng(23)
    for p in (fourier_params().A1, LctParams(1.0, 0.5, 0.0, 1.0)):
        inv = LctParams(p.d, -p.b, -p.c, p.a)
        amp2 = 1.0 / (2.0 * math.pi * abs(p.b))
        target = amp2 * exp_i(-math.pi / 2.0)
        for x, u in rng.uniform(-3.0, 3.0, size=(20, 2)):
            prod = mul(kernel_i(p, x, u), kernel_i(inv, u, x))
            assert isclose(prod, target, rel_tol=1e-10, abs_tol=1e-12)


def test_kernel_matrix_matches_scalar_kernel():
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    x = np.array([-1.0, 0.0, 0.25])
    u = np.array([0.5, 2.0])
    m = kernel_matrix(p, x, u)
    for r in range(3):
        for c in range(2):
            k = kernel_i(p, x[r], u[c])
            assert m[r, c].real == pytest.approx(k.q0)
            assert m[r, c].imag == pytest.approx(k.q1)


def test_kernel_matrix_with_no_nodes():
    p = LctParams(1.0, 0.5, 0.0, 1.0)
    nodes = np.linspace(-1.0, 1.0, 5)
    for x, u in ((nodes, np.zeros(0)), (np.zeros(0), nodes)):
        k = kernel_matrix(p, x, u)
        assert k.shape == (len(x), len(u)) and k.dtype == complex


def test_fourier_params_entries():
    t = fourier_params()
    for p in (t.A1, t.A2):
        assert (p.a, p.b, p.c, p.d) == (0.0, 1.0, -1.0, 0.0)



_KERNEL_CASES = {
    "fourier": fourier_params().A1,
    "rotation": LctParams(math.cos(0.6), math.sin(0.6),
                          -math.sin(0.6), math.cos(0.6)),
    "shear": LctParams(1.0, 0.5, 0.0, 1.0),
}


def _dense_kernel(p, x, u):
    """The kernel formula with one exponential per entry."""
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(p.b))
    phase = ((p.a / (2.0 * p.b)) * x[:, None] ** 2 - np.outer(x, u) / p.b
             + (p.d / (2.0 * p.b)) * u[None, :] ** 2 - math.pi / 4.0)
    return amp * np.exp(1j * phase)


def _longdouble_kernel(p, x, u):
    """(real, imag) of the kernel with phase and amplitude in
    np.longdouble, at the float64 nodes x and u."""
    ld = np.longdouble
    xl, ul, b = x.astype(ld), u.astype(ld), ld(p.b)
    pi = np.arccos(ld(-1.0))
    phase = (ld(p.a) / (2 * b) * xl[:, None] ** 2 - np.outer(xl, ul) / b
             + ld(p.d) / (2 * b) * ul[None, :] ** 2 - pi / 4)
    amp = 1 / np.sqrt(2 * pi * abs(b))
    return amp * np.cos(phase), amp * np.sin(phase)


@pytest.mark.parametrize("n", [2, 5, 257, 513])
@pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
def test_kernel_matrix_matches_longdouble_phase(name, n):
    # 257 is prime, so its last column block is a one-column remainder
    p = _KERNEL_CASES[name]
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(p.b))
    x = GridSpec(-8.0, 8.0, -8.0, 8.0, n, n).x1_nodes()
    u = GridSpec(-12.0, 12.0, -12.0, 12.0, n, n).x1_nodes()
    k = kernel_matrix(p, x, u)
    re, im = _longdouble_kernel(p, x, u)
    assert np.max(np.hypot(k.real - re, k.imag - im)) <= 1e-13 * amp
    assert k.shape == (n, n) and k.flags.c_contiguous


@pytest.mark.parametrize("name", sorted(_KERNEL_CASES))
def test_kernel_matrix_on_non_uniform_nodes(name):
    p = _KERNEL_CASES[name]
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(p.b))
    rng = np.random.default_rng(29)
    x = np.sort(rng.uniform(-3.0, 3.0, 40))
    u = np.sort(rng.uniform(-3.0, 3.0, 50))
    k = kernel_matrix(p, x, u)
    assert np.max(np.abs(k - _dense_kernel(p, x, u))) <= 1e-14 * amp
    assert k.shape == (40, 50) and k.flags.c_contiguous

