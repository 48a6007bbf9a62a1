"""Probability layer: density validation, characteristic functions,
moments, covariance."""

import numpy as np
import pytest

from qlct2d.field import (GridSpec, SampledField, inner_product, integrate,
                          l2_norm, qconj_values, qmul_values, quad_weights_1d)
from qlct2d.lct import LctParams, TransformParams, fourier_params
from qlct2d.prob import (CharFn, charfn, charfn_properties, covariance,
                         expectation, fd_moment, invert_charfn, validate_qpdf)
from qlct2d.quaternion import Quaternion, isclose, mul
from qlct2d.transform import forward, inverse as lct_inverse
from qlct2d.verify import (anticorrelated_pdf, correlated_pdf,
                           example1_numerator, example2_density, gaussian_pdf,
                           uniform_pdf)


def test_validate_relaxed_accepts_real_pdf():
    rep = validate_qpdf(gaussian_pdf(129))
    assert rep.relaxed_ok
    assert rep.total_integral.q0 == pytest.approx(1.0, abs=1e-6)
    # the strict verdict fails: the three zero components have no mass
    assert not rep.strict_ok
    assert len(rep.violations) == 3
    assert all("integrates to" in s for s in rep.violations)


def test_validate_strict_requires_unit_mass_components():
    # uniform value 1/4 on [0,2]^2: scalar mass 1, the rest 0
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 33, 33)
    v = np.zeros((33, 33, 4))
    v[..., 0] = 0.25
    rep = validate_qpdf(SampledField(spec, v))
    assert rep.relaxed_ok and not rep.strict_ok
    assert any("integrates to" in s for s in rep.violations)
    # with all four components unit-mass it passes strict
    v4 = np.full((33, 33, 4), 0.25)
    rep4 = validate_qpdf(SampledField(spec, v4))
    assert rep4.strict_ok and rep4.relaxed_ok
    assert rep4.violations == ()


def test_validate_reports_negativity():
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 33, 33)
    x1 = spec.x1_nodes()[:, None]
    x2 = spec.x2_nodes()[None, :]
    v = np.zeros((33, 33, 4))
    v[..., 0] = 1.0
    v[..., 1] = np.broadcast_to(x1 ** 2 - x2 ** 2, (33, 33))
    rep = validate_qpdf(SampledField(spec, v))
    assert not rep.relaxed_ok and not rep.strict_ok
    # every strict violation is listed, negativity first
    assert "component b is negative" in rep.violations[0]
    assert all("integrates to" in s for s in rep.violations[1:])
    d = rep.to_dict()
    assert d["relaxed_ok"] is False and d["strict_ok"] is False
    assert d["violations"] == list(rep.violations)


def test_validate_rejects_unknown_mode():
    # validate_qpdf takes no mode: both verdicts are in every report
    with pytest.raises(TypeError):
        validate_qpdf(uniform_pdf(65), "lenient")
    rep = validate_qpdf(uniform_pdf(65))
    assert rep.strict_ok is False and rep.relaxed_ok is True


def test_expectation_named_and_tuple_weights():
    u = uniform_pdf(65)
    assert expectation(u, "x1").q0 == pytest.approx(0.5, abs=1e-12)
    assert expectation(u, "x2").q0 == pytest.approx(0.5, abs=1e-12)
    assert expectation(u, "x1x2").q0 == pytest.approx(0.25, abs=1e-12)
    assert expectation(u, "x1^2").q0 == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert expectation(u, (2, 1)).q0 == pytest.approx(1.0 / 6.0, abs=1e-12)
    with pytest.raises(ValueError):
        expectation(u, "x3")
    with pytest.raises(ValueError):
        expectation(u, (-1, 0))
    # a fractional power is refused, not truncated to the one below it
    for bad in ((0.5, 0), (1.9, 0), (0, 1.5), (float("nan"), 0)):
        with pytest.raises(ValueError, match="integers"):
            expectation(u, bad)
    for two in (np.int64(2), 2.0):
        assert expectation(u, (two, 0)) == expectation(u, "x1^2")


def test_separable_quadrature_matches_dense_weight_matrix():
    # a non-square grid off the origin; positive samples and nodes keep
    # every integral free of cancellation, so the bound is relative
    spec = GridSpec(0.25, 2.0, 0.5, 3.5, 23, 31)
    rng = np.random.default_rng(12)
    f, g = (SampledField(spec, rng.uniform(0.5, 1.5, (23, 31, 4)))
            for _ in range(2))
    w1 = quad_weights_1d(spec.n1, spec.h1)
    w2 = quad_weights_1d(spec.n2, spec.h2)

    def dense(values, m=0, n=0):
        w = np.outer(w1 * spec.x1_nodes() ** m, w2 * spec.x2_nodes() ** n)
        return np.sum(w[..., None] * values, axis=(0, 1))

    def close(got, want):
        got, want = np.ravel(got), np.ravel(want)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    close(integrate(f).components(), dense(f.values))
    powers = {"x1": (1, 0), "x2": (0, 1), "x1x2": (1, 1), "x1^2": (2, 0),
              "x2^2": (0, 2), (3, 2): (3, 2)}
    for weight, (m, n) in powers.items():
        close(expectation(f, weight).components(), dense(f.values, m, n))
    close(l2_norm(f) ** 2, dense(np.sum(f.values ** 2, axis=-1)[..., None]))
    close(inner_product(f, g).components(),
          dense(qmul_values(f.values, qconj_values(g.values))))


def test_charfn_origin_equals_mass():
    u = uniform_pdf(65)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 17, 17)
    cf = charfn(u, freq)
    assert cf.mode == "fourier"
    assert isclose(cf.at(8, 8), Quaternion(1.0), rel_tol=1e-9, abs_tol=1e-9)


def test_charfn_uniform_closed_form():
    # phi(u, v) = [(e^{iu}-1)/(iu)]_i [(e^{jv}-1)/(jv)]_j
    u = uniform_pdf(257)
    freq = GridSpec(-3.0, 3.0, -3.0, 3.0, 13, 13)
    cf = charfn(u, freq)
    uu = freq.x1_nodes()
    vv = freq.x2_nodes()

    def factor(t):
        out = np.full(t.shape, 1.0 + 0.0j)
        nz = t != 0.0
        out[nz] = (np.exp(1j * t[nz]) - 1.0) / (1j * t[nz])
        return out

    fu = factor(uu)
    fv = factor(vv)
    expected = np.empty((13, 13, 4))
    expected[..., 0] = fu.real[:, None] * fv.real[None, :]
    expected[..., 1] = fu.imag[:, None] * fv.real[None, :]
    expected[..., 2] = fu.real[:, None] * fv.imag[None, :]
    expected[..., 3] = fu.imag[:, None] * fv.imag[None, :]
    assert np.max(np.abs(cf.spectrum.values - expected)) <= 1e-8


def test_charfn_properties_real_pdf():
    g = gaussian_pdf(129)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 33, 33)
    props = charfn_properties(charfn(g, freq), g)
    assert props["normalization_error"] <= 1e-6
    assert props["max_modulus"] <= 1.0 + 1e-9
    assert props["modulus_bound_satisfied"]
    assert props["parity_max_error"] <= 1e-8
    assert props["continuity_satisfied"]


def test_charfn_modulus_bound_quaternion_density():
    # four equal gaussian components: integral |f| = 2 and max |phi|
    # approaches it at the origin, exceeding the real-PDF bound of 1
    g = gaussian_pdf(129)
    v = np.repeat(g.values[..., :1], 4, axis=-1)
    q = SampledField(g.spec, v)
    freq = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    props = charfn_properties(charfn(q, freq), q)
    assert props["modulus_bound"] == pytest.approx(2.0, abs=1e-6)
    assert 1.5 <= props["max_modulus"] <= 2.0 + 1e-9
    assert props["modulus_bound_satisfied"]


def test_charfn_factorizes_for_independent_marginals():
    g = gaussian_pdf(129)
    freq = GridSpec(-3.0, 3.0, -3.0, 3.0, 13, 13)
    cf = charfn(g, freq)
    # standard normal marginals: phi(u, v) = e^{-u^2/2} e^{-v^2/2},
    # purely scalar
    uu = freq.x1_nodes()[:, None]
    vv = freq.x2_nodes()[None, :]
    expected = np.zeros((13, 13, 4))
    expected[..., 0] = np.exp(-(uu ** 2 + vv ** 2) / 2.0)
    assert np.max(np.abs(cf.spectrum.values - expected)) <= 1e-6


def test_charfn_lct_mode_is_forward_transform():
    f = example2_density(129)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 9, 9)
    cf = charfn(f, freq, mode="lct", params=fourier_params())
    s = forward(f, fourier_params(), freq)
    assert np.array_equal(cf.spectrum.values, s.values)
    with pytest.raises(ValueError):
        charfn(f, freq, mode="lct")
    with pytest.raises(ValueError):
        charfn(f, freq, mode="mellin")


def test_charfn_mode_validation():
    # the mode is read from the spectrum, so it cannot disagree with it
    f = uniform_pdf(65)
    freq = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    s = charfn(f, freq).spectrum
    assert s.params is None and CharFn(s).mode == "fourier"
    lct = forward(f, fourier_params(), freq)
    assert CharFn(lct).mode == "lct"
    with pytest.raises(TypeError):
        CharFn(s, "lct")


def test_charfn_fourier_mode_rejects_params():
    f = uniform_pdf(65)
    freq = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    with pytest.raises(ValueError, match="mode lct"):
        charfn(f, freq, params=fourier_params())


def test_fourier_mode_charfn_rejects_a_spectrum_with_params():
    # invert_charfn never reads a spectrum with transform parameters
    # through the fourier kernels: it inverts with the spectrum's own
    f = gaussian_pdf(65)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 33, 33)
    s = forward(f, TransformParams(LctParams(1.0, 0.5, 0.0, 1.0),
                                   LctParams(1.0, 0.5, 0.0, 1.0)), freq)
    cf = CharFn(s)
    assert cf.mode == "lct" and cf.spectrum is s
    assert np.array_equal(invert_charfn(cf, f.spec).values,
                          lct_inverse(s, f.spec).values)


def test_charfn_properties_need_origin_node():
    f = uniform_pdf(65)
    freq = GridSpec(0.5, 1.5, 0.5, 1.5, 5, 5)
    cf = charfn(f, freq)
    with pytest.raises(ValueError, match="origin"):
        charfn_properties(cf, f)


def test_inversion_roundtrip_gaussian():
    g = gaussian_pdf(129)
    freq = GridSpec(-8.0, 8.0, -8.0, 8.0, 129, 129)
    rec = invert_charfn(charfn(g, freq), g.spec)
    rel = np.sqrt(np.sum((rec.values - g.values) ** 2)) \
        / np.sqrt(np.sum(g.values ** 2))
    assert rel <= 1e-3


def test_inversion_roundtrip_lct_mode():
    g = gaussian_pdf(129)
    freq = GridSpec(-8.0, 8.0, -8.0, 8.0, 129, 129)
    cf = charfn(g, freq, mode="lct", params=fourier_params())
    rec = invert_charfn(cf, g.spec)
    rel = np.sqrt(np.sum((rec.values - g.values) ** 2)) \
        / np.sqrt(np.sum(g.values ** 2))
    assert rel <= 1e-3


def test_inversion_roundtrip_example2_interior():
    # bounded support causes Gibbs ringing at the box edge; compare on
    # the interior only
    f = example2_density(129)
    freq = GridSpec(-200.0, 200.0, -200.0, 200.0, 801, 801)
    rec = invert_charfn(charfn(f, freq), f.spec)
    sl = slice(20, -20)
    diff = rec.values[sl, sl] - f.values[sl, sl]
    rel = np.sqrt(np.sum(diff ** 2)) / np.sqrt(np.sum(f.values[sl, sl] ** 2))
    assert rel <= 1e-2


def test_fd_moment_uniform():
    u = uniform_pdf(201)
    assert isclose(fd_moment(u, 0, 0), Quaternion(1.0),
                   rel_tol=1e-8, abs_tol=1e-8)
    assert isclose(fd_moment(u, 1, 0), Quaternion(0.5),
                   rel_tol=0.0, abs_tol=1e-5)
    assert isclose(fd_moment(u, 0, 1), Quaternion(0.5),
                   rel_tol=0.0, abs_tol=1e-5)
    assert isclose(fd_moment(u, 1, 1), Quaternion(0.25),
                   rel_tol=0.0, abs_tol=1e-4)
    assert isclose(fd_moment(u, 2, 0), Quaternion(1.0 / 3.0),
                   rel_tol=0.0, abs_tol=1e-3)
    assert isclose(fd_moment(u, 0, 2), Quaternion(1.0 / 3.0),
                   rel_tol=0.0, abs_tol=1e-3)


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0),
                                  (0, 2)])
def test_fd_moment_quaternion_density(m, n):
    # i, j and k parts: the unit factors must sit on their own sides,
    # (-i)^m on the left and (-j)^n on the right
    f = example1_numerator(129)
    assert (fd_moment(f, m, n) - expectation(f, (m, n))).norm() <= 1e-4


def test_fd_moment_convergence_order():
    u = uniform_pdf(201)
    exact = Quaternion(0.5)
    err = [max(abs(a - b) for a, b in zip(
        fd_moment(u, 1, 0, h).components(), exact.components()))
        for h in (2e-3, 1e-3)]
    assert err[0] / err[1] >= 3.5


def test_fd_moment_guards():
    u = uniform_pdf(65)
    with pytest.raises(ValueError):
        fd_moment(u, 2, 1)
    with pytest.raises(ValueError):
        fd_moment(u, -1, 0)
    with pytest.raises(ValueError):
        fd_moment(u, 1, 0, h=1e-6)
    # an integral float order is the integer one; a fractional one is
    # refused, not read as another order
    assert fd_moment(u, 1.0, 0) == fd_moment(u, 1, 0)
    with pytest.raises(ValueError, match="integers"):
        fd_moment(u, 0.5, 0)


def test_covariance_uniform():
    mr = covariance(uniform_pdf(201))
    assert mr.cov_12.norm() <= 1e-8
    assert mr.cov_21.norm() <= 1e-8
    assert isclose(mr.var_x1, Quaternion(1.0 / 12.0),
                   rel_tol=0.0, abs_tol=1e-8)
    assert isclose(mr.var_x2, Quaternion(1.0 / 12.0),
                   rel_tol=0.0, abs_tol=1e-8)
    d = mr.to_dict()
    assert d["resolution"]["n1"] == 201
    assert len(d["cov_12"]) == 4


def test_covariance_commutator_identity():
    mr = covariance(example1_numerator(129))
    delta = mr.cov_12 - mr.cov_21
    comm = mul(mr.e_x2, mr.e_x1) - mul(mr.e_x1, mr.e_x2)
    assert isclose(delta, comm, rel_tol=1e-10, abs_tol=1e-10)


def test_covariance_can_be_negative():
    mr = covariance(anticorrelated_pdf(201))
    assert mr.cov_12.q0 == pytest.approx(-1.0 / 144.0, abs=1e-8)


def test_covariance_shift_invariance():
    base = covariance(correlated_pdf(201))
    shifted = covariance(correlated_pdf(201, x1_min=0.5))
    assert isclose(base.cov_12, shifted.cov_12, rel_tol=0.0, abs_tol=1e-6)


def test_covariance_real_scaling_is_linear():
    f = correlated_pdf(201)
    base = covariance(f)
    # stretch x1 by a = 2: same samples on [0,2] x [0,1], density halved
    wide = GridSpec(0.0, 2.0, 0.0, 1.0, 201, 201)
    scaled = covariance(SampledField(wide, f.values / 2.0))
    assert isclose(scaled.cov_12, 2.0 * base.cov_12,
                   rel_tol=1e-8, abs_tol=1e-8)
    assert not isclose(scaled.cov_12, 4.0 * base.cov_12,
                       rel_tol=1e-3, abs_tol=1e-3)


def test_qpdf_support_property():
    # a density is a plain SampledField that integrates to 1 over its
    # grid, and the probability functions take it directly
    g = gaussian_pdf(129)
    assert isinstance(g, SampledField)
    assert validate_qpdf(g).total_integral.q0 == pytest.approx(1.0, abs=1e-6)
    assert expectation(g, "x1").q0 == pytest.approx(0.0, abs=1e-9)
