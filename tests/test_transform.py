"""Forward/inverse transform, energy ratios, convolution identities."""

import math
import tracemalloc

import numpy as np
import pytest

from qlct2d.field import GridSpec, SampledField, l2_norm, quad_weights_1d
from qlct2d.lct import LctParams, TransformParams, fourier_params
from qlct2d.prob import charfn
from qlct2d import transform
from qlct2d.transform import (_MAX_BLOCKS, Spectrum, _lct_side, _sandwich,
                              _side, _sizes, correlate, forward, inverse,
                              parseval_ratio, phase_strip, product_residuals)
from qlct2d.verify import (bump_field, gaussian_test_field, run_verify,
                           structured_pair)

FOUR = fourier_params()


def test_gaussian_closed_form():
    # the unit-variance gaussian is an eigenfunction up to the kernels'
    # constant phases: T(u,v) = e^{-i pi/4} e^{-(u^2+v^2)/2} e^{-j pi/4}
    f = gaussian_test_field(257)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 17, 17)
    s = forward(f, FOUR, freq)
    u1 = freq.x1_nodes()[:, None]
    u2 = freq.x2_nodes()[None, :]
    env = np.exp(-(u1 ** 2 + u2 ** 2) / 2.0)
    unit = np.array([0.5, -0.5, -0.5, 0.5])  # e^{-i pi/4} e^{-j pi/4}
    expected = env[..., None] * unit
    assert np.max(np.abs(s.values - expected)) <= 1e-6


def test_zero_field_transforms_to_zero():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 17)
    f = SampledField(spec, np.zeros((17, 17, 4)))
    s = forward(f, FOUR, spec)
    assert np.max(np.abs(s.values)) == 0.0


def test_sandwich_order_constant_k_field():
    # f = k: at the (0,0) frequency node the kernels are the constants
    # amp e^{-i pi/4}, amp e^{-j pi/4}, so
    # T(0,0) = W^2 amp^2 e^{-i pi/4} k e^{-j pi/4}
    #        = W^2 amp^2 (1 + i + j + k)/2 with W the weight sum.
    # The swapped sandwich order gives (-1 + i + j - k)/2 instead.
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 33, 33)
    v = np.zeros((33, 33, 4))
    v[..., 3] = 1.0
    f = SampledField(spec, v)
    freq = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    s = forward(f, FOUR, freq)
    w = float(np.sum(quad_weights_1d(33, spec.h1)))
    scale = w * w / (2.0 * math.pi)
    got = s.values[1, 1]
    assert np.allclose(got, scale * np.array([0.5, 0.5, 0.5, 0.5]),
                       atol=1e-12)


def test_real_scalar_linearity():
    f = gaussian_test_field(65)
    g = bump_field(65)
    freq = GridSpec(-3.0, 3.0, -3.0, 3.0, 9, 9)
    sf = forward(f, FOUR, freq)
    sg = forward(g, FOUR, freq)
    s_sum = forward(SampledField(f.spec, f.values + g.values), FOUR, freq)
    assert np.max(np.abs(s_sum.values - sf.values - sg.values)) <= 1e-10
    s_scaled = forward(SampledField(f.spec, 2.5 * f.values), FOUR, freq)
    assert np.max(np.abs(s_scaled.values - 2.5 * sf.values)) <= 1e-10


@pytest.mark.parametrize("layout", ["strided", "transposed"])
def test_non_contiguous_values_give_the_same_spectrum(layout):
    # the sandwich views the values as complex pairs, which needs a
    # contiguous array; a strided or transposed layout must be copied
    # first and give the bits of the contiguous array
    spec = GridSpec(-3.0, 3.0, -2.0, 2.0, 9, 7)
    freq = GridSpec(-2.0, 2.0, -1.5, 1.5, 5, 6)
    v = np.random.default_rng(11).standard_normal((9, 7, 4))
    if layout == "strided":
        big = np.zeros((9, 7, 8))
        big[..., ::2] = v
        w = big[..., ::2]
    else:
        w = np.ascontiguousarray(v.T).T
    f = SampledField(spec, w)
    assert not f.values.flags.c_contiguous
    g = SampledField(spec, v)
    assert np.array_equal(forward(f, FOUR, freq).values,
                          forward(g, FOUR, freq).values)
    assert np.array_equal(charfn(f, freq).spectrum.values,
                          charfn(g, freq).spectrum.values)


def _sandwich_peak(n1: int, n2: int, m: int, n: int) -> tuple[int, int]:
    """(traced peak, result bytes) of one sandwich of random values, its
    two sides built before the trace starts."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal((n1, n2, 4))
    left = _side(1, (0.5, 0.1, n1), (-0.2, 0.3, m), 0.4, 0.7, -0.3, 0.2, 0.5)
    right = _side(-1, (0.0, 0.2, n2), (0.3, 0.1, n), -0.6, -1.2, 0.8, 0.0, 1.0)
    tracemalloc.start()
    try:
        result = _sandwich(values, (m, n), lambda: left, lambda: right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result.nbytes


@pytest.mark.parametrize("n1, n2, m, n", [(65, 65, 65, 65), (40, 30, 20, 50),
                                         (30, 40, 50, 20), (129, 129, 9, 9),
                                         (201, 201, 3, 3)])
def test_sandwich_peak_memory(n1, n2, m, n):
    # above its operands, the sandwich may hold the result, the (m, n2)
    # intermediate and temporaries no larger than these; a third
    # full-size buffer, or a temporary that grows with the input (the
    # 129^2 -> 9^2 case, folded in 29 blocks), reads about 3x or more.
    # Capped at _MAX_BLOCKS blocks (201^2 -> 3^2 folds in 31 blocks of
    # 13 columns, not 201 of 2), the fold's temporaries may reach
    # 2/_MAX_BLOCKS of the input, not all of it
    peak, nbytes = _sandwich_peak(n1, n2, m, n)
    assert peak <= 2.5 * max(nbytes, m * n2 * 4 * 8,
                             2 * n1 * n2 * 4 * 8 / _MAX_BLOCKS)


@pytest.mark.parametrize("n", [257, 513])
def test_sandwich_peak_memory_large(n):
    # one output-sized buffer plus the temporaries of one left column
    # block or one right band, a quarter of the buffer at these sizes;
    # a second full-size buffer reads 2.0
    peak, nbytes = _sandwich_peak(n, n, n, n)
    assert peak <= 1.4 * nbytes


@pytest.mark.parametrize("n", [257, 513])
def test_transform_peak_memory_with_its_sides(n):
    # forward and inverse build each kernel side just before its pass
    # and drop it after, so above the output-sized buffer and one block's
    # temporaries only one side's cos and sin (an eighth of a square
    # output) is alive; both sides alive through both passes read 1.51
    c, s = math.cos(0.6), math.sin(0.6)
    rot = LctParams(c, s, -s, c)
    f = gaussian_test_field(n)
    spectrum = None
    for run in (lambda: forward(f, TransformParams(rot, rot), f.spec),
                lambda: inverse(spectrum, f.spec)):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.42 * result.values.nbytes
        spectrum = result


def test_transform_beyond_physical_memory_raises_before_allocating():
    f = gaussian_test_field(9)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 200001, 200001)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="GB"):
            forward(f, FOUR, freq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_memory_cap_is_the_footprint_estimate(monkeypatch):
    # the cap compares the peak of _sizes, the call _sandwich sizes its
    # buffer, blocks and bands by, with the machine's memory
    f = gaussian_test_field(9)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 5, 7)
    peak = _sizes(9, 9, 5, 7)[3]
    monkeypatch.setattr(transform, "_memory", lambda: peak - 1)
    with pytest.raises(ValueError, match="GB"):
        forward(f, FOUR, freq)
    monkeypatch.setattr(transform, "_memory", lambda: peak)
    assert forward(f, FOUR, freq).values.shape == (5, 7, 4)


def test_ledger_products_stay_within_128_columns(monkeypatch):
    # every BLAS product of a ledger or of the 257² CLI chain
    # (transform, invert, charfn, and invert of the 65² LCT charfn) is at
    # most 128 float columns wide, as the ledgers' byte-identity across
    # BLAS thread counts needs: a left block's step complex columns of z,
    # a right band's 2 * k complex columns for its k output rows
    shapes = {(257, 257, 257, 257), (257, 257, 65, 65), (65, 65, 65, 65)}

    def sizes(*shape):
        shapes.add(shape)
        return _sizes(*shape)

    monkeypatch.setattr(transform, "_sizes", sizes)
    run_verify(quick=True)
    run_verify()
    for n1, n2, m, n in shapes:
        _, step, rows, _ = _sizes(n1, n2, m, n)
        assert 2 * min(step, 2 * n2) <= 128, (n1, n2, m, n)
        assert 4 * min(rows, m) <= 128, (n1, n2, m, n)


@pytest.mark.parametrize("error", [ValueError, OSError, AttributeError])
def test_no_memory_cap_where_the_platform_gives_none(monkeypatch, error):
    def sysconf(name):
        raise error(name)

    monkeypatch.setattr(transform.os, "sysconf", sysconf)
    assert transform._memory() == math.inf


@pytest.mark.parametrize("n", [32, 33])
def test_only_a_real_even_pre_goes_into_the_core(n):
    # a Fourier kernel onto a centred grid has a real, even pre, which
    # _side multiplies into cos and sin once, so that no half transform
    # multiplies its data by pre; an off-centre output grid or a chirp
    # makes pre complex, and it must stay
    src, centred = (0.0, 0.1, n), (0.0, 0.3, 17)
    rotation = LctParams(math.cos(0.6), math.sin(0.6), -math.sin(0.6),
                         math.cos(0.6))
    assert _side(1, src, centred).pre is None
    assert _side(1, src, (0.7, 0.3, 17)).pre is not None
    assert _lct_side(rotation, 1, src, centred).pre is not None


def test_roundtrip_fourier():
    f = gaussian_test_field(129)
    fbox = GridSpec(-8.0, 8.0, -8.0, 8.0, 129, 129)
    back = inverse(forward(f, FOUR, fbox), f.spec)
    rel = np.sqrt(np.sum((back.values - f.values) ** 2)) \
        / np.sqrt(np.sum(f.values ** 2))
    assert rel <= 1e-3


def test_roundtrip_shear():
    shear = LctParams(1.0, 0.5, 0.0, 1.0)
    sp = TransformParams(shear, shear)
    f = gaussian_test_field(129)
    fbox = GridSpec(-12.0, 12.0, -12.0, 12.0, 129, 129)
    back = inverse(forward(f, sp, fbox), f.spec)
    rel = np.sqrt(np.sum((back.values - f.values) ** 2)) \
        / np.sqrt(np.sum(f.values ** 2))
    assert rel <= 1e-2


def test_parseval_ratio_function_independent():
    fbox = GridSpec(-8.0, 8.0, -8.0, 8.0, 129, 129)
    r1 = parseval_ratio(gaussian_test_field(129), FOUR, fbox)
    r2 = parseval_ratio(bump_field(129), FOUR, fbox)
    assert abs(r1 - r2) <= 1e-3
    assert r1 == pytest.approx(1.0, abs=1e-3)


def test_parseval_rejects_zero_field():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    f = SampledField(spec, np.zeros((9, 9, 4)))
    with pytest.raises(ValueError):
        parseval_ratio(f, FOUR, spec)


def test_spectrum_shape_validation():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(ValueError):
        Spectrum(spec, np.zeros((3, 4, 4)))


def test_structured_pair_convolution_identity():
    f, g = structured_pair(65)
    freq = GridSpec(-5.0, 5.0, -5.0, 5.0, 41, 41)
    lit, nrm = product_residuals(f, g, FOUR, freq)
    assert nrm <= 1e-2
    assert lit == pytest.approx(1.0, abs=1e-6)


def test_product_residuals_reject_a_zero_field():
    f = SampledField(GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9), np.zeros((9, 9, 4)))
    for correlation, op in ((False, "convolution"), (True, "correlation")):
        with pytest.raises(ValueError, match=f"transform of the {op} is "
                                             "identically zero"):
            product_residuals(f, f, FOUR, f.spec, correlation=correlation)


def test_structured_pair_correlation_identity():
    f, g = structured_pair(65)
    freq = GridSpec(-5.0, 5.0, -5.0, 5.0, 41, 41)
    lit, nrm = product_residuals(f, g, FOUR, freq, correlation=True)
    assert nrm <= 1e-2
    assert lit == pytest.approx(1.0, abs=1e-6)


def test_generic_pair_residuals_are_finite():
    shear = LctParams(1.0, 0.5, 0.0, 1.0)
    sp = TransformParams(shear, shear)
    f = bump_field(65, box=6.0)
    g = gaussian_test_field(65, box=6.0)
    freq = GridSpec(-5.0, 5.0, -5.0, 5.0, 21, 21)
    for correlation in (False, True):
        lit, nrm = product_residuals(f, g, sp, freq, correlation=correlation)
        assert math.isfinite(lit) and math.isfinite(nrm)


def test_autocorrelation_peaks_at_origin():
    f = bump_field(65, box=6.0)
    c = correlate(f, f)
    mods = np.sqrt(np.sum(c.values ** 2, axis=-1))
    r0 = c0 = 32  # origin node
    assert mods[r0, c0] == np.max(mods)
    # at zero lag the scalar part is the squared L2 norm
    assert c.values[r0, c0, 0] == pytest.approx(l2_norm(f) ** 2, rel=1e-6)


def test_correlate_factor_order():
    # constant fields: i * conj(j) = i * (-j) = -k
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21)
    vi = np.zeros((21, 21, 4))
    vi[..., 1] = 1.0
    vj = np.zeros((21, 21, 4))
    vj[..., 2] = 1.0
    c = correlate(SampledField(spec, vi), SampledField(spec, vj))
    center = c.values[10, 10]
    assert center[3] < -1.0
    assert abs(center[0]) + abs(center[1]) + abs(center[2]) <= 1e-12


def test_spectrum_rejects_nonfinite_values():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    with pytest.raises(ValueError, match="non-finite"):
        Spectrum(spec, np.full((3, 3, 4), math.nan), None)


def test_inverse_requires_params():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    s = Spectrum(spec, np.zeros((9, 9, 4)), None)
    with pytest.raises(ValueError, match="parameters"):
        inverse(s, spec)


def test_inverse_rejects_dirac_axis():
    # a b = 0 (Dirac) axis never reaches inverse: its parameters are
    # rejected when they are built
    with pytest.raises(ValueError, match="b = 0"):
        TransformParams(LctParams(2.0, 0.0, 3.0, 0.5), FOUR.A2)


def test_phase_strip_removes_constant_unit():
    # a spectrum whose every node is e^{-i pi/4} e^{-j pi/4} strips to 1
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)
    v = np.zeros((5, 5, 4))
    v[...] = (0.5, -0.5, -0.5, 0.5)
    out = phase_strip(Spectrum(spec, v, None))
    assert np.allclose(out.values, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
