"""Verification suite: worked examples and empirical theorem checks.

Every check produces a Claim pairing a stated value with the measured
value and a verdict from a fixed vocabulary:

* ``reproduced`` — the stated value matches the measurement.
* ``reproduced-with-different-constant`` — the identity holds after
  replacing a stated constant with the measured one.
* ``not-reproduced`` — the stated value disagrees with the measured
  (derived-oracle) value.
* ``diagnostic-only`` — a quantity is reported with no pass threshold.

The suite is deterministic: fixtures are built from closed-form
formulas on fixed grids, no randomness and no timestamps, so two runs
emit byte-identical ledgers.

Each section of the ledger is one private function.  It builds its
fixtures and takes its numbers, freeing each grid once used, so a run
holds one section's grids at a time; then it returns its claims as one
list of claim(...) entries.  run_verify's claim constructor is the one
place that applies tol, and _text the one place a measured value
becomes ledger text.  Each fixture builder writes a component into its
field before it computes the next, so a full run peaks at the 513^2
Example 1 field plus one of its components.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .field import (GridSpec, SampledField, _axis_weights, integrate,
                    quad_weights_1d)
from .lct import LctParams, TransformParams, fourier_params, kernel_i
from .prob import (MomentReport, charfn, charfn_properties, covariance,
                   expectation, fd_moment, invert_charfn, validate_qpdf)
from .quaternion import Quaternion, exp_i, inverse, mul, norm
from .transform import (_energy_ratio, forward, inverse as lct_inverse,
                        parseval_ratio, product_residuals)

__all__ = [
    "Claim",
    "run_verify",
    "ledger_json",
    "ledger_text",
]

@dataclass(frozen=True)
class Claim:
    """One ledger line: a stated value against its measurement."""

    claim_id: str
    stated: str
    measured: str
    verdict: str
    required: bool
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _qdiff(p: Quaternion, q: Quaternion) -> float:
    return max(abs(a - b) for a, b in zip(p.components(), q.components()))


def _rel_l2(got: SampledField, want: SampledField) -> float:
    return float(np.sqrt(np.sum((got.values - want.values) ** 2))
                 / np.sqrt(np.sum(want.values ** 2)))


# ---------------------------------------------------------------------------
# fixtures (closed-form fields on fixed grids; all deterministic)

def _mesh(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Node coordinates as a column (x1) and a row (x2)."""
    return spec.x1_nodes()[:, None], spec.x2_nodes()[None, :]


def _field(spec: GridSpec, *components) -> SampledField:
    """Field whose leading components (1, i, j, k order) are the given
    scalars or arrays broadcast over the grid, or zero-argument
    callables that return one; the rest are zero.

    Each callable runs only once the previous component sits in its
    slice, so a build holds the field and one component temporary.
    """
    v = np.zeros((spec.n1, spec.n2, 4))
    for m, comp in enumerate(components):
        v[..., m] = comp() if callable(comp) else comp
    return SampledField(spec, v)


def _exp(t: np.ndarray) -> np.ndarray:
    """e^t, written over t's own buffer."""
    return np.exp(t, out=t)


def _ij(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Components of [a]_i [b]_j for complex 1-D a (axis 1) and b
    (axis 2): (p + iq)(c + jd) = pc + i qc + j pd + k qd."""
    p, q = a.real[:, None], a.imag[:, None]
    c, d = b.real[None, :], b.imag[None, :]
    return p * c, q * c, p * d, q * d


def example1_numerator(n: int) -> SampledField:
    """(2x1+x2) + i(x1^2-x2^2) + j x1 x2 + k(3x1-x2) on [0,2]^2."""
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, n, n)
    x1, x2 = _mesh(spec)
    return _field(spec, lambda: 2.0 * x1 + x2, lambda: x1 ** 2 - x2 ** 2,
                  lambda: x1 * x2, lambda: 3.0 * x1 - x2)


def example2_density(n: int) -> SampledField:
    """x1 + j x2 on [0,1]^2."""
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
    x1, x2 = _mesh(spec)
    return _field(spec, x1, 0.0, x2)


def gaussian_pdf(n: int, box: float = 8.0, s1: float = 1.0,
                 s2: float = 1.0) -> SampledField:
    """Normalized real Gaussian density on [-box, box]^2."""
    spec = GridSpec(-box, box, -box, box, n, n)
    x1, x2 = _mesh(spec)
    return _field(spec, lambda: _exp(-x1 ** 2 / (2 * s1 ** 2)
                                     - x2 ** 2 / (2 * s2 ** 2))
                  / (2.0 * math.pi * s1 * s2))


def gaussian_test_field(n: int, box: float = 8.0) -> SampledField:
    """Unnormalized Gaussian e^{-(x1^2+x2^2)/2} as a scalar field."""
    spec = GridSpec(-box, box, -box, box, n, n)
    x1, x2 = _mesh(spec)
    return _field(spec, lambda: _exp(-(x1 ** 2 + x2 ** 2) / 2.0))


def bump_field(n: int, box: float = 8.0) -> SampledField:
    """Smooth quaternion-valued bump, anisotropic and off-center."""
    spec = GridSpec(-box, box, -box, box, n, n)
    x1, x2 = _mesh(spec)
    v = np.zeros((n, n, 4))
    # the envelope g is the 1 component; the others are g times small
    # factors, applied in their own slices, so that the build holds one
    # grid temporary at a time
    g = v[..., 0]
    g[...] = _exp(-0.8 * (x1 - 0.7) ** 2 - 1.3 * (x2 + 0.4) ** 2)
    v[..., 1] = 0.5 * g
    v[..., 1] *= np.cos(x1)
    v[..., 2] = 0.3 * g
    v[..., 2] *= np.sin(x2)
    k = v[..., 3]
    k[...] = 0.2 * g
    k *= x1
    k *= x2
    k /= 1.0 + x1 ** 2 + x2 ** 2
    return SampledField(spec, v)


def uniform_pdf(n: int) -> SampledField:
    """Uniform density 1 on [0,1]^2."""
    return _field(GridSpec(0.0, 1.0, 0.0, 1.0, n, n), 1.0)


def correlated_pdf(n: int, x1_min: float = 0.0) -> SampledField:
    """(1 + x1 x2) / (5/4) on [0,1]^2, optionally translated in x1.

    With x1_min = b the same samples sit on [b, b+1] x [0, 1], which
    realizes the variable shift X1 + b.
    """
    spec = GridSpec(x1_min, x1_min + 1.0, 0.0, 1.0, n, n)
    t1 = np.linspace(0.0, 1.0, n)[:, None]
    _, x2 = _mesh(spec)
    return _field(spec, lambda: (1.0 + t1 * x2) / 1.25)


def anticorrelated_pdf(n: int) -> SampledField:
    """1 - (x1-1/2)(x2-1/2) on [0,1]^2: negatively correlated."""
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
    x1, x2 = _mesh(spec)

    def density():
        t = (x1 - 0.5) * (x2 - 0.5)
        return np.subtract(1.0, t, out=t)  # 1 - t in t's buffer

    return _field(spec, density)


def constant_x1_pdf(n: int) -> SampledField:
    """Density concentrated on one x1 grid line: X1 numerically constant."""
    spec = GridSpec(0.0, 1.0, 0.0, 1.0, n, n)
    r = n // 2
    w1 = quad_weights_1d(n, spec.h1)
    return _field(spec, np.where(np.arange(n)[:, None] == r, 1.0 / w1[r], 0.0))


def structured_pair(n: int, box: float = 6.0) -> tuple[SampledField, SampledField]:
    """Separable commuting pair for the convolution/correlation identity.

    f = alpha(x1) beta(x2) with alpha in span{1,i}, beta in span{1,j};
    g = gamma(x1) delta(x2) with gamma real and even, delta in span{1,j}.
    """
    spec = GridSpec(-box, box, -box, box, n, n)
    x1, x2 = _mesh(spec)
    aa = np.exp(-x1 ** 2)
    ab = x1 * aa
    bc = np.exp(-x2 ** 2)
    bd = 0.5 * bc
    gamma = np.exp(-2.0 * x1 ** 2)
    dd = x2 * bc
    # (aa + i ab)(bc + j bd) = aa*bc + i ab*bc + j aa*bd + k ab*bd
    return (_field(spec, lambda: aa * bc, lambda: ab * bc, lambda: aa * bd,
                   lambda: ab * bd),
            _field(spec, lambda: gamma * bc, 0.0, lambda: gamma * dd))


def generic_pair(n: int, box: float = 6.0) -> tuple[SampledField, SampledField]:
    """Non-commuting, non-separable pair with k-components."""
    spec = GridSpec(-box, box, -box, box, n, n)
    x1, x2 = _mesh(spec)

    # each component evaluates its envelope afresh, so no envelope
    # outlives the component that uses it
    def g1():
        return _exp(-(x1 ** 2 + x2 ** 2) / 2.0)

    def g2():
        return _exp(-((x1 - 0.5) ** 2 + x2 ** 2) / 2.0)

    return (_field(spec, g1, lambda: 0.5 * g1() * x1,
                   lambda: 0.3 * g1() * x2, lambda: 0.7 * g1() * x1 * x2),
            _field(spec, g2, 0.0, 0.0, g2))


# ---------------------------------------------------------------------------
# closed-form oracles for Example 2

def _removable(u: np.ndarray, at_zero: complex, formula) -> np.ndarray:
    """formula(u) as a complex array, with its removable singularity at
    u = 0 filled by the limit at_zero."""
    u = np.asarray(u, dtype=float)
    out = np.full(u.shape, complex(at_zero))
    nz = u != 0.0
    out[nz] = formula(u[nz])
    return out


def _moment_factor(u: np.ndarray) -> np.ndarray:
    """integral_0^1 x e^{-iux} dx = (e^{-iu}(1+iu) - 1)/u^2, value 1/2 at 0."""
    return _removable(
        u, 0.5, lambda t: (np.exp(-1j * t) * (1.0 + 1j * t) - 1.0) / t ** 2)


def _mass_factor(u: np.ndarray) -> np.ndarray:
    """integral_0^1 e^{-iux} dx = (1 - e^{-iu})/(iu), value 1 at 0."""
    return _removable(u, 1.0, lambda t: (1.0 - np.exp(-1j * t)) / (1j * t))


def example2_charfn_oracle(freq: GridSpec) -> np.ndarray:
    """Closed-form lct-mode (Fourier-parameter) characteristic function
    of x1 + j x2 on [0,1]^2, as an (n1, n2, 4) array.

    With kernels (2 pi)^{-1/2} e^{i(-x u - pi/4)} on the left and the j
    mirror on the right:

        phi(u,v) = (1/2pi) [ e_i D(u) C(v) e_j
                             + j conj_i(e_i C(u)) D(v) e_j ],

    where D(u) = integral_0^1 x e^{-iux} dx, C(u) the mass counterpart,
    e_i = e^{-i pi/4}, e_j = e^{-j pi/4}, and the complex factors embed
    in span{1,i} or span{1,j} along their own axes.
    """
    u, v = freq.x1_nodes(), freq.x2_nodes()
    ei = np.exp(-1j * math.pi / 4.0)
    du = _moment_factor(u) * ei
    cu_conj = np.conj(_mass_factor(u) * ei)
    cv = _mass_factor(v) * ei
    dv = _moment_factor(v) * ei
    t0, t1, t2, t3 = _ij(du, cv)
    # left-multiplying w0 + i w1 + j w2 + k w3 by j gives
    # -w2 + i w3 + j w0 - k w1
    w0, w1, w2, w3 = _ij(cu_conj, dv)
    return (np.stack([t0 - w2, t1 + w3, t2 + w0, t3 - w1], axis=-1)
            / (2.0 * math.pi))


def example2_paper_formula(freq: GridSpec) -> np.ndarray:
    """The paper's printed final formula for Example 2, as stated:
    (1/2pi) [(1 - e^{-iu} + iu)/u^2]_i [(1 - e^{-jv} + jv)/v^2]_j."""
    u, v = freq.x1_nodes(), freq.x2_nodes()

    def factor(t):
        return _removable(t, 0.5,
                          lambda s: (1.0 - np.exp(-1j * s) + 1j * s) / s ** 2)

    return np.stack(_ij(factor(u), factor(v)), axis=-1) / (2.0 * math.pi)

# ---------------------------------------------------------------------------
# claim evaluation

_RESOLUTIONS = {
    "full": dict(ex1=513, ex2=513, pdf=201, transform=257, conv=129, freq=81),
    "quick": dict(ex1=129, ex2=129, pdf=101, transform=129, conv=65, freq=41),
}

# the Fourier parameters, and the shear (1, 0.5, 0, 1) on both axes
_FOURIER = fourier_params()
_SHEAR = TransformParams(LctParams(1.0, 0.5, 0.0, 1.0),
                         LctParams(1.0, 0.5, 0.0, 1.0))

# a section's claim constructor: run_verify's claim
_Make = Callable[..., Claim]


def _text(x) -> str:
    """A measured value as ledger text: a float's repr, a quaternion's
    four component reprs, a + bi for a complex number, a tuple of such
    texts, and an int (a node count) as written."""
    if isinstance(x, Quaternion):
        return "(" + ", ".join(map(_text, x.components())) + ")"
    if isinstance(x, complex):
        return f"{_text(x.real)} + {_text(x.imag)}i"
    if isinstance(x, tuple):
        return str(tuple(map(_text, x)))
    return str(x) if isinstance(x, int) else repr(float(x))


def run_verify(quick: bool = False, tol: float | None = None) -> list[Claim]:
    """Run every check and return the ledger claims in a fixed order.

    quick lowers the grid resolutions for fast smoke runs.  tol, when
    given, tightens every required check: each pass threshold becomes
    the smaller of tol and its default, so tol never loosens the ledger.
    A NaN or negative tol raises ValueError before any check runs.
    """
    if tol is not None and not tol >= 0.0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    ns = _RESOLUTIONS["quick" if quick else "full"]

    def claim(claim_id: str, verdict: str, required: bool, stated: str,
              measured: str, detail: str = "", tols=(), ok: bool = True,
              **values) -> Claim:
        """The Claim whose measured and detail texts are %(name)s
        templates over values, each rendered by _text.  It passes when
        ok holds and value <= min(tol, default) for each (value,
        default) pair in tols: the one place tol is read."""
        text = {name: _text(v) for name, v in values.items()}
        passed = ok and all(v <= (d if tol is None else min(tol, d))
                            for v, d in tols)
        return Claim(claim_id, stated, measured % text, verdict, required,
                     passed, detail % text)

    example1, mr_1 = _example1(ns, claim)
    return (example1 + _transform_roundtrips(ns, claim)
            + _products(ns, claim) + _charfn_properties(ns, claim)
            + _fd_moments(ns, claim) + _example2(ns, claim)
            + _covariances(ns, claim, mr_1))


def _example1(ns: dict, claim: _Make) -> tuple[list[Claim], MomentReport]:
    """Example 1: moments, quotient, normalization audit.  Also returns
    the density's covariance report for definition7.commutator."""
    n = ns["ex1"]
    f1 = example1_numerator(n)
    m1 = expectation(f1, "x1")
    m1_oracle = Quaternion(44.0 / 3.0, 8.0 / 3.0, 16.0 / 3.0, 12.0)
    err = _qdiff(m1, m1_oracle)
    den = Quaternion(20.0, 0.0, 4.0, 8.0)
    quot = mul(inverse(den), m1)
    errq = _qdiff(quot, mul(inverse(den), m1_oracle))
    total = integrate(f1)
    rep1 = validate_qpdf(f1)
    return [
        claim("example1.E_X1_numerator", "reproduced", True,
              "integral x1 (2x1+x2, x1^2-x2^2, x1x2, 3x1-x2) over [0,2]^2 "
              "= (44/3, 8/3, 16/3, 12)",
              "%(m1)s", "max component error %(err)s at %(n)s^2 nodes",
              [(err, 1e-6)], m1=m1, err=err, n=n),
        claim("example1.E_X1_quotient", "reproduced", True,
              "E[X1] = (20+4j+8k)^{-1} (44/3 + 8/3 i + 16/3 j + 12 k), "
              "left-inverse convention",
              "%(quot)s", "right-quotient alternative %(right)s; "
              "max component error %(errq)s",
              [(errq, 1e-6)], quot=quot, right=mul(m1, inverse(den)),
              errq=errq),
        claim("example1.normalization", "not-reproduced", True,
              "normalizing denominator 20 + 4j + 8k", "%(total)s",
              "the numerator integrates to (12, 0, 4, 8), not the stated "
              "(20, 0, 4, 8); the quotient claim above uses the stated "
              "denominator verbatim",
              [(_qdiff(total, Quaternion(12.0, 0.0, 4.0, 8.0)), 1e-6)],
              total=total),
        claim("definition4.example1", "not-reproduced", False,
              "every density component is a real PDF "
              "(nonnegative, unit mass)",
              "component integrals %(mass)s, minima %(low)s",
              "the Example 1 density violates the density axioms: the i "
              "component is negative where x2 > x1 and no component has "
              "unit mass; operations therefore accept raw fields "
              "(relaxed mode)",
              mass=rep1.component_integrals, low=rep1.component_minima),
    ], covariance(f1)


def _transform_roundtrips(ns: dict, claim: _Make) -> list[Claim]:
    """Theorem 1 (Plancherel constant) and the Definition 2 roundtrips."""
    tn = ns["transform"]
    fbox = GridSpec(-8.0, 8.0, -8.0, 8.0, tn, tn)
    # one forward transform of the gaussian serves Theorem 1 and the
    # Fourier roundtrip
    gsrc = gaussian_test_field(tn)
    gspec = forward(gsrc, _FOURIER, fbox)
    r1 = _energy_ratio(gsrc, gspec)
    rel_f = _rel_l2(lct_inverse(gspec, gsrc.spec), gsrc)
    del gspec
    r2 = parseval_ratio(bump_field(tn), _FOURIER, fbox)
    wide = GridSpec(-12.0, 12.0, -12.0, 12.0, tn, tn)
    rel_s = _rel_l2(lct_inverse(forward(gsrc, _SHEAR, wide), gsrc.spec), gsrc)
    return [
        claim("theorem1.parseval", "reproduced-with-different-constant", True,
              "integral |f|^2 dx = 1/(2pi)^2 integral |T{f}|^2 du "
              "(energy ratio (2pi)^2)",
              "ratio %(r1)s (gaussian), %(r2)s (bump)",
              "the kernels' 1/sqrt(2pi|b|) amplitudes make the transform "
              "unitary; the measured function-independent constant is 1, "
              "not (2pi)^2",
              [(abs(r1 - r2), 1e-3), (abs(r1 - 1.0), 1e-3)], r1=r1, r2=r2),
        claim("definition2.roundtrip_fourier", "reproduced", True,
              "inverse(forward(f)) = f (Fourier parameters)",
              "relative L2 error %(rel)s",
              "gaussian on [-8,8]^2 at %(n)s^2; unit-conjugated kernels",
              [(rel_f, 1e-3)], rel=rel_f, n=tn),
        claim("definition2.roundtrip_shear", "reproduced", True,
              "inverse(forward(f)) = f (shear parameters (1, 0.5, 0, 1))",
              "relative L2 error %(rel)s",
              "frequency box widened to [-12,12]^2 to cover chirp spreading",
              [(rel_s, 1e-2)], rel=rel_s),
    ]


def _products(ns: dict, claim: _Make) -> list[Claim]:
    """Theorems 2-3: convolution and correlation."""
    cn = ns["conv"]
    cfreq = GridSpec(-5.0, 5.0, -5.0, 5.0, ns["freq"], ns["freq"])
    fs, gs = structured_pair(cn)
    lit_conv, nrm_conv = product_residuals(fs, gs, _FOURIER, cfreq)
    fg, gg = generic_pair(cn)
    gen_conv, _ = product_residuals(fg, gg, _SHEAR, cfreq)
    lit_corr, nrm_corr = product_residuals(fs, gs, _FOURIER, cfreq,
                                           correlation=True)
    gen_corr, _ = product_residuals(fg, gg, _SHEAR, cfreq, correlation=True)
    residuals = ("literal residual %(lit)s; constant-phase-normalized "
                 "residual %(nrm)s")
    return [
        claim("theorem2.convolution_structured",
              "reproduced-with-different-constant", True,
              "T{f*g} = T{f} T{g} (2pi-scaled) for the separable commuting "
              "pair", residuals,
              "the kernels' constant -pi/4 phases contribute a fixed unit "
              "factor: T = e^{-i pi/4} S e^{-j pi/4} pointwise, and the "
              "identity S{f*g} = 2pi S{f} S{g} holds exactly for the "
              "structured pair while the unnormalized form misses by a "
              "relative residual of exactly 1",
              [(nrm_conv, 1e-2), (abs(lit_conv - 1.0), 1e-6)],
              lit=lit_conv, nrm=nrm_conv),
        claim("theorem2.convolution_generic", "diagnostic-only", True,
              "no validity claim (kernel additivity and commutation both "
              "fail)", "residual %(res)s",
              "non-commuting pair with k-components under shear "
              "parameters; reported with no pass threshold",
              ok=math.isfinite(gen_conv), res=gen_conv),
        claim("theorem3.correlation_structured",
              "reproduced-with-different-constant", True,
              "T{f o g} = T{f} conj(T{g}) (2pi-scaled) for the structured "
              "pair", residuals,
              "same constant-phase factor as the convolution identity",
              [(nrm_corr, 1e-2), (abs(lit_corr - 1.0), 1e-6)],
              lit=lit_corr, nrm=nrm_corr),
        claim("theorem3.correlation_generic", "diagnostic-only", True,
              "no validity claim", "residual %(res)s",
              ok=math.isfinite(gen_corr), res=gen_corr),
    ]


def _charfn_properties(ns: dict, claim: _Make) -> list[Claim]:
    """Characteristic function properties (fourier mode, real PDFs):
    Properties 1, 3 and 5, Theorems 4, 5 and 8."""
    tn = ns["transform"]
    pfreq = GridSpec(-4.0, 4.0, -4.0, 4.0, ns["freq"], ns["freq"])
    gpdf = gaussian_pdf(tn)
    cf_g = charfn(gpdf, pfreq)
    props_g = charfn_properties(cf_g, gpdf)
    upd = uniform_pdf(ns["pdf"])
    cf_u = charfn(upd, pfreq)
    props_u = charfn_properties(cf_u, upd)
    ne, mm, pe = (max(props_g[k], props_u[k]) for k in (
        "normalization_error", "max_modulus", "parity_max_error"))
    # phi(-u,-v) against the literal conjugate phi(u,v)
    v = cf_u.spectrum.values
    herm_err = float(np.max(np.abs(v[::-1, ::-1] - v * [1, -1, -1, -1])))
    del upd, cf_u, cf_g, v

    # Theorem 5: factorization for real separable marginals
    sep = gaussian_pdf(tn, s1=1.0, s2=1.5)
    cf_s = charfn(sep, pfreq)
    x1, x2 = sep.spec.x1_nodes(), sep.spec.x2_nodes()
    w1, w2 = _axis_weights(sep.spec)
    f1d = np.exp(-x1 ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
    f2d = np.exp(-x2 ** 2 / (2.0 * 1.5 ** 2)) / (1.5 * math.sqrt(2.0 * math.pi))
    phi1 = np.exp(1j * np.outer(pfreq.x1_nodes(), x1)) @ (w1 * f1d)
    phi2 = np.exp(1j * np.outer(pfreq.x2_nodes(), x2)) @ (w2 * f2d)
    prod = np.stack(_ij(phi1, phi2), axis=-1)
    fac_err = float(np.max(np.abs(cf_s.spectrum.values - prod)))
    del sep, cf_s

    # Property 5: inversion
    rec = invert_charfn(charfn(gpdf, GridSpec(-8.0, 8.0, -8.0, 8.0, tn, tn)),
                        gpdf.spec)
    rel_inv = _rel_l2(rec, gpdf)
    return [
        claim("property1.normalization", "reproduced", True,
              "phi(0,0) = 1 for a probability density",
              "max |phi(0,0) - integral f| = %(ne)s",
              "gaussian and uniform real densities", [(ne, 1e-6)], ne=ne),
        claim("theorem8.bound", "reproduced", True, "|phi(u,v)| <= 1",
              "max |phi| = %(mm)s over the frequency grid",
              "for quaternion densities the provable bound is integral "
              "|f|; a density with four equal gaussian components attains "
              "max |phi| near 2 = integral |f|",
              [(mm - 1.0, 1e-9)], mm=mm),
        claim("property3.symmetry", "reproduced-with-different-constant",
              True, "phi(-u,-v) = conj(phi(u,v)) for real densities",
              "component parity (even, odd, odd, even) max error %(pe)s; "
              "literal conjugate form max error %(herm)s",
              "the k component is even under point reflection, so the "
              "literal conjugate relation fails in that component; the "
              "holding form is phi(-u,-v) = -k phi(u,v) k",
              [(pe, 1e-8)], pe=pe, herm=herm_err),
        claim("theorem4.continuity", "reproduced", True,
              "phi is uniformly continuous for integrable |f|",
              "max one-step increment %(step)s vs bound %(bound)s",
              "empirical small-shift test with Lipschitz constant "
              "integral |x1| |f| dx",
              ok=props_g["continuity_satisfied"],
              step=props_g["continuity_max_step"],
              bound=props_g["continuity_bound"]),
        claim("theorem5.factorization", "reproduced", True,
              "phi(u,v) = phi_X1(u) phi_X2(v) for independent marginals",
              "max node error %(err)s",
              "real gaussian marginals (sigma 1 and 1.5); real marginals "
              "commute with both kernels", [(fac_err, 1e-6)], err=fac_err),
        claim("property5.inversion", "reproduced", True,
              "f recovered from phi with constant 1/(2pi)^2",
              "relative L2 error %(rel)s",
              "fourier mode carries no kernel amplitude, so here the "
              "(2pi)^2 constant is correct as stated",
              [(rel_inv, 1e-3)], rel=rel_inv),
    ]


def _fd_moments(ns: dict, claim: _Make) -> list[Claim]:
    """Property 6: moments from finite differences of the characteristic
    function."""
    upd = uniform_pdf(ns["pdf"])
    e1 = expectation(upd, "x1")
    fd10 = fd_moment(upd, 1, 0, 1e-3)
    fd11 = fd_moment(upd, 1, 1, 1e-3)
    d_coarse = _qdiff(fd_moment(upd, 1, 0, 2e-3), e1)
    d_fine = _qdiff(fd10, e1)
    factor = d_coarse / d_fine if d_fine > 0.0 else math.inf
    return [
        claim("property6.fd_moments", "reproduced", True,
              "E[X1^m X2^n] from derivatives of phi at the origin",
              "fd(1,0) = %(fd10)s, fd(1,1) = %(fd11)s, halving-h error "
              "factor %(factor)s",
              "uniform density on [0,1]^2; sandwich correction i^{-m} "
              "(FD) j^{-n}; the stated recursion of the derivative "
              "theorem is not computable as printed",
              [(_qdiff(fd10, Quaternion(0.5)), 1e-5),
               (_qdiff(fd11, Quaternion(0.25)), 1e-4)],
              ok=factor >= 3.5, fd10=fd10, fd11=fd11, factor=factor),
    ]


def _example2(ns: dict, claim: _Make) -> list[Claim]:
    """Example 2: moment integral, characteristic function, kernel."""
    n1d = ns["ex2"]
    w1d = quad_weights_1d(n1d, 1.0 / (n1d - 1))
    x1d = np.linspace(0.0, 1.0, n1d)
    m_num = complex(np.sum(w1d * x1d * np.exp(-1j * x1d)))
    m_oracle = complex(_moment_factor(np.array([1.0]))[0])
    efreq = GridSpec(-4.0, 4.0, -4.0, 4.0, 17, 17)
    phi = charfn(example2_density(n1d), efreq, mode="lct",
                 params=_FOURIER).spectrum.values
    err2 = float(np.max(np.abs(phi - example2_charfn_oracle(efreq))))
    errp = float(np.max(np.abs(phi - example2_paper_formula(efreq))))
    return [
        claim("example2.moment_integral", "not-reproduced", True,
              "integral_0^1 x e^{-iux} dx = (1 - e^{-iu} + iu)/u^2",
              "at u=1: quadrature %(num)s, stated formula %(paper)s",
              "the antiderivative gives (e^{-iu}(1+iu) - 1)/u^2 = "
              "%(oracle)s at u=1, matching quadrature; the stated formula "
              "does not",
              [(abs(m_num - m_oracle), 1e-9)], num=m_num,
              paper=(1.0 - np.exp(-1j) + 1j) / 1.0, oracle=m_oracle),
        claim("example2.charfn", "reproduced", True,
              "characteristic function of x1 + j x2 under Fourier parameters",
              "max node error vs closed-form sandwich oracle %(err)s",
              "quadrature at %(n)s^2 against the closed form built from "
              "both 1D factors and the j x2 term's sandwich contribution",
              [(err2, 1e-6)], err=err2, n=n1d),
        claim("example2.final_formula", "not-reproduced", False,
              "phi(u,v) = (1/2pi) [(1-e^{-iu}+iu)/u^2] [(1-e^{-jv}+jv)/v^2]",
              "max node deviation from the stated formula %(err)s",
              "the stated result drops the j x2 term's contribution, uses "
              "the incorrect 1D moment formula, and omits the kernels' "
              "constant e^{-i pi/4}, e^{-j pi/4} phases", err=errp),
        claim("example2.kernel_constant",
              "reproduced-with-different-constant", False,
              "Fourier-parameter kernel (2pi)^{-1/2} e^{-i x u}",
              "kernel(0.3, 0.7) = %(got)s vs stated %(paper)s",
              "the defining kernel keeps the constant -pi/4 phase that the "
              "worked example drops",
              got=kernel_i(_FOURIER.A1, 0.3, 0.7),
              paper=1.0 / math.sqrt(2.0 * math.pi) * exp_i(-0.3 * 0.7)),
    ]


def _covariances(ns: dict, claim: _Make, mr_1: MomentReport) -> list[Claim]:
    """Definition 7 and the covariance properties; mr_1 is the Example 1
    density's covariance report."""
    pn = ns["pdf"]
    mr_u = covariance(uniform_pdf(pn))
    cov_norm = max(norm(mr_u.cov_12), norm(mr_u.cov_21))
    delta = mr_1.cov_12 - mr_1.cov_21
    comm = mul(mr_1.e_x2, mr_1.e_x1) - mul(mr_1.e_x1, mr_1.e_x2)
    corr = correlated_pdf(pn)
    base = covariance(corr)
    # X1 -> 2 X1: the same samples on [0, 2] x [0, 1] at half the density
    mr_a = covariance(SampledField(GridSpec(0.0, 2.0, 0.0, 1.0, pn, pn),
                                   corr.values / 2.0))
    del corr
    shifted = covariance(correlated_pdf(pn, x1_min=0.5))
    err_s = _qdiff(base.cov_12, shifted.cov_12)
    cov_c = norm(covariance(constant_x1_pdf(pn)).cov_12)
    mr_n = covariance(anticorrelated_pdf(pn))
    return [
        claim("definition7.uniform", "reproduced", True,
              "independent uniforms: Cov = 0 and Var(X1) = 1/12",
              "|Cov| = %(cov)s, Var(X1) = %(var)s", "",
              [(cov_norm, 1e-8),
               (_qdiff(mr_u.var_x1, Quaternion(1.0 / 12.0)), 1e-8)],
              cov=cov_norm, var=mr_u.var_x1),
        claim("definition7.commutator", "reproduced", True,
              "Cov(X1,X2) - Cov(X2,X1) = E[X2]E[X1] - E[X1]E[X2]",
              "difference %(delta)s, commutator %(comm)s",
              "Example 1 density; the two covariance orders differ by the "
              "commutator of the means",
              [(_qdiff(delta, comm), 1e-8)], delta=delta, comm=comm),
        claim("covariance_property4.shift", "reproduced", True,
              "Cov(X1 + b, X2) = Cov(X1, X2) for constant b",
              "|Cov change under shift b=0.5| = %(err)s",
              "correlated density (1 + x1 x2)/(5/4), Cov = %(cov)s",
              [(err_s, 1e-6)], err=err_s, cov=base.cov_12),
        claim("covariance_property2.constant", "reproduced", True,
              "Cov(a, X) = 0 for a constant",
              "|Cov| = %(cov)s with X1 concentrated on one grid line", "",
              [(cov_c, 1e-6)], cov=cov_c),
        claim("covariance_property1.nonnegativity", "not-reproduced",
              False, "Cov(X1, X2) cannot be negative",
              "Cov = %(cov)s for the density 1 - (x1-1/2)(x2-1/2) on "
              "[0,1]^2",
              "a valid real density with scalar covariance -1/144 < 0; the "
              "stated non-negativity does not follow from the covariance "
              "definition", cov=mr_n.cov_12),
        claim("covariance_property3.scaling", "not-reproduced", False,
              "Cov(aX, Y) = a^2 Cov(X, Y)",
              "a=2: Cov(aX,Y) = %(cov)s; deviation from a Cov %(lin)s, "
              "from a^2 Cov %(quad)s",
              "real scaling enters linearly, Cov(aX, Y) = a Cov(X, Y); the "
              "stated a^2 law is not reproduced",
              cov=mr_a.cov_12, lin=norm(mr_a.cov_12 - 2.0 * base.cov_12),
              quad=norm(mr_a.cov_12 - 4.0 * base.cov_12)),
    ]


# ---------------------------------------------------------------------------
# ledger serialization (deterministic: fixed order, repr floats, no times)

def ledger_json(claims: list[Claim], quick: bool = False) -> str:
    doc = {
        "suite": "qlct2d-verify",
        "resolution_profile": "quick" if quick else "full",
        "all_required_pass": all(c.passed for c in claims if c.required),
        "claims": [c.to_dict() for c in claims],
    }
    return json.dumps(doc, indent=1) + "\n"


def ledger_text(claims: list[Claim]) -> str:
    lines = []
    for c in claims:
        status = "PASS" if c.passed else "FAIL"
        req = "required" if c.required else "informative"
        lines.append(f"[{status}] {c.claim_id} ({c.verdict}; {req}) | "
                     f"stated: {c.stated} | measured: {c.measured}"
                     + (f" | note: {c.detail}" if c.detail else ""))
    n_req = sum(1 for c in claims if c.required)
    n_pass = sum(1 for c in claims if c.required and c.passed)
    lines.append(f"required checks: {n_pass}/{n_req} passed, "
                 f"{len(claims)} claims total")
    return "\n".join(lines) + "\n"
