"""Probability layer: quaternion densities, characteristic functions,
moments and covariance.

A quaternion density is a sampled field whose four real components are
density-like.  The characteristic function is the two-sided sandwich
integral

    phi(u, v) = integral e^{i u x1} f(x1, x2) e^{j v x2} dx1 dx2

in fourier mode (no amplitude factor, positive exponents), or the
kernel sandwich of the linear canonical transform in lct mode; the
spectrum's transform parameters, or their absence, fix the mode.
Moments are quadratures of the density or finite differences of phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from functools import partial

import numpy as np

from .field import (GridSpec, SampledField, integrate, qnorm_values,
                    _axis_weights, _origin_offset, _quadrature)
from .lct import TransformParams
from .quaternion import I, J, ONE, Quaternion, mul, norm
from .transform import (Spectrum, forward, inverse as lct_inverse, _axes,
                        _sandwich, _side)

__all__ = [
    "QpdfReport",
    "CharFn",
    "MomentReport",
    "validate_qpdf",
    "expectation",
    "charfn",
    "charfn_properties",
    "invert_charfn",
    "fd_moment",
    "covariance",
]

_COMPONENT_NAMES = ("a", "b", "c", "d")
_MASS_TOL = 1e-6
_NEG_TOL = 1e-12


def _report_dict(report) -> dict:
    """A report's fields in declaration order, as JSON-ready values."""
    def plain(v):
        if isinstance(v, Quaternion):
            return list(v.components())
        if isinstance(v, dict):
            return dict(v)
        return list(v) if isinstance(v, tuple) else v
    return {f.name: plain(getattr(report, f.name)) for f in fields(report)}


@dataclass(frozen=True)
class QpdfReport:
    """Validation outcome for a candidate quaternion density.

    Both the strict verdict (every component a real PDF: nonnegative
    and unit mass) and the relaxed verdict (components nonnegative,
    total integral recorded but not forced) are always stated.
    violations lists every strict violation, negativity first.
    """

    strict_ok: bool
    relaxed_ok: bool
    component_integrals: tuple[float, float, float, float]
    component_minima: tuple[float, float, float, float]
    total_integral: Quaternion
    violations: tuple[str, ...]

    to_dict = _report_dict


@dataclass(frozen=True)
class CharFn:
    """Sampled characteristic function.  mode is "lct" (the canonical
    transform's kernels) when the spectrum carries transform parameters,
    and "fourier" (the unnormalized kernels e^{iux1}, e^{jvx2}) when not.
    """

    spectrum: Spectrum

    @property
    def mode(self) -> str:
        return "fourier" if self.spectrum.params is None else "lct"


def validate_qpdf(f: SampledField) -> QpdfReport:
    """Check the density axioms and report both verdicts.

    The strict verdict demands each of the four components be a real
    PDF: everywhere >= -_NEG_TOL and integrating to 1 within _MASS_TOL.
    The relaxed verdict demands only nonnegativity; the total quaternion
    integral is recorded, not constrained.  Violations are data, not
    exceptions.
    """
    w1, w2 = _axis_weights(f.spec)
    integrals = tuple(map(float, _quadrature(f.values, w1, w2)))
    minima = tuple(float(np.min(f.values[..., l])) for l in range(4))
    total = Quaternion(*integrals)

    violations = []
    for name, lo in zip(_COMPONENT_NAMES, minima):
        if lo < -_NEG_TOL:
            violations.append(f"component {name} is negative (min {lo!r})")
    relaxed_ok = not violations
    for name, mass in zip(_COMPONENT_NAMES, integrals):
        if abs(mass - 1.0) > _MASS_TOL:
            violations.append(
                f"component {name} integrates to {mass!r}, not 1")
    strict_ok = not violations
    return QpdfReport(strict_ok, relaxed_ok, integrals, minima, total,
                      tuple(violations))


def _weight_powers(weight) -> tuple[int, int]:
    named = {"x1": (1, 0), "x2": (0, 1), "x1x2": (1, 1),
             "x1^2": (2, 0), "x2^2": (0, 2)}
    if isinstance(weight, str):
        if weight not in named:
            raise ValueError(f"unknown weight {weight!r}")
        return named[weight]
    m, n = weight
    # m % 1 is nonzero, or NaN, for a fractional or non-finite power
    if m % 1 or n % 1:
        raise ValueError(f"weight powers must be integers, not {weight!r}")
    if m < 0 or n < 0:
        raise ValueError("weight powers must be nonnegative")
    return int(m), int(n)


def expectation(f: SampledField, weight) -> Quaternion:
    """Weighted moment integral x1^m x2^n against the density.

    weight is one of the names "x1", "x2", "x1x2", "x1^2", "x2^2" or a
    pair (m, n).  The weight is real and commutes; the result is the
    componentwise quadrature of w(x) f(x).
    """
    m, n = _weight_powers(weight)
    w1, w2 = _axis_weights(f.spec)
    return Quaternion(*_quadrature(f.values, w1 * f.spec.x1_nodes() ** m,
                                   w2 * f.spec.x2_nodes() ** n))


def charfn(f: SampledField, freq: GridSpec, mode: str = "fourier",
           params: TransformParams | None = None) -> CharFn:
    """Characteristic function on a frequency grid.

    Fourier mode sandwiches f between e^{iux1} (left) and e^{jvx2}
    (right) with positive exponents and no amplitude factor.  Lct mode
    uses the canonical-transform kernels and requires params, which
    fourier mode rejects.
    """
    if mode == "lct":
        if params is None:
            raise ValueError("lct mode requires transform parameters")
        return CharFn(forward(f, params, freq))
    if mode != "fourier":
        raise ValueError(f"unknown mode {mode!r}")
    if params is not None:
        raise ValueError("fourier mode takes no params (use mode lct)")
    (x1, x2), (u, v) = _axes(f.spec), _axes(freq)
    return CharFn(Spectrum(freq, _sandwich(f.values, (freq.n1, freq.n2),
                                           partial(_side, 1, x1, u),
                                           partial(_side, 1, x2, v))))


def _abs_integral(f: SampledField, x1_factor=1.0) -> float:
    """integral x1_factor(x1) |f(x)| dx, x1_factor given per axis-1 node."""
    w1, w2 = _axis_weights(f.spec)
    return float(_quadrature(qnorm_values(f.values), w1 * x1_factor, w2))


def charfn_properties(cf: CharFn, f: SampledField) -> dict:
    """Empirical property report for a characteristic function.

    Checks normalization phi(0,0) against the density integral, the
    modulus bound against integral |f| (which is 1 for a real PDF),
    component parity under (u,v) -> (-u,-v) for real densities on a
    symmetric frequency grid, and a small-shift continuity bound with
    constant C = integral |x1| |f| dx.
    """
    spec = cf.spectrum.spec
    vals = cf.spectrum.values
    report: dict = {"mode": cf.mode}

    total = integrate(f)
    r0, c0 = (-o for o in _origin_offset(spec))
    if not (0 <= r0 < spec.n1 and 0 <= c0 < spec.n2):
        raise ValueError("frequency grid has no node at the origin")
    phi0 = Quaternion(*vals[r0, c0])
    report["phi_origin"] = list(phi0.components())
    report["density_integral"] = list(total.components())
    report["normalization_error"] = norm(phi0 - total)

    mod = qnorm_values(vals)
    bound = _abs_integral(f)
    report["max_modulus"] = float(np.max(mod))
    report["modulus_bound"] = bound
    report["modulus_bound_satisfied"] = bool(np.max(mod) <= bound + 1e-9)

    f_is_real = bool(np.max(np.abs(f.values[..., 1:])) < 1e-14)
    report["density_is_real"] = f_is_real
    symmetric = (abs(spec.x1_min + spec.x1_max) < 1e-9
                 and abs(spec.x2_min + spec.x2_max) < 1e-9)
    if f_is_real and symmetric:
        flipped = vals[::-1, ::-1]
        # real density: components of phi are (even, odd, odd, even)
        # under point reflection of (u, v).
        signs = (1.0, -1.0, -1.0, 1.0)
        err = max(float(np.max(np.abs(flipped[..., l] - s * vals[..., l])))
                  for l, s in enumerate(signs))
        report["parity_max_error"] = err

    c_bound = _abs_integral(f, np.abs(f.spec.x1_nodes()))
    step = float(np.max(qnorm_values(np.diff(vals, axis=0))))
    report["continuity_max_step"] = step
    report["continuity_bound"] = c_bound * spec.h1
    report["continuity_satisfied"] = bool(step <= c_bound * spec.h1 + 1e-9)
    return report


def invert_charfn(cf: CharFn, space: GridSpec) -> SampledField:
    """Recover the density from its characteristic function.

    Fourier mode integrates e^{-iux1} phi e^{-jvx2} over the frequency
    box with normalization 1/(2*pi)^2; lct mode delegates to the
    canonical-transform inverse.
    """
    if cf.mode == "lct":
        return lct_inverse(cf.spectrum, space)
    (u, v), (x1, x2) = _axes(cf.spectrum.spec), _axes(space)
    return SampledField(space, _sandwich(
        cf.spectrum.values, (space.n1, space.n2),
        partial(_side, -1, u, x1, amp=1.0 / (2.0 * math.pi) ** 2),
        partial(_side, -1, v, x2)))


def fd_moment(f: SampledField, m: int, n: int, h: float = 1e-3) -> Quaternion:
    """Moment E[X1^m X2^n] from finite differences of the fourier-mode
    characteristic function at the origin.

    The central difference (FD) of order m in u and n in v is one
    separable weighted sum of phi on a 3x3 stencil of spacing h.  The
    kernel sides contribute i^m on the left and j^n on the right, so the
    moment is (-i)^m (FD) (-j)^n.  Limited to m + n <= 2; h below 1e-5
    is rejected to avoid cancellation.
    """
    if m < 0 or n < 0 or m + n > 2:
        raise ValueError("fd_moment supports orders with m + n <= 2")
    m, n = _weight_powers((m, n))  # integral orders, as table indices
    if h < 1e-5:
        raise ValueError("h below 1e-5 loses the moment to cancellation")
    phi = charfn(f, GridSpec(-h, h, -h, h, 3, 3)).spectrum.values
    # row k: the 1-D central difference of order k on nodes -h, 0, h
    d = np.array([[0.0, 1.0, 0.0], [-0.5 / h, 0.0, 0.5 / h],
                  [1.0 / h ** 2, -2.0 / h ** 2, 1.0 / h ** 2]])
    fd = Quaternion(*_quadrature(phi, d[m], d[n]))
    return mul(mul((ONE, -I, -ONE)[m], fd), (ONE, -J, -ONE)[n])


@dataclass(frozen=True)
class MomentReport:
    """First and second moments with covariance in both factor orders.

    cov_12 = E[X1X2] - E[X1] E[X2] and cov_21 = E[X1X2] - E[X2] E[X1];
    the two differ by the commutator of the means.
    """

    e_x1: Quaternion
    e_x2: Quaternion
    e_x1x2: Quaternion
    e_x1sq: Quaternion
    e_x2sq: Quaternion
    var_x1: Quaternion
    var_x2: Quaternion
    cov_12: Quaternion
    cov_21: Quaternion
    resolution: dict = dc_field(default_factory=dict)

    to_dict = _report_dict


def covariance(f: SampledField) -> MomentReport:
    """Moments, variances and both covariance orders of the density."""
    e1 = expectation(f, "x1")
    e2 = expectation(f, "x2")
    e12 = expectation(f, "x1x2")
    e1sq = expectation(f, "x1^2")
    e2sq = expectation(f, "x2^2")
    return MomentReport(
        e_x1=e1, e_x2=e2, e_x1x2=e12, e_x1sq=e1sq, e_x2sq=e2sq,
        var_x1=e1sq - mul(e1, e1),
        var_x2=e2sq - mul(e2, e2),
        cov_12=e12 - mul(e1, e2),
        cov_21=e12 - mul(e2, e1),
        resolution=f.spec.to_dict(),
    )
