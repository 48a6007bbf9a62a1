"""Acceptance suite: eleven numbered criteria, each printing one
pass/fail line with its measured values and pinned tolerances."""

import json
import math
import time

import numpy as np
import pytest

from qlct2d.cli import main as cli_main
from qlct2d.field import GridSpec, SampledField, integrate
from qlct2d.gridio import write_field
from qlct2d.lct import LctParams, TransformParams, fourier_params
from qlct2d.prob import charfn, charfn_properties, covariance, fd_moment
from qlct2d.quaternion import Quaternion, conj, norm
from qlct2d.transform import (forward, inverse, parseval_ratio,
                              product_residuals)
from qlct2d.verify import (bump_field, correlated_pdf, example1_numerator,
                           example2_charfn_oracle, example2_density,
                           gaussian_pdf, gaussian_test_field, run_verify,
                           uniform_pdf)

FOUR = fourier_params()


def _report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _claim_map(claims):
    return {c.claim_id: c for c in claims}


@pytest.fixture(scope="module")
def ledger():
    return _claim_map(run_verify(quick=False))


def _qdiff(p, q):
    return max(abs(a - b) for a, b in zip(p.components(), q.components()))


# (claim_id, verdict, passed) of every ledger claim in ledger order; the
# full and the quick profile both produce exactly this table
LEDGER_VERDICTS = [
    ("example1.E_X1_numerator", "reproduced", True),
    ("example1.E_X1_quotient", "reproduced", True),
    ("example1.normalization", "not-reproduced", True),
    ("definition4.example1", "not-reproduced", True),
    ("theorem1.parseval", "reproduced-with-different-constant", True),
    ("definition2.roundtrip_fourier", "reproduced", True),
    ("definition2.roundtrip_shear", "reproduced", True),
    ("theorem2.convolution_structured",
     "reproduced-with-different-constant", True),
    ("theorem2.convolution_generic", "diagnostic-only", True),
    ("theorem3.correlation_structured",
     "reproduced-with-different-constant", True),
    ("theorem3.correlation_generic", "diagnostic-only", True),
    ("property1.normalization", "reproduced", True),
    ("theorem8.bound", "reproduced", True),
    ("property3.symmetry", "reproduced-with-different-constant", True),
    ("theorem4.continuity", "reproduced", True),
    ("theorem5.factorization", "reproduced", True),
    ("property5.inversion", "reproduced", True),
    ("property6.fd_moments", "reproduced", True),
    ("example2.moment_integral", "not-reproduced", True),
    ("example2.charfn", "reproduced", True),
    ("example2.final_formula", "not-reproduced", True),
    ("example2.kernel_constant", "reproduced-with-different-constant", True),
    ("definition7.uniform", "reproduced", True),
    ("definition7.commutator", "reproduced", True),
    ("covariance_property4.shift", "reproduced", True),
    ("covariance_property2.constant", "reproduced", True),
    ("covariance_property1.nonnegativity", "not-reproduced", True),
    ("covariance_property3.scaling", "not-reproduced", True),
]


def test_ledger_verdicts_full_profile(ledger):
    got = [(c.claim_id, c.verdict, c.passed) for c in ledger.values()]
    assert got == LEDGER_VERDICTS


def test_ledger_verdicts_quick_profile():
    got = [(c.claim_id, c.verdict, c.passed) for c in run_verify(quick=True)]
    assert got == LEDGER_VERDICTS


def test_criterion_01_example1_moments():
    from qlct2d.prob import expectation
    from qlct2d.quaternion import inverse as qinv, mul
    t0 = time.perf_counter()
    f = example1_numerator(513)
    m1 = expectation(f, "x1")
    elapsed = time.perf_counter() - t0
    oracle = Quaternion(44.0 / 3.0, 8.0 / 3.0, 16.0 / 3.0, 12.0)
    err = _qdiff(m1, oracle)
    den = Quaternion(20.0, 0.0, 4.0, 8.0)
    quot = mul(qinv(den), m1)
    quot_oracle = mul(qinv(den), oracle)
    errq = _qdiff(quot, quot_oracle)
    ok = err <= 1e-6 and errq <= 1e-6 and elapsed < 5.0
    _report(1, ok,
            f"moment integral error {err:.3e} (tol 1e-6), left-quotient "
            f"error {errq:.3e} (tol 1e-6), runtime {elapsed:.2f}s (< 5s) "
            f"at 513^2 nodes")


def test_criterion_02_example1_normalization_audit(ledger):
    total = integrate(example1_numerator(513))
    err = _qdiff(total, Quaternion(12.0, 0.0, 4.0, 8.0))
    claim = ledger["example1.normalization"]
    ok = err <= 1e-6 and claim.verdict == "not-reproduced" and claim.passed
    _report(2, ok,
            f"total integral ({total.q0:.9f}, {total.q1:.2e}, "
            f"{total.q2:.9f}, {total.q3:.9f}) vs derived (12, 0, 4, 8), "
            f"error {err:.3e} (tol 1e-6); ledger flags the stated "
            f"denominator (20, 0, 4, 8) as {claim.verdict}")


def test_criterion_03_quaternion_property_suite():
    from qlct2d.quaternion import ONE, inverse as qinv, isclose, mul, norm
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for _ in range(10_000):
        p, q, r = (Quaternion(*rng.uniform(-2.0, 2.0, size=4))
                   for _ in range(3))
        scale = max(norm(p) * norm(q) * max(norm(r), 1.0), 1.0)
        e1 = abs(norm(mul(p, q)) - norm(p) * norm(q)) / scale
        e2 = _qdiff(conj(mul(p, q)), mul(conj(q), conj(p))) / scale
        e3 = _qdiff(mul(mul(p, q), r), mul(p, mul(q, r))) / scale
        worst = max(worst, e1, e2, e3)
        ok = ok and isclose(mul(q, qinv(q)), ONE)
    elapsed = time.perf_counter() - t0
    ok = ok and worst <= 1e-12 and elapsed < 1.0
    _report(3, ok,
            f"10^4 random triples: worst relative identity error "
            f"{worst:.3e} (tol 1e-12), inverse identity held, runtime "
            f"{elapsed:.2f}s (< 1s)")


def test_criterion_04_transform_roundtrip():
    t0 = time.perf_counter()
    n = 257
    f = gaussian_test_field(n)
    spec = f.spec
    dnm = float(np.sqrt(np.sum(f.values ** 2)))

    back_f = inverse(forward(f, FOUR, spec), spec)
    rel_f = float(np.sqrt(np.sum((back_f.values - f.values) ** 2))) / dnm

    shear = TransformParams(LctParams(1.0, 0.5, 0.0, 1.0),
                            LctParams(1.0, 0.5, 0.0, 1.0))
    wide = GridSpec(-12.0, 12.0, -12.0, 12.0, n, n)
    back_s = inverse(forward(f, shear, wide), spec)
    rel_s = float(np.sqrt(np.sum((back_s.values - f.values) ** 2))) / dnm
    elapsed = time.perf_counter() - t0
    ok = rel_f <= 1e-3 and rel_s <= 1e-2 and elapsed < 60.0
    _report(4, ok,
            f"roundtrip relative L2 error {rel_f:.3e} (fourier, tol 1e-3) "
            f"and {rel_s:.3e} (shear (1,0.5,0,1), tol 1e-2) at 257^2, "
            f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_05_plancherel_constant(ledger):
    n = 257
    f1, f2 = gaussian_test_field(n), bump_field(n)
    r1 = parseval_ratio(f1, FOUR, f1.spec)
    r2 = parseval_ratio(f2, FOUR, f2.spec)
    claim = ledger["theorem1.parseval"]
    ok = (abs(r1 - r2) <= 1e-3 and abs(r1 - 1.0) <= 1e-3
          and claim.verdict == "reproduced-with-different-constant"
          and claim.passed)
    _report(5, ok,
            f"energy ratios {r1:.9f} and {r2:.9f} agree within 1e-3; "
            f"measured constant 1.0, stated (2pi)^2 not reproduced "
            f"(ledger verdict {claim.verdict}, expected and asserted)")


def test_criterion_06_convolution_correlation(ledger):
    from qlct2d.verify import generic_pair, structured_pair
    n = 129
    freq = GridSpec(-5.0, 5.0, -5.0, 5.0, 81, 81)
    f, g = structured_pair(n)
    lit_conv, nrm_conv = product_residuals(f, g, FOUR, freq)
    lit_corr, nrm_corr = product_residuals(f, g, FOUR, freq, correlation=True)
    shear = TransformParams(LctParams(1.0, 0.5, 0.0, 1.0),
                            LctParams(1.0, 0.5, 0.0, 1.0))
    fg, gg = generic_pair(n)
    gen_conv, _ = product_residuals(fg, gg, shear, freq)
    gen_corr, _ = product_residuals(fg, gg, shear, freq, correlation=True)
    ok = (nrm_conv <= 1e-2 and nrm_corr <= 1e-2
          and abs(lit_conv - 1.0) <= 1e-6 and abs(lit_corr - 1.0) <= 1e-6
          and math.isfinite(gen_conv) and math.isfinite(gen_corr)
          and ledger["theorem2.convolution_generic"].verdict
          == "diagnostic-only")
    _report(6, ok,
            f"structured pair at 129^2: 2pi-scaled identity residuals "
            f"{nrm_conv:.3e} (conv) and {nrm_corr:.3e} (corr) under "
            f"constant-phase normalization (tol 1e-2); unnormalized "
            f"residuals {lit_conv:.12f}/{lit_corr:.12f} equal the derived "
            f"constant 1 (tol 1e-6); generic-pair residuals {gen_conv:.3f}/"
            f"{gen_corr:.3f} finite, reported diagnostic-only")


def test_criterion_07_charfn_properties():
    f = gaussian_pdf(201, s2=1.5)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 33, 33)
    cf = charfn(f, freq)
    props = charfn_properties(cf, f)
    # independent gaussian marginals: phi = e^{-u^2/2} e^{-(1.5 v)^2/2}
    uu = freq.x1_nodes()[:, None]
    vv = freq.x2_nodes()[None, :]
    expected = np.zeros((33, 33, 4))
    expected[..., 0] = np.exp(-uu ** 2 / 2.0 - (1.5 * vv) ** 2 / 2.0)
    fac_err = float(np.max(np.abs(cf.spectrum.values - expected)))
    ok = (props["normalization_error"] <= 1e-6
          and props["max_modulus"] <= 1.0 + 1e-9
          and props["parity_max_error"] <= 1e-8
          and fac_err <= 1e-6)
    _report(7, ok,
            f"phi(0,0) error {props['normalization_error']:.3e} (tol 1e-6); "
            f"max |phi| = {props['max_modulus']:.12f} (<= 1 + 1e-9); "
            f"component-parity symmetry error {props['parity_max_error']:.3e} "
            f"(tol 1e-8); factorization error {fac_err:.3e} (tol 1e-6)")


def test_criterion_08_fd_moments():
    u = uniform_pdf(201)
    fd10 = fd_moment(u, 1, 0, 1e-3)
    fd11 = fd_moment(u, 1, 1, 1e-3)
    e10 = _qdiff(fd10, Quaternion(0.5))
    e11 = _qdiff(fd11, Quaternion(0.25))
    coarse = _qdiff(fd_moment(u, 1, 0, 2e-3), Quaternion(0.5))
    factor = coarse / e10 if e10 > 0.0 else math.inf
    ok = e10 <= 1e-5 and e11 <= 1e-4 and factor >= 3.5
    _report(8, ok,
            f"uniform [0,1]^2 at h=1e-3: fd(1,0) error {e10:.3e} "
            f"(tol 1e-5), fd(1,1) error {e11:.3e} (tol 1e-4), halving-h "
            f"convergence factor {factor:.2f} (>= 3.5)")


def test_criterion_09_example2_oracle(ledger):
    f = example2_density(513)
    freq = GridSpec(-4.0, 4.0, -4.0, 4.0, 17, 17)
    cf = charfn(f, freq, mode="lct", params=FOUR)
    oracle = example2_charfn_oracle(freq)
    err = float(np.max(np.abs(cf.spectrum.values - oracle)))
    claim = ledger["example2.final_formula"]
    ok = err <= 1e-6 and claim.verdict == "not-reproduced"
    _report(9, ok,
            f"characteristic function of x1 + j x2 matches the derived "
            f"closed-form sandwich oracle to {err:.3e} (tol 1e-6, 513^2 "
            f"quadrature); the stated final formula is marked "
            f"{claim.verdict} in the ledger")


def test_criterion_10_covariance():
    n = 201
    mr_u = covariance(uniform_pdf(n))
    cov_norm = max(norm(mr_u.cov_12), norm(mr_u.cov_21))
    var_err = _qdiff(mr_u.var_x1, Quaternion(1.0 / 12.0))

    mr_1 = covariance(example1_numerator(257))
    from qlct2d.quaternion import mul
    delta = mr_1.cov_12 - mr_1.cov_21
    comm = mul(mr_1.e_x2, mr_1.e_x1) - mul(mr_1.e_x1, mr_1.e_x2)
    comm_err = _qdiff(delta, comm)

    shift_err = _qdiff(covariance(correlated_pdf(n)).cov_12,
                       covariance(correlated_pdf(n, x1_min=0.5)).cov_12)
    ok = (cov_norm <= 1e-8 and var_err <= 1e-8 and comm_err <= 1e-8
          and shift_err <= 1e-6)
    _report(10, ok,
            f"independent uniforms: |Cov| = {cov_norm:.3e} (tol 1e-8), "
            f"Var(X1) error {var_err:.3e} (tol 1e-8); covariance-order "
            f"difference matches the mean commutator to {comm_err:.3e} "
            f"(tol 1e-8); real-shift invariance error {shift_err:.3e} "
            f"(tol 1e-6)")


def test_criterion_11_cli_contract(tmp_path):
    out1 = str(tmp_path / "ledger1.json")
    out2 = str(tmp_path / "ledger2.json")
    rc1 = cli_main(["verify", "--quick", "--out", out1])
    rc2 = cli_main(["verify", "--quick", "--out", out2])
    with open(out1, "rb") as fh:
        b1 = fh.read()
    with open(out2, "rb") as fh:
        b2 = fh.read()
    deterministic = rc1 == rc2 == 0 and b1 == b2

    # crafted bad inputs: empty grid file, non-unimodular matrix,
    # unattainable verification tolerance
    empty = str(tmp_path / "empty.csv")
    open(empty, "w").close()
    rc_parse = cli_main(["transform", empty,
                         "--out", str(tmp_path / "a.json")])

    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    vals = np.zeros((9, 9, 4))
    vals[..., 0] = 1.0
    src = str(tmp_path / "f.csv")
    write_field(SampledField(spec, vals), src)
    bad = str(tmp_path / "bad_params.json")
    with open(bad, "w") as fh:
        json.dump({"A1": {"a": 1.0, "b": 0.5, "c": 0.0, "d": 0.9},
                   "A2": {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}}, fh)
    rc_config = cli_main(["transform", src, "--params", bad,
                          "--out", str(tmp_path / "b.json")])

    rc_verify = cli_main(["verify", "--quick", "--tol", "1e-30"])
    ok = (deterministic and rc_parse == 2 and rc_config == 3
          and rc_verify == 4)
    _report(11, ok,
            f"two verify runs byte-identical ({len(b1)} bytes, exit 0); "
            f"exit codes on crafted bad inputs: parse error {rc_parse} "
            f"(want 2), non-unimodular matrix {rc_config} (want 3), "
            f"unattainable tolerance {rc_verify} (want 4)")
