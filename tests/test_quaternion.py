"""Quaternion algebra: multiplication table, identities, property tests."""

import math

import numpy as np
import pytest

from qlct2d.quaternion import (I, J, K, ONE, Quaternion, conj, exp_i,
                               inverse, isclose, mul, norm)


def _rand_q(rng):
    return Quaternion(*rng.uniform(-2.0, 2.0, size=4))


def test_multiplication_table():
    table = {
        (I, I): -ONE, (J, J): -ONE, (K, K): -ONE,
        (I, J): K, (J, I): -K,
        (J, K): I, (K, J): -I,
        (K, I): J, (I, K): -J,
    }
    for (p, q), expected in table.items():
        assert isclose(mul(p, q), expected)
    assert isclose(mul(mul(I, J), K), -ONE)


def test_operators_match_functions():
    p = Quaternion(1.0, -2.0, 0.5, 3.0)
    q = Quaternion(0.25, 1.5, -1.0, 2.0)
    assert isclose(p * q, mul(p, q))
    assert isclose(p + q, Quaternion(1.25, -0.5, -0.5, 5.0))
    assert isclose(p - q, Quaternion(0.75, -3.5, 1.5, 1.0))
    assert isclose(-p, Quaternion(-1.0, 2.0, -0.5, -3.0))
    assert isclose(2.0 * p, Quaternion(2.0, -4.0, 1.0, 6.0))
    assert isclose(p * 2.0, 2.0 * p)
    assert isclose(1.0 + p, Quaternion(2.0, -2.0, 0.5, 3.0))
    assert isclose(p / 2.0, Quaternion(0.5, -1.0, 0.25, 1.5))
    assert isclose(p / q, mul(p, inverse(q)))


def test_conjugate_and_norm():
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert isclose(conj(q), Quaternion(1.0, -2.0, -3.0, -4.0))
    assert norm(q) == pytest.approx(math.sqrt(30.0))
    # q q* = |q|^2
    assert isclose(mul(q, conj(q)), Quaternion(30.0))
    d = Quaternion(20.0, 0.0, 4.0, 8.0)
    assert norm(d) == pytest.approx(math.sqrt(480.0))
    assert isclose(mul(inverse(d), d), ONE)
    assert isclose(mul(d, inverse(d)), ONE)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(Quaternion())


def test_unit_exponentials():
    t = 0.7
    assert isclose(exp_i(t), Quaternion(math.cos(t), math.sin(t), 0.0, 0.0))
    # same-axis exponentials compose additively
    assert isclose(mul(exp_i(0.3), exp_i(0.4)), exp_i(0.7))
    assert norm(exp_i(t)) == pytest.approx(1.0)


def test_scalar_vector_decomposition():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = _rand_q(rng)
        q = _rand_q(rng)
        (p0, *pv), (q0, *qv) = p.components(), q.components()
        # pq = p0 q0 - p.q + p0 vec(q) + q0 vec(p) + p x q, with the
        # vector parts' dot and cross products taken by numpy
        vector = (p0 * np.array(qv) + q0 * np.array(pv)
                  + np.cross(pv, qv))
        rebuilt = Quaternion(p0 * q0 - np.dot(pv, qv), *vector)
        assert isclose(mul(p, q), rebuilt)


def test_scalar_part_cyclic_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q, r = (_rand_q(rng) for _ in range(3))
        s = mul(mul(r, p), q).q0
        assert mul(mul(q, r), p).q0 == pytest.approx(s, abs=1e-12, rel=1e-12)
        assert mul(mul(p, q), r).q0 == pytest.approx(s, abs=1e-12, rel=1e-12)


def test_scalar_part_not_invariant_under_adjacent_swap():
    # swapping adjacent factors is not a cyclic permutation and fails:
    # the scalar part of ijk is -1 but that of jik is +1
    assert mul(mul(I, J), K).q0 == pytest.approx(-1.0)
    assert mul(mul(J, I), K).q0 == pytest.approx(1.0)


def test_random_triple_properties():
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        p, q, r = (_rand_q(rng) for _ in range(3))
        scale = norm(p) * norm(q)
        assert abs(norm(mul(p, q)) - scale) <= 1e-12 * max(scale, 1.0)
        assert isclose(conj(mul(p, q)), mul(conj(q), conj(p)))
        assert isclose(mul(mul(p, q), r), mul(p, mul(q, r)),
                       rel_tol=1e-12, abs_tol=1e-12)
        assert isclose(mul(q, inverse(q)), ONE)


def test_isclose_tolerances():
    assert isclose(Quaternion(1.0), Quaternion(1.0 + 1e-13))
    assert not isclose(Quaternion(1.0), Quaternion(1.0 + 1e-6))
    assert isclose(Quaternion(1e6), Quaternion(1e6 * (1.0 + 1e-13)))


def test_coercion_rejects_junk():
    with pytest.raises(TypeError):
        Quaternion(1.0) * "text"


@pytest.mark.parametrize("s", [np.int64(2), np.float32(2.0)])
def test_arithmetic_takes_numpy_scalars(s):
    # a numpy scalar is a real number, as it is to Quaternion(s)
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert q * s == s * q == Quaternion(2.0, 4.0, 6.0, 8.0)
    assert q / s == Quaternion(0.5, 1.0, 1.5, 2.0)
    assert q + s == Quaternion(3.0, 2.0, 3.0, 4.0)
    assert q - s == Quaternion(-1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("r", [0, 0.0, np.float64(0), np.int64(0)],
                         ids=["int", "float", "float64", "int64"])
def test_quaternion_divided_by_real_zero_raises(r):
    # a numpy zero raises like a Python one, and like inverse(Quaternion())
    with pytest.raises(ZeroDivisionError):
        Quaternion(1.0) / r


def test_quaternion_divided_by_float32_keeps_double_precision():
    assert Quaternion(1.0, 2.0) / np.float32(3.0) == Quaternion(1.0, 2.0) / 3.0


@pytest.mark.parametrize("r", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_real_divided_by_quaternion(r):
    # r / q = r q^-1 for a real r of any kind, like q / r and r * q
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    got = r / q
    assert type(got) is Quaternion
    assert isclose(got, mul(Quaternion(2.0), inverse(q)))
    assert isclose(got * q, Quaternion(2.0))


def test_real_divided_by_zero_quaternion_raises():
    with pytest.raises(ZeroDivisionError):
        2.0 / Quaternion(0.0)


def test_equality_is_exact():
    # == compares components exactly; isclose is the tolerance test
    p, q = Quaternion(1.0), Quaternion(1.0 + 1e-15)
    assert p != q and isclose(p, q)


def test_components_are_plain_floats():
    q = Quaternion(np.float64(1.5), 0, np.float32(0.25), 2)
    assert all(type(c) is float for c in q.components())
    assert q.components() == (1.5, 0.0, 0.25, 2.0)
