"""Kernel algebra tests: brackets, the rotation Ad(exp(xi)), so(3) generators.

The reference is the quaternion model of SU(2) in tests/oracle.py; the
library holds only the rotation on su(2) coefficients.
"""

import numpy as np
import pytest

from ymeps.instanton import ParamError, ParamQ
from ymeps.liealg import rotation, so3_generator
from oracle import ad, bracket, qexp, qmul

E1, E2, E3 = np.eye(3)


def test_basis_commutation():
    assert np.allclose(bracket(E1, E2), E3, atol=1e-15)
    assert np.allclose(bracket(E2, E3), E1, atol=1e-15)
    assert np.allclose(bracket(E3, E1), E2, atol=1e-15)


def test_bracket_antisymmetry_and_bilinearity():
    X = np.array([1.0, 1.0, 0.0])
    assert not bracket(X, X).any()
    # (e1+e2, e2) -> e3
    assert np.allclose(bracket(X, E2), E3, atol=1e-15)


def test_bracket_equals_cross_product():
    # independent oracle: coefficients bracket = cross product
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, Y = rng.standard_normal((2, 3))
        assert np.allclose(bracket(X, Y), np.cross(X, Y), atol=1e-13)


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        X, Y, Z = rng.standard_normal((3, 3))
        total = (bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X))
                 + bracket(Z, bracket(X, Y)))
        assert np.linalg.norm(total) <= 1e-12


def test_exp_map_closed_form():
    # Ad(exp(t e3)) turns the (1,2)-plane by t and fixes e3
    for t in (0.3, -1.7, 5.0):
        c, s = np.cos(t), np.sin(t)
        want = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(rotation([0.0, 0.0, t]), want, atol=1e-15)


def test_exp_inverse():
    rng = np.random.default_rng(5)
    for _ in range(10):
        xi = rng.standard_normal(3)
        assert np.allclose(rotation(xi) @ rotation(-xi), np.eye(3), atol=1e-14)


def test_group_unit_norm_enforced():
    # [g] is held as a rotation: products stay on SO(3), and ParamQ refuses
    # a (3, 3) off the group, the zero matrix or a rescaled rotation
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b = 3.0 * rng.standard_normal((2, 3))
        R = rotation(a) @ rotation(b)
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert abs(np.linalg.norm(qmul(qexp(a), qexp(b))) - 1.0) < 1e-12
    for g in (np.zeros((3, 3)), 2.0 * rotation([0.3, -0.4, 0.2])):
        with pytest.raises(ParamError, match=r"\[g\]"):
            ParamQ.default(2.0 ** -6, g=g)


def test_adjoint_identity_and_isometry():
    rng = np.random.default_rng(17)
    X = rng.standard_normal(3)
    assert np.array_equal(rotation(np.zeros(3)) @ X, X)
    for _ in range(15):
        R = rotation(3.0 * rng.standard_normal(3))
        Y, Z = rng.standard_normal((2, 3))
        assert abs(np.linalg.norm(R @ Y) - np.linalg.norm(Y)) < 1e-12
        assert abs((R @ Y) @ (R @ Z) - Y @ Z) < 1e-12


def test_adjoint_sign_quotient():
    # g and -g conjugate alike: SO(3) is SU(2)/{+-1}, so [g] holds no sign
    rng = np.random.default_rng(19)
    g = qexp(rng.standard_normal(3))
    assert np.allclose(ad(g), ad(-g), atol=1e-14)
    assert np.allclose(qexp([2 * np.pi, 0.0, 0.0]), [-1.0, 0.0, 0.0, 0.0],
                       atol=1e-15)


def test_adjoint_quarter_turn():
    # derived via the symbolic quaternion oracle:
    # g = exp((pi/2) e3) = (cos pi/4) + k (sin pi/4) conjugates e1 to +e2.
    assert np.allclose(rotation([0.0, 0.0, np.pi / 2]) @ E1, E2, atol=1e-15)
    assert np.allclose(ad(qexp([0.0, 0.0, np.pi / 2])) @ E1, E2, atol=1e-15)


def test_adjoint_matrix_is_rotation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        R = rotation(4.0 * rng.standard_normal(3))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_so3_generators_structure_constants():
    L1, L2, L3 = so3_generator(1), so3_generator(2), so3_generator(3)
    assert np.allclose(L1 @ L2 - L2 @ L1, L3)
    assert np.allclose(L2 @ L3 - L3 @ L2, L1)
    assert np.allclose(L3 @ L1 - L1 @ L3, L2)
    # L_i is ad(e_i) in coefficients: L_i @ y = bracket(e_i, Y)
    rng = np.random.default_rng(29)
    Y = rng.standard_normal(3)
    for i, E in ((1, E1), (2, E2), (3, E3)):
        assert np.allclose(so3_generator(i) @ Y, bracket(E, Y))


def test_adjoint_exp_is_axis_rotation():
    # exp(pi*e1): adjoint = rotation by pi about axis 1 -> diag(1,-1,-1)
    R = rotation([np.pi, 0.0, 0.0])
    assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-15)


def test_rotation_is_the_adjoint_of_exp():
    rng = np.random.default_rng(31)
    for _ in range(40):
        v = rng.standard_normal(3)
        xi = rng.uniform(0.0, 4 * np.pi) * v / np.linalg.norm(v)
        assert np.allclose(rotation(xi), ad(qexp(xi)), rtol=0.0, atol=1e-14)


def test_rotation_at_zero_is_exactly_the_identity():
    R = rotation(np.zeros(3))
    assert R.dtype == float and np.array_equal(R, np.eye(3))
    assert np.array_equal(rotation([0, 0, 0]), np.eye(3))


def test_rotations_compose_as_the_group_product():
    # _shift_along moves [g] to g exp(xi) as q.g @ rotation(xi)
    rng = np.random.default_rng(37)
    for _ in range(20):
        a, b = 2.0 * rng.standard_normal((2, 3))
        assert np.allclose(rotation(a) @ rotation(b),
                           ad(qmul(qexp(a), qexp(b))), rtol=0.0, atol=1e-14)
