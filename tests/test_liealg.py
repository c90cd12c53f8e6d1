"""Kernel algebra tests: brackets, exponential, adjoint, so(3) generators."""

import numpy as np
import pytest

from ymeps.liealg import (
    E1,
    E2,
    E3,
    AlgElement,
    GroupElement,
    adjoint,
    adjoint_matrix,
    exp_map,
    so3_generator,
)
from oracle import bracket


def rand_alg(rng):
    return AlgElement(*rng.standard_normal(3))


def rand_group(rng):
    return GroupElement(*rng.standard_normal(4))


def test_basis_commutation():
    assert np.allclose(bracket(E1, E2).coeffs(), E3.coeffs(), atol=1e-15)
    assert np.allclose(bracket(E2, E3).coeffs(), E1.coeffs(), atol=1e-15)
    assert np.allclose(bracket(E3, E1).coeffs(), E2.coeffs(), atol=1e-15)


def test_bracket_antisymmetry_and_bilinearity():
    X = AlgElement(1.0, 1.0, 0.0)
    assert not bracket(X, X).coeffs().any()
    # (e1+e2, e2) -> e3
    assert np.allclose(bracket(X, E2).coeffs(), E3.coeffs(), atol=1e-15)


def test_bracket_equals_cross_product():
    # independent oracle: coefficients bracket = cross product
    rng = np.random.default_rng(7)
    for _ in range(20):
        X, Y = rand_alg(rng), rand_alg(rng)
        assert np.allclose(
            bracket(X, Y).coeffs(), np.cross(X.coeffs(), Y.coeffs()), atol=1e-13
        )


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        X, Y, Z = rand_alg(rng), rand_alg(rng), rand_alg(rng)
        total = (
            bracket(X, bracket(Y, Z)).coeffs()
            + bracket(Y, bracket(Z, X)).coeffs()
            + bracket(Z, bracket(X, Y)).coeffs()
        )
        assert np.linalg.norm(total) <= 1e-12


def test_exp_map_closed_form():
    ident = exp_map(AlgElement(0.0, 0.0, 0.0))
    assert np.allclose(ident.quaternion(), [1, 0, 0, 0])
    # X = pi*e1 has quaternion image (pi/2)*i, so exp = cos(pi/2) + i sin(pi/2) = i
    g = exp_map(AlgElement(np.pi, 0.0, 0.0))
    assert np.allclose(g.quaternion(), [0, 1, 0, 0], atol=1e-15)


def test_exp_inverse():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = rand_alg(rng)
        g = exp_map(X)
        h = g * exp_map(AlgElement(*-X.coeffs()))
        assert np.allclose(h.quaternion(), [1, 0, 0, 0], atol=1e-12)


def test_group_unit_norm_enforced():
    g = GroupElement(3.0, 4.0, 0.0, 0.0)
    assert abs(np.linalg.norm(g.quaternion()) - 1.0) < 1e-12
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b = rand_group(rng), rand_group(rng)
        assert abs(np.linalg.norm((a * b).quaternion()) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        GroupElement(0.0, 0.0, 0.0, 0.0)


def test_adjoint_identity_and_isometry():
    rng = np.random.default_rng(17)
    X = rand_alg(rng)
    assert np.allclose(adjoint(GroupElement.identity(), X).coeffs(), X.coeffs())
    for _ in range(15):
        g, Y, Z = rand_group(rng), rand_alg(rng), rand_alg(rng)
        gY, gZ = adjoint(g, Y).coeffs(), adjoint(g, Z).coeffs()
        assert abs(np.linalg.norm(gY) - np.linalg.norm(Y.coeffs())) < 1e-12
        assert abs(gY @ gZ - Y.coeffs() @ Z.coeffs()) < 1e-12


def test_adjoint_sign_quotient():
    rng = np.random.default_rng(19)
    g, X = rand_group(rng), rand_alg(rng)
    minus_g = GroupElement(-g.q0, -g.q1, -g.q2, -g.q3)
    assert np.allclose(adjoint(g, X).coeffs(), adjoint(minus_g, X).coeffs(), atol=1e-14)


def test_adjoint_quarter_turn():
    # derived via the symbolic quaternion oracle:
    # g = exp((pi/2) e3) = (cos pi/4) + k (sin pi/4) conjugates e1 to +e2.
    g = exp_map(AlgElement(0.0, 0.0, np.pi / 2))
    assert np.allclose(adjoint(g, E1).coeffs(), E2.coeffs(), atol=1e-14)


def test_adjoint_matrix_is_rotation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        R = adjoint_matrix(rand_group(rng))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_so3_generators_structure_constants():
    L1, L2, L3 = so3_generator(1), so3_generator(2), so3_generator(3)
    assert np.allclose(L1 @ L2 - L2 @ L1, L3)
    assert np.allclose(L2 @ L3 - L3 @ L2, L1)
    assert np.allclose(L3 @ L1 - L1 @ L3, L2)
    # L_i is ad(e_i) in coefficients: L_i @ y = bracket(e_i, Y)
    rng = np.random.default_rng(29)
    Y = rand_alg(rng)
    for i, E in ((1, E1), (2, E2), (3, E3)):
        assert np.allclose(so3_generator(i) @ Y.coeffs(), bracket(E, Y).coeffs())


def test_adjoint_exp_is_axis_rotation():
    # exp(pi*e1): adjoint = rotation by pi about axis 1 -> diag(1,-1,-1)
    R = adjoint_matrix(exp_map(AlgElement(np.pi, 0.0, 0.0)))
    assert np.allclose(R, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
