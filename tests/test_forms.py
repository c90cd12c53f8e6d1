"""Exterior-calculus tests: star/wedge/d/codifferential plus their oracles."""

import math
from itertools import permutations

import numpy as np
import pytest

from ymeps.forms import (
    ANTISYM_TABLE,
    COMP_INDEX,
    MULTI_INDEX,
    N_COMP,
    bracket_wedge_coeffs,
    star_coeffs,
)
from oracle import (
    FormField,
    bump_one_form,
    codifferential_eps,
    constant_form,
    covariant_d_eps,
    covariant_grad_eps,
    exterior_d,
    wedge_bracket,
)

# ---------------------------------------------------------------------------
# oracles


def star_oracle(k, coeffs):
    """Brute-force Hodge star: antisymmetrize over all permutations."""
    out = np.zeros((3, N_COMP[4 - k]))
    for i, I in enumerate(MULTI_INDEX[k]):
        Ic = tuple(sorted(set(range(4)) - set(I)))
        # sign of the permutation (I, Ic) relative to (0,1,2,3)
        perm = I + Ic
        sign = 1
        perm = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    sign = -sign
        out[:, COMP_INDEX[4 - k][Ic]] += sign * coeffs[:, i]
    return out


# ---------------------------------------------------------------------------
# hodge star


def test_star_examples():
    v = np.outer([1, 0, 0], [1, 0, 0, 0])  # e1 dx0
    sv = star_coeffs(1, v)
    want = np.zeros((3, 4))
    want[0, COMP_INDEX[3][(1, 2, 3)]] = 1.0
    assert np.array_equal(sv, want)

    v2 = np.outer([0, 1, 0], [1, 0, 0, 0, 0, 0])  # e2 dx0^dx1
    sv2 = star_coeffs(2, v2)
    want2 = np.zeros((3, 6))
    want2[1, COMP_INDEX[2][(2, 3)]] = 1.0
    assert np.array_equal(sv2, want2)


def test_star_star_sign_rule():
    rng = np.random.default_rng(1)
    for k in range(5):
        c = rng.standard_normal((3, N_COMP[k]))
        cc = star_coeffs(4 - k, star_coeffs(k, c))
        assert np.array_equal(cc, (-1) ** (k * (4 - k)) * c)


def test_star_against_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for k in range(5):
        c = rng.standard_normal((3, N_COMP[k]))
        got = star_coeffs(k, c[None])[0]
        assert np.allclose(got, star_oracle(k, c), atol=1e-14)


# ---------------------------------------------------------------------------
# wedge bracket


def test_wedge_bracket_examples():
    e1dx0 = np.zeros((3, 4)); e1dx0[0, 0] = 1.0
    a = constant_form(1, e1dx0)
    z = wedge_bracket(a, a).value(np.zeros((1, 4)))
    assert np.allclose(z, 0.0)

    e2dx1 = np.zeros((3, 4)); e2dx1[1, 1] = 1.0
    b = constant_form(1, e2dx1)
    v = wedge_bracket(a, b).value(np.zeros((1, 4)))[0]
    want = np.zeros((3, 6))
    want[2, COMP_INDEX[2][(0, 1)]] = 1.0  # [e1,e2] = e3 on dx0^dx1
    assert np.allclose(v, want, atol=1e-14)


def test_wedge_bracket_oracle_and_symmetry():
    # brute-force oracle over index pairs
    rng = np.random.default_rng(3)
    ac = rng.standard_normal((3, 4))
    bc = rng.standard_normal((3, 4))
    a, b = constant_form(1, ac), constant_form(1, bc)
    got = wedge_bracket(a, b).value(np.zeros((1, 4)))[0]
    want = np.zeros((3, 6))
    for (mu, nu), idx in COMP_INDEX[2].items():
        want[:, idx] = np.cross(ac[:, mu], bc[:, nu]) - np.cross(ac[:, nu], bc[:, mu])
    assert np.allclose(got, want, atol=1e-13)
    # symmetric in (alpha, beta) for the bracket-wedge of 1-forms
    got_ba = wedge_bracket(b, a).value(np.zeros((1, 4)))[0]
    assert np.allclose(got, got_ba, atol=1e-13)


def test_wedge_bracket_bilinear():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 4))
    a1 = bump_one_form(np.zeros(4), 2.0, rng.standard_normal((3, 4)))
    a2 = bump_one_form(np.zeros(4), 3.0, rng.standard_normal((3, 4)))
    b = bump_one_form(np.zeros(4), 2.5, rng.standard_normal((3, 4)))
    lhs = wedge_bracket(a1 + 2.0 * a2, b).value(X)
    rhs = wedge_bracket(a1, b).value(X) + 2.0 * wedge_bracket(a2, b).value(X)
    assert np.allclose(lhs, rhs, atol=1e-12)


def _bracket_cross_oracle(degree, a_vals, w_vals):
    """The per-component np.cross loop the kernel replaced."""
    N = a_vals.shape[0]
    out = np.zeros((N, 3, N_COMP[degree + 1]))
    for tgt, entries in enumerate(ANTISYM_TABLE[degree]):
        acc = np.zeros((N, 3))
        for sign, nu, src in entries:
            acc += sign * np.cross(a_vals[:, :, nu], w_vals[:, :, src], axis=1)
        out[:, :, tgt] = acc
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_bracket_kernel_matches_cross_oracle_exactly(degree):
    rng = np.random.default_rng(40 + degree)
    N = 257
    a = rng.standard_normal((N, 3, 4))
    w = rng.standard_normal((N, 3, N_COMP[degree]))
    got = bracket_wedge_coeffs(degree, a, w)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _bracket_cross_oracle(degree, a, w))
    # strided inputs, as the FormField jacobian channels pass them
    aj = rng.standard_normal((N, 3, 4, 4))
    wj = rng.standard_normal((N, 3, N_COMP[degree], 4))
    for nu in range(4):
        got = bracket_wedge_coeffs(degree, aj[..., nu], wj[..., nu])
        assert got.flags.c_contiguous
        assert np.array_equal(got, _bracket_cross_oracle(degree, aj[..., nu],
                                                         wj[..., nu]))


def test_wedge_bracket_degree_mismatch():
    a = constant_form(1, np.zeros((3, 4)))
    b = constant_form(2, np.zeros((3, 6)))
    with pytest.raises(ValueError):
        wedge_bracket(a, b)


# ---------------------------------------------------------------------------
# exterior d


def test_d_constant_is_zero():
    w = constant_form(0, np.ones((3, 1)))
    assert np.allclose(exterior_d(w).value(np.ones((3, 4))), 0.0)


def test_d_polynomial_sign():
    # w = x1 * e1 dx0  ->  dw = e1 dx1^dx0 = -e1 dx0^dx1
    def value(X):
        out = np.zeros((X.shape[0], 3, 4))
        out[:, 0, 0] = X[:, 1]
        return out

    def jac(X):
        out = np.zeros((X.shape[0], 3, 4, 4))
        out[:, 0, 0, 1] = 1.0
        return out

    w = FormField(1, value, jac)
    dv = exterior_d(w).value(np.zeros((1, 4)))[0]
    want = np.zeros((3, 6))
    want[0, COMP_INDEX[2][(0, 1)]] = -1.0
    assert np.allclose(dv, want, atol=1e-14)


def _poly_one_form(rng):
    """Random quadratic 1-form with exact jac/hess channels."""
    A = rng.standard_normal((3, 4, 4, 4))
    A = (A + A.transpose(0, 1, 3, 2)) / 2  # symmetric coefficient block

    def value(X):
        return np.einsum("acmn,pm,pn->pac", A, X, X)

    def jac(X):
        return 2 * np.einsum("acmn,pm->pacn", A, X)

    def hess(X):
        return 2 * np.broadcast_to(A, (X.shape[0],) + A.shape).copy()

    return FormField(1, value, jac, hess)


def test_dd_zero_analytic():
    rng = np.random.default_rng(5)
    w = _poly_one_form(rng)
    X = rng.standard_normal((7, 4))
    ddw = exterior_d(exterior_d(w)).value(X)
    assert np.max(np.abs(ddw)) < 1e-10


def test_dd_zero_fd_path():
    rng = np.random.default_rng(6)
    wa = _poly_one_form(rng)
    w = FormField(1, wa.value)  # strip analytic channels -> FD fallback
    X = 0.3 * rng.standard_normal((4, 4))
    ddw = exterior_d(exterior_d(w)).value(X)
    assert np.max(np.abs(ddw)) < 1e-6


def test_fd_jac_matches_analytic():
    rng = np.random.default_rng(7)
    wa = _poly_one_form(rng)
    w = FormField(1, wa.value)
    X = 0.5 * rng.standard_normal((5, 4))
    assert np.allclose(w.jac(X), wa.jac(X), atol=1e-7)


# ---------------------------------------------------------------------------
# covariant operators


def test_covariant_d_reduces_and_is_linear_in_eps():
    rng = np.random.default_rng(8)
    w = _poly_one_form(rng)
    A0 = constant_form(1, np.zeros((3, 4)))
    X = rng.standard_normal((6, 4))
    assert np.allclose(covariant_d_eps(A0, w, 0.3).value(X),
                       exterior_d(w).value(X), atol=1e-13)
    A = bump_one_form(np.zeros(4), 2.0, rng.standard_normal((3, 4)))
    d0 = exterior_d(w).value(X)
    d1 = covariant_d_eps(A, w, 1.0).value(X)
    d_half = covariant_d_eps(A, w, 0.5).value(X)
    assert np.allclose(d_half - d0, 0.5 * (d1 - d0), atol=1e-12)


def test_codifferential_examples():
    A0 = constant_form(1, np.zeros((3, 4)))
    const = constant_form(1, np.ones((3, 4)))
    v = codifferential_eps(A0, const, 0.5).value(np.ones((2, 4)))
    assert np.allclose(v, 0.0, atol=1e-9)

    # w = x0 e1 dx0 -> delta w = -1 (on the e1 component)
    def value(X):
        out = np.zeros((X.shape[0], 3, 4))
        out[:, 0, 0] = X[:, 0]
        return out

    def jac(X):
        out = np.zeros((X.shape[0], 3, 4, 4))
        out[:, 0, 0, 0] = 1.0
        return out

    w = FormField(1, value, jac)
    got = codifferential_eps(A0, w, 1.0).value(np.zeros((1, 4)))[0]
    assert np.allclose(got[0, 0], -1.0, atol=1e-12)
    assert np.allclose(got[1:], 0.0, atol=1e-12)


def test_covariant_grad():
    rng = np.random.default_rng(9)
    A0 = constant_form(1, np.zeros((3, 4)))
    const = constant_form(1, rng.standard_normal((3, 4)))
    g = covariant_grad_eps(A0, const, 0.7)(rng.standard_normal((4, 4)))
    assert np.allclose(g, 0.0)

    # constant-gauge covariance of the pointwise norm
    from ymeps.liealg import GroupElement, adjoint_matrix

    A = bump_one_form(np.zeros(4), 2.0, rng.standard_normal((3, 4)))
    alpha = _poly_one_form(rng)
    X = 0.4 * rng.standard_normal((6, 4))
    R = adjoint_matrix(GroupElement(*rng.standard_normal(4)))

    def rot(f):
        jf = None
        if f.has_analytic_jac:
            jf = lambda Y: np.einsum("ab,pbcn->pacn", R, f.jac(Y))
        return FormField(1, lambda Y: np.einsum("ab,pbc->pac", R, f.value(Y)), jf)

    g1 = covariant_grad_eps(A, alpha, 0.7)(X)
    g2 = covariant_grad_eps(rot(A), rot(alpha), 0.7)(X)
    assert np.allclose(np.sum(g1 ** 2, axis=(1, 2, 3)),
                       np.sum(g2 ** 2, axis=(1, 2, 3)), atol=1e-10)


def test_covariant_grad_matches_fd():
    rng = np.random.default_rng(10)
    A = bump_one_form(np.zeros(4), 2.0, rng.standard_normal((3, 4)))
    alpha_a = _poly_one_form(rng)
    eps = 0.3
    X = 0.3 * rng.standard_normal((5, 4))
    got = covariant_grad_eps(A, alpha_a, eps)(X)
    # FD oracle on the alpha-jacobian part
    alpha_fd = FormField(1, alpha_a.value)
    want = covariant_grad_eps(A, alpha_fd, eps)(X)
    assert np.allclose(got, want, atol=1e-6)
