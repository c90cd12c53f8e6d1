"""Tests for inner products, Gram-Schmidt bases, and projections."""

import numpy as np
import pytest

from ymeps.forms import (
    NumericalError,
    ball_rule,
    domain_ball_rule,
    tail_report,
    weighted_r4_rule,
)
from ymeps.instanton import (
    BackgroundConnection,
    ParamQ,
    extended_connection,
    glued_connection,
)
from ymeps.liealg import AlgElement, exp_map
from ymeps.basis import (
    GramBasis,
    _basis_field_at,
    ball_context,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    mgs_coefficients,
    project_perp,
    weighted_context,
)
from oracle import bump_one_form, constant_form, flat_context, sample_form

RNG_SEED = 515151


def _flat_ball(eps):
    """Zero-connection context on the unit-ball rule polar around 0."""
    return flat_context(ball_rule(np.zeros(4), 0.25, R=1.0), eps)


def _inner(ctx, a, b):
    """(a, b) in ctx for FormFields, sampled on its rule."""
    return ctx.inner_nf(sample_form(a, ctx.rule), sample_form(b, ctx.rule))


# ---------------------------------------------------------------------------
# inner products


def test_inner_ball_zero_and_symmetry():
    a = constant_form(1, np.zeros((3, 4)))
    M = np.zeros((3, 4))
    M[0, 0] = 1.0
    b = constant_form(1, M)
    assert _inner(_flat_ball(0.1), a, b) == 0.0
    rng = np.random.default_rng(RNG_SEED)
    f1 = bump_one_form(np.zeros(4), 0.8, rng.standard_normal((3, 4)))
    f2 = bump_one_form(0.2 * np.ones(4), 0.5, rng.standard_normal((3, 4)))
    ctx = _flat_ball(0.25)
    assert abs(_inner(ctx, f1, f2) - _inner(ctx, f2, f1)) <= 1e-12


def test_inner_ball_constant_field_volume():
    # A=0: derivative term vanishes, (alpha, alpha) = vol(B^4) = pi^2/2
    M = np.zeros((3, 4))
    M[0, 0] = 1.0
    alpha = constant_form(1, M)
    got = _inner(_flat_ball(0.3), alpha, alpha)
    assert got == pytest.approx(np.pi ** 2 / 2, rel=1e-8)


def test_inner_ball_positive_definite():
    rng = np.random.default_rng(RNG_SEED + 1)
    ctx = _flat_ball(0.5)
    for _ in range(3):
        f = bump_one_form(np.zeros(4), 0.7, rng.standard_normal((3, 4)))
        assert _inner(ctx, f, f) > 0.0


def test_inner_weighted_matches_ball_for_supported_fields():
    # fields supported in B^4: w=1 there and the exterior contributes nothing
    rng = np.random.default_rng(RNG_SEED + 2)
    C1, C2 = rng.standard_normal((2, 3, 4))
    f1 = bump_one_form(np.zeros(4), 0.9, C1)
    f2 = bump_one_form(np.array([0.1, 0.0, -0.1, 0.0]), 0.6, C2)
    q = ParamQ.default(2.0 ** -6)
    A = glued_connection(q)
    vb = _inner(ball_context(A, q.eps), f1, f2)
    vw = _inner(weighted_context(A, q.eps), f1, f2)
    assert vw == pytest.approx(vb, rel=5e-7)


def test_gradient_cache_is_not_served_to_a_later_context():
    # sample on a rule, then pair the same node field under A and under
    # Atilde: each short-lived context may reuse a freed one's address, and
    # each must compute its own gradient
    q = ParamQ.default(2.0 ** -5)
    A, At = glued_connection(q), extended_connection(q)
    rule = domain_ball_rule(q.p, q.lam)
    f = bump_one_form(q.p, 0.6, np.eye(3, 4))

    def fresh(conn):
        nf = sample_form(f, rule)
        return ball_context(conn, q.eps, rule=rule).inner_nf(nf, nf)

    want_A, want_At = fresh(A), fresh(At)
    assert abs(want_At - want_A) > 1e-6 * abs(want_A)
    nf = sample_form(f, rule)
    for _ in range(3):
        assert ball_context(A, q.eps, rule=rule).inner_nf(nf, nf) == want_A
        assert ball_context(At, q.eps, rule=rule).inner_nf(nf, nf) == want_At


def test_inner_weighted_constant_field_reports_tail():
    # |alpha|^2 = 1 everywhere: the weighted mass integral has no decay, the
    # tail report flags it, and the truncated value matches the same
    # truncation computed from the rule's own radial data
    M = np.zeros((3, 4))
    M[1, 2] = 1.0
    ctx = flat_context(weighted_r4_rule(np.zeros(4), 0.25), 0.3, weighted=True)
    nf = sample_form(constant_form(1, M), ctx.rule)
    assert not tail_report(ctx.rule, ctx.density(nf, nf))["tail_converged"]
    got = ctx.inner_nf(nf, nf)
    oracle = float(np.sum(ctx.rule.weights * ctx.wvals))  # 1-d radial mass
    assert got == pytest.approx(oracle, rel=1e-12)
    assert np.isfinite(got)


def test_inner_weighted_tail_converges_for_decaying_field():
    q = ParamQ.default(2.0 ** -5)
    ctx = weighted_context(glued_connection(q), q.eps)
    nf = sample_form(bump_one_form(q.p, 0.5, np.eye(3, 4)), ctx.rule)
    assert tail_report(ctx.rule, ctx.density(nf, nf))["tail_converged"]


# ---------------------------------------------------------------------------
# Gram-Schmidt machinery


def test_mgs_identity_gram():
    C = mgs_coefficients(np.eye(5))
    assert np.allclose(C, np.eye(5), atol=1e-14)


def test_mgs_known_gram():
    # 2x2 oracle: f1 with norm 2, f2 = f1/2 + unit orthogonal part
    G = np.array([[4.0, 2.0], [2.0, 2.0]])
    C = mgs_coefficients(G)
    assert np.allclose(C @ G @ C.T, np.eye(2), atol=1e-14)
    assert C[0, 1] == 0.0 and C[0, 0] > 0 and C[1, 1] > 0
    assert C[0, 0] == pytest.approx(0.5)
    assert np.allclose(C[1], [-0.5, 1.0], atol=1e-12)


def test_mgs_singular_raises_with_condition_number():
    G = np.array([[1.0, 1.0], [1.0, 1.0]])  # identical fields
    with pytest.raises(NumericalError, match="condition number"):
        mgs_coefficients(G)


def test_mgs_large_norm_spread():
    # norm ratio like the raw fields (eps^{-3/2} vs eps^{-1}): orthonormality
    # must survive the spread
    rng = np.random.default_rng(RNG_SEED + 3)
    B = rng.standard_normal((8, 8))
    scales = 10.0 ** np.array([4, 4, 4, 4, 2.5, 2.5, 2.5, 4])
    M = B * scales[:, None]
    G = M @ M.T
    C = mgs_coefficients(G)
    assert np.max(np.abs(C @ G @ C.T - np.eye(8))) < 1e-10


def _ball_basis(eps=2.0 ** -5):
    q = ParamQ.default(eps)
    return q, gram_schmidt_ball(q)


def test_gram_schmidt_ball_orthonormal():
    q, basis = _ball_basis()
    assert basis.gram_residual() <= 1e-8
    assert np.allclose(basis.coeff, np.tril(basis.coeff))
    assert np.all(np.diag(basis.coeff) > 0)


def test_gram_schmidt_ball_synthetic_orthonormal_inputs():
    # feeding eight orthonormal fields returns identity coefficients
    from ymeps.basis import _basis_from_fields
    ctx = _flat_ball(0.1)
    slots = [(a, mu) for a in range(3) for mu in range(4)][:8]
    fields = []
    for a, mu in slots:
        M = np.zeros((3, 4))
        M[a, mu] = np.sqrt(2.0 / np.pi ** 2)  # unit H^1 norm: constants
        fields.append(sample_form(constant_form(1, M), ctx.rule))
    basis = _basis_from_fields("ball", ctx, fields)
    assert np.allclose(basis.coeff, np.eye(8), atol=1e-6)


def test_gram_schmidt_ball_minus_g_invariant():
    q, basis = _ball_basis()
    qm = ParamQ(p=q.p, g=-q.g, lam=q.lam, eps=q.eps)
    basism = gram_schmidt_ball(qm)
    assert np.allclose(basis.coeff, basism.coeff, atol=1e-8)


def test_reconstruction_from_coefficients():
    # inverting the triangular system reproduces the raw fields in norm
    q, basis = _ball_basis()
    ctx = basis.ctx
    Cinv = np.linalg.inv(basis.coeff)
    for j in (0, 4, 7):
        recon = None
        for k in range(8):
            if Cinv[j, k] == 0.0:
                continue
            nf = basis.node_field(k + 1) * Cinv[j, k]
            recon = nf if recon is None else recon + nf
        diff = recon - basis.raw_nodefields[j]
        rel = np.sqrt(ctx.inner_nf(diff, diff)
                      / ctx.inner_nf(basis.raw_nodefields[j],
                                     basis.raw_nodefields[j]))
        assert rel <= 1e-8


def test_gram_schmidt_weighted_near_identity():
    q = ParamQ.default(2.0 ** -6)
    ball = gram_schmidt_ball(q)
    wbasis = gram_schmidt_weighted(q, ball_basis=ball)
    assert wbasis.gram_residual() <= 1e-8
    d = np.diag(wbasis.coeff)
    assert np.all(np.abs(d - 1.0) < 0.2)  # b_ii near 1
    off = wbasis.coeff - np.diag(d)
    assert np.max(np.abs(off)) < 0.2


def test_project_perp_annihilates_basis_and_obeys_bessel():
    q, basis = _ball_basis()
    ctx = basis.ctx
    # v = a_3 projects to ~0
    res = project_perp(basis.node_field(3), basis)
    n3 = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert n3 <= 1e-8
    # random v: residual orthogonal to every basis field, norm non-increasing
    rng = np.random.default_rng(RNG_SEED + 4)
    v = bump_one_form(q.p + 0.05, 2 * q.lam, rng.standard_normal((3, 4)))
    nv = sample_form(v, ctx.rule)
    res = project_perp(nv, basis)
    norm_v = np.sqrt(ctx.inner_nf(nv, nv))
    norm_r = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert norm_r <= norm_v * (1 + 1e-12)
    for i in range(1, 9):
        ai = basis.node_field(i)
        assert abs(ctx.inner_nf(res, ai)) <= 1e-8 * max(1.0, norm_v)


def test_project_perp_fixed_point_for_orthogonal_input():
    q, basis = _ball_basis()
    ctx = basis.ctx
    rng = np.random.default_rng(RNG_SEED + 5)
    v = bump_one_form(q.p - 0.03, 1.5 * q.lam, rng.standard_normal((3, 4)))
    first = project_perp(sample_form(v, ctx.rule), basis)
    second = project_perp(first, basis)
    diff = second - first
    assert np.sqrt(max(ctx.inner_nf(diff, diff), 0.0)) <= 1e-8


def test_basis_directional_derivative_step_halving():
    q = ParamQ.default(2.0 ** -5)
    basis = gram_schmidt_ball(q)
    d, halving = basis_directional_derivative(q, 1, 1, basis)
    assert halving < 0.01
    ctx = basis.ctx
    assert np.isfinite(ctx.inner_nf(d, d))


def test_fd_rebuild_at_the_base_point_is_the_basis_field():
    # the FD rebuild is the ordinary build on the base rule, so at the
    # unshifted q it reproduces the basis' own fields bit for bit
    q = ParamQ.default(2.0 ** -4, p=[0.05, -0.03, 0.02, 0.01],
                       g=exp_map(AlgElement(0.3, -0.2, 0.5)))
    bg = BackgroundConnection()
    basis = gram_schmidt_ball(q, bg, "model")
    for i in (1, 5, 8):
        got = _basis_field_at(q, i, basis.ctx, bg, "model")
        want = basis.node_field(i)
        assert np.array_equal(got.val, want.val)
        assert np.array_equal(got.jac, want.jac)
