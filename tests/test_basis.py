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
    DIRECTIONS,
    PI2_STRATEGIES,
    ParamQ,
    derivative_fields,
    extended_connection,
    glued_connection,
)
from ymeps.liealg import AlgElement, GroupElement, exp_map
from ymeps.basis import (
    GramBasis,
    _basis_field_at,
    _raw_gram,
    ball_context,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    mgs_coefficients,
    project_perp,
    weighted_context,
)
from oracle import (
    bump_one_form,
    constant_form,
    flat_context,
    long_double_gram,
    sample_form,
)

RNG_SEED = 515151


def _flat_ball(eps):
    """Zero-connection context on the unit-ball rule polar around 0."""
    return flat_context(ball_rule(np.zeros(4), 0.25, R=1.0), eps)


def _inner(ctx, a, b):
    """(a, b) in ctx for FormFields, sampled on its rule."""
    return ctx.inner_nf(sample_form(a, ctx.rule), sample_form(b, ctx.rule))


def _weighted_density(ctx, nf):
    """The per-node density of (nf, nf) in a weighted context."""
    g = ctx.grad_of(nf.val, nf.jac)
    return (np.einsum("amun,amun->n", g, g)
            + ctx.wvals * np.einsum("amn,amn->n", nf.val, nf.val))


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
    ctx = flat_context(weighted_r4_rule(np.zeros(4), 0.25), 0.3)
    nf = sample_form(constant_form(1, M), ctx.rule)
    report = tail_report(ctx.rule, _weighted_density(ctx, nf))
    assert not report["tail_converged"]
    got = ctx.inner_nf(nf, nf)
    oracle = float(np.sum(ctx.rule.weights * ctx.wvals))  # 1-d radial mass
    assert got == pytest.approx(oracle, rel=1e-12)
    assert np.isfinite(got)


def test_inner_weighted_tail_converges_for_decaying_field():
    q = ParamQ.default(2.0 ** -5)
    ctx = weighted_context(glued_connection(q), q.eps)
    nf = sample_form(bump_one_form(q.p, 0.5, np.eye(3, 4)), ctx.rule)
    assert tail_report(ctx.rule, _weighted_density(ctx, nf))["tail_converged"]


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


# ---------------------------------------------------------------------------
# the raw Gram, streamed over node chunks


def _gram_cases(sampled=True):
    """(case, ctx, fields, weights) off-centre and at g != 1: the glued
    family's derivatives on its ball context for every pi2, the extension's
    on its weighted one, and the model ones again on the inner chart's
    nodes; the fields sampled on ctx's rule, or as term lists."""
    q = ParamQ.default(2.0 ** -4, p=[0.1, -0.15, 0.05, 0.2],
                       g=exp_map(AlgElement(-0.7, 1.1, 0.4)))
    for pi2 in PI2_STRATEGIES:
        A = glued_connection(q, pi2=pi2)
        ctx = ball_context(A, q.eps)
        fields = derivative_fields(A)
        fields = ctx.arrays(fields) if sampled else fields
        yield pi2, ctx, fields, None
        if pi2 == "model":
            inner = ctx.rule.weights.copy()
            inner[ctx.rule.n_inner:] = 0.0
            yield "inner-chart", ctx, fields, inner
    At = extended_connection(q)
    ctx = weighted_context(At, q.eps)
    fields = derivative_fields(At)
    yield "weighted", ctx, ctx.arrays(fields) if sampled else fields, None


# a chunk size that leaves a partial last chunk on every rule of the tests
_PARTIAL_CHUNK = 1000


def test_streamed_gram_matches_long_double_sum(monkeypatch):
    u = np.finfo(float).eps / 2
    for case, ctx, fields, weights in _gram_cases():
        N = len(ctx.rule)
        assert N % _PARTIAL_CHUNK != 0
        ref = long_double_gram(ctx, fields, weights)
        d = np.diag(ref).astype(float)
        scale = np.sqrt(np.outer(d, d))
        # blocks of ~1,000 nodes keep every float64 partial sum short; one
        # block of the whole rule sums 60N products per entry in one GEMM,
        # held to the sqrt(60N)*u estimate of that sum's round-off
        for chunk, tol in ((_PARTIAL_CHUNK, 1e-14), (N, np.sqrt(60 * N) * u)):
            monkeypatch.setattr("ymeps.basis._GRAM_CHUNK", chunk)
            G = _raw_gram(ctx, fields, weights)
            assert np.array_equal(G, G.T)
            err = np.abs(G - ref).astype(float)
            assert np.all(err <= tol * scale), (case, chunk)


def test_streamed_gram_raises_on_nan_in_the_last_partial_chunk(monkeypatch):
    ctx = _flat_ball(0.1)
    N = len(ctx.rule)
    chunk = _PARTIAL_CHUNK
    assert N % chunk != 0
    monkeypatch.setattr("ymeps.basis._GRAM_CHUNK", chunk)
    fields = [sample_form(constant_form(1, np.eye(3, 4) * (k + 1)), ctx.rule)
              for k in range(8)]
    assert np.all(np.isfinite(_raw_gram(ctx, fields)))
    fields[5].jac[2, 1, 3, N - 1 - (N % chunk) // 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite Gram"):
        _raw_gram(ctx, fields)


def test_charted_gram_equals_the_sampled_fields_gram(monkeypatch):
    # sampling block by block gives the whole-rule samples' Gram bit for
    # bit: with a block edge inside the inner chart and a block straddling
    # its end, with the inner chart as the first block, and at the default
    # sizes; the last block is partial in each
    import ymeps.basis as basis_mod

    for case, ctx, fields, weights in _gram_cases(sampled=False):
        N, n_inner = len(ctx.rule), ctx.rule.n_inner
        assert 0 < n_inner < N and n_inner % 3 == 0
        nfs = ctx.arrays(fields)
        for chunk, block in ((1000, 3000), (n_inner // 3, n_inner),
                             (basis_mod._GRAM_CHUNK, basis_mod._SAMPLE_BLOCK)):
            assert block % chunk == 0 and N % block != 0
            monkeypatch.setattr(basis_mod, "_GRAM_CHUNK", chunk)
            monkeypatch.setattr(basis_mod, "_SAMPLE_BLOCK", block)
            want = _raw_gram(ctx, nfs, weights)
            assert np.array_equal(_raw_gram(ctx, fields, weights), want), (
                case, block)


def test_gram_default_weights_are_the_rules():
    _, ctx, fields, _ = next(_gram_cases())
    assert np.array_equal(_raw_gram(ctx, fields, weights=ctx.rule.weights),
                          _raw_gram(ctx, fields))


def test_inner_nf_is_the_two_field_gram_entry():
    _, ctx, fields, _ = next(_gram_cases())
    fa, fb = fields[0], fields[6]
    assert ctx.inner_nf(fa, fb) == _raw_gram(ctx, [fa, fb])[0, 1]


def test_gram_rejects_node_fields_of_another_rule():
    ctx = _flat_ball(0.1)
    other = _flat_ball(0.1).rule     # the same nodes, another rule
    nf = sample_form(constant_form(1, np.eye(3, 4)), other)
    with pytest.raises(ValueError, match="different rule"):
        _raw_gram(ctx, [nf])


def test_inner_nf_raises_on_a_nan_field():
    ctx = _flat_ball(0.1)
    nf = sample_form(constant_form(1, np.eye(3, 4)), ctx.rule)
    nf.val[1, 2, len(ctx.rule) // 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        ctx.inner_nf(nf, nf)


def _ball_basis(eps=2.0 ** -5, keep_samples=False):
    q = ParamQ.default(eps)
    return q, gram_schmidt_ball(q, keep_samples=keep_samples)


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
    basis = _basis_from_fields(ctx, _raw_gram(ctx, fields), fields)
    assert np.allclose(basis.coeff, np.eye(8), atol=1e-6)


def test_gram_schmidt_ball_minus_g_invariant():
    q, basis = _ball_basis()
    minus_g = GroupElement(-q.g.q0, -q.g.q1, -q.g.q2, -q.g.q3)
    qm = ParamQ(p=q.p, g=minus_g, lam=q.lam, eps=q.eps)
    basism = gram_schmidt_ball(qm)
    assert np.allclose(basis.coeff, basism.coeff, atol=1e-8)


def test_reconstruction_from_coefficients():
    # inverting the triangular system reproduces the raw fields in norm
    q, basis = _ball_basis(keep_samples=True)
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


def test_basis_without_samples_says_so():
    q, basis = _ball_basis(2.0 ** -4)
    assert basis.raw_nodefields is None
    weighted = gram_schmidt_weighted(q, basis)
    v = basis.ctx.arrays(derivative_fields(glued_connection(q), ("p1",)))[0]
    for call in (lambda: basis.node_field(1), lambda: weighted.node_field(1),
                 lambda: project_perp([v], basis)):
        with pytest.raises(ValueError, match="holds no samples.*keep_samples"):
            call()


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
    q, basis = _ball_basis(keep_samples=True)
    ctx = basis.ctx
    # v = a_3 projects to ~0
    (res,) = project_perp([basis.node_field(3)], basis)
    n3 = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert n3 <= 1e-8
    # random v: residual orthogonal to every basis field, norm non-increasing
    rng = np.random.default_rng(RNG_SEED + 4)
    v = bump_one_form(q.p + 0.05, 2 * q.lam, rng.standard_normal((3, 4)))
    nv = sample_form(v, ctx.rule)
    (res,) = project_perp([nv], basis)
    norm_v = np.sqrt(ctx.inner_nf(nv, nv))
    norm_r = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert norm_r <= norm_v * (1 + 1e-12)
    for i in range(1, 9):
        ai = basis.node_field(i)
        assert abs(ctx.inner_nf(res, ai)) <= 1e-8 * max(1.0, norm_v)


def test_project_perp_fixed_point_for_orthogonal_input():
    q, basis = _ball_basis(keep_samples=True)
    ctx = basis.ctx
    rng = np.random.default_rng(RNG_SEED + 5)
    v = bump_one_form(q.p - 0.03, 1.5 * q.lam, rng.standard_normal((3, 4)))
    (first,) = project_perp([sample_form(v, ctx.rule)], basis)
    (second,) = project_perp([first], basis)
    diff = second - first
    assert np.sqrt(max(ctx.inner_nf(diff, diff), 0.0)) <= 1e-8


def test_basis_directional_derivative_step_halving():
    q = ParamQ.default(2.0 ** -5)
    basis = gram_schmidt_ball(q)
    d, halving = basis_directional_derivative(q, 1, 1, basis)
    assert halving < 0.01
    ctx = basis.ctx
    assert np.isfinite(ctx.inner_nf(d, d))


def test_fd_rebuild_samples_only_the_leading_fields(monkeypatch):
    # C is lower triangular, so a_i is rebuilt from f_1..f_i alone
    import ymeps.basis as basis_mod

    q = ParamQ.default(2.0 ** -4)
    ctx = gram_schmidt_ball(q).ctx
    seen = []

    def recorded(A, directions):
        seen.append(tuple(directions))
        return derivative_fields(A, directions)

    monkeypatch.setattr(basis_mod, "derivative_fields", recorded)
    for i in (1, 5):
        _basis_field_at(q, i, ctx, "model")
    assert seen == [DIRECTIONS[:1], DIRECTIONS[:5]]


def test_fd_rebuild_at_the_base_point_is_the_basis_field():
    # the FD rebuild is the ordinary build on the base rule, so at the
    # unshifted q it reproduces the basis' own fields bit for bit
    q = ParamQ.default(2.0 ** -4, p=[0.05, -0.03, 0.02, 0.01],
                       g=exp_map(AlgElement(0.3, -0.2, 0.5)))
    basis = gram_schmidt_ball(q, "model", keep_samples=True)
    for i in (1, 5, 8):
        got = _basis_field_at(q, i, basis.ctx, "model")
        want = basis.node_field(i)
        assert np.array_equal(got.val, want.val)
        assert np.array_equal(got.jac, want.jac)
