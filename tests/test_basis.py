"""Tests for inner products, Gram-Schmidt bases, and projections."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ymeps.forms import (
    NumericalError,
    ball_rule,
    cov_grad_scaled,
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
    linear_combination,
)
from ymeps.basis import (
    InnerContext,
    NodeField,
    _basis_field_at,
    _raw_gram,
    ball_context,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    inner_chart_context,
    mgs_coefficients,
    weighted_context,
)
from oracle import (
    ad,
    bump_one_form,
    combine,
    combined_fields,
    constant_form,
    cov_grad_coeffs,
    covariant_grad_eps,
    flat_context,
    lincomb,
    long_double_gram,
    node_first,
    node_last,
    perp_nodefields,
    qexp,
    raw_samples,
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
    # two fields at correlation 1 - 1e-13 leave a step of relative squared
    # norm 2e-13: refused at every scale, naming the same condition number
    # of the unit-diagonal Gram, (1 + c) / (1 - c) = 2e13
    c = 1.0 - 1e-13
    named = set()
    for scale in (1e-20, 1.0, 1e20):
        with pytest.raises(NumericalError, match="condition number") as err:
            mgs_coefficients(scale * np.array([[1.0, c], [c, 1.0]]))
        named.add(re.search(r"condition number (\S+)\)", str(err.value))[1])
    assert named == {"2.0e+13"}
    # a field of zero or non-finite squared norm is named
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(NumericalError, match="raw field 1 "):
            mgs_coefficients(np.diag([1.0, bad, 1.0]))


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
    # two orthogonal fields of norms 1e-15 and 1: each step is measured
    # against its own field's norm, not an absolute floor
    G = np.diag([1e-30, 1.0])
    C = mgs_coefficients(G)
    assert np.max(np.abs(C @ G @ C.T - np.eye(2))) < 1e-15


# ---------------------------------------------------------------------------
# the raw Gram, streamed over node blocks


def _gram_cases(sampled=True):
    """(case, ctx, fields) off-centre and at g != 1: the glued family's
    derivatives on its ball context for every pi2, the extension's on its
    weighted one, and the model ones again on the ball context restricted
    to the inner chart's nodes; the fields sampled on ctx's rule, or as
    term lists."""
    q = ParamQ.default(2.0 ** -4, p=[0.1, -0.15, 0.05, 0.2],
                       g=ad(qexp([-0.7, 1.1, 0.4])))
    for pi2 in PI2_STRATEGIES:
        A = glued_connection(q, pi2=pi2)
        ctx = ball_context(A, q.eps)
        fields = derivative_fields(A)
        yield pi2, ctx, ctx.arrays(fields) if sampled else fields
        if pi2 == "model":
            inner = inner_chart_context(ctx)
            yield ("inner-chart", inner,
                   inner.arrays(fields) if sampled else fields)
    At = extended_connection(q)
    ctx = weighted_context(At, q.eps)
    fields = derivative_fields(At)
    yield "weighted", ctx, ctx.arrays(fields) if sampled else fields


# a block size that leaves a partial last block on every rule of the tests
_PARTIAL_BLOCK = 1000


def test_streamed_gram_matches_long_double_sum(monkeypatch):
    u = np.finfo(float).eps / 2
    for case, ctx, fields in _gram_cases():
        N = len(ctx.rule)
        assert N % _PARTIAL_BLOCK != 0
        ref = long_double_gram(ctx, fields)
        d = np.diag(ref).astype(float)
        scale = np.sqrt(np.outer(d, d))
        # blocks of ~1,000 nodes keep every float64 partial sum short; one
        # block of the whole rule sums 60N products per entry in one GEMM,
        # held to the sqrt(60N)*u estimate of that sum's round-off
        for block, tol in ((_PARTIAL_BLOCK, 1e-14), (N, np.sqrt(60 * N) * u)):
            monkeypatch.setattr("ymeps.basis._GRAM_BLOCK", block)
            G = _raw_gram(ctx, fields)
            assert np.array_equal(G, G.T)
            err = np.abs(G - ref).astype(float)
            assert np.all(err <= tol * scale), (case, block)


def test_streamed_gram_raises_on_nan_in_the_last_partial_chunk(monkeypatch):
    ctx = _flat_ball(0.1)
    N = len(ctx.rule)
    block = _PARTIAL_BLOCK
    assert N % block != 0
    monkeypatch.setattr("ymeps.basis._GRAM_BLOCK", block)
    fields = [sample_form(constant_form(1, np.eye(3, 4) * (k + 1)), ctx.rule)
              for k in range(8)]
    assert np.all(np.isfinite(_raw_gram(ctx, fields)))
    fields[5].jac[2, 1, 3, N - 1 - (N % block) // 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite Gram"):
        _raw_gram(ctx, fields)


def test_charted_gram_equals_the_sampled_fields_gram(monkeypatch):
    # sampling block by block gives the whole-rule samples' Gram bit for
    # bit: with a block edge inside the inner chart and a block straddling
    # its end, with the inner chart as the first block (on the inner-chart
    # context, whose rule is that chart, two thirds of it), and at the
    # default size; the last block is partial in each.  So do the Grams of
    # fields folded into term lists: a unit row copying its field, a row
    # with a zero and a row of every field
    import ymeps.basis as basis_mod

    rng = np.random.default_rng(RNG_SEED + 6)
    rows = rng.standard_normal((3, 8))
    rows[0] = np.eye(8)[5]
    rows[1, 2] = 0.0
    for case, ctx, fields in _gram_cases(sampled=False):
        N, n_inner = len(ctx.rule), ctx.rule.n_inner
        assert 0 < n_inner <= N and n_inner % 3 == 0
        assert (n_inner == N) == (case == "inner-chart")
        first = n_inner if n_inner < N else 2 * n_inner // 3
        nfs = ctx.arrays(fields)
        folded = [linear_combination(fields, row) for row in rows]
        folded_nfs = ctx.arrays(folded)
        for block in (3000, first, basis_mod._GRAM_BLOCK):
            assert N % block != 0
            monkeypatch.setattr(basis_mod, "_GRAM_BLOCK", block)
            want = _raw_gram(ctx, nfs)
            assert np.array_equal(_raw_gram(ctx, fields), want), (case, block)
            want = _raw_gram(ctx, folded_nfs)
            assert np.array_equal(_raw_gram(ctx, folded), want), (
                case, block)


def test_in_place_gradient_is_the_fresh_kernels_and_the_oracles():
    # grad_of writing into the field's jacobian gives the out-of-place
    # kernel's entries bit for bit: on the whole rule, and on a block of
    # nodes with that block's eps A formed once, as the Gram calls it; both
    # are the oracle's node-first covariant gradient and the bracket
    # written as a cross product, d_nu a_mu + eps A_nu x a_mu
    rng = np.random.default_rng(RNG_SEED + 9)
    eps = 0.37
    rule = ball_rule(np.zeros(4), 0.25, R=1.0)
    A = bump_one_form(np.array([0.1, 0.0, -0.2, 0.05]), 0.9,
                      rng.standard_normal((3, 4)))
    alpha = bump_one_form(np.array([-0.1, 0.2, 0.0, 0.1]), 0.7,
                          rng.standard_normal((3, 4)))
    ctx = InnerContext(rule, eps, node_last(A.value(rule.nodes)))
    nf = sample_form(alpha, rule)
    want = cov_grad_coeffs(ctx.Aval, nf.val, nf.jac, eps)
    assert np.array_equal(ctx.grad_of(nf.val, nf.jac), want)
    jac = nf.jac.copy()
    assert ctx.grad_of(nf.val, jac, out=jac) is jac
    assert np.array_equal(jac, want)
    N = len(rule)
    for a, b in ((0, 1000), (N - 777, N)):
        At = eps * ctx.Aval[..., a:b]
        val, jac = nf.val[..., a:b], nf.jac[..., a:b].copy()
        assert np.array_equal(cov_grad_scaled(At, val, jac), want[..., a:b])
        assert ctx.grad_of(val, jac, At, out=jac) is jac
        assert np.array_equal(jac, want[..., a:b])
    got = node_first(want)
    oracle = covariant_grad_eps(A, alpha, eps)(rule.nodes)
    cross = (node_first(nf.jac) + eps * np.cross(
        A.value(rule.nodes)[:, :, None, :],
        node_first(nf.val)[:, :, :, None], axis=1))
    scale = np.max(np.abs(got))
    assert scale > 0.0
    assert np.max(np.abs(got - oracle)) <= 1e-14 * scale
    assert np.max(np.abs(got - cross)) <= 1e-14 * scale


def test_basis_gram_at_2_7_peaks_below_16_mib():
    # one Gram of the eight basis fields at 2^-7 samples each 2,304-node
    # block straight into the rows it pairs, 60 entries per node and field
    # (8.4 MiB), with no second sample or gradient buffer
    import tracemalloc

    q = ParamQ.default(2.0 ** -7)
    A = glued_connection(q)
    ctx = ball_context(A, q.eps)
    fields = derivative_fields(A)
    tracemalloc.start()
    try:
        G = _raw_gram(ctx, fields)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.diag(G) > 0.0)
    assert peak <= 16 * 2 ** 20, peak / 2 ** 20


def test_gram_of_rows_is_the_gram_of_the_combined_fields():
    # each folded field is one combination, formed node by node in its
    # sampling: a unit row samples to its field bit for bit, and every
    # Gram entry is that of the node fields combine forms, and of the
    # node-wise sums in another order, up to round-off
    _, ctx, fields = next(_gram_cases(sampled=False))
    nfs = ctx.arrays(fields)
    rng = np.random.default_rng(RNG_SEED + 7)
    rows = rng.standard_normal((4, 8))
    rows[0] = np.eye(8)[2]
    samples = [(nf.val, nf.jac) for nf in nfs]
    folded = [linear_combination(fields, row) for row in rows]
    unit = ctx.arrays(folded[:1])[0]
    assert (np.array_equal(unit.val, nfs[2].val)
            and np.array_equal(unit.jac, nfs[2].jac))
    G = _raw_gram(ctx, folded)
    for want in (_raw_gram(ctx, [NodeField(ctx.rule, *combine(row, samples))
                                 for row in rows]),
                 _raw_gram(ctx, combined_fields(rows, nfs))):
        d = np.sqrt(np.diag(want))
        assert np.all(np.abs(G - want) <= 1e-13 * np.outer(d, d))


def test_inner_chart_context_is_the_rules_inner_prefix():
    # the inner-chart context sums the inner chart's nodes alone, with the
    # rule's own weights and connection there
    _, ctx, fields = next(_gram_cases(sampled=False))
    inner = inner_chart_context(ctx)
    n = ctx.rule.n_inner
    assert len(inner.rule) == inner.rule.n_inner == n
    assert np.array_equal(inner.rule.nodes, ctx.rule.nodes[:n])
    assert np.array_equal(inner.rule.weights, ctx.rule.weights[:n])
    assert np.array_equal(inner.Aval, ctx.Aval[..., :n])
    assert not inner.weighted and inner.eps == ctx.eps
    G, G_in = _raw_gram(ctx, fields), _raw_gram(inner, fields)
    assert np.all(np.diag(G_in) < np.diag(G))
    want = long_double_gram(inner, inner.arrays(fields)).astype(float)
    d = np.sqrt(np.diag(want))
    assert np.all(np.abs(G_in - want) <= 1e-14 * np.outer(d, d))


def test_inner_nf_is_the_two_field_gram_entry():
    _, ctx, fields = next(_gram_cases())
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
    basis = _basis_from_fields(ctx, _raw_gram(ctx, fields))
    assert np.allclose(basis.coeff, np.eye(8), atol=1e-6)


def test_gram_schmidt_ball_minus_g_invariant():
    g = qexp([0.3, -0.4, 0.2])
    basis, basism = (gram_schmidt_ball(ParamQ.default(2.0 ** -5, g=ad(h)))
                     for h in (g, -g))
    assert np.allclose(basis.coeff, basism.coeff, atol=1e-8)


def test_reconstruction_from_coefficients():
    # inverting the triangular system reproduces the raw fields in norm
    q, basis = _ball_basis()
    ctx = basis.ctx
    raw = raw_samples(q, "model", ctx)
    fields = combined_fields(basis.coeff, raw)
    Cinv = np.linalg.inv(basis.coeff)
    for j in (0, 4, 7):
        ks = [k for k in range(8) if Cinv[j, k] != 0.0]
        recon = lincomb(Cinv[j, ks], [fields[k] for k in ks])
        diff = lincomb((1.0, -1.0), (recon, raw[j]))
        rel = np.sqrt(ctx.inner_nf(diff, diff)
                      / ctx.inner_nf(raw[j], raw[j]))
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
    # the projection rows applied node by node (oracle.perp_nodefields)
    q, basis = _ball_basis()
    ctx = basis.ctx
    raw = raw_samples(q, "model", ctx)
    a = combined_fields(basis.coeff, raw)
    # v = a_3 projects to ~0
    (res,) = perp_nodefields([a[2]], basis, raw)
    n3 = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert n3 <= 1e-8
    # random v: residual orthogonal to every basis field, norm non-increasing
    rng = np.random.default_rng(RNG_SEED + 4)
    v = bump_one_form(q.p + 0.05, 2 * q.lam, rng.standard_normal((3, 4)))
    nv = sample_form(v, ctx.rule)
    (res,) = perp_nodefields([nv], basis, raw)
    norm_v = np.sqrt(ctx.inner_nf(nv, nv))
    norm_r = np.sqrt(max(ctx.inner_nf(res, res), 0.0))
    assert norm_r <= norm_v * (1 + 1e-12)
    for ai in a:
        assert abs(ctx.inner_nf(res, ai)) <= 1e-8 * max(1.0, norm_v)


def test_project_perp_fixed_point_for_orthogonal_input():
    q, basis = _ball_basis()
    ctx = basis.ctx
    raw = raw_samples(q, "model", ctx)
    rng = np.random.default_rng(RNG_SEED + 5)
    v = bump_one_form(q.p - 0.03, 1.5 * q.lam, rng.standard_normal((3, 4)))
    (first,) = perp_nodefields([sample_form(v, ctx.rule)], basis, raw)
    (second,) = perp_nodefields([first], basis, raw)
    diff = lincomb((1.0, -1.0), (second, first))
    assert np.sqrt(max(ctx.inner_nf(diff, diff), 0.0)) <= 1e-8


def test_basis_directional_derivative_step_halving():
    # the two fields rich - d(h/2) and rich, each folded from the 4 shifted
    # a_1, hold four times a_1's terms
    q = ParamQ.default(2.0 ** -5)
    basis = gram_schmidt_ball(q)
    fields = basis_directional_derivative(q, 1, 1, basis)
    a_1 = _basis_field_at(q, 1, basis.coeff[0], "model")
    assert len(fields) == 2
    for f in fields:
        for chart in ("inner_terms", "outer_terms"):
            assert len(getattr(f, chart)) == 4 * len(getattr(a_1, chart))
    G = _raw_gram(basis.ctx, fields)
    halving = np.sqrt(max(G[0, 0], 0.0) / G[1, 1])
    assert halving < 0.01
    assert np.isfinite(G[1, 1])


def test_fd_rebuild_samples_only_the_leading_fields(monkeypatch):
    # C is lower triangular, so a_i is folded from f_1..f_i alone, on the
    # base point's row of C: no context, Gram or MGS is built for it
    import ymeps.basis as basis_mod

    q = ParamQ.default(2.0 ** -4)
    coeff = gram_schmidt_ball(q).coeff
    seen = []

    def recorded(A, directions):
        seen.append(tuple(directions))
        return derivative_fields(A, directions)

    def forbidden(*args, **kwargs):
        raise AssertionError("a context, Gram or MGS at a shifted point")

    monkeypatch.setattr(basis_mod, "derivative_fields", recorded)
    for name in ("ball_context", "_raw_gram", "mgs_coefficients"):
        monkeypatch.setattr(basis_mod, name, forbidden)
    for i in (1, 5):
        _basis_field_at(q, i, coeff[i - 1], "model")
    assert seen == [DIRECTIONS[:1], DIRECTIONS[:5]]


_GRAM_BITS = """
import numpy as np
from ymeps.basis import _raw_gram, ball_context
from ymeps.instanton import (ParamQ, derivative_fields, glued_connection,
                             linear_combination)
q = ParamQ.default(2.0 ** -4)
A = glued_connection(q)
ctx = ball_context(A, q.eps)
fields = derivative_fields(A)
for n in (1, 8):
    print(_raw_gram(ctx, fields[:n]).tobytes().hex())
folded = [linear_combination(fields, row)
          for row in np.linspace(-1.0, 1.0, 24).reshape(3, 8)]
for r in (1, 3):
    print(_raw_gram(ctx, folded[:r]).tobytes().hex())
"""


def test_raw_gram_bits_do_not_depend_on_the_blas_thread_count():
    # one- and eight-field Grams and Grams of one and of three folded
    # combinations, each computed at 1 and at 2 BLAS threads in its own
    # process: a one-row product with itself would sum in an order that
    # depends on the thread count
    root = Path(__file__).resolve().parent.parent
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _GRAM_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout.split())
    assert len(bits[0]) == 4
    assert bits[0] == bits[1]


def test_fd_rebuild_at_the_base_point_is_the_basis_field():
    # at the unshifted q the folded a_i samples to the basis field, the
    # node-wise combination of the raw fields with the basis' own row, up
    # to round-off of the field's largest entry
    q = ParamQ.default(2.0 ** -4, p=[0.05, -0.03, 0.02, 0.01],
                       g=ad(qexp([0.3, -0.2, 0.5])))
    basis = gram_schmidt_ball(q, "model")
    raw = [(nf.val, nf.jac) for nf in raw_samples(q, "model", basis.ctx)]
    for i in (1, 5, 8):
        (got,) = basis.ctx.arrays(
            [_basis_field_at(q, i, basis.coeff[i - 1], "model")])
        want = combine(basis.coeff[i - 1], raw)
        for g, w in zip((got.val, got.jac), want):
            top = np.max(np.abs(w))
            assert top > 0.0 and np.max(np.abs(g - w)) <= 1e-13 * top, i
