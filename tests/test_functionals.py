"""Energy/charge/pairing functionals against closed forms and finite differences."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ymeps.basis import (
    InnerContext,
    NodeField,
    _raw_gram,
    ball_context,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    project_perp,
)
from ymeps.forms import (
    COMP_INDEX,
    MULTI_INDEX,
    NumericalError,
    QuadratureRule,
    bracket_wedge_adjoint,
    bracket_wedge_coeffs,
    cdot,
    codiff_coeffs,
    cov_d_coeffs,
    curvature_coeffs,
    d_coeffs,
    domain_ball_rule,
    star_coeffs,
    weighted_sum,
)
from ymeps.functionals import (
    _DPHI_MAP,
    L37_SPEC,
    EstimateReport,
    QuantityRow,
    _bump_channels,
    _hessian_difference_metrics,
    _perp_derivative_metrics,
    _row_band,
    _shape_functionals,
    _shape_gram,
    charge,
    compute_point_metrics,
    fit_slope,
    lemma36_report,
    lemma57_report,
    lemma58_report,
    sweep_points,
    ym_eps,
)
# aliased, so that pytest does not collect it as a test
from ymeps.functionals import test_field_family as probe_family
from ymeps.instanton import (
    DIRECTIONS,
    PI2_STRATEGIES,
    ChartedField,
    ParamQ,
    derivative_fields,
    difference_b,
    extended_connection,
    glued_connection,
    linear_combination,
    sample_charted,
)
from oracle import (
    ad,
    basis_gaps_by_combination,
    bump_one_form,
    cdot_nf,
    codifferential_eps,
    combine,
    covariant_d_eps,
    d2A_dp1p1,
    full_rule_probe_draws,
    full_rule_probes,
    full_rule_shape_gram,
    grad_pairing,
    hessian_form,
    lincomb,
    long_double_l37_differences,
    node_first,
    node_last,
    combined_fields,
    per_probe_l37,
    perp_nodefields,
    probe_pairings,
    project_perp_by_combination,
    qexp,
    raw_samples,
    rebuilt_fd,
    rows_gram,
    sample_form,
    weighted_coeff_by_combination,
    whole_rule_representers,
)

RNG_SEED = 77023


# the generic points' [g], as a unit quaternion of the oracle
GENERIC_G = qexp([0.3, -0.4, 0.2])


def _generic_q(eps=2.0 ** -6, g=GENERIC_G):
    return ParamQ.default(eps, p=[0.1, -0.08, 0.05, 0.12], g=ad(g))


def _holds_no_samples(basis) -> bool:
    """A basis holds its coefficients, context and raw Gram, no field."""
    return list(vars(basis)) == ["coeff", "ctx", "raw_gram"]


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_slope_exact_power():
    eps = [2.0 ** -k for k in range(4, 10)]
    fit = fit_slope([(e, 3.7 * e ** -1.5) for e in eps])
    assert abs(fit.slope + 1.5) < 1e-12
    assert fit.residual < 1e-12
    assert abs(fit.intercept - np.log(3.7)) < 1e-10
    assert fit.npoints == 6


def test_fit_slope_validation():
    with pytest.raises(ValueError, match="at least 3"):
        fit_slope([(0.1, 1.0), (0.05, 2.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_slope([(0.1, 1.0), (0.05, -2.0), (0.025, 4.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_slope([(0.1, 1.0), (-0.05, 2.0), (0.025, 4.0)])


# ---------------------------------------------------------------------------
# energy and charge


def test_energy_extension_closed_form():
    q = _generic_q()
    val = q.eps ** 2 * ym_eps(extended_connection(q), q.eps)
    assert abs(val - 8.0 * np.pi ** 2) < 1e-3 * 8.0 * np.pi ** 2


def _flat():
    """The zero connection: a charted field with empty term lists."""
    return ChartedField(np.zeros(4), 0.25, [], [])


def test_energy_flat_is_zero():
    assert ym_eps(_flat(), 2.0 ** -6) == 0.0


def test_energy_constant_group_invariance():
    q1 = ParamQ.default(2.0 ** -5, p=[0.05, 0.0, -0.1, 0.02])
    q2 = ParamQ(p=q1.p, g=ad(qexp([-0.7, 0.25, 1.1])), lam=q1.lam,
                eps=q1.eps)
    e1 = ym_eps(extended_connection(q1), q1.eps)
    e2 = ym_eps(extended_connection(q2), q2.eps)
    assert abs(e1 - e2) < 1e-10 * abs(e1)


def test_charge_extension_is_plus_one():
    q = _generic_q()
    assert abs(charge(extended_connection(q), q.eps) - 1.0) < 1e-3


def test_charge_flat_is_zero():
    assert charge(_flat(), 2.0 ** -6) == 0.0


def test_charge_negated_group_element():
    # -g acts by the same rotation, so the connection and charge are unchanged
    q, qn = _generic_q(2.0 ** -5), _generic_q(2.0 ** -5, -GENERIC_G)
    c1 = charge(extended_connection(q), q.eps)
    c2 = charge(extended_connection(qn), q.eps)
    assert c1 == pytest.approx(c2, rel=1e-13)


# ---------------------------------------------------------------------------
# gradient and Hessian pairings vs finite differences of the energy


def _energy_curve(A, a, eps, rule):
    """E(t) = ym(A + t a) evaluated through shared sampled arrays."""
    (nfA,) = ball_context(A, eps, rule=rule).arrays([A])
    nfa = sample_form(a, rule)

    def E(t):
        nf = lincomb((1.0, t), (nfA, nfa))
        F = curvature_coeffs(nf.val, nf.jac, eps)
        return weighted_sum(rule.weights, 0.5 * cdot(F, F))

    return E


def test_grad_pairing_matches_fd():
    q = _generic_q(2.0 ** -4)
    A = glued_connection(q)
    a = bump_one_form(q.p + np.array([0.25, 0.0, -0.1, 0.0]), 0.2,
                      [[0.4, -0.2, 0.0, 0.1],
                       [0.0, 0.3, -0.5, 0.0],
                       [0.2, 0.0, 0.0, -0.3]])
    rule = domain_ball_rule(q.p, q.lam)
    got = grad_pairing(A, sample_form(a, rule), q.eps, rule=rule)
    E = _energy_curve(A, a, q.eps, rule)
    h = 1e-3

    def central(step):
        return (E(step) - E(-step)) / (2.0 * step)

    fd = (4.0 * central(h / 2) - central(h)) / 3.0
    assert got == pytest.approx(fd, rel=1e-6)


def test_grad_pairing_linear():
    q = _generic_q(2.0 ** -4)
    A = glued_connection(q)
    rule = domain_ball_rule(q.p, q.lam)
    rng = np.random.default_rng(RNG_SEED)
    nfa = sample_form(bump_one_form([0.2, 0.1, 0.0, -0.1], 0.3,
                                    rng.standard_normal((3, 4))), rule)
    nfb = sample_form(bump_one_form([-0.1, 0.0, 0.2, 0.1], 0.4,
                                    rng.standard_normal((3, 4))), rule)
    combo = lincomb((2.0, 3.0), (nfa, nfb))
    lhs = grad_pairing(A, combo, q.eps, rule=rule)
    rhs = (2.0 * grad_pairing(A, nfa, q.eps, rule=rule)
           + 3.0 * grad_pairing(A, nfb, q.eps, rule=rule))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_hessian_symmetric():
    q = _generic_q(2.0 ** -4)
    A = glued_connection(q)
    rng = np.random.default_rng(RNG_SEED + 1)
    a = bump_one_form([0.15, -0.05, 0.0, 0.1], 0.3, rng.standard_normal((3, 4)))
    b = bump_one_form([-0.2, 0.0, 0.1, 0.0], 0.35, rng.standard_normal((3, 4)))
    rule = domain_ball_rule(q.p, q.lam)
    a, b = sample_form(a, rule), sample_form(b, rule)
    hab = hessian_form(A, a, b, q.eps, rule=rule)
    hba = hessian_form(A, b, a, q.eps, rule=rule)
    assert hab == pytest.approx(hba, rel=1e-10)


def test_hessian_matches_second_difference():
    q = _generic_q(2.0 ** -4)
    A = glued_connection(q)
    rng = np.random.default_rng(RNG_SEED + 2)
    a = bump_one_form(q.p + np.array([0.2, 0.05, 0.0, -0.1]), 0.25,
                      rng.standard_normal((3, 4)))
    rule = domain_ball_rule(q.p, q.lam)
    nfa = sample_form(a, rule)
    got = hessian_form(A, nfa, nfa, q.eps, rule=rule)
    E = _energy_curve(A, a, q.eps, rule)
    E0 = E(0.0)
    h = 2e-3

    def second(step):
        return (E(step) - 2.0 * E0 + E(-step)) / step ** 2

    # E itself is ~1e4 while h^2 E'' ~ 1e-6, so the second difference keeps
    # only ~10 digits; a few 1e-6 relative is the floating-point floor here
    fd = (4.0 * second(h / 2) - second(h)) / 3.0
    assert got == pytest.approx(fd, rel=5e-4)


# ---------------------------------------------------------------------------
# the codifferential kernel vs the coordinate formula


def _codiff_oracle(k, Aval, val, jac, eps):
    """(delta_A w)_J = -sum_{j not in J} (d_j w_{jJ} + eps [A_j, w_{jJ}]),
    on node-first arrays."""
    out = np.zeros(val.shape[:2] + (len(MULTI_INDEX[k - 1]),))
    for J, t in COMP_INDEX[k - 1].items():
        for j in set(range(4)) - set(J):
            I = tuple(sorted((j,) + J))
            # sign of sorting (j, J) into I: one swap per index of J below j
            sign = (-1.0) ** sum(i < j for i in J)
            s = COMP_INDEX[k][I]
            out[:, :, t] -= sign * (jac[:, :, s, j] + eps * np.cross(
                Aval[:, :, j], val[:, :, s], axis=1))
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_codiff_kernel_matches_coordinate_formula(k):
    # an off-centre connection bump and random k-form arrays on nodes where
    # the bump is nonzero: delta_A = -* d_A * equals minus the covariant
    # divergence in every degree
    rng = np.random.default_rng(RNG_SEED + 3 + k)
    A = bump_one_form([0.2, -0.1, 0.15, 0.05], 0.6, rng.standard_normal((3, 4)))
    X = np.array([0.2, -0.1, 0.15, 0.05]) + 0.3 * rng.uniform(-1, 1, (9, 4))
    C = len(MULTI_INDEX[k])
    val = rng.standard_normal((3, C, 9))
    jac = rng.standard_normal((3, C, 4, 9))
    eps = 0.37
    Aval = node_last(A.value(X))
    got = codiff_coeffs(k, Aval, val, jac, eps)
    want = _codiff_oracle(k, node_first(Aval), node_first(val),
                          node_first(jac), eps)
    assert np.allclose(node_first(got), want, rtol=0, atol=1e-13)
    # the definition -* d_A * w, through the star and covariant-d kernels;
    # the star acts on the component axis of values and jacobians alike
    sval, sjac = star_coeffs(k, val), star_coeffs(k, jac)
    composed = -star_coeffs(5 - k, cov_d_coeffs(4 - k, Aval, sval, sjac, eps))
    assert np.allclose(got, composed, rtol=0, atol=1e-13)


def test_codifferential_adjoint_to_covariant_d():
    # int <d_A phi, alpha> = int <phi, delta_A alpha> for compact support
    rng = np.random.default_rng(RNG_SEED + 4)
    Aff = bump_one_form([0.0, 0.1, 0.0, -0.1], 0.5, rng.standard_normal((3, 4)))
    alpha = bump_one_form([0.1, 0.0, 0.05, 0.0], 0.4,
                          rng.standard_normal((3, 4)))
    coef0 = rng.standard_normal(3)
    phi = bump_one_form(np.full(4, 0.05), 0.45, coef0[:, None], degree=0)
    eps = 0.59
    rule = domain_ball_rule(np.zeros(4), 0.25)
    X = rule.nodes
    dphi = covariant_d_eps(Aff, phi, eps).value(X)
    delta = codifferential_eps(Aff, alpha, eps).value(X)
    lhs = weighted_sum(rule.weights, cdot_nf(dphi, alpha.value(X)))
    rhs = weighted_sum(rule.weights, cdot_nf(phi.value(X), delta))
    # equality holds after integration by parts, so the gap is pure quadrature
    # error (the bump support kink sits inside panels); well under 10x the
    # rule's tolerance
    scale = max(abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-3 * scale


# ---------------------------------------------------------------------------
# sweep metrics and reports


def test_sweep_points_defaults():
    pts = sweep_points([2.0 ** -5, 2.0 ** -7], D=1.5)
    assert [p.eps for p in pts] == [2.0 ** -5, 2.0 ** -7]
    assert all(abs(p.lam - np.sqrt(1.5 * p.eps)) < 1e-15 for p in pts)
    assert all(np.all(p.p == 0) for p in pts)


@pytest.fixture(scope="module")
def small_sweep_metrics():
    eps_list = [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7]
    return [compute_point_metrics(q, blocks=frozenset({"l36"}))
            for q in sweep_points(eps_list)]


def test_norm_scaling_report(small_sweep_metrics):
    rep = lemma57_report(small_sweep_metrics)
    assert rep.lemma == "5.7"
    for row in rep.rows:
        assert row.verdict in ("pass", "exact"), (row.quantity, row.note,
                                                  row.slope, row.values)
    assert rep.passed()


def test_ball_coefficient_report(small_sweep_metrics):
    rep = lemma58_report(small_sweep_metrics)
    for row in rep.rows:
        assert row.verdict == "pass", (row.quantity, row.note, row.values)


def test_basis_gap_report(small_sweep_metrics):
    rep = lemma36_report(small_sweep_metrics)
    for row in rep.rows:
        assert row.verdict == "pass", (row.quantity, row.note, row.values)


# ---------------------------------------------------------------------------
# pairings of basis combinations, read through the coefficient matrix


@pytest.fixture(scope="module", params=PI2_STRATEGIES)
def generic_basis(request):
    q = _generic_q(2.0 ** -4)
    return q, request.param, gram_schmidt_ball(q, request.param)


def test_glued_derivatives_are_extension_minus_b_derivatives(generic_basis):
    # the identity suite 3.6 rests on: dA/dq_j = dAt/dq_j - db/dq_j, sampled,
    # in values and jacobians; b has no inner-chart terms, so on the inner
    # chart dA/dq_j is dAt/dq_j itself
    q, pi2, basis = generic_basis
    rule = basis.ctx.rule
    assert 0 < rule.n_inner < len(rule)
    fields = [derivative_fields(F) for F in
              (glued_connection(q, pi2=pi2), extended_connection(q),
               difference_b(q, pi2=pi2))]
    sampled = sample_charted(sum(fields, []), rule.nodes, rule.n_inner)
    for j in range(8):
        (vA, jA), (vt, jt), (vb, jb) = sampled[j::8]
        for got, t, b in ((vA, vt, vb), (jA, jt, jb)):
            scale = np.max(np.abs(t)) + np.max(np.abs(b))
            assert np.max(np.abs(got - (t - b))) <= 1e-14 * scale, (pi2, j)
        assert (not vb[..., :rule.n_inner].any()
                and not jb[..., :rule.n_inner].any())


def test_weighted_basis_matches_the_combined_fields_gram(generic_basis):
    q, _, basis = generic_basis
    wb = gram_schmidt_weighted(q, basis)
    assert _holds_no_samples(wb)
    want = weighted_coeff_by_combination(q, basis)
    assert np.max(np.abs(wb.coeff - want)) <= 1e-12


def test_basis_gaps_match_the_combined_differences(generic_basis):
    q, pi2, basis = generic_basis
    m = compute_point_metrics(q, pi2, blocks=frozenset({"l36"}))
    got = [m[f"basis_diff_{i}"] for i in range(1, 9)]
    np.testing.assert_allclose(got, basis_gaps_by_combination(q, pi2, basis),
                               rtol=1e-10, atol=0)


def test_project_perp_matches_the_eight_field_projection(generic_basis):
    # one Gram of [v_1, v_2, f_1..f_8] projects both fields as a Gram per
    # field does, bit for bit, and as the combined basis fields do; the
    # projected fields are the rows' combinations formed node by node, and
    # their Gram is M G M^T
    q, pi2, basis = generic_basis
    ctx = basis.ctx
    raw = raw_samples(q, pi2, ctx)
    rng = np.random.default_rng(RNG_SEED)
    bump = bump_one_form(q.p + 0.05, 2 * q.lam, rng.standard_normal((3, 4)))
    vs = [sample_form(bump, ctx.rule), *ctx.arrays([d2A_dp1p1(q, pi2)])]
    G = _raw_gram(ctx, vs + raw)
    M = project_perp(G, 2, basis)
    assert M.shape == (2, 10)
    perps = perp_nodefields(vs, basis, raw)
    for k, (v, got) in enumerate(zip(vs, perps)):
        alone = project_perp(_raw_gram(ctx, [v] + raw), 1, basis)
        assert (np.array_equal(M[k, 2:], alone[0, 1:])
                and M[k, k] == alone[0, 0] == 1.0
                and M[k, 1 - k] == 0.0), pi2
        (got_alone,) = perp_nodefields([v], basis, raw)
        assert (np.array_equal(got.val, got_alone.val)
                and np.array_equal(got.jac, got_alone.jac)), pi2
        want = project_perp_by_combination(v, basis, raw)
        diff = lincomb((1.0, -1.0), (got, want))
        assert (np.sqrt(ctx.inner_nf(diff, diff))
                <= 1e-10 * np.sqrt(ctx.inner_nf(v, v)))
    P = _raw_gram(ctx, perps)
    assert np.all(np.abs(M @ G @ M.T - P) <= 1e-10 * np.max(np.diag(P)))


def test_l310_point_pairs_the_raw_fields_in_two_grams(monkeypatch):
    # the FD and the analytic derivative are projected from one Gram of
    # the two folded FD fields, d2A and the eight raw fields, and the
    # inner-chart norm is a one-field Gram on the inner chart of the FD
    # field's projection, folded over the same fields; the block takes no
    # other Gram (the FD builds no basis at shifted q) and pairs no node
    # field
    import ymeps.basis as basis_mod
    import ymeps.functionals as functionals_mod

    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    grams, gram = [], basis_mod._raw_gram
    derived, derive = [], functionals_mod.derivative_fields

    def recorded(ctx, fields):
        grams.append((ctx, list(fields)))
        return gram(ctx, fields)

    def recorded_fields(*args):
        derived.append(derive(*args))
        return derived[-1]

    monkeypatch.setattr(basis_mod, "_raw_gram", recorded)
    monkeypatch.setattr(functionals_mod, "_raw_gram", recorded)
    monkeypatch.setattr(functionals_mod, "derivative_fields", recorded_fields)
    _perp_derivative_metrics(q, "model", basis, basis.ctx)
    (raw,) = [fields for fields in derived if len(fields) == 8]
    assert len(grams) == 2
    (base, fields), (inner, (perp,)) = grams
    assert base is basis.ctx and len(fields) == 11
    assert all(f is r for f, r in zip(fields[3:], raw))
    assert len(inner.rule) == basis.ctx.rule.n_inner
    # rich's terms, then those of the f_j with a nonzero projection
    # coefficient
    for chart in ("inner_terms", "outer_terms"):
        assert len(getattr(perp, chart)) == sum(
            len(getattr(f, chart)) for f in [fields[1], *raw])
    assert not any(isinstance(f, NodeField)
                   for _, fields in grams for f in fields)


def test_weighted_and_l36_combine_no_field_and_a_projection_one(monkeypatch):
    # pairings with basis combinations are read through the coefficients:
    # the weighted and l36 blocks fold no field, a projection forms only
    # coefficient rows, and the Gram of one such row folded over charted
    # fields samples that one field per block
    import ymeps.basis as basis_mod
    import ymeps.functionals as functionals_mod

    calls, sample_blocks = [], basis_mod._sample_blocks

    def counted_fold(*args, **kwargs):
        calls.append("linear_combination")
        return linear_combination(*args, **kwargs)

    def counted_blocks(ctx, fields, *args):
        for a, samples in sample_blocks(ctx, fields, *args):
            calls.append(len(samples))
            yield a, samples

    for module in (basis_mod, functionals_mod):
        monkeypatch.setattr(module, "linear_combination", counted_fold)
    q = ParamQ.default(2.0 ** -4)
    m = compute_point_metrics(q, blocks=frozenset({"weighted", "l36"}))
    assert "w_coeff" in m and "basis_diff_8" in m
    assert "linear_combination" not in calls
    basis = gram_schmidt_ball(q)
    ctx = basis.ctx
    fields = [d2A_dp1p1(q, "model")] + derivative_fields(glued_connection(q))
    M = project_perp(_raw_gram(ctx, fields), 1, basis)
    assert "linear_combination" not in calls
    blocks = -(-len(ctx.rule) // basis_mod._GRAM_BLOCK)
    assert blocks > 1
    calls.clear()
    monkeypatch.setattr(basis_mod, "_sample_blocks", counted_blocks)
    _raw_gram(ctx, [functionals_mod.linear_combination(fields, M[0])])
    assert calls == ["linear_combination"] + [1] * blocks


def test_basis_only_point_holds_no_samples(monkeypatch):
    # the ball basis' eight raw fields sampled whole take 149 MB at 2^-7;
    # a point that reads only their Gram samples them block by block
    import tracemalloc

    import ymeps.functionals as functionals_mod

    built = []

    def recorded(*args, **kwargs):
        built.append(gram_schmidt_ball(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(functionals_mod, "gram_schmidt_ball", recorded)
    tracemalloc.start()
    try:
        compute_point_metrics(ParamQ.default(2.0 ** -7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built) == 1 and _holds_no_samples(built[0])
    assert peak <= 64 * 2 ** 20, peak / 2 ** 20


def test_l37_point_builds_its_representers_from_block_samples(monkeypatch):
    # at 2^-7 the eight raw fields sampled whole on suite 3.7's rule take
    # 142 MiB and A, Atilde, b with their jacobians 56 MiB more, and two
    # whole-rule representers would take 40 MiB each; suite 3.7 samples
    # five fields, A, Atilde, b, a_1 and a_5, a block at a time and builds
    # and pairs the representers there, so its pass peaks no higher than a
    # basis build on its rule
    import tracemalloc

    import ymeps.functionals as functionals_mod

    q = ParamQ.default(2.0 ** -7)
    peaks = []

    def recorded(*args, **kwargs):
        basis = gram_schmidt_ball(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return basis

    monkeypatch.setattr(functionals_mod, "gram_schmidt_ball", recorded)
    tracemalloc.start()
    try:
        m = compute_point_metrics(q, blocks=frozenset({"l37"}), n_test=16)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        recorded(q, rule=domain_ball_rule(q.p, q.lam, spec=L37_SPEC))
    finally:
        tracemalloc.stop()
    assert m["hess_dual_i5"] > 0.0
    _, l37_peak, basis_peak = peaks
    assert l37_peak <= basis_peak, (l37_peak / 2 ** 20, basis_peak / 2 ** 20)
    assert max(peaks) <= 64 * 2 ** 20, max(peaks) / 2 ** 20


def test_l37_and_l310_point_holds_no_full_rule_sample():
    # at 2^-7 the eight raw fields sampled whole take 149 MB; both blocks
    # pair the fields they read block by block, suite 3.10 its 13 fields
    # (the four shifted ones, d2A and the f_j) in one streamed Gram, so the
    # point stays near a basis-only one
    import tracemalloc

    tracemalloc.start()
    try:
        m = compute_point_metrics(ParamQ.default(2.0 ** -7),
                                  blocks=frozenset({"l37", "l310"}),
                                  n_test=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m["hess_dual_i5"] > 0.0 and m["l310_fd_norm"] > 0.0
    assert peak <= 80 * 2 ** 20, peak / 2 ** 20


def test_l37_and_l310_together_equal_each_alone():
    # neither block leaves state behind for the other: the shared point's
    # values are those of each block alone
    q = _generic_q(2.0 ** -4)
    both = compute_point_metrics(q, blocks=frozenset({"l37", "l310"}),
                                 n_test=4, seed=RNG_SEED)
    alone = {}
    for block in ("l37", "l310"):
        alone.update(compute_point_metrics(q, blocks=frozenset({block}),
                                           n_test=4, seed=RNG_SEED))
    assert sorted(both) == sorted(alone)
    for key, want in alone.items():
        assert np.asarray(both[key]).tobytes() == np.asarray(want).tobytes(), key


@pytest.mark.parametrize("blocks,name", [({"l73"}, "l73"),
                                         ({"basis"}, "basis"),
                                         ({"l37", "l73"}, "l73")])
def test_unknown_metric_block_is_refused_by_name(blocks, name, monkeypatch):
    # before any rule is built: an unknown block would otherwise run the
    # basis alone and leave its suite's report without its metrics
    def no_rule(self):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr("ymeps.forms.QuadratureRule.__post_init__", no_rule)
    with pytest.raises(ValueError, match=rf"unknown metric blocks \['{name}'\]"):
        compute_point_metrics(ParamQ.default(2.0 ** -4),
                              blocks=frozenset(blocks))


def test_five_term_expansion_single_point():
    q = ParamQ.default(2.0 ** -5)
    m = compute_point_metrics(q, blocks=frozenset({"l37"}), n_test=6,
                              seed=RNG_SEED)
    assert m["five_term_residual"] < 1e-8
    assert m["hess_dual_i1"] > 0.0
    assert m["codiff_dual_i1"] > 0.0
    assert np.isfinite(m["hess_dual_i5"])


def _per_tag_l37_oracle(q, pi2, basis, ctx, seed, n_test):
    """The l37 loop as first written: tags outside, full rule, probe arrays
    recomputed per tag, a_1 and a_5 combined from the whole-rule f_j."""
    eps, w = q.eps, ctx.rule.weights
    (A_nf,) = ctx.arrays([glued_connection(q, pi2=pi2)])
    (At_nf,) = ctx.arrays([extended_connection(q)])
    (b_nf,) = ctx.arrays([difference_b(q, pi2=pi2)])
    Aval, Atval = A_nf.val, At_nf.val
    FA = curvature_coeffs(Aval, A_nf.jac, eps)
    FAt = curvature_coeffs(Atval, At_nf.jac, eps)
    dAb = cov_d_coeffs(1, Aval, b_nf.val, b_nf.jac, eps)
    bb = bracket_wedge_coeffs(1, b_nf.val, b_nf.val)
    betas = full_rule_probes(q, ctx, n_test, seed)
    fields = combined_fields(
        basis.coeff[[0, 4]],
        ctx.arrays(derivative_fields(glued_connection(q, pi2=pi2))))
    out, resid = {}, 0.0
    for tag, a in zip(("i1", "i5"), fields):
        dAa = cov_d_coeffs(1, Aval, a.val, a.jac, eps)
        dAta = cov_d_coeffs(1, Atval, a.val, a.jac, eps)
        delAa = codiff_coeffs(1, Aval, a.val, a.jac, eps)
        delAta = codiff_coeffs(1, Atval, a.val, a.jac, eps)
        ba = bracket_wedge_coeffs(1, b_nf.val, a.val)
        sup_h = sup_c = 0.0
        for beta in betas:
            dAbeta = cov_d_coeffs(1, Aval, beta.val, beta.jac, eps)
            dAtbeta = cov_d_coeffs(1, Atval, beta.val, beta.jac, eps)
            abeta = bracket_wedge_coeffs(1, a.val, beta.val)
            HA = weighted_sum(w, cdot(dAa, dAbeta) + eps * cdot(FA, abeta))
            HAt = weighted_sum(w, cdot(dAta, dAtbeta) + eps * cdot(FAt, abeta))
            sup_h = max(sup_h, abs(HAt - HA))
            bbeta = bracket_wedge_coeffs(1, b_nf.val, beta.val)
            expansion = (eps * weighted_sum(w, cdot(dAa, bbeta))
                         + eps * weighted_sum(w, cdot(ba, dAbeta))
                         + eps ** 2 * weighted_sum(w, cdot(ba, bbeta))
                         + eps * weighted_sum(w, cdot(dAb, abeta))
                         + 0.5 * eps ** 2 * weighted_sum(w, cdot(bb, abeta)))
            resid = max(resid, abs(HAt - HA - expansion)
                        / max(abs(HA), abs(HAt), 1.0))
            delAbeta = codiff_coeffs(1, Aval, beta.val, beta.jac, eps)
            delAtbeta = codiff_coeffs(1, Atval, beta.val, beta.jac, eps)
            sup_c = max(sup_c, abs(weighted_sum(w, cdot(delAta, delAtbeta))
                                   - weighted_sum(w, cdot(delAa, delAbeta))))
        out[f"hess_dual_{tag}"] = sup_h
        out[f"codiff_dual_{tag}"] = sup_c
    out["five_term_residual"] = resid
    return out


@pytest.mark.parametrize("pi2", PI2_STRATEGIES)
def test_l37_probe_loop_matches_per_tag_oracle(pi2):
    # off-centre p and a non-identity g: the probes' supports are off the
    # rule's centre and cut through both charts.  The basis holds no
    # samples: the loop combines a_1 and a_5 from its own
    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q, pi2)
    assert _holds_no_samples(basis)
    got = _hessian_difference_metrics(q, pi2, basis.coeff, basis.ctx,
                                      seed=RNG_SEED, n_test=4)
    want = _per_tag_l37_oracle(q, pi2, basis, basis.ctx,
                               seed=RNG_SEED, n_test=4)
    assert list(got) == list(want)
    for key in want:
        if key == "five_term_residual":
            assert abs(got[key] - want[key]) <= 1e-15
        else:
            assert want[key] > 0.0
            assert abs(got[key] - want[key]) <= 1e-10 * want[key], key


def _assert_l37_close(got, want):
    assert list(got) == list(want)
    for key in want:
        if key == "five_term_residual":
            assert abs(got[key] - want[key]) <= 1e-15
        else:
            assert want[key] > 0.0
            assert abs(got[key] - want[key]) <= 1e-12 * want[key], key


def _count_shape_gemms(monkeypatch) -> tuple:
    """The tags of each node block's representers, in order, keyed by the
    block's number, and the number of shapes of each _shape_functionals
    call: one per tag, reading the product of all shapes' channels with that
    tag's representer, summed over the blocks.  A representer's tag is the
    tag field it is built from: a_1 (i1) or a_5 (i5), the fourth and fifth
    samples of its block."""
    import ymeps.functionals as functionals_mod

    sampled, blocks, calls = _record_l37_blocks(monkeypatch), {}, []
    kernel, fn = (functionals_mod._representer,
                  functionals_mod._shape_functionals)

    def counted_kernel(*args):
        val = args[-3]
        tag = [s[0] is val for s in sampled[-1][3:]].index(True)
        blocks.setdefault(len(sampled), []).append(("i1", "i5")[tag])
        return kernel(*args)

    def counted(G):
        assert G.shape[1] == _representer_rows()
        calls.append(len(G) // 5)
        return fn(G)

    monkeypatch.setattr(functionals_mod, "_representer", counted_kernel)
    monkeypatch.setattr(functionals_mod, "_shape_functionals", counted)
    return blocks, calls


@pytest.mark.parametrize("pi2", ["model", "full"])
def test_l37_shape_groups_match_per_probe_oracle(pi2, monkeypatch):
    # the 0.95-scale probes all sit at centre 0, so they share one shape and
    # one L; on each node block each tag pairs all its shapes in one product
    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q, pi2)
    shapes = probe_family(q, basis.ctx, 8, RNG_SEED)
    assert any(len(coeffs) > 1 for *_, coeffs in shapes)
    assert sum(len(coeffs) for *_, coeffs in shapes) == 8
    blocks, gemms = _count_shape_gemms(monkeypatch)
    got = _hessian_difference_metrics(q, pi2, basis.coeff, basis.ctx,
                                      seed=RNG_SEED, n_test=8)
    assert len(blocks) > 1
    assert list(blocks.values()) == [["i1", "i5"]] * len(blocks)
    assert gemms == [len(shapes)] * 2
    _assert_l37_close(got, per_probe_l37(q, pi2, basis, basis.ctx,
                                         seed=RNG_SEED, n_test=8))


def test_l37_shape_groups_cross_the_group_boundary(monkeypatch):
    # more shapes than 120 // 5, the most one product took while the whole
    # representer was paired at once: all of them now pair in one product
    # per node block and tag, on suite 3.7's rule thinned to two blocks
    q = _generic_q(2.0 ** -4)
    r = domain_ball_rule(q.p, q.lam, spec=L37_SPEC)
    rule = QuadratureRule(r.nodes[::7], r.weights[::7], r.center, r.lam,
                          r.region)
    basis = gram_schmidt_ball(q, "model", rule=rule)
    n, per = 40, 120 // 5
    shapes = probe_family(q, basis.ctx, n, RNG_SEED)
    assert per < len(shapes) <= 2 * per
    blocks, gemms = _count_shape_gemms(monkeypatch)
    got = _hessian_difference_metrics(q, "model", basis.coeff, basis.ctx,
                                      seed=RNG_SEED, n_test=n)
    assert len(blocks) > 1
    assert gemms == [len(shapes)] * 2
    _assert_l37_close(got, per_probe_l37(q, "model", basis, basis.ctx,
                                         seed=RNG_SEED, n_test=n))


def test_l37_expansions_are_closer_to_long_double_than_direct_differences():
    # off-centre, pi2 = full, at 2^-9, on every 7th node of the rule: for
    # a_1, <delta_At a, delta_At beta> and <delta_A a, delta_A beta> agree to
    # about 7 digits, so their float64 difference keeps about 9; both
    # expansions, which cancel nothing, must land closer to the difference
    # taken in long double than the same direct differences taken in float64
    if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
        pytest.skip("long double carries no more digits than float64 here")
    q = _generic_q(2.0 ** -9)
    r = domain_ball_rule(q.p, q.lam)
    rule = QuadratureRule(r.nodes[::7], r.weights[::7], r.center, r.lam,
                          r.region)
    basis = gram_schmidt_ball(q, "full", rule=rule)
    ctx = basis.ctx
    shapes = probe_family(q, ctx, 8, RNG_SEED)
    got = _hessian_difference_metrics(q, "full", basis.coeff, ctx,
                                      seed=RNG_SEED, n_test=8)
    exact = long_double_l37_differences(q, "full", basis, ctx, shapes)
    direct = long_double_l37_differences(q, "full", basis, ctx, shapes,
                                         dtype=float)
    Rts = whole_rule_representers(q, "full", basis, ctx)
    nodes, w = rule.nodes, rule.weights
    wphi = np.zeros((5, len(rule)))
    for tag, Rt in Rts.items():
        P = []
        for s, center, scale, coeffs in shapes:
            wphi[:, s] = _bump_channels(nodes[s], center, scale) * w[s]
            P += [probe_pairings(Rt.T, wphi, coeff) for coeff in coeffs]
            wphi[:, s] = 0.0
        P = np.array(P)
        for k, (name, expansion) in enumerate((("hess_dual", P[:, 2]),
                                               ("codiff_dual", P[:, 3]))):
            want = exact[tag][:, k]
            scale = np.max(np.abs(want))
            err_direct = float(np.max(np.abs(direct[tag][:, k] - want))
                               / scale)
            err_expansion = float(np.max(np.abs(expansion - want)) / scale)
            assert err_expansion < err_direct, (
                tag, name, err_expansion, err_direct)
            sup = float(np.max(np.abs(want)))
            err_reported = abs(got[f"{name}_{tag}"] - sup) / sup
            assert err_reported < err_direct, (
                tag, name, err_reported, err_direct)


@pytest.mark.parametrize("k", [4, 7])
@pytest.mark.parametrize("pi2", PI2_STRATEGIES)
def test_l37_dual_norms_do_not_depend_on_the_block_size(pi2, k, monkeypatch):
    # the representers are built node by node, but each block's pairing is
    # one product summed over the blocks, so the block size only reorders
    # the node sum; neither expansion cancels, so that stays round-off
    import ymeps.basis as basis_mod

    q = _generic_q(2.0 ** -k)
    basis = gram_schmidt_ball(q, pi2)
    got = []
    for block in (1024, len(basis.ctx.rule)):
        monkeypatch.setattr(basis_mod, "_SAMPLE_BLOCK", block)
        got.append(_hessian_difference_metrics(q, pi2, basis.coeff, basis.ctx,
                                               seed=RNG_SEED, n_test=8))
    for key, want in got[1].items():
        if key != "five_term_residual":
            assert want > 0.0
            assert abs(got[0][key] - want) <= 1e-14 * want, key


_L37_BITS = """
import numpy as np
from ymeps.functionals import compute_point_metrics
from ymeps.instanton import ParamQ
m = compute_point_metrics(ParamQ.default(2.0 ** -4), blocks=frozenset({"l37"}),
                          n_test=4)
for key in sorted(m):
    print(key, np.asarray(m[key]).tobytes().hex())
"""


def test_l37_point_bits_do_not_depend_on_the_blas_thread_count():
    # each tag's pairing sums one small product per node block; the point's
    # values must come out bit for bit the same at 1 and at 2 BLAS threads
    root = Path(__file__).resolve().parent.parent
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _L37_BITS], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        bits.append(dict(line.split() for line in proc.stdout.splitlines()))
    assert {f"{name}_{tag}" for name in ("hess_dual", "codiff_dual")
            for tag in ("i1", "i5")} < set(bits[0])
    assert bits[0] == bits[1]


def _same(got, want) -> bool:
    """The two sequences hold the very same objects, in order."""
    return len(got) == len(want) and all(x is y for x, y in zip(got, want))


def _record_l37_blocks(monkeypatch, poison=None) -> list:
    """The samples of each node block the l37 representers read, in order;
    poison(a, samples) may overwrite them before they are read."""
    import ymeps.functionals as functionals_mod

    blocks, sample_blocks = [], functionals_mod._sample_blocks

    def recorded(ctx, fields):
        for a, samples in sample_blocks(ctx, fields):
            if poison is not None:
                poison(a, samples)
            blocks.append(samples)
            yield a, samples

    monkeypatch.setattr(functionals_mod, "_sample_blocks", recorded)
    return blocks


def test_l37_makes_no_layout_copy_and_no_node_field_arithmetic(monkeypatch):
    # the kernels read the samples as sampling returns them: on each node
    # block five fields are sampled, A, Atilde, b and the folded tag fields
    # a_1 and a_5, and they and their jacobians enter the kernels
    # themselves.  No transpose or contiguous copy runs, no NodeField sum or
    # product is formed and no sample is combined node by node (the library
    # has no such combination).  The kernel writes each tag's representer
    # into one buffer, a_1's then a_5's on each block
    import ymeps.basis as basis_mod
    import ymeps.functionals as functionals_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("layout copy or node-wise combination in l37")

    for op in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(NodeField, op, forbidden, raising=False)
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    assert not any(hasattr(module, "_combine")
                   for module in (basis_mod, functionals_mod))
    blocks = _record_l37_blocks(monkeypatch)
    calls = {"curvature_coeffs": [], "cov_d_coeffs": [], "codiff_coeffs": []}
    for name, log in calls.items():
        def spy(*args, _fn=getattr(functionals_mod, name), _log=log):
            _log.append(args)
            return _fn(*args)
        monkeypatch.setattr(functionals_mod, name, spy)
    built, kernel = [], functionals_mod._representer

    def recorded(*args):
        Rt = args[-1]
        built.append((len(blocks), args[1:4], args[-3:-1], Rt.shape,
                      Rt.__array_interface__["data"][0]))
        return kernel(*args)

    monkeypatch.setattr(functionals_mod, "_representer", recorded)
    for name in ("moveaxis", "ascontiguousarray", "copyto", "transpose",
                 "swapaxes"):
        monkeypatch.setattr(np, name, forbidden)
    _hessian_difference_metrics(q, "model", basis.coeff, basis.ctx,
                                seed=RNG_SEED, n_test=4)
    n = len(blocks)
    assert n > 1 and len(built) == 2 * n
    assert all(len(samples) == 5 for samples in blocks)
    assert {data for *_, data in built} == {built[0][4]}
    for k, samples in enumerate(blocks):
        m = samples[0][0].shape[-1]
        connections = tuple(s[0] for s in samples[:3])
        for (sampled, conn, field, shape, _), a in zip(
                built[2 * k:2 * k + 2], samples[3:]):
            assert sampled == k + 1 and shape == (_representer_rows(), m)
            assert _same(conn, connections) and _same(field, a)
    curv, cov = calls["curvature_coeffs"], calls["cov_d_coeffs"]
    assert len(curv) == 2 * n and len(cov) == 5 * n
    # delta_A a, once per tag and block, for the two-term expansion
    codiff = calls["codiff_coeffs"]
    assert len(codiff) == 2 * n
    for k, (sA, sAt, sb, *tag_fields) in enumerate(blocks):
        assert _same(curv[2 * k][:2], sA)
        assert _same(curv[2 * k + 1][:2], sAt)
        fb, *per_tag = cov[5 * k:5 * k + 5]
        assert _same(fb[1:4], (sA[0], *sb))
        want = [(C, *a) for a in tag_fields for C in (sA[0], sAt[0])]
        assert all(_same(args[1:4], w) for args, w in zip(per_tag, want))
        assert all(_same(args[1:4], (sA[0], *a))
                   for args, a in zip(codiff[2 * k:2 * k + 2], tag_fields))


@pytest.mark.parametrize("pi2", ["model", "full"])
def test_l37_folded_tag_fields_equal_the_combined_raw_samples(pi2):
    # a_i = sum_j c_ij f_j folded into one term list samples, block by
    # block, to the node-wise combination of the sampled f_1..f_5, up to
    # round-off of the field's largest entry
    import ymeps.basis as basis_mod

    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q, pi2)
    ctx = basis.ctx
    raw = derivative_fields(glued_connection(q, pi2=pi2), DIRECTIONS[:5])
    for i in (0, 4):
        coeffs = basis.coeff[i, :5]
        folded = linear_combination(raw, coeffs)
        err, top, n_blocks = np.zeros(2), np.zeros(2), 0
        for _, (got, *samples) in basis_mod._sample_blocks(ctx,
                                                           [folded] + raw):
            want = combine(coeffs, samples)
            for k in range(2):
                err[k] = max(err[k], np.max(np.abs(got[k] - want[k])))
                top[k] = max(top[k], np.max(np.abs(want[k])))
            n_blocks += 1
        assert n_blocks >= 2
        assert np.all(top > 0.0) and np.all(err <= 1e-13 * top), (i, err / top)


def _thinned_context(q, pi2, stride) -> InnerContext:
    """Suite 3.7's ball context of the glued connection at q on every
    stride-th node of its rule."""
    A = glued_connection(q, pi2=pi2)
    ctx = ball_context(A, q.eps,
                       rule=domain_ball_rule(A.p, A.lam, spec=L37_SPEC))
    r = ctx.rule
    rule = QuadratureRule(r.nodes[::stride], r.weights[::stride], r.center,
                          r.lam, r.region)
    return InnerContext(rule, q.eps, ctx.Aval[..., ::stride])


@pytest.mark.parametrize("stride", [1, 997])
@pytest.mark.parametrize("pi2", ["model", "full"])
def test_probe_specs_match_full_rule_probes(pi2, stride):
    # the shapes against the bumps sampled on the full rule and normalised
    # there, drawn from the same RNG sequence: the shapes come in the order
    # of their first accepted probe, each with its probes' C in draw order.
    # On a rule thinned to every 997th node some candidates cover no node
    # and are rejected
    q = _generic_q(2.0 ** -4)
    ctx = _thinned_context(q, pi2, stride)
    rule = ctx.rule
    n = 8
    shapes = probe_family(q, ctx, n, RNG_SEED)
    draws = full_rule_probe_draws(q, ctx, n, RNG_SEED)
    assert (len(draws) > n) == (stride > 1)
    accepted = [((c.tobytes(), sc), beta) for c, sc, beta in draws
                if beta is not None]
    assert sum(len(coeffs) for *_, coeffs in shapes) == len(accepted) == n
    keys = [(center.tobytes(), scale) for _, center, scale, _ in shapes]
    assert keys == list(dict.fromkeys(key for key, _ in accepted))
    for key, (rows, center, scale, coeffs) in zip(keys, shapes):
        betas = [beta for k, beta in accepted if k == key]
        assert len(betas) == len(coeffs)
        off = np.ones(len(rule), dtype=bool)
        off[rows] = False
        phi = _bump_channels(rule.nodes[rows], center, scale)
        for coeff, beta in zip(coeffs, betas):
            on = (np.any(beta.val != 0.0, axis=(0, 1))
                  | np.any(beta.jac != 0.0, axis=(0, 1, 2)))
            assert np.array_equal(rows, np.flatnonzero(on))
            assert not beta.val[..., off].any()
            assert not beta.jac[..., off].any()
            # the probe coeff * phi from its channels (phi, grad phi)
            val = coeff[:, :, None] * phi[0]
            jac = coeff[:, :, None, None] * phi[1:]
            np.testing.assert_allclose(val, beta.val[..., rows], rtol=1e-12,
                                       atol=0)
            np.testing.assert_allclose(jac, beta.jac[..., rows], rtol=1e-12,
                                       atol=0)


@pytest.mark.parametrize("pi2", PI2_STRATEGIES)
def test_probe_norm_closed_form_matches_covariant_gradient_density(pi2):
    # each shape's closed-form Gram N, summed over its rows, is the full-rule
    # Gram of its 12 unit-coefficient bumps, covariant gradients included,
    # entry by entry; on the rule and on every 997th node of it.  Every
    # probe of the shape has unit norm in that Gram
    q = _generic_q(2.0 ** -4)
    for stride in (1, 997):
        ctx = _thinned_context(q, pi2, stride)
        for rows, center, scale, coeffs in probe_family(q, ctx, 4,
                                                        RNG_SEED):
            got_rows, N = _shape_gram(ctx, center, scale)
            want = full_rule_shape_gram(ctx, center, scale)
            assert np.array_equal(got_rows, rows)
            assert np.max(np.abs(N - want)) <= 1e-12 * np.max(np.abs(want))
            c = coeffs.reshape(-1, 12)
            np.testing.assert_allclose(np.einsum("ki,ij,kj->k", c, want, c),
                                       1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the l37 representers: every pairing through the channels (phi, grad phi)


def _random_probe(rng, n):
    """Channels (5, n), a coefficient C (3,4), and beta = C phi's arrays."""
    phi = rng.standard_normal((5, n))
    C = rng.standard_normal((3, 4))
    val = C[:, :, None] * phi[0]
    jac = C[:, :, None, None] * phi[1:]
    return phi, C, val, jac


def _representer_rows() -> int:
    """The rows per node of a representer: a phi row per column of
    _DPHI_MAP, then its d phi block, a quarter as many rows as it has."""
    n_dphi, n_phi = _DPHI_MAP.shape
    return n_phi + n_dphi // 4


def _zero_representer(n) -> tuple:
    """A zero representer R (rows, n) and its slots as views: the phi rows
    V (4, 3, 4, n), then the d phi block's 2-forms X (3, 3, 6, n) and, in
    the last three rows, its 0-form y (3, 1, n)."""
    R, n_phi = np.zeros((_representer_rows(), n)), _DPHI_MAP.shape[1]
    return (R, R[:n_phi].reshape(-1, 3, 4, n),
            R[n_phi:-3].reshape(3, 3, 6, n), R[-3:].reshape(3, 1, n))


def _node_pairings(Rt, phi, C):
    """The pairings of every node on its own, unit weight, (n, 4): each node
    is one shape of a block-diagonal W, read by _shape_functionals off the
    product W @ Rt.T."""
    n = Rt.shape[1]
    W = np.zeros((5 * n, n))
    for i in range(n):
        W[5 * i:5 * i + 5, i] = phi[:, i]
    return _shape_functionals(W @ Rt.T) @ C.reshape(12)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_representer_two_form_slot_pairs_with_d_beta(slot):
    # <X, d(C phi)> node by node, with X in one 2-form slot of the d phi block
    rng = np.random.default_rng(RNG_SEED + slot)
    n = 40
    X = rng.standard_normal((3, 6, n))
    phi, C, _, jac = _random_probe(rng, n)
    R, _, Xs, _ = _zero_representer(n)
    Xs[slot] = X
    want = cdot(X, d_coeffs(1, jac))
    got = _node_pairings(R, phi, C)
    tol = 1e-13 * np.max(np.abs(want))
    np.testing.assert_allclose(got[:, slot], want, rtol=0, atol=tol)
    assert not np.delete(got, slot, axis=1).any()


def test_wedge_adjoint_pairs_with_bracket():
    # <X, [Y ^ C phi]> = <bracket_wedge_adjoint(1, Y, X), C phi>
    rng = np.random.default_rng(RNG_SEED)
    n = 40
    X, Y = rng.standard_normal((3, 6, n)), rng.standard_normal((3, 4, n))
    phi, C, val, _ = _random_probe(rng, n)
    want = cdot(X, bracket_wedge_coeffs(1, Y, val))
    adj = bracket_wedge_adjoint(1, Y, X)
    got = cdot(adj, val)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))
    # through a phi slot of the representer, the same pairing
    R, V, _, _ = _zero_representer(n)
    V[0] = adj
    np.testing.assert_allclose(_node_pairings(R, phi, C)[:, 0], want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("slot", [3])
def test_representer_zero_form_slot_pairs_with_delta_beta(slot):
    # <y, delta_A (C phi)>: y in the 0-form slot of the d phi block, and
    # eps [A ^ y] in the same functional's phi slot, that of the two-term
    # expansion
    rng = np.random.default_rng(RNG_SEED + slot)
    n, eps = 40, 0.3
    y, A = rng.standard_normal((3, 1, n)), rng.standard_normal((3, 4, n))
    phi, C, val, jac = _random_probe(rng, n)
    R, V, _, ys = _zero_representer(n)
    V[slot] = eps * bracket_wedge_coeffs(0, A, y)
    ys[...] = y
    want = cdot(y, codiff_coeffs(1, A, val, jac, eps))
    got = _node_pairings(R, phi, C)
    tol = 1e-13 * np.max(np.abs(want))
    np.testing.assert_allclose(got[:, slot], want, rtol=0, atol=tol)
    assert not np.delete(got, slot, axis=1).any()


def test_representer_codiff_expansion_slots_pair_with_the_difference():
    # the fourth functional: y_2 = eps adjoint(b, a) in its 0-form slot pairs
    # with delta_At beta, eps [b ^ y_0] in its phi slot with
    # <delta_A a, eps adjoint(b, beta)>, y_0 = delta_A a; with At = A + b the
    # two sum to <delta_At a, delta_At beta> - <delta_A a, delta_A beta>
    rng = np.random.default_rng(RNG_SEED)
    n, eps = 40, 0.3
    A, b = rng.standard_normal((3, 4, n)), rng.standard_normal((3, 4, n))
    At = A + b
    a_val = rng.standard_normal((3, 4, n))
    a_jac = rng.standard_normal((3, 4, 4, n))
    phi, C, val, jac = _random_probe(rng, n)
    y0 = codiff_coeffs(1, A, a_val, a_jac, eps)
    y2 = eps * bracket_wedge_adjoint(0, b, a_val)
    R_delta, V_delta, _, y_delta = _zero_representer(n)
    R_adj, V_adj, _, _ = _zero_representer(n)
    y_delta[...] = y2
    V_delta[3] = eps * bracket_wedge_coeffs(0, At, y2)
    V_adj[3] = eps * bracket_wedge_coeffs(0, b, y0)
    got_delta = _node_pairings(R_delta, phi, C)
    got_adj = _node_pairings(R_adj, phi, C)
    for got in (got_delta, got_adj):
        assert not got[:, :3].any()
    want_delta = cdot(y2, codiff_coeffs(1, At, val, jac, eps))
    want_adj = cdot(y0, eps * bracket_wedge_adjoint(0, b, val))
    for got, want in ((got_delta, want_delta), (got_adj, want_adj)):
        np.testing.assert_allclose(got[:, 3], want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)))
    direct = (cdot(codiff_coeffs(1, At, a_val, a_jac, eps),
                   codiff_coeffs(1, At, val, jac, eps))
              - cdot(y0, codiff_coeffs(1, A, val, jac, eps)))
    np.testing.assert_allclose(got_delta[:, 3] + got_adj[:, 3], direct,
                               rtol=0, atol=1e-12 * np.max(np.abs(direct)))


def _far_poison(ctx, index):
    """A poison for _record_l37_blocks: a NaN in the value of the sampled
    field at index (A, Atilde, b, a_1, a_5) at the rule's farthest node."""
    far = int(np.argmax(np.linalg.norm(ctx.rule.nodes, axis=1)))

    def poison(a, samples):
        val = samples[index][0]
        if a <= far < a + val.shape[-1]:
            val[..., far - a] = np.nan

    return far, poison


def test_l37_probe_loop_reports_non_finite_connection(monkeypatch):
    # a NaN at a node no probe covers still poisons the full-rule integrals,
    # so the support-restricted loop must report it as well
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    ctx = basis.ctx
    _, poison = _far_poison(ctx, 2)      # b, sampled with A and Atilde
    _record_l37_blocks(monkeypatch, poison)
    with pytest.raises(NumericalError):
        _hessian_difference_metrics(q, "model", basis.coeff, ctx,
                                    seed=RNG_SEED, n_test=2)


def test_l37_probe_loop_reports_non_finite_basis_field(monkeypatch):
    # a NaN in the sampled basis field a_5 at a node no probe covers reaches
    # the i5 representer only, so on the poisoned block the i1 representer
    # pairs cleanly and the i5 one, checked on every node, must report it;
    # no later block is asked for
    import ymeps.functionals as functionals_mod

    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    far, poison = _far_poison(basis.ctx, 4)
    shapes = probe_family(q, basis.ctx, 2, RNG_SEED)
    assert not any(far in rows for rows, *_ in shapes)
    blocks = _record_l37_blocks(monkeypatch, poison)
    built, kernel = [], functionals_mod._representer

    def recorded(*args):
        kernel(*args)
        built.append((len(blocks), args[-3] is blocks[-1][3][0],
                      np.isfinite(args[-1]).all()))

    monkeypatch.setattr(functionals_mod, "_representer", recorded)
    with pytest.raises(NumericalError, match=r"\(i5\)"):
        _hessian_difference_metrics(q, "model", basis.coeff, basis.ctx,
                                    seed=RNG_SEED, n_test=2)
    # the poisoned block, the one holding the far node, is the last sampled
    n = len(blocks)
    m = blocks[0][0][0].shape[-1]
    assert (n - 1) * m <= far < n * m
    assert len(built) == 2 * n
    assert built[-2:] == [(n, True, True), (n, False, False)]
    assert all(finite for *_, finite in built[:-2])


def test_perp_derivative_paths_single_point():
    q = ParamQ.default(2.0 ** -5)
    m = compute_point_metrics(q, blocks=frozenset({"l310"}))
    assert m["l310_ortho_residual"] < 1e-8
    rel = abs(m["l310_fd_norm"] - m["l310_an_norm"]) / m["l310_an_norm"]
    assert rel < 0.05, (m["l310_fd_norm"], m["l310_an_norm"])
    total = np.hypot(m["l310_inner_norm"], m["l310_outer_norm"])
    assert total == pytest.approx(m["l310_fd_norm"], rel=1e-10)


@pytest.mark.parametrize("i", [1, 2])
def test_fd_on_fixed_coefficients_keeps_the_rebuilt_fds_perpendicular_part(i):
    # C is lower triangular, so every derivative of C lies in span{a_i} and
    # perp(d_{q_i} a_i) = sum_{k,l} c_ik c_il perp(d_k d_l A), a_11^2
    # perp(d2A) at i = 1.  Three values of that norm at the generic point:
    # the FD with a_i rebuilt, C included, at every shifted point
    # (oracle.rebuilt_fd), the FD on the base C, and the exact one from
    # the second-derivative term lists.  The Richardson FD at h = 1e-3 lam
    # changes by about 1e-5 of itself when h halves (l310_halving), so its
    # error is about (1e-5)^2 = 1e-10 of the norm: the rebuilt FD is held
    # to 1e-9.  Keeping C fixed leaves only round-off, held to 1e-12.
    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    ctx, c = basis.ctx, basis.coeff[i - 1]
    raw = derivative_fields(glued_connection(q))
    p = [f"p{k}" for k in range(1, i + 1)]

    def perp_norm(G):
        M = project_perp(G, 1, basis)
        return float(np.sqrt((M @ G @ M.T)[0, 0]))

    fields, rows = rebuilt_fd(q, i, i, basis)
    R = np.zeros((9, len(fields) + 8))
    R[0, :len(fields)] = rows[1]
    R[1:, len(fields):] = np.eye(8)
    rebuilt = perp_norm(rows_gram(ctx, fields + raw, R))
    rich = basis_directional_derivative(q, i, i, basis)[1]
    fixed = perp_norm(_raw_gram(ctx, [rich, *raw]))
    d2 = linear_combination(
        [g for f in raw[:i] for g in derivative_fields(f, p)],
        [c[k] * c[l] for k in range(i) for l in range(i)])
    exact = perp_norm(_raw_gram(ctx, [d2, *raw]))
    assert abs(fixed - exact) <= 1e-12 * exact, (fixed, exact)
    assert abs(rebuilt - exact) <= 1e-9 * exact, (rebuilt, exact)


def test_l310_point_looks_up_fd_rebuild_and_projection_by_module(monkeypatch):
    # perfbench/tracer.py times these calls by replacing the module
    # attributes; a call that bypasses them would leave its span at 0
    import ymeps.basis as basis_mod
    import ymeps.functionals as functionals_mod

    calls = dict.fromkeys(("_basis_field_at", "basis_directional_derivative",
                           "project_perp"), 0)

    def count(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    count(basis_mod, "_basis_field_at")
    count(functionals_mod, "basis_directional_derivative")
    count(functionals_mod, "project_perp")
    compute_point_metrics(ParamQ.default(2.0 ** -4), blocks=frozenset({"l310"}))
    # one derivative: steps h and h/2, each at q +/- step
    assert calls == {"_basis_field_at": 4, "basis_directional_derivative": 1,
                     "project_perp": 1}


def test_report_verdict_logic():
    rows = [QuantityRow("x", [0.1], [1.0], None, "identity", None, None,
                        "pass", ""),
            QuantityRow("y", [0.1], [1.0], None, "identity", None, None,
                        "fail", "")]
    rep = EstimateReport("5.7", rows)
    assert not rep.passed()
    assert [r.quantity for r in rep.rows
            if r.verdict not in ("pass", "exact")] == ["y"]
    assert EstimateReport("5.7", rows[:1]).passed()


def test_band_row_with_a_zero_ratio_fails_with_infinite_spread():
    row = _row_band("a11", [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
                    [0.0, 0.02, 0.007, 0.0025], 1.5)
    assert row.verdict == "fail"
    assert "spread inf" in row.note
