"""Energy/charge/pairing functionals against closed forms and finite differences."""

import dataclasses

import numpy as np
import pytest

from ymeps.basis import (
    GramBasis,
    InnerContext,
    NodeField,
    ball_context,
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
    cov_grad_coeffs,
    curvature_coeffs,
    d_coeffs,
    domain_ball_rule,
    star_coeffs,
    weighted_sum,
)
from ymeps.functionals import (
    EstimateReport,
    QuantityRow,
    _bump_channels,
    _hessian_difference_metrics,
    _perp_derivative_metrics,
    _probe_shapes,
    _row_band,
    _shape_functionals,
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
    PI2_STRATEGIES,
    ChartedField,
    ParamQ,
    d2A_dp1p1,
    derivative_fields,
    difference_b,
    extended_connection,
    glued_connection,
    sample_charted,
)
from ymeps.liealg import AlgElement, exp_map
from oracle import (
    basis_gaps_by_combination,
    bump_arrays,
    bump_one_form,
    cdot_nf,
    codifferential_eps,
    covariant_d_eps,
    full_rule_probe_draws,
    full_rule_probes,
    grad_pairing,
    hessian_form,
    node_first,
    node_last,
    per_probe_l37,
    project_perp_by_combination,
    sample_form,
    weighted_coeff_by_combination,
)

RNG_SEED = 77023


def _generic_q(eps=2.0 ** -6):
    return ParamQ.default(eps, p=[0.1, -0.08, 0.05, 0.12],
                          g=exp_map(AlgElement(0.3, -0.4, 0.2)))


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
    q2 = ParamQ(p=q1.p, g=exp_map(AlgElement(-0.7, 0.25, 1.1)), lam=q1.lam,
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
    q = _generic_q(2.0 ** -5)
    gneg = q.g * exp_map(AlgElement(2.0 * np.pi, 0.0, 0.0))
    assert np.allclose(gneg.quaternion(), -q.g.quaternion(), atol=1e-14)
    qn = ParamQ(p=q.p, g=gneg, lam=q.lam, eps=q.eps)
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
        nf = nfA + t * nfa
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
    combo = nfa * 2.0 + nfb * 3.0
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
    return [compute_point_metrics(q, blocks=frozenset({"basis", "l36"}))
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
    return q, request.param, gram_schmidt_ball(q, request.param,
                                               keep_samples=True)


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
    assert wb.raw_nodefields is None
    want = weighted_coeff_by_combination(q, basis)
    assert np.max(np.abs(wb.coeff - want)) <= 1e-12


def test_basis_gaps_match_the_combined_differences(generic_basis):
    q, pi2, basis = generic_basis
    m = compute_point_metrics(q, pi2, blocks=frozenset({"l36"}))
    got = [m[f"basis_diff_{i}"] for i in range(1, 9)]
    np.testing.assert_allclose(got, basis_gaps_by_combination(q, basis),
                               rtol=1e-10, atol=0)


def test_project_perp_matches_the_eight_field_projection(generic_basis):
    # one Gram of [v_1, v_2, f_1..f_8] projects both fields as a Gram per
    # field does, bit for bit, and as the combined basis fields do
    q, pi2, basis = generic_basis
    ctx = basis.ctx
    rng = np.random.default_rng(RNG_SEED)
    bump = bump_one_form(q.p + 0.05, 2 * q.lam, rng.standard_normal((3, 4)))
    vs = [sample_form(bump, ctx.rule), *ctx.arrays([d2A_dp1p1(q, pi2)])]
    for v, got in zip(vs, project_perp(vs, basis)):
        (alone,) = project_perp([v], basis)
        assert (np.array_equal(got.val, alone.val)
                and np.array_equal(got.jac, alone.jac)), pi2
        want = project_perp_by_combination(v, basis)
        diff = NodeField(ctx.rule, got.val - want.val, got.jac - want.jac)
        assert (np.sqrt(ctx.inner_nf(diff, diff))
                <= 1e-10 * np.sqrt(ctx.inner_nf(v, v)))


def test_l310_point_pairs_the_raw_fields_in_two_grams(monkeypatch):
    # the FD and the analytic derivative are projected from one Gram, and
    # the norms read a second; no other Gram of the block holds the eight
    # raw fields (the FD rebuilds pair fields sampled at shifted q)
    import ymeps.basis as basis_mod
    import ymeps.functionals as functionals_mod

    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q, keep_samples=True)
    grams, gram = [], basis_mod._raw_gram

    def recorded(ctx, fields, weights=None):
        grams.append(list(fields))
        return gram(ctx, fields, weights)

    monkeypatch.setattr(basis_mod, "_raw_gram", recorded)
    monkeypatch.setattr(functionals_mod, "_raw_gram", recorded)
    _perp_derivative_metrics(q, "model", basis, basis.ctx)
    raw = basis.samples()
    holding = [fields for fields in grams
               if all(any(f is r for f in fields) for r in raw)]
    assert len(holding) == 2 and len(grams) > 2


def test_weighted_and_l36_combine_no_field_and_a_projection_one(monkeypatch):
    # pairings with basis combinations are read through the coefficients:
    # the weighted and l36 blocks combine no field, and a projection makes
    # one combination of v and the raw fields
    import ymeps.basis as basis_mod

    calls = []
    combine, node_field = basis_mod._combine, GramBasis.node_field

    def counted_combine(*args, **kwargs):
        calls.append("_combine")
        return combine(*args, **kwargs)

    def counted_node_field(*args, **kwargs):
        calls.append("node_field")
        return node_field(*args, **kwargs)

    monkeypatch.setattr(basis_mod, "_combine", counted_combine)
    monkeypatch.setattr(GramBasis, "node_field", counted_node_field)
    q = ParamQ.default(2.0 ** -4)
    m = compute_point_metrics(q, blocks=frozenset({"weighted", "l36"}))
    assert "w_coeff" in m and "basis_diff_8" in m
    assert calls == []
    basis = gram_schmidt_ball(q, keep_samples=True)
    (v,) = basis.ctx.arrays([d2A_dp1p1(q, "model")])
    for k in (1, 2):
        project_perp([v], basis)
        assert calls == ["_combine"] * k


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
    assert len(built) == 1 and built[0].raw_nodefields is None
    assert peak <= 64 * 2 ** 20, peak / 2 ** 20


def test_point_keeps_basis_samples_only_for_the_blocks_reading_them(
        monkeypatch):
    import ymeps.functionals as functionals_mod

    class Built(Exception):
        pass

    def recorded(*args, keep_samples=False, **kwargs):
        raise Built(keep_samples)

    monkeypatch.setattr(functionals_mod, "gram_schmidt_ball", recorded)
    q = ParamQ.default(2.0 ** -4)
    for blocks, keep in (({"basis"}, False), ({"weighted", "l36"}, False),
                         ({"l37"}, True), ({"l310"}, True),
                         ({"weighted", "l36", "l37", "l310"}, True)):
        with pytest.raises(Built) as built:
            compute_point_metrics(q, blocks=frozenset(blocks))
        assert built.value.args == (keep,), blocks


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
    recomputed per tag."""
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
    out, resid = {}, 0.0
    for tag, idx in (("i1", 1), ("i5", 5)):
        a = basis.node_field(idx)
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
    # rule's centre and cut through both charts
    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q, pi2, keep_samples=True)
    got = _hessian_difference_metrics(q, pi2, basis, basis.ctx,
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


def _count_shape_gemms(monkeypatch) -> list:
    """The number of shapes of each _shape_functionals call (one GEMM each)."""
    import ymeps.functionals as functionals_mod

    calls = []
    fn = functionals_mod._shape_functionals

    def counted(W, Rt):
        calls.append(len(W) // 5)
        return fn(W, Rt)

    monkeypatch.setattr(functionals_mod, "_shape_functionals", counted)
    return calls


@pytest.mark.parametrize("pi2", ["model", "full"])
def test_l37_shape_groups_match_per_probe_oracle(pi2, monkeypatch):
    # the 0.95-scale probes all sit at centre 0, so they share one shape and
    # one L; each tag pairs all its shapes in one GEMM
    q = _generic_q(2.0 ** -4)
    basis = gram_schmidt_ball(q, pi2, keep_samples=True)
    shapes = _probe_shapes(probe_family(q, basis.ctx, 8, RNG_SEED))
    assert any(len(members) > 1 for *_, members in shapes)
    assert sorted(k for *_, members in shapes for k in members) == list(range(8))
    gemms = _count_shape_gemms(monkeypatch)
    got = _hessian_difference_metrics(q, pi2, basis, basis.ctx,
                                      seed=RNG_SEED, n_test=8)
    assert gemms == [len(shapes)] * 2
    _assert_l37_close(got, per_probe_l37(q, pi2, basis, basis.ctx,
                                         seed=RNG_SEED, n_test=8))


def test_l37_shape_groups_cross_the_group_boundary(monkeypatch):
    # more shapes than 120 // 5: the first group fills W with as many rows
    # as the representer has, and the rest take a second GEMM
    q = _generic_q(2.0 ** -4)
    r = domain_ball_rule(q.p, q.lam)
    rule = QuadratureRule(r.nodes[::7], r.weights[::7], r.center, r.lam,
                          r.region)
    basis = gram_schmidt_ball(q, "model", rule=rule, keep_samples=True)
    n, per = 40, 120 // 5
    shapes = _probe_shapes(probe_family(q, basis.ctx, n, RNG_SEED))
    assert per < len(shapes) <= 2 * per
    gemms = _count_shape_gemms(monkeypatch)
    got = _hessian_difference_metrics(q, "model", basis, basis.ctx,
                                      seed=RNG_SEED, n_test=n)
    assert gemms == [per, len(shapes) - per] * 2
    _assert_l37_close(got, per_probe_l37(q, "model", basis, basis.ctx,
                                         seed=RNG_SEED, n_test=n))


def _same(got, want) -> bool:
    """The two sequences hold the very same objects, in order."""
    return len(got) == len(want) and all(x is y for x, y in zip(got, want))


def test_l37_makes_no_layout_copy_and_no_node_field_arithmetic(monkeypatch):
    # the kernels read the samples as sampling returns them: A, Atilde, b
    # and their jacobians enter the kernels themselves, and each tag field
    # is combined in place into the arrays the covariant kernels read.  No
    # transpose or contiguous copy runs, and no NodeField sum or product is
    # formed
    import ymeps.functionals as functionals_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("layout copy or NodeField arithmetic in l37")

    for op in ("__add__", "__sub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(NodeField, op, forbidden)
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q, keep_samples=True)
    sampled, combined, calls = [], [], {"curvature_coeffs": [],
                                        "cov_d_coeffs": []}
    arrays, node_field = InnerContext.arrays, GramBasis.node_field

    def recorded_arrays(self, f):
        out = arrays(self, f)
        sampled.extend(out)
        return out

    def recorded_node_field(self, *args):
        combined.append(node_field(self, *args))
        return combined[-1]

    monkeypatch.setattr(InnerContext, "arrays", recorded_arrays)
    monkeypatch.setattr(GramBasis, "node_field", recorded_node_field)
    for name, log in calls.items():
        def spy(*args, _fn=getattr(functionals_mod, name), _log=log):
            _log.append(args)
            return _fn(*args)
        monkeypatch.setattr(functionals_mod, name, spy)
    for name in ("moveaxis", "ascontiguousarray", "copyto", "transpose",
                 "swapaxes"):
        monkeypatch.setattr(np, name, forbidden)
    _hessian_difference_metrics(q, "model", basis, basis.ctx, seed=RNG_SEED,
                                n_test=4)
    nfA, nfAt, nfb = sampled
    a1, a5 = combined
    curv = calls["curvature_coeffs"]
    assert len(curv) == 2
    assert _same(curv[0][:2], (nfA.val, nfA.jac))
    assert _same(curv[1][:2], (nfAt.val, nfAt.jac))
    fb, *per_tag = calls["cov_d_coeffs"]
    assert _same(fb[1:4], (nfA.val, nfb.val, nfb.jac))
    want = [(C, a.val, a.jac) for a in (a1, a5) for C in (nfA.val, nfAt.val)]
    assert len(per_tag) == len(want)
    assert all(_same(args[1:4], w) for args, w in zip(per_tag, want))


@pytest.mark.parametrize("stride", [1, 997])
@pytest.mark.parametrize("pi2", ["model", "full"])
def test_probe_specs_match_full_rule_probes(pi2, stride):
    # the specs against the bumps sampled on the full rule and normalised
    # there, drawn from the same RNG sequence; on a rule thinned to every
    # 997th node some candidates cover no node and are rejected
    q = _generic_q(2.0 ** -4)
    ctx = ball_context(glued_connection(q, pi2=pi2), q.eps)
    r = ctx.rule
    rule = QuadratureRule(r.nodes[::stride], r.weights[::stride], r.center,
                          r.lam, r.region)
    ctx = InnerContext(rule, q.eps, ctx.Aval[..., ::stride])
    n = 8
    specs = probe_family(q, ctx, n, RNG_SEED)
    draws = full_rule_probe_draws(q, ctx, n, RNG_SEED)
    assert (len(draws) > n) == (stride > 1)
    accepted = [(c, sc, beta) for c, sc, beta in draws if beta is not None]
    assert len(specs) == len(accepted) == n
    for (rows, center, scale, coeff), (c, sc, beta) in zip(specs, accepted):
        assert np.array_equal(center, c) and scale == sc
        on = (np.any(beta.val != 0.0, axis=(0, 1))
              | np.any(beta.jac != 0.0, axis=(0, 1, 2)))
        assert np.array_equal(rows, np.flatnonzero(on))
        off = np.ones(len(rule), dtype=bool)
        off[rows] = False
        assert not beta.val[..., off].any() and not beta.jac[..., off].any()
        # the probe coeff * phi from its channels (phi, grad phi) on the rows
        phi = _bump_channels(rule.nodes[rows], center, scale)
        val = coeff[:, :, None] * phi[0]
        jac = coeff[:, :, None, None] * phi[1:]
        np.testing.assert_allclose(val, beta.val[..., rows], rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(jac, beta.jac[..., rows], rtol=1e-12,
                                   atol=0)


@pytest.mark.parametrize("pi2", PI2_STRATEGIES)
def test_probe_norm_closed_form_matches_covariant_gradient_density(pi2):
    # each spec is normalised with the closed-form density; the covariant
    # gradient of its arrays must give it unit H^1 norm on its rows
    q = _generic_q(2.0 ** -4)
    ctx = ball_context(glued_connection(q, pi2=pi2), q.eps)
    w = ctx.rule.weights
    for rows, center, scale, coeff in probe_family(q, ctx, 9, RNG_SEED):
        val, jac = bump_arrays(ctx.rule.nodes[rows], center, scale, coeff)
        grad = cov_grad_coeffs(ctx.Aval[..., rows], val, jac, q.eps)
        dens = (np.einsum("amun,amun->n", grad, grad)
                + np.einsum("amn,amn->n", val, val))
        assert abs(weighted_sum(w[rows], dens) - 1.0) <= 1e-13


# ---------------------------------------------------------------------------
# the l37 representers: every pairing through the channels (phi, grad phi)


def _random_probe(rng, n):
    """Channels (5, n), a coefficient C (3,4), and beta = C phi's arrays."""
    phi = rng.standard_normal((5, n))
    C = rng.standard_normal((3, 4))
    val = C[:, :, None] * phi[0]
    jac = C[:, :, None, None] * phi[1:]
    return phi, C, val, jac


def _node_pairings(Rt, phi, C):
    """The pairings of every node on its own, unit weight, (n, 5): each node
    is one shape of a block-diagonal W, paired by _shape_functionals."""
    n = Rt.shape[1]
    W = np.zeros((5 * n, n))
    for i in range(n):
        W[5 * i:5 * i + 5, i] = phi[:, i]
    return _shape_functionals(W, Rt) @ C.reshape(12)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_representer_two_form_slot_pairs_with_d_beta(slot):
    # <X, d(C phi)> node by node, with X in one 2-form slot of the d phi block
    rng = np.random.default_rng(RNG_SEED + slot)
    n = 40
    X = rng.standard_normal((3, 6, n))
    phi, C, _, jac = _random_probe(rng, n)
    R = np.zeros((120, n))
    R[60 + 18 * slot:78 + 18 * slot] = X.reshape(18, n)
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
    R = np.zeros((120, n))
    R[:12] = adj.reshape(12, n)
    np.testing.assert_allclose(_node_pairings(R, phi, C)[:, 0], want, rtol=0,
                               atol=1e-13 * np.max(np.abs(want)))


@pytest.mark.parametrize("slot", [3, 4])
def test_representer_zero_form_slot_pairs_with_delta_beta(slot):
    # <y, delta_A (C phi)>: y in a 0-form slot of the d phi block, and
    # eps [A ^ y] in the same functional's phi slot
    rng = np.random.default_rng(RNG_SEED + slot)
    n, eps = 40, 0.3
    y, A = rng.standard_normal((3, 1, n)), rng.standard_normal((3, 4, n))
    phi, C, val, jac = _random_probe(rng, n)
    R = np.zeros((120, n))
    R[12 * slot:12 * slot + 12] = (eps * bracket_wedge_coeffs(0, A, y)
                                   ).reshape(12, n)
    R[114 + 3 * (slot - 3):117 + 3 * (slot - 3)] = y.reshape(3, n)
    want = cdot(y, codiff_coeffs(1, A, val, jac, eps))
    got = _node_pairings(R, phi, C)
    tol = 1e-13 * np.max(np.abs(want))
    np.testing.assert_allclose(got[:, slot], want, rtol=0, atol=tol)
    assert not np.delete(got, slot, axis=1).any()


def test_l37_probe_loop_reports_non_finite_connection(monkeypatch):
    # a NaN at a node no probe covers still poisons the full-rule integrals,
    # so the support-restricted loop must report it as well
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q, keep_samples=True)
    ctx = basis.ctx
    far = int(np.argmax(np.linalg.norm(ctx.rule.nodes, axis=1)))
    arrays = type(ctx).arrays

    def poisoned(self, f):
        out = arrays(self, f)
        # b is sampled in one pass with A and Atilde
        for g, nf in zip(f, out):
            if getattr(g, "inner_terms", None) == []:   # b vanishes there
                nf.val = nf.val.copy()
                nf.val[..., far] = np.nan
        return out

    monkeypatch.setattr(type(ctx), "arrays", poisoned)
    with pytest.raises(NumericalError):
        _hessian_difference_metrics(q, "model", basis, ctx, seed=RNG_SEED,
                                    n_test=2)


def test_l37_probe_loop_reports_non_finite_basis_field():
    # a NaN in the raw field f_5 at a node no probe covers reaches a_5 only
    # (the coefficients are lower triangular), so the i1 tag pairs cleanly
    # and the i5 representer, checked whole, must report it
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q, keep_samples=True)
    far = int(np.argmax(np.linalg.norm(basis.ctx.rule.nodes, axis=1)))
    probes = probe_family(q, basis.ctx, 2, RNG_SEED)
    assert not any(far in rows for rows, *_ in probes)
    raw = list(basis.raw_nodefields)
    f5 = raw[4]
    raw[4] = type(f5)(f5.rule, f5.val.copy(), f5.jac)
    raw[4].val[..., far] = np.nan
    poisoned = dataclasses.replace(basis, raw_nodefields=raw)
    assert np.isfinite(poisoned.node_field(1).val).all()
    with pytest.raises(NumericalError):
        _hessian_difference_metrics(q, "model", poisoned, basis.ctx,
                                    seed=RNG_SEED, n_test=2)


def test_perp_derivative_paths_single_point():
    q = ParamQ.default(2.0 ** -5)
    m = compute_point_metrics(q, blocks=frozenset({"l310"}))
    assert m["l310_ortho_residual"] < 1e-8
    rel = abs(m["l310_fd_norm"] - m["l310_an_norm"]) / m["l310_an_norm"]
    assert rel < 0.05, (m["l310_fd_norm"], m["l310_an_norm"])
    total = np.hypot(m["l310_inner_norm"], m["l310_outer_norm"])
    assert total == pytest.approx(m["l310_fd_norm"], rel=1e-10)


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
