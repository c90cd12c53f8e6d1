"""Energy/charge/pairing functionals against closed forms and finite differences."""

import numpy as np
import pytest

from ymeps.basis import InnerContext, ball_context, gram_schmidt_ball
from ymeps.forms import (
    COMP_INDEX,
    MULTI_INDEX,
    NumericalError,
    QuadratureRule,
    bracket_wedge_coeffs,
    cdot,
    codiff_coeffs,
    cov_d_coeffs,
    curvature_coeffs,
    domain_ball_rule,
    star_coeffs,
    weighted_sum,
)
from ymeps.functionals import (
    EstimateReport,
    QuantityRow,
    _bump_arrays,
    _hessian_difference_metrics,
    _row_band,
    charge,
    compute_point_metrics,
    fit_slope,
    grad_pairing,
    hessian_form,
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
    BackgroundConnection,
    ChartedField,
    ParamQ,
    difference_b,
    extended_connection,
    glued_connection,
)
from ymeps.liealg import AlgElement, exp_map
from oracle import (
    bump_one_form,
    codifferential_eps,
    covariant_d_eps,
    full_rule_probe_draws,
    full_rule_probes,
    sample_form,
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
    nfA = ball_context(A, eps, rule=rule).arrays(A)
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
    """(delta_A w)_J = -sum_{j not in J} (d_j w_{jJ} + eps [A_j, w_{jJ}])."""
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
    val = rng.standard_normal((9, 3, C))
    jac = rng.standard_normal((9, 3, C, 4))
    eps = 0.37
    Aval = A.value(X)
    got = codiff_coeffs(k, Aval, val, jac, eps)
    want = _codiff_oracle(k, Aval, val, jac, eps)
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    # the definition -* d_A * w, through the star and covariant-d kernels
    sval = star_coeffs(k, val)
    sjac = star_coeffs(k, jac.swapaxes(2, 3)).swapaxes(2, 3)
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
    lhs = weighted_sum(rule.weights, cdot(dphi, alpha.value(X)))
    rhs = weighted_sum(rule.weights, cdot(phi.value(X), delta))
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


def test_five_term_expansion_single_point():
    q = ParamQ.default(2.0 ** -5)
    m = compute_point_metrics(q, blocks=frozenset({"l37"}), n_test=6,
                              seed=RNG_SEED)
    assert m["five_term_residual"] < 1e-8
    assert m["hess_dual_i1"] > 0.0
    assert m["codiff_dual_i1"] > 0.0
    assert np.isfinite(m["hess_dual_i5"])


def _per_tag_l37_oracle(q, bg, pi2, basis, ctx, seed, n_test):
    """The l37 loop as first written: tags outside, full rule, probe arrays
    recomputed per tag."""
    eps, w = q.eps, ctx.rule.weights
    A_nf = ctx.arrays(glued_connection(q, bg, pi2))
    At_nf = ctx.arrays(extended_connection(q))
    b_nf = ctx.arrays(difference_b(q, bg, pi2))
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
    bg = BackgroundConnection()
    basis = gram_schmidt_ball(q, bg, pi2)
    got = _hessian_difference_metrics(q, bg, pi2, basis, basis.ctx,
                                      seed=RNG_SEED, n_test=4)
    want = _per_tag_l37_oracle(q, bg, pi2, basis, basis.ctx,
                               seed=RNG_SEED, n_test=4)
    assert list(got) == list(want)
    for key in want:
        if key == "five_term_residual":
            assert abs(got[key] - want[key]) <= 1e-15
        else:
            assert want[key] > 0.0
            assert abs(got[key] - want[key]) <= 1e-10 * want[key], key


@pytest.mark.parametrize("stride", [1, 997])
@pytest.mark.parametrize("pi2", ["model", "full"])
def test_probe_specs_match_full_rule_probes(pi2, stride):
    # the specs against the bumps sampled on the full rule and normalised
    # there, drawn from the same RNG sequence; on a rule thinned to every
    # 997th node some candidates cover no node and are rejected
    q = _generic_q(2.0 ** -4)
    ctx = ball_context(glued_connection(q, BackgroundConnection(), pi2), q.eps)
    r = ctx.rule
    rule = QuadratureRule(r.nodes[::stride], r.weights[::stride], r.center,
                          r.lam, r.tol, r.region)
    ctx = InnerContext(rule, q.eps, ctx.Aval[::stride])
    n = 8
    specs = probe_family(q, ctx, n, RNG_SEED)
    draws = full_rule_probe_draws(q, ctx, n, RNG_SEED)
    assert (len(draws) > n) == (stride > 1)
    accepted = [(c, sc, beta) for c, sc, beta in draws if beta is not None]
    assert len(specs) == len(accepted) == n
    for (rows, center, scale, coeff), (c, sc, beta) in zip(specs, accepted):
        assert np.array_equal(center, c) and scale == sc
        on = (np.any(beta.val != 0.0, axis=(1, 2))
              | np.any(beta.jac != 0.0, axis=(1, 2, 3)))
        assert np.array_equal(rows, np.flatnonzero(on))
        off = np.ones(len(rule), dtype=bool)
        off[rows] = False
        assert not beta.val[off].any() and not beta.jac[off].any()
        val, jac = _bump_arrays(rule.nodes[rows], center, scale, coeff)
        np.testing.assert_allclose(val, beta.val[rows], rtol=1e-12, atol=0)
        np.testing.assert_allclose(jac, beta.jac[rows], rtol=1e-12, atol=0)


def test_l37_probe_loop_reports_non_finite_connection(monkeypatch):
    # a NaN at a node no probe covers still poisons the full-rule integrals,
    # so the support-restricted loop must report it as well
    q = ParamQ.default(2.0 ** -4)
    basis = gram_schmidt_ball(q)
    ctx = basis.ctx
    far = int(np.argmax(np.linalg.norm(ctx.rule.nodes, axis=1)))
    arrays = type(ctx).arrays

    def poisoned(self, f):
        nf = arrays(self, f)
        if getattr(f, "name", "") == "b":
            nf.val = nf.val.copy()
            nf.val[far] = np.nan
        return nf

    monkeypatch.setattr(type(ctx), "arrays", poisoned)
    with pytest.raises(NumericalError):
        _hessian_difference_metrics(q, BackgroundConnection(), "model", basis,
                                    ctx, seed=RNG_SEED, n_test=2)


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
                     "project_perp": 2}


def test_report_verdict_logic():
    rows = [QuantityRow("x", [0.1], [1.0], None, "identity", None, None,
                        "pass", ""),
            QuantityRow("y", [0.1], [1.0], None, "identity", None, None,
                        "fail", "")]
    rep = EstimateReport("5.7", rows)
    assert not rep.passed()
    assert [r.quantity for r in rep.failures()] == ["y"]
    assert EstimateReport("5.7", rows[:1]).passed()


def test_band_row_with_a_zero_ratio_fails_with_infinite_spread():
    row = _row_band("a11", [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
                    [0.0, 0.02, 0.007, 0.0025], 1.5)
    assert row.verdict == "fail"
    assert "spread inf" in row.note
