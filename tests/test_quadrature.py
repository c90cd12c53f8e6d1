"""Quadrature tests: volumes, exactness, the peaked oracle, tails,
determinism, and the rule spec's angular design check."""

import math
from itertools import product

import numpy as np
import pytest

from ymeps import forms, functionals, harness
from ymeps.forms import (
    DEFAULT_SPEC,
    DEFAULT_TOL,
    NumericalError,
    QuadratureError,
    QuadratureRule,
    RuleSpec,
    _peaked_integral,
    _polar_rule,
    ball_rule,
    domain_ball_rule,
    product_spec,
    s3_nodes,
    sq_norms,
    tail_report,
    weight_fn,
    weighted_r4_rule,
)
from ymeps.instanton import ParamQ
from oracle import integrate, materialised_peaked_integral, materialised_rule


def sphere_monomial_oracle(a, b, c, d):
    """Closed form of the S^3 integral of x0^a x1^b x2^c x3^d."""
    if any(e % 2 for e in (a, b, c, d)):
        return 0.0
    g = math.gamma
    num = 2 * g((a + 1) / 2) * g((b + 1) / 2) * g((c + 1) / 2) * g((d + 1) / 2)
    return num / g((a + b + c + d + 4) / 2)


def test_s3_weights_sum():
    _, w = s3_nodes(6)
    assert abs(w.sum() - 2 * math.pi ** 2) < 1e-12


def test_s3_monomial_exactness():
    dirs, w = s3_nodes(6)  # exact to spherical degree 11
    cases = [(2, 4, 4, 0), (0, 0, 0, 10), (6, 2, 2, 0), (2, 2, 2, 2),
             (1, 2, 4, 2), (3, 0, 0, 0), (5, 3, 2, 1)]
    for a, b, c, d in cases:
        vals = dirs[:, 0] ** a * dirs[:, 1] ** b * dirs[:, 2] ** c * dirs[:, 3] ** d
        got = float(w @ vals)
        assert abs(got - sphere_monomial_oracle(a, b, c, d)) < 1e-12, (a, b, c, d)


def test_ball_volume():
    rule = ball_rule(np.zeros(4), 0.1, 1.0, tol=1e-4)
    assert abs(rule.weights.sum() - math.pi ** 2 / 2) < 1e-10
    # radial polynomial exactness: integral of r^5 over B_1
    got = integrate(rule, lambda X: np.sum(X ** 2, axis=1) ** 2.5)
    assert abs(got - 2 * math.pi ** 2 / 9) < 1e-10


def test_small_ball_volume():
    lam = 0.2
    rule = ball_rule(np.zeros(4), lam, lam / 4, tol=1e-4)
    assert abs(rule.weights.sum() - math.pi ** 2 * (lam / 4) ** 4 / 2) < 1e-12


def test_inner_mask_volume():
    lam = 0.2
    p = np.array([0.05, 0.0, -0.02, 0.01])
    rule = ball_rule(p, lam, 1.0, tol=1e-4)
    got = rule.weights[:rule.n_inner].sum()
    assert abs(got - math.pi ** 2 * (lam / 4) ** 4 / 2) < 1e-12


def test_peaked_oracle_r4():
    # closed form: integral of 48 lam^4/(lam^2+r^2)^4 over R^4 = 8 pi^2
    lam = 2 ** -3
    rule = ball_rule(np.zeros(4), lam, math.inf, tol=1e-4)

    def peaked(X):
        s = np.sum(X ** 2, axis=1)
        return 48 * lam ** 4 / (lam ** 2 + s) ** 4

    got = integrate(rule, peaked)
    assert abs(got - 8 * math.pi ** 2) / (8 * math.pi ** 2) < 1e-6


def test_peaked_oracle_truncated():
    # closed form over B_R: u-substitution value
    lam, R = 0.125, 1.0
    rule = ball_rule(np.zeros(4), lam, R, tol=1e-4)

    def peaked(X):
        s = np.sum(X ** 2, axis=1)
        return 48 * lam ** 4 / (lam ** 2 + s) ** 4

    u = R ** 2
    exact = 48 * lam ** 4 * 2 * math.pi ** 2 * 0.5 * (
        -u / (3 * (lam ** 2 + u) ** 3)
        + (1 / 6) * (1 / lam ** 4 - 1 / (lam ** 2 + u) ** 2)
    )
    assert abs(integrate(rule, peaked) - exact) / exact < 1e-8


def test_off_center_domain_ball():
    p = np.array([0.02, -0.01, 0.0, 0.015])
    rule = domain_ball_rule(p, 0.1, tol=1e-4)
    assert abs(rule.weights.sum() - math.pi ** 2 / 2) < 1e-6
    # all nodes inside the unit ball
    assert np.max(np.linalg.norm(rule.nodes, axis=1)) < 1.0 + 1e-12


def test_weighted_rule_regions_and_weight():
    lam = 0.1
    rule = weighted_r4_rule(np.zeros(4), lam, tol=1e-4)
    # exterior shell [2,4] of the weight function: closed form of
    # 2 pi^2 * int r^3/(1+r^2)^2 dr = pi^2 [ln(1+r^2) + 1/(1+r^2)]
    s24 = (rule.r >= 2) & (rule.r < 4)
    s48 = (rule.r >= 4) & (rule.r < 8)

    def F(r):
        return math.pi ** 2 * (math.log(1 + r ** 2) + 1 / (1 + r ** 2))

    vals = weight_fn(rule.nodes)
    got_24 = float(np.sum(rule.weights[s24] * vals[s24]))
    got_48 = float(np.sum(rule.weights[s48] * vals[s48]))
    assert abs(got_24 - (F(4) - F(2))) < 1e-8
    assert abs(got_48 - (F(8) - F(4))) < 1e-8
    # weight jump at |x| = 1: value 1 inside, 1/4 just outside
    assert weight_fn(np.array([[0.999, 0, 0, 0]]))[0] == 1.0
    assert abs(weight_fn(np.array([[1.001, 0, 0, 0]]))[0] - 0.25) < 1e-2


def test_tail_report_flags_divergent():
    rule = weighted_r4_rule(np.zeros(4), 0.1, tol=1e-4)
    # constant density * weight ~ r^-4: log-divergent -> flagged
    rep = tail_report(rule, weight_fn(rule.nodes))
    assert not rep["tail_converged"]
    # a field decaying like the instanton tail (r^-6 density): converged
    s = 1 + np.sum(rule.nodes ** 2, axis=1)
    rep2 = tail_report(rule, s ** -3.0)
    assert rep2["tail_converged"]


def test_integrate_linear_deterministic():
    rule = ball_rule(np.zeros(4), 0.1, 1.0, tol=1e-4)
    f = lambda X: X[:, 0] ** 2
    g = lambda X: np.abs(X[:, 1]) ** 3
    a = integrate(rule, lambda X: 2 * f(X) + 3 * g(X))
    b = 2 * integrate(rule, f) + 3 * integrate(rule, g)
    assert abs(a - b) < 1e-14 * max(abs(a), 1)
    assert integrate(rule, f) == integrate(rule, f)  # bit-identical


def test_integrate_scalar_callable_and_nonfinite():
    # a density is called once on the node batch; a scalar is rejected
    rule = ball_rule(np.zeros(4), 0.1, 0.5, tol=1e-4)
    with pytest.raises(ValueError, match="shape"):
        integrate(rule, lambda x: 1.0)

    def bad(X):
        out = np.ones(X.shape[0])
        out[7] = np.nan
        return out

    with pytest.raises(NumericalError, match="node 7"):
        integrate(rule, bad)


def test_integrate_propagates_type_error_from_batch_density():
    # a density that fails on the (N,4) batch is a bug to report, not a
    # per-point density to retry node by node
    rule = ball_rule(np.zeros(4), 0.1, 0.5, tol=1e-4)
    calls = []

    def broken(X):
        calls.append(X.shape)
        if X.ndim == 2:
            raise TypeError("unsupported operand in density")
        return 1.0

    with pytest.raises(TypeError, match="unsupported operand"):
        integrate(rule, broken)
    assert calls == [(len(rule), 4)]


def test_unreachable_tolerance_raises():
    # the default-order self-check error here is about 1.6e-14
    with pytest.raises(QuadratureError):
        ball_rule(np.zeros(4), 0.1, 1.0, tol=1e-16)


def test_centred_domain_rule_is_the_unit_ball_rule():
    for lam in (0.1, 0.25):
        dom, ball = domain_ball_rule(np.zeros(4), lam), ball_rule(np.zeros(4), lam, 1.0)
        assert np.array_equal(dom.nodes, ball.nodes)
        assert np.array_equal(dom.weights, ball.weights)


@pytest.mark.parametrize("p", [np.zeros(4), np.array([0.2, -0.15, 0.1, 0.05])])
def test_weighted_rule_starts_with_the_domain_rule(p):
    # the weighted rule's unit-ball part is the domain rule, node for node
    dom, wr = domain_ball_rule(p, 0.1), weighted_r4_rule(p, 0.1)
    n = len(dom)
    assert len(wr) > n
    assert np.array_equal(wr.nodes[:n], dom.nodes)
    assert np.array_equal(wr.weights[:n], dom.weights)
    assert wr.self_check_error == dom.self_check_error
    assert np.all(np.linalg.norm(wr.nodes[n:], axis=1) > 1.0 - 1e-12)


def test_zero_integrand():
    rule = weighted_r4_rule(np.zeros(4), 0.1, tol=1e-4)
    assert integrate(rule, lambda X: np.zeros(X.shape[0])) == 0.0


def test_sq_norms_is_the_row_sum_bit_for_bit():
    # node-last batches: the transposed view of an (N, 4) array, the
    # contiguous offsets the atoms form, and a strided view of either
    rng = np.random.default_rng(77)
    Y = rng.standard_normal((5000, 4)) * rng.uniform(0.0, 1e3, (5000, 1))
    rule = weighted_r4_rule(np.array([0.1, 0.0, -0.2, 0.05]), 0.2)
    offsets = np.subtract(rule.nodes.T, rule.center[:, None], order="C")
    for Z in (Y, rule.nodes, rule.nodes - rule.center, Y[::3]):
        assert np.array_equal(sq_norms(Z.T), np.sum(Z * Z, axis=1))
    for Z in (offsets, offsets[:, ::3], np.ascontiguousarray(Y.T)):
        assert Z.shape[0] == 4
        assert np.array_equal(sq_norms(Z), np.sum(Z * Z, axis=0))
    assert np.array_equal(sq_norms(offsets),
                          np.sum((rule.nodes - rule.center) ** 2, axis=1))


OFF_CENTRE_P = np.array([0.12, -0.2, 0.07, 0.15])
# the centre of the generic sweep point
GENERIC_P = np.array([0.1, -0.08, 0.05, 0.12])


@pytest.mark.parametrize("k", range(4, 10))
def test_inner_chart_is_a_node_prefix(k):
    # a polar rule lists its radii outward and lam/4 is a panel edge, so the
    # inner chart r < lam/4 is the node range [:n_inner]
    lam = 2.0 ** (-k / 2)
    for p in (np.zeros(4), OFF_CENTRE_P):
        for rule in (domain_ball_rule(p, lam, tol=None),
                     weighted_r4_rule(p, lam, tol=None),
                     ball_rule(p, lam, 1.0, tol=None),
                     ball_rule(p, lam, math.inf, tol=None)):
            n = len(rule)
            assert 0 < rule.n_inner < n
            assert np.array_equal(rule.r < rule.lam / 4.0,
                                  np.arange(n) < rule.n_inner)


# (p, region, R) of each kind of radial piece: shared radii from p = 0, the
# off-centre domain ball's last panel per direction, the r4 inversion tail,
# and the weighted rule's exterior panels and tail
SELF_CHECK_CASES = {
    "ball-at-0": (np.zeros(4), "ball", 1.0),
    "domain-off-centre": (OFF_CENTRE_P, "ball", None),
    "r4": (OFF_CENTRE_P, "r4", math.inf),
    "weighted-r4": (OFF_CENTRE_P, "weighted-r4", None),
}


@pytest.mark.parametrize("lam", [0.25, 2.0 ** -4.5])
@pytest.mark.parametrize("case", SELF_CHECK_CASES)
def test_rule_radii_are_the_node_distances(case, lam):
    # a polar rule keeps its radial pieces' radii instead of recomputing
    # |node - center|: the two agree to the round-off of forming p + r u
    # and subtracting p again, and put every node on the same side of lam/4
    # and of the tail shells' edges 2, 4 and 8, so n_inner and
    # tail_report's shell masks and values are unchanged
    p, region, R = SELF_CHECK_CASES[case]
    rule = _polar_rule(p, lam, region, R)
    again = QuadratureRule(rule.nodes, rule.weights, rule.center, rule.lam,
                           rule.region)
    u = np.finfo(float).eps
    assert np.all(np.abs(rule.r - again.r)
                  <= 2 * u * (again.r + np.linalg.norm(p)))
    assert rule.n_inner == again.n_inner
    for edge in (lam / 4.0, 2.0, 4.0, 8.0):
        assert np.array_equal(rule.r < edge, again.r < edge), edge
    if region == "weighted-r4":
        s = 1 + np.sum(rule.nodes ** 2, axis=1)
        for vals in (weight_fn(rule.nodes), s ** -3.0):
            assert tail_report(rule, vals) == tail_report(again, vals)


@pytest.mark.parametrize("lam", [0.25, 2.0 ** -4.5])
@pytest.mark.parametrize("case", SELF_CHECK_CASES)
def test_self_check_radial_sums_match_the_materialised_rules(case, lam):
    # the self-check builds neither rule: its radial sums must give the
    # node-by-node integrals over both orders' materialised rules, the
    # default-order one being the library's rule node for node
    p, region, R = SELF_CHECK_CASES[case]
    built = materialised_rule(p, lam, region, R, DEFAULT_SPEC)
    assert np.array_equal(built.nodes, _polar_rule(p, lam, region, R).nodes)
    for spec in (DEFAULT_SPEC, DEFAULT_SPEC.refined()):
        want = materialised_peaked_integral(p, lam, region, R, spec)
        got = _peaked_integral(p, lam, region, R, spec)
        assert abs(got - want) <= 1e-13 * abs(want), len(spec.dirs)


def test_rule_listing_an_inner_node_late_raises():
    r = domain_ball_rule(OFF_CENTRE_P, 0.25, tol=None)
    with pytest.raises(ValueError, match="inner-chart nodes first"):
        QuadratureRule(r.nodes[::-1], r.weights[::-1], r.center, r.lam, r.region)


# ---------------------------------------------------------------------------
# the angular design check


def design_moments(spec: RuleSpec, degree: int) -> dict:
    """{exponents: (the design's sum, the closed form)} of every monomial
    of degree <= degree on S^3."""
    u = spec.dirs
    out = {}
    for a in product(range(degree + 1), repeat=4):
        if sum(a) <= degree:
            vals = u[:, 0] ** a[0] * u[:, 1] ** a[1] * u[:, 2] ** a[2] * u[:, 3] ** a[3]
            out[a] = (float(spec.weights @ vals), sphere_monomial_oracle(*a))
    return out


def test_600_cell_is_a_design_of_degree_exactly_11():
    # the default spec's directions are 120 distinct unit vectors of equal
    # weight; every monomial of degree <= 11 integrates to its S^3 moment
    # and some monomial of degree 12 does not, so t = 11 is its degree
    dirs = DEFAULT_SPEC.dirs
    assert dirs.shape == (120, 4) and DEFAULT_SPEC.t == 11
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0, atol=1e-15)
    assert len({tuple(np.round(d, 12)) for d in dirs}) == 120
    assert np.all(DEFAULT_SPEC.weights == DEFAULT_SPEC.weights[0])
    moments = design_moments(DEFAULT_SPEC, 12)
    err = {a: abs(got - want) for a, (got, want) in moments.items()}
    assert max(e for a, e in err.items() if sum(a) <= 11) <= 1e-13
    assert max(e for a, e in err.items() if sum(a) == 12) >= 1e-3
    with pytest.raises(QuadratureError, match=r"not of degree 12: monomial "
                                              r"u\^\(\d+, \d+, \d+, \d+\)"):
        RuleSpec(dirs, DEFAULT_SPEC.weights, 12, 10).design_error


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, product_spec(6, 10)],
                         ids=["600-cell", "s3_nodes(6)"])
def test_degree_11_designs_pass_the_design_check(spec):
    # both integrate every monomial of degree <= 11 to round-off, by the
    # check's moments and by this module's oracle
    moments = design_moments(spec, 11)
    assert spec.t == 11
    assert max(abs(got - want) for got, want in moments.values()) <= 1e-13
    assert spec.design_error <= 1e-13


@pytest.mark.parametrize("p", [np.zeros(4), GENERIC_P],
                         ids=["p=0", "generic"])
@pytest.mark.parametrize("n", [1, 2])
def test_coarse_design_claiming_degree_11_is_refused(n, p, monkeypatch):
    # s3_nodes(1) (2 directions) and s3_nodes(2) (16) claiming degree 11:
    # the radial self-check alone passes either at the default tol (at
    # p = 0 it reads the same for every design), the design check refuses
    # both, on its own and at every rule build, the sweep point's too when
    # the design is the default
    spec = RuleSpec(*s3_nodes(n), 11, 10)
    assert len(spec.dirs) == 2 * n ** 3
    lam = 0.125
    radial = [_peaked_integral(p, lam, "ball", None, s)
              for s in (spec, spec.refined())]
    assert abs(radial[0] - radial[1]) <= DEFAULT_TOL * abs(radial[1])
    with pytest.raises(QuadratureError, match="not of degree 11"):
        spec.design_error
    for build in (lambda: domain_ball_rule(p, lam, spec=spec),
                  lambda: _polar_rule(p, lam, "weighted-r4", None,
                                      DEFAULT_TOL, spec),
                  lambda: _polar_rule(p, lam, "ball", 1.0, DEFAULT_TOL,
                                      spec)):
        with pytest.raises(QuadratureError, match="not of degree 11"):
            build()
    monkeypatch.setattr(forms, "DEFAULT_SPEC", spec)
    with pytest.raises(QuadratureError, match="not of degree 11"):
        functionals.compute_point_metrics(ParamQ.default(2.0 ** -6, p=p))


def test_coarse_design_exits_with_code_3(monkeypatch, tmp_path, capsys):
    # a coarse default design is refused at the sweep's first rule build,
    # with the exit code of every other quadrature failure
    monkeypatch.setattr(forms, "DEFAULT_SPEC", RuleSpec(*s3_nodes(2), 11, 10))
    code = harness.run_command(["verify-scaling", "--eps-list",
                                "2^-4,2^-5,2^-6,2^-7", "--out", str(tmp_path)])
    assert code == 3
    assert "not of degree 11" in capsys.readouterr().err


@pytest.mark.parametrize("k", range(4, 10))
def test_default_spec_self_check_error_at_the_generic_p(k):
    # at the generic p the last panel runs per direction, so the self-check
    # sees the design: on the default sweep's lam the 600-cell reads 2.7e-15
    # to 1.6e-14, within 12% of s3_nodes(6)'s
    lam = 2.0 ** (-k / 2)
    errs = [domain_ball_rule(GENERIC_P, lam, spec=s).self_check_error
            for s in (DEFAULT_SPEC, product_spec(6, 10))]
    assert 0.0 < errs[0] <= 2e-14
    assert abs(errs[0] - errs[1]) <= 0.12 * errs[1]
