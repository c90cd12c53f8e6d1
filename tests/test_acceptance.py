"""Acceptance gate: the ten headline checks at their stated tolerances.

One test per criterion; the shared eps-sweep (2^-4 .. 2^-9, lam = sqrt(eps))
is computed once per session and reused.  Each test prints a single
pass/fail line with the measured numbers.
"""

import time

import numpy as np
import pytest

from ymeps.basis import ball_context
from ymeps.forms import (
    N_COMP,
    cdot,
    curvature_coeffs,
    domain_ball_rule,
    star_coeffs,
    weighted_sum,
)
from ymeps.functionals import (
    charge,
    compute_point_metrics,
    lemma36_report,
    lemma37_report,
    lemma57_report,
    lemma58_report,
    lemma59_report,
    lemma310_report,
    sweep_points,
    ym_eps,
)
from ymeps.harness import emit_outputs, report_csv
from ymeps.instanton import ParamQ, extended_connection, glued_connection
from oracle import (
    ad,
    bump_one_form,
    cdot_nf,
    codifferential_eps,
    covariant_d_eps,
    exterior_d,
    grad_pairing,
    i1_form,
    inner_field,
    lincomb,
    outer_field,
    qexp,
    sample_form,
    wedge_bracket,
)

ACC_EPS = tuple(2.0 ** -k for k in range(4, 10))
ALL_BLOCKS = frozenset({"weighted", "l36", "l37", "l310"})
SEED = 0
N_TEST = 32


def _line(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep():
    t0 = time.monotonic()
    points = [compute_point_metrics(q, blocks=ALL_BLOCKS, seed=SEED,
                                    n_test=N_TEST)
              for q in sweep_points(ACC_EPS)]
    return {"points": points, "elapsed": time.monotonic() - t0}


def _row(report, name):
    for r in report.rows:
        if r.quantity == name:
            return r
    raise AssertionError(f"report {report.lemma} has no row {name!r}")


def test_criterion_01_charge_is_plus_one():
    t0 = time.monotonic()
    q = ParamQ.default(2.0 ** -6)
    c = charge(extended_connection(q), q.eps)
    dt = time.monotonic() - t0
    ok = abs(c - 1.0) <= 0.01 and dt < 60.0
    _line(1, ok, f"charge = {c:.6f} (target 1 +/- 0.01), {dt:.1f}s")
    assert abs(c - 1.0) <= 0.01
    assert dt < 60.0


def test_criterion_02_normalized_energy():
    t0 = time.monotonic()
    q = ParamQ.default(2.0 ** -6)
    e = q.eps ** 2 * ym_eps(extended_connection(q), q.eps)
    dt = time.monotonic() - t0
    target = 8.0 * np.pi ** 2
    ok = abs(e - target) <= 0.01 * target and dt < 60.0
    _line(2, ok, f"eps^2 * energy = {e:.6f} (target {target:.6f} +/- 1%), "
                 f"{dt:.1f}s")
    assert abs(e - target) <= 0.01 * target
    assert dt < 60.0


def test_criterion_03_derivative_norm_slopes(sweep):
    rep = lemma57_report(sweep["points"])
    rp = _row(rep, "norm_p1")
    rx = _row(rep, "norm_xi1")
    rl = _row(rep, "norm_lam")
    ok = all(r.verdict == "pass" for r in (rp, rx, rl))
    ok = ok and sweep["elapsed"] < 600.0
    _line(3, ok, f"slopes p1 {rp.slope:+.3f}, xi1 {rx.slope:+.3f}, "
                 f"lam {rl.slope:+.3f}; residuals <= "
                 f"{max(rp.residual, rx.residual, rl.residual):.4f}; "
                 f"sweep took {sweep['elapsed']:.0f}s")
    assert -1.6 <= rp.slope <= -1.4 and rp.residual < 0.1
    assert -1.1 <= rx.slope <= -0.9 and rx.residual < 0.1
    assert -1.6 <= rl.slope <= -1.4 and rl.residual < 0.1
    assert sweep["elapsed"] < 600.0


def test_criterion_04_cross_pairings_bounded(sweep):
    rep = lemma57_report(sweep["points"])
    names = ["pair_p1_p2", "pair_p1_xi1", "pair_xi1_xi2", "pair_p1_lam",
             "pair_xi1_lam"]
    rows = [_row(rep, n) for n in names]
    ok = all(r.verdict == "pass" for r in rows)
    _line(4, ok, "; ".join(f"{r.quantity}: {r.note}" for r in rows))
    for r in rows:
        assert r.verdict == "pass", (r.quantity, r.note, r.values)


def test_criterion_05_ball_basis_orthonormal_and_banded(sweep):
    rep = lemma58_report(sweep["points"])
    res = _row(rep, "ball_gram_residual")
    bands = [_row(rep, f"a{i}{i}") for i in (1, 2, 5, 8)]
    ok = res.verdict == "pass" and all(r.verdict == "pass" for r in bands)
    _line(5, ok, f"max Gram residual {max(res.values):.2e}; " +
          "; ".join(f"{r.quantity} {r.note}" for r in bands))
    assert max(res.values) <= 1e-8
    for r in bands:
        assert r.verdict == "pass", (r.quantity, r.note, r.values)


def test_criterion_06_weighted_basis_near_identity(sweep):
    rep = lemma59_report(sweep["points"])
    res = _row(rep, "w_gram_residual")
    diag = [_row(rep, f"b{i}{i}_minus_1") for i in range(1, 9)]
    ok = res.verdict == "pass" and all(r.verdict in ("pass", "exact")
                                       for r in diag)
    slopes = ", ".join("<floor" if r.slope is None else f"{r.slope:+.2f}"
                       for r in diag)
    _line(6, ok, f"max Gram residual {max(res.values):.2e}; "
                 f"|b_ii - 1| slopes [{slopes}]")
    assert max(res.values) <= 1e-8
    for r in diag:
        assert r.verdict in ("pass", "exact"), (r.quantity, r.slope,
                                                r.residual, r.values)


def test_criterion_07_basis_gap_ratios(sweep):
    rep = lemma36_report(sweep["points"])
    rows = [_row(rep, f"basis_diff_{i}") for i in range(1, 9)]
    ok = all(r.verdict == "pass" for r in rows)
    _line(7, ok, "; ".join(f"i={i+1} {r.note}" for i, r in enumerate(rows)))
    for r in rows:
        assert r.verdict == "pass", (r.quantity, r.note, r.values)


def test_criterion_08_hessian_dual_norms(sweep):
    rep = lemma37_report(sweep["points"])
    rows = [_row(rep, n) for n in ("hess_dual_i1", "hess_dual_i5",
                                   "codiff_dual_i1", "codiff_dual_i5")]
    ft = _row(rep, "five_term_residual")
    ok = all(r.verdict == "pass" for r in rows) and ft.verdict == "pass"
    _line(8, ok, "; ".join(f"{r.quantity}: {r.note}" for r in rows) +
          f"; five-term residual max {max(ft.values):.2e}")
    for r in rows:
        assert r.verdict == "pass", (r.quantity, r.note, r.values)
    assert max(ft.values) <= 1e-8


def test_criterion_09_perpendicular_derivative(sweep):
    rep = lemma310_report(sweep["points"])
    sl = _row(rep, "fd_perp_norm")
    ag = _row(rep, "path_agreement")
    ok = sl.verdict == "pass" and ag.verdict == "pass"
    _line(9, ok, f"FD-path slope {sl.slope:+.3f} (need >= 0.8); max relative "
                 f"gap to the analytic path {max(ag.values):.3%}")
    assert sl.verdict == "pass", (sl.slope, sl.residual)
    assert max(ag.values) <= 0.05
    for name in ("inner_chart_norm", "outer_chart_norm", "ortho_residual"):
        assert _row(rep, name).verdict == "pass", name


# ---------------------------------------------------------------------------
# negative controls: each verdict kind rejects a wrong predicted exponent


def _shifted(points, key, shift):
    """The points with the metric key rescaled by (eps / eps_0)^-shift: the
    recorded data read against a predicted exponent larger by shift, the
    first point's value kept."""
    eps0 = points[0]["eps"]
    return [{**pt, key: pt[key] * (pt["eps"] / eps0) ** -shift}
            for pt in points]


# kind -> (report, row, metric, the shifts of +-0.5 its verdict must reject).
# A two-sided claim (a slope window, a band, the analytic path's agreement
# with the FD path) rejects both; a one-sided claim (a least decay rate, a
# bounded ratio to eps^e) rejects the stronger, +0.5, and passes the weaker
NEGATIVE_CONTROLS = {
    "slope-window": [(lemma57_report, f"norm_{d}", f"norm_{d}", (-0.5, 0.5))
                     for d in ("p1", "p2", "p3", "p4", "xi1", "xi2", "xi3",
                               "lam")],
    "band": [(lemma58_report, f"a{i}{i}", "ball_coeff", (-0.5, 0.5))
             for i in (1, 2, 5, 8)],
    "threshold": [(lemma310_report, "path_agreement", "l310_an_norm",
                   (-0.5, 0.5))],
    "slope-min": [(lemma310_report, "fd_perp_norm", "l310_fd_norm", (0.5,))],
    "bounded": [(lemma57_report, "pair_p1_xi1", "pair_p1_xi1", (0.5,))],
}


@pytest.mark.parametrize("kind", NEGATIVE_CONTROLS)
def test_each_verdict_kind_rejects_a_shifted_exponent(sweep, kind):
    points = sweep["points"]
    for report, name, key, rejected in NEGATIVE_CONTROLS[kind]:
        row = _row(report(points), name)
        assert row.kind == {"threshold": "identity"}.get(kind, kind)
        assert row.verdict == "pass", (name, row.note)
        for shift in (-0.5, 0.5):
            got = _row(report(_shifted(points, key, shift)), name)
            want = "fail" if shift in rejected else "pass"
            assert got.verdict == want, (name, shift, got.note)


# every bounded row that is not null within precision, with its metric
BOUNDED_ROWS = (
    [(lemma57_report, "pair_p1_xi1", "pair_p1_xi1")]
    + [(lemma36_report, f"basis_diff_{i}", f"basis_diff_{i}")
       for i in range(1, 9)]
    + [(lemma37_report, f"{f}_dual_{t}", f"{f}_dual_{t}")
       for t in ("i1", "i5") for f in ("hess", "codiff")]
    + [(lemma310_report, f"{c}_chart_norm", f"l310_{c}_norm")
       for c in ("inner", "outer")]
    + [(lemma59_report, "max_offdiag_b", "w_coeff")])


def test_bounded_rows_reject_only_shifts_beyond_their_spread(sweep):
    # a bounded row allows its ratios to eps^e a 10-fold spread, so on a
    # 32-fold eps sweep an exponent raised by up to log 10 / log 32 = 0.66
    # passes a row whose ratios are flat: at +0.5 only pair_p1_xi1 (ratios
    # spread 1.84-fold) fails, while every row fails at +1.5
    points = sweep["points"]
    failing = []
    for report, name, key in BOUNDED_ROWS:
        row = _row(report(points), name)
        assert row.kind == "bounded" and row.verdict == "pass", name
        assert "null" not in row.note, name
        if _row(report(_shifted(points, key, 0.5)), name).verdict == "fail":
            failing.append(name)
        got = _row(report(_shifted(points, key, 1.5)), name)
        assert got.verdict == "fail", (name, got.note)
    assert failing == ["pair_p1_xi1"]


# ---------------------------------------------------------------------------
# the sweep off the default point: p != 0, g != 1


GENERIC_P = (0.1, -0.08, 0.05, 0.12)
GENERIC_XI = (0.3, -0.4, 0.2)
REPORTS = (lemma57_report, lemma58_report, lemma59_report, lemma36_report,
           lemma37_report, lemma310_report)


@pytest.fixture(scope="session")
def generic_rows():
    """Every report's rows, keyed (lemma, quantity), on the default eps
    sweep at a generic centre and gauge, with 8 test fields."""
    g = ad(qexp(GENERIC_XI))
    points = [compute_point_metrics(ParamQ.default(e, p=GENERIC_P, g=g),
                                    blocks=ALL_BLOCKS, seed=SEED, n_test=8)
              for e in ACC_EPS]
    return {(rep.lemma, r.quantity): r for report in REPORTS
            for rep in [report(points)] for r in rep.rows}


def test_generic_point_passes_every_other_verdict(generic_rows):
    # every verdict of the six suites holds off the default point, suite
    # 3.10's FD on the base coefficients included; 5.7 pair_p1_p2 is the
    # expected failure below
    assert len(generic_rows) == 46
    failed = {key: (r.note, r.values) for key, r in generic_rows.items()
              if r.verdict not in ("pass", "exact")
              and key != ("5.7", "pair_p1_p2")}
    assert failed == {}
    assert max(generic_rows["3.10", "path_agreement"].values) <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "a resolved pairing that changes sign near 2^-7: its ratios to "
    "eps^-1.5 spread 408-fold though none exceeds the first, and the "
    "bounded rule tests the spread (see CHANGES.md)"))
def test_generic_point_pair_p1_p2_is_bounded(generic_rows):
    row = generic_rows["5.7", "pair_p1_p2"]
    assert row.verdict == "pass", (row.note, row.values)


def test_pi2_zero_control_fails_exactly_the_pi2_rows():
    # negative control: PI2 = 0 leaves the whole I2 tail in b, so the rows
    # that see b's size fail and every other verdict holds.  The sweep is
    # fixed at 2^-4..2^-7: on the six default points 3.6 basis_diff_5..8
    # (about 1 at every eps) fail their eps^1 bound too.  5.9 max_offdiag_b
    # does not detect PI2: its entries are round-off there (about 1e-17 on
    # the 600-cell rule, 1e-14 on the product rule), null against b_ii ~ 1
    points = [compute_point_metrics(ParamQ.default(e), "zero",
                                    blocks=ALL_BLOCKS, seed=SEED, n_test=8)
              for e in ACC_EPS[:4]]
    rows = {(rep.lemma, r.quantity): r for report in REPORTS
            for rep in [report(points)] for r in rep.rows}
    verdicts = {k: r.verdict for k, r in rows.items()}
    want = ({("5.9", f"b{i}{i}_minus_1") for i in range(1, 9)}
            | {("3.6", f"basis_diff_{i}") for i in range(1, 5)}
            | {("3.7", f"{kind}_dual_{tag}") for kind in ("hess", "codiff")
               for tag in ("i1", "i5")})
    assert len(verdicts) == 46 and len(want) == 16
    assert {k for k, v in verdicts.items() if v == "fail"} == want
    assert all(v in ("pass", "exact") for k, v in verdicts.items()
               if k not in want)
    off = rows["5.9", "max_offdiag_b"]
    assert off.note.endswith("null within precision"), off.note
    assert max(off.values) <= 1e-13, off.values


def test_criterion_10_structural_suite(tmp_path):
    q = ParamQ.default(2.0 ** -5, p=[0.1, -0.08, 0.05, 0.12],
                       g=ad(qexp([0.3, -0.4, 0.2])))
    notes = []

    # double star is the exact sign (-1)^{k(4-k)}
    rng = np.random.default_rng(SEED)
    for k in range(5):
        arr = rng.standard_normal((3, N_COMP[k], 7))
        sign = (-1.0) ** (k * (4 - k))
        assert np.array_equal(star_coeffs(4 - k, star_coeffs(k, arr)),
                              sign * arr)
    notes.append("star^2 exact")

    # d compose d vanishes at the analytic-jacobian level
    lam = q.lam
    X = q.p + np.array([[0.3 * lam, 0, 0, 0], [0, 0.9 * lam, 0.2 * lam, 0],
                        [0.1, -0.05, 0.2, 0.1]])
    f1 = i1_form(q.lam, q.p)
    dd = exterior_d(exterior_d(f1)).value(X)
    scale = np.abs(exterior_d(f1).jac(X)).max()
    assert np.abs(dd).max() <= 1e-10 * scale
    notes.append(f"dd/scale = {np.abs(dd).max()/scale:.1e}")

    # differential Bianchi identity for the extension's curvature
    At = extended_connection(q)
    for ff in (inner_field(At), outer_field(At)):
        F = exterior_d(ff) + 0.5 * q.eps * wedge_bracket(ff, ff)
        dF = covariant_d_eps(ff, F, q.eps).value(X)
        s = (np.abs(exterior_d(F).value(X)).max()
             + q.eps * np.abs(F.value(X)).max() * np.abs(ff.value(X)).max())
        assert np.abs(dF).max() <= 1e-3 * s
        assert np.abs(dF).max() <= 1e-9 * s  # far below the 10*tol contract
    notes.append("Bianchi ok")

    # adjointness of d_A and its codifferential on compact support
    rule = domain_ball_rule(np.zeros(4), 0.25)
    Aff = bump_one_form([0.1, 0.0, -0.1, 0.2], 0.5,
                        rng.standard_normal((3, 4)))
    alpha = bump_one_form([-0.05, 0.1, 0.0, 0.0], 0.45,
                          rng.standard_normal((3, 4)))
    # the doubly differentiated field gets a C^4 profile so the support kink
    # stays below the quadrature tolerance
    beta2 = covariant_d_eps(Aff, bump_one_form([0.0, 0.05, 0.1, 0.0], 0.4,
                                               rng.standard_normal((3, 4)),
                                               power=5),
                            0.41)
    Xn = rule.nodes
    lhs = weighted_sum(rule.weights, cdot_nf(covariant_d_eps(Aff, alpha, 0.41).value(Xn),
                                     beta2.value(Xn)))
    rhs = weighted_sum(rule.weights, cdot_nf(alpha.value(Xn),
                                     codifferential_eps(Aff, beta2, 0.41).value(Xn)))
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    assert rel <= 1e-3
    notes.append(f"adjointness rel = {rel:.1e}")

    # chain rule: energy gradient pairing vs a finite difference of ym
    A = glued_connection(q)
    a = bump_one_form(q.p + np.array([0.25, 0.0, -0.1, 0.0]), 0.2,
                      rng.standard_normal((3, 4)))
    brule = domain_ball_rule(q.p, q.lam)
    (nfA,) = ball_context(A, q.eps, rule=brule).arrays([A])
    nfa = sample_form(a, brule)

    def E(t):
        nf = lincomb((1.0, t), (nfA, nfa))
        Ft = curvature_coeffs(nf.val, nf.jac, q.eps)
        return weighted_sum(brule.weights, 0.5 * cdot(Ft, Ft))

    got = grad_pairing(A, nfa, q.eps, rule=brule)
    h = 1e-3
    fd = (E(h) - E(-h)) / (2.0 * h)
    assert abs(got - fd) <= 1e-3 * max(abs(got), abs(fd))
    notes.append(f"chain rule rel = {abs(got-fd)/abs(got):.1e}")

    # the two charts agree on the gauge-invariant curvature density
    def curv_density(ff, Xq):
        F = exterior_d(ff) + 0.5 * q.eps * wedge_bracket(ff, ff)
        v = F.value(Xq)
        return np.einsum("nac,nac->n", v, v)

    for frac in (0.4, 0.7, 0.95):
        r = frac * q.lam / 4.0
        Xo = q.p + r * np.array([[1.0, 0, 0, 0], [0, 0.6, 0.8, 0],
                                 [0.5, 0.5, 0.5, 0.5]])
        inner_d = curv_density(inner_field(A), Xo)
        outer_d = curv_density(outer_field(A), Xo)
        assert np.allclose(inner_d, outer_d, rtol=1e-8)
    notes.append("chart overlap ok")

    # determinism: identical metrics, CSV, and file bytes on a repeated run
    qd = ParamQ.default(2.0 ** -5)
    m1 = compute_point_metrics(qd)
    m2 = compute_point_metrics(qd)
    assert np.array_equal(m1["ball_coeff"], m2["ball_coeff"])
    rep1 = report_csv([lemma58_report([m1])])
    rep2 = report_csv([lemma58_report([m2])])
    assert rep1 == rep2
    c1, s1 = emit_outputs([lemma58_report([m1])], str(tmp_path / "r1"), "det")
    c2, s2 = emit_outputs([lemma58_report([m2])], str(tmp_path / "r2"), "det")
    assert open(c1, "rb").read() == open(c2, "rb").read()
    assert open(s1, "rb").read() == open(s2, "rb").read()
    notes.append("deterministic")

    _line(10, True, "; ".join(notes))
