"""Energy, charge, gradient/Hessian pairings, and the scaling-estimate reports.

Conventions: the invariant pairing of algebra-valued forms is the trace
pairing, equal to half the coefficient dot product over the e_i basis; the
curvature of A is F = dA + (eps/2)[A ^ A].  All integrals run over shared
quadrature rules with two-chart fields split at |x-p| = lam/4.

The report builders turn an eps-sweep into slope fits and bounded-ratio
verdicts: "~" claims are tested two-sidedly (a slope window around the
predicted exponent), one-sided claims by ratio boundedness (max/min across
the sweep, a non-increasing sequence, or a null value within precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Optional

import numpy as np

from .basis import (
    InnerContext,
    ball_context,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    project_perp,
    tilde_fields,
)
from .forms import (
    NumericalError,
    ball_rule,
    bracket_wedge_coeffs,
    cdot,
    codiff_coeffs,
    cov_d_coeffs,
    cov_grad_coeffs,
    curvature_coeffs,
    star_coeffs,
    weighted_sum,
)
from .instanton import (
    DIRECTIONS,
    BackgroundConnection,
    ChartedField,
    ParamQ,
    d2A_dp1p1,
    difference_b,
    extended_connection,
    glued_connection,
)

__all__ = [
    "SlopeFit",
    "fit_slope",
    "EstimateReport",
    "QuantityRow",
    "ym_eps",
    "charge",
    "grad_pairing",
    "hessian_form",
    "sweep_points",
    "compute_point_metrics",
    "lemma57_report",
    "lemma58_report",
    "lemma59_report",
    "lemma36_report",
    "lemma37_report",
    "lemma310_report",
]


# ---------------------------------------------------------------------------
# slope fitting (re-exported by the command-line module)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float   # RMS of log residuals (natural log)
    npoints: int


def fit_slope(pairs) -> SlopeFit:
    """Least-squares slope of log(value) against log(eps).

    Requires at least 3 points and strictly positive values.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError(f"slope fit needs at least 3 points, got {len(pairs)}")
    eps = np.array([p[0] for p in pairs], dtype=float)
    val = np.array([p[1] for p in pairs], dtype=float)
    if np.any(eps <= 0) or np.any(val <= 0):
        raise ValueError("slope fit needs positive eps and values")
    x, y = np.log(eps), np.log(val)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return SlopeFit(float(coef[0]), float(coef[1]), rms, len(pairs))


# ---------------------------------------------------------------------------
# functionals


def _r4_context(A: ChartedField, eps, rule=None, tol=1e-4) -> InnerContext:
    """Context on the R^4 rule polar around A's center (or a given rule); the
    functionals below pair no gradients, so it holds no connection samples."""
    if rule is None:
        rule = ball_rule(A.p, A.lam, R=np.inf, tol=tol)
    return InnerContext(rule, eps, np.zeros((rule.nodes.shape[0], 3, 4)))


def ym_eps(A: ChartedField, eps: float, rule=None, tol: float = 1e-4) -> float:
    """The deformed energy: integral of |dA + (eps/2)[A^A]|^2 (trace pairing).

    Integrates over all of R^4 (graded radial rule with an inversion tail)
    unless a rule is given.
    """
    nf = _r4_context(A, eps, rule=rule, tol=tol).arrays(A)
    F = curvature_coeffs(nf.val, nf.jac, eps)
    return weighted_sum(nf.rule.weights, 0.5 * cdot(F, F))


def charge(Atilde: ChartedField, eps: float, rule=None, tol: float = 1e-4) -> float:
    """Normalized topological charge of the curvature over R^4.

    charge = (eps^2 / 8 pi^2) * int <F ^ F> with the trace pairing; the sign
    convention makes the extended family carry charge +1.
    """
    nf = _r4_context(Atilde, eps, rule=rule, tol=tol).arrays(Atilde)
    F = curvature_coeffs(nf.val, nf.jac, eps)
    # F ^ F = <F, *F> vol, and the trace pairing is half the coefficient dot
    dens = 0.5 * cdot(F, star_coeffs(2, F))
    return eps ** 2 / (8.0 * np.pi ** 2) * weighted_sum(nf.rule.weights, dens)


def grad_pairing(A: ChartedField, a, eps: float, rule=None,
                 tol: float = 1e-4) -> float:
    """First variation of the energy at A in direction a: 2 int <F, d_A a>.

    a is a charted field or a NodeField on the rule; the rule defaults to
    the R^4 rule of ym_eps.
    """
    ctx = _r4_context(A, eps, rule=rule, tol=tol)
    nfA, nfa = ctx.arrays(A), ctx.arrays(a)
    F = curvature_coeffs(nfA.val, nfA.jac, eps)
    da = cov_d_coeffs(1, nfA.val, nfa.val, nfa.jac, eps)
    return weighted_sum(ctx.rule.weights, cdot(F, da))


def hessian_form(A, a, b, eps: float, rule=None, tol: float = 1e-4) -> float:
    """Second variation over the unit ball:

        H(a,b) = 2 int <d_A^eps a, d_A^eps b> + 2 int <F_A^eps, eps [a ^ b]>.
    """
    ctx = ball_context(A, eps, rule=rule, tol=tol)
    nfA, nfa, nfb = ctx.arrays(A), ctx.arrays(a), ctx.arrays(b)
    F = curvature_coeffs(nfA.val, nfA.jac, eps)
    da = cov_d_coeffs(1, nfA.val, nfa.val, nfa.jac, eps)
    db = cov_d_coeffs(1, nfA.val, nfb.val, nfb.jac, eps)
    ab = bracket_wedge_coeffs(1, nfa.val, nfb.val)
    return weighted_sum(ctx.rule.weights, cdot(da, db) + eps * cdot(F, ab))


# ---------------------------------------------------------------------------
# test fields


def _bump_arrays(X, center, scale, coeff):
    """Value and jacobian of the bump coeff * (1 - |x-c|^2/s^2)^3 at nodes X
    inside its ball; outside it both vanish (the profile is C^2 there)."""
    Y = X - center
    u = 1.0 - np.sum(Y * Y, axis=1) / scale ** 2
    val = coeff[None, :, :] * (u ** 3)[:, None, None]
    dprof = 3 * u ** 2 * (-2.0 / scale ** 2)
    jac = coeff[None, :, :, None] * (dprof[:, None] * Y)[:, None, None, :]
    return val, jac


def test_field_family(q: ParamQ, ctx: InnerContext, n: int, seed: int):
    """n seeded bump probes at scales {lam/4, lam, 1}, unit norm in ctx.

    Each probe is returned as a spec (rows, center, scale, coeff): rows are
    the nodes of ctx.rule inside the probe's ball, and _bump_arrays on them
    gives its value and jacobian; both are 0 on every other node.  The
    covariant H^1 norm (ctx unweighted) is summed over those rows only.
    """
    rng = np.random.default_rng(seed)
    X, w = ctx.rule.nodes, ctx.rule.weights
    scales = [q.lam / 4.0, q.lam, 1.0]
    out = []
    k = 0
    while len(out) < n:
        sc = scales[k % 3]
        k += 1
        if sc >= 1.0:
            center = np.zeros(4)
            sc = 0.95
        else:
            d = rng.standard_normal(4)
            d /= np.linalg.norm(d)
            center = q.p + rng.uniform(0.0, 2.0 * q.lam) * d
        C = rng.standard_normal((3, 4))
        rows = np.flatnonzero(1.0 - np.sum((X - center) ** 2, axis=1)
                              / sc ** 2 > 0)
        val, jac = _bump_arrays(X[rows], center, sc, C)
        grad = cov_grad_coeffs(ctx.Aval[rows], val, jac, ctx.eps)
        # the unweighted density of InnerContext.density, on the ball's rows
        dens = (np.einsum("namu,namu->n", grad, grad, optimize=False)
                + np.einsum("nam,nam->n", val, val, optimize=False))
        nrm2 = weighted_sum(w[rows], dens)
        if nrm2 <= 1e-20:
            continue
        out.append((rows, center, sc, C / np.sqrt(nrm2)))
    return out


# ---------------------------------------------------------------------------
# reports


@dataclass
class QuantityRow:
    """One monitored quantity across the sweep with its verdict."""

    quantity: str
    eps: list
    values: list
    predicted_exponent: Optional[float]
    kind: str            # slope-window | slope-min | bounded | band | identity
    slope: Optional[float] = None
    residual: Optional[float] = None
    verdict: str = ""
    note: str = ""


@dataclass
class EstimateReport:
    lemma: str
    rows: list
    meta: dict = dc_field(default_factory=dict)

    def passed(self) -> bool:
        return all(r.verdict in ("pass", "exact") for r in self.rows)

    def failures(self):
        return [r for r in self.rows if r.verdict not in ("pass", "exact")]


_RESIDUAL_MAX = 0.1


def _row_slope_window(name, eps, vals, expo, window) -> QuantityRow:
    fit = fit_slope(list(zip(eps, vals)))
    ok = window[0] <= fit.slope <= window[1] and fit.residual < _RESIDUAL_MAX
    return QuantityRow(name, list(eps), list(vals), expo, "slope-window",
                       fit.slope, fit.residual, "pass" if ok else "fail",
                       f"window [{window[0]}, {window[1]}]")


def _row_slope_min(name, eps, vals, expo, min_slope=0.8, floor=1e-10,
                   noise=None) -> QuantityRow:
    """Decay-rate verdict; noise censors points below the measurement floor.

    A quantity that dives under the quadrature noise floor mid-sweep cannot
    be fitted through the noise plateau; the fit then runs on the measurable
    prefix and the censored points are recorded in the note.
    """
    vals = [abs(v) for v in vals]
    if max(vals) < floor:
        return QuantityRow(name, list(eps), vals, expo, "slope-min",
                           None, None, "exact", f"all below {floor:g}")
    pairs = list(zip(eps, vals))
    note = f"slope >= {min_slope}"
    if noise is not None:
        live = [(e, v) for e, v in pairs if v >= noise]
        censored = len(pairs) - len(live)
        if censored:
            note += f"; {censored} points below the {noise:g} noise floor"
        if len(live) < 3:
            return QuantityRow(name, list(eps), vals, expo, "slope-min",
                               None, None, "pass",
                               f"converged below the {noise:g} noise floor")
        pairs = live
    fit = fit_slope([(e, max(v, 1e-300)) for e, v in pairs])
    ok = fit.slope >= min_slope and fit.residual < _RESIDUAL_MAX
    return QuantityRow(name, list(eps), vals, expo, "slope-min",
                       fit.slope, fit.residual, "pass" if ok else "fail",
                       note)


def _row_bounded(name, eps, vals, expo, max_ratio=10.0, scales=None,
                 null_rel=1e-8) -> QuantityRow:
    """One-sided verdict: |value|/eps^expo bounded across the sweep.

    Passes when the ratio's max/min <= max_ratio, or the ratio sequence is
    non-increasing (5% slack) as eps decreases, or the values are null
    within precision relative to the provided scales.
    """
    eps = list(eps)
    vals = [abs(v) for v in vals]
    ratios = [v / e ** expo for v, e in zip(vals, eps)]
    note = f"ratio to eps^{expo:g}"
    if scales is not None and all(v <= null_rel * s for v, s in zip(vals, scales)):
        return QuantityRow(name, eps, vals, expo, "bounded", None, None,
                           "pass", note + "; null within precision")
    pos = [r for r in ratios if r > 0]
    if pos and max(pos) / min(pos) <= max_ratio and len(pos) == len(ratios):
        verdict = "pass"
        note += f"; max/min = {max(pos)/min(pos):.3g}"
    elif all(ratios[k + 1] <= ratios[k] * 1.05 for k in range(len(ratios) - 1)):
        verdict = "pass"
        note += "; non-increasing"
    else:
        verdict = "fail"
        spread = (max(pos) / min(pos)) if pos and min(pos) > 0 else float("inf")
        note += f"; max/min = {spread:.3g}"
    return QuantityRow(name, eps, vals, expo, "bounded", None, None, verdict,
                       note)


def _row_band(name, eps, vals, expo, band=3.0) -> QuantityRow:
    ratios = [v / e ** expo for v, e in zip(vals, eps)]
    lo, hi = min(ratios), max(ratios)
    # a ratio at or below 0 has no finite spread and fails the band
    spread = hi / lo if lo > 0 else float("inf")
    return QuantityRow(name, list(eps), list(vals), expo, "band", None, None,
                       "pass" if spread <= band else "fail",
                       f"eps^{expo:g}-normalized spread "
                       f"{spread:.3g} (allowed {band:g})")


def _row_threshold(name, eps, vals, thresh, note="") -> QuantityRow:
    ok = all(abs(v) <= thresh for v in vals)
    return QuantityRow(name, list(eps), list(vals), None, "identity",
                       None, None, "pass" if ok else "fail",
                       note or f"max {max(abs(v) for v in vals):.3g}"
                               f" <= {thresh:g}")


# ---------------------------------------------------------------------------
# sweep metrics


_PAIRS_57 = (
    ("pair_p1_p2", 0, 1, -1.5),
    ("pair_p1_xi1", 0, 4, -1.0),
    ("pair_xi1_xi2", 4, 5, -1.0),
    ("pair_p1_lam", 0, 7, -2.0),
    ("pair_xi1_lam", 4, 7, -1.5),
)


def sweep_points(eps_list, D=1.0, p=None, g=None):
    """ParamQ points for a sweep: lam = sqrt(D * eps)."""
    return [ParamQ.default(e, D=D, p=p, g=g) for e in eps_list]


def compute_point_metrics(q: ParamQ, bg: BackgroundConnection = None,
                          pi2: str = "model", tol: float = 1e-4,
                          seed: int = 0, n_test: int = 32,
                          blocks=frozenset({"basis"})) -> dict:
    """All scalar diagnostics of one sweep point needed by the reports.

    blocks selects the expensive parts: "basis" (always computed),
    "weighted", "l36", "l37", "l310".
    """
    bg = BackgroundConnection() if bg is None else bg
    out = {"eps": q.eps, "lam": q.lam}
    basis = gram_schmidt_ball(q, bg, pi2, tol=tol)
    ctx = basis.ctx
    G = basis.raw_gram
    diag = np.sqrt(np.diag(G))
    for k, d in enumerate(DIRECTIONS):
        out[f"norm_{d}"] = float(diag[k])
    for name, i, j, _ in _PAIRS_57:
        out[name] = float(G[i, j])
        out[name + "_scale"] = float(diag[i] * diag[j])
    out["ball_coeff"] = basis.coeff.copy()
    out["ball_gram_residual"] = basis.gram_residual()

    if "weighted" in blocks:
        wb = gram_schmidt_weighted(q, basis, tol=tol)
        out["w_coeff"] = wb.coeff.copy()
        out["w_gram_residual"] = wb.gram_residual()
        del wb

    if "l36" in blocks:
        tilde_nf = tilde_fields(ctx, q, basis.coeff)
        for i in range(8):
            dnf = basis.node_field(i + 1) - tilde_nf[i]
            out[f"basis_diff_{i+1}"] = float(
                np.sqrt(max(ctx.inner_nf(dnf, dnf), 0.0)))

    if "l37" in blocks:
        out.update(_hessian_difference_metrics(q, bg, pi2, basis, ctx,
                                               seed=seed, n_test=n_test))

    if "l310" in blocks:
        out.update(_perp_derivative_metrics(q, bg, pi2, basis, ctx))

    return out


def _require_finite(*arrays):
    """Raise NumericalError when any array holds a non-finite entry."""
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise NumericalError("non-finite integrand in the l37 pairings")


def _hessian_difference_metrics(q, bg, pi2, basis, ctx, seed, n_test):
    """Sampled dual norms of H_A - H_Atilde and delta_A - delta_Atilde.

    Each probe beta is a bump that is exactly 0 in value and jacobian
    outside its ball, so every integrand below vanishes there: the probe's
    kernels and pairings run on its support rows only.  The probe arrays are
    built from its spec once per beta, one probe at a time, and paired with
    both tags a_1 and a_5; the only array depending on both is [a ^ beta].
    """
    eps = q.eps
    nodes, weights = ctx.rule.nodes, ctx.rule.weights
    probes = test_field_family(q, ctx, n_test, seed)
    # only the connections' values and the arrays below are kept: their
    # jacobians are released as soon as F and d_A b exist
    nf = ctx.arrays(glued_connection(q, bg, pi2))
    Aval, FA = nf.val, curvature_coeffs(nf.val, nf.jac, eps)
    nf = ctx.arrays(extended_connection(q))
    Atval, FAt = nf.val, curvature_coeffs(nf.val, nf.jac, eps)
    nf = ctx.arrays(difference_b(q, bg, pi2))
    bval, dAb = nf.val, cov_d_coeffs(1, Aval, nf.val, nf.jac, eps)
    del nf
    bb = bracket_wedge_coeffs(1, bval, bval)
    tags = []
    for tag, idx in (("i1", 1), ("i5", 5)):
        a = basis.node_field(idx)
        tags.append((tag, a.val,
                     cov_d_coeffs(1, Aval, a.val, a.jac, eps),
                     cov_d_coeffs(1, Atval, a.val, a.jac, eps),
                     codiff_coeffs(1, Aval, a.val, a.jac, eps),
                     codiff_coeffs(1, Atval, a.val, a.jac, eps),
                     bracket_wedge_coeffs(1, bval, a.val)))
    del a
    # outside a probe's support a non-finite entry would still poison the
    # full-rule integrals, so it is reported here
    _require_finite(FA, FAt, dAb, bb, *(x for t in tags for x in t[1:]))
    sup_h = dict.fromkeys((t[0] for t in tags), 0.0)
    sup_c = dict(sup_h)
    five_term_resid = 0.0
    for s, center, scale, coeff in probes:
        bv, bj = _bump_arrays(nodes[s], center, scale, coeff)
        integral = partial(weighted_sum, weights[s])
        As, Ats, bs = Aval[s], Atval[s], bval[s]
        FAs, FAts, dAbs, bbs = FA[s], FAt[s], dAb[s], bb[s]
        dAbeta = cov_d_coeffs(1, As, bv, bj, eps)
        dAtbeta = cov_d_coeffs(1, Ats, bv, bj, eps)
        bbeta = bracket_wedge_coeffs(1, bs, bv)
        delAbeta = codiff_coeffs(1, As, bv, bj, eps)
        delAtbeta = codiff_coeffs(1, Ats, bv, bj, eps)
        for tag, aval, dAa, dAta, delAa, delAta, ba in tags:
            dAa, dAta, ba = dAa[s], dAta[s], ba[s]
            abeta = bracket_wedge_coeffs(1, aval[s], bv)
            HA = integral(cdot(dAa, dAbeta) + eps * cdot(FAs, abeta))
            HAt = integral(cdot(dAta, dAtbeta) + eps * cdot(FAts, abeta))
            direct = HAt - HA
            sup_h[tag] = max(sup_h[tag], abs(direct))
            # expansion of the difference in powers of the gap b
            t1 = eps * integral(cdot(dAa, bbeta))
            t2 = eps * integral(cdot(ba, dAbeta))
            t3 = eps ** 2 * integral(cdot(ba, bbeta))
            t4 = eps * integral(cdot(dAbs, abeta))
            t5 = 0.5 * eps ** 2 * integral(cdot(bbs, abeta))
            expansion = t1 + t2 + t3 + t4 + t5
            scale = max(abs(HA), abs(HAt), 1.0)
            five_term_resid = max(five_term_resid,
                                  abs(direct - expansion) / scale)
            # second family: the codifferential pairing
            cA = integral(cdot(delAa[s], delAbeta))
            cAt = integral(cdot(delAta[s], delAtbeta))
            sup_c[tag] = max(sup_c[tag], abs(cAt - cA))
    out = {}
    for tag in sup_h:
        out[f"hess_dual_{tag}"] = sup_h[tag]
        out[f"codiff_dual_{tag}"] = sup_c[tag]
    out["five_term_residual"] = five_term_resid
    return out


def _perp_derivative_metrics(q, bg, pi2, basis, ctx):
    out = {}
    a11 = float(basis.coeff[0, 0])
    d2 = ctx.arrays(d2A_dp1p1(q, bg, pi2))
    an_perp = project_perp(d2, basis) * a11 ** 2
    fd, halving = basis_directional_derivative(q, 1, 1, basis, bg=bg, pi2=pi2)
    fd_perp = project_perp(fd, basis)
    dens = ctx.density(fd_perp, fd_perp)
    weights, mask = ctx.rule.weights, ctx.rule.mask_inner
    total = max(weighted_sum(weights, dens), 0.0)
    inner2 = weighted_sum(weights[mask], dens[mask])
    out["l310_fd_norm"] = float(np.sqrt(total))
    out["l310_an_norm"] = float(np.sqrt(max(ctx.inner_nf(an_perp, an_perp),
                                            0.0)))
    out["l310_inner_norm"] = float(np.sqrt(max(inner2, 0.0)))
    out["l310_outer_norm"] = float(np.sqrt(max(total - inner2, 0.0)))
    out["l310_halving"] = halving
    inner_perp = ctx.inner_with(fd_perp)
    out["l310_ortho_residual"] = max(abs(inner_perp(basis.node_field(i)))
                                     for i in range(1, 9))
    return out


# ---------------------------------------------------------------------------
# the lemma reports


def _col(points, key):
    return [pt[key] for pt in points]


def lemma57_report(points) -> EstimateReport:
    """Norm scalings and near-orthogonality of the eight parameter derivatives."""
    eps = _col(points, "eps")
    rows = []
    windows = {"p": (-1.6, -1.4), "xi": (-1.1, -0.9), "lam": (-1.6, -1.4)}
    expos = {"p": -1.5, "xi": -1.0, "lam": -1.5}
    for d in DIRECTIONS:
        fam = "p" if d.startswith("p") else ("xi" if d.startswith("xi") else "lam")
        rows.append(_row_slope_window(f"norm_{d}", eps, _col(points, f"norm_{d}"),
                                      expos[fam], windows[fam]))
    for name, _i, _j, expo in _PAIRS_57:
        rows.append(_row_bounded(name, eps,
                                 [abs(v) for v in _col(points, name)], expo,
                                 scales=_col(points, name + "_scale")))
    return EstimateReport("5.7", rows)


def lemma58_report(points) -> EstimateReport:
    """Orthonormality and coefficient scalings of the ball basis."""
    eps = _col(points, "eps")
    rows = [_row_threshold("ball_gram_residual", eps,
                           _col(points, "ball_gram_residual"), 1e-8)]
    for i, expo in ((1, 1.5), (2, 1.5), (5, 1.0), (8, 1.5)):
        vals = [pt["ball_coeff"][i - 1, i - 1] for pt in points]
        rows.append(_row_band(f"a{i}{i}", eps, vals, expo))
    return EstimateReport("5.8", rows)


def lemma59_report(points) -> EstimateReport:
    """Near-identity of the weighted basis built on the ball vector fields."""
    eps = _col(points, "eps")
    rows = [_row_threshold("w_gram_residual", eps,
                           _col(points, "w_gram_residual"), 1e-8)]
    # the weighted Gram entries are integrals accurate to ~1e-8 absolute, so
    # diagonal gaps below 2e-7 are censored as unmeasurable rather than fitted
    for i in range(1, 9):
        vals = [abs(pt["w_coeff"][i - 1, i - 1] - 1.0) for pt in points]
        rows.append(_row_slope_min(f"b{i}{i}_minus_1", eps, vals, 1.0,
                                   noise=2e-7))
    off = []
    for pt in points:
        C = pt["w_coeff"]
        off.append(float(np.max(np.abs(np.tril(C, -1)))))
    rows.append(_row_bounded("max_offdiag_b", eps, off, 1.0))
    return EstimateReport("5.9", rows)


def lemma36_report(points) -> EstimateReport:
    """Gap between the ball basis fields and the extension's counterparts."""
    eps = _col(points, "eps")
    rows = []
    for i in range(1, 9):
        expo = 1.5 if i <= 4 else 1.0
        rows.append(_row_bounded(f"basis_diff_{i}", eps,
                                 _col(points, f"basis_diff_{i}"), expo))
    return EstimateReport("3.6", rows)


def lemma37_report(points, n_test: int = 32) -> EstimateReport:
    """Sampled dual norms of the Hessian and codifferential differences."""
    eps = _col(points, "eps")
    rows = []
    for tag in ("i1", "i5"):
        rows.append(_row_bounded(f"hess_dual_{tag}", eps,
                                 _col(points, f"hess_dual_{tag}"), 1.5))
        rows.append(_row_bounded(f"codiff_dual_{tag}", eps,
                                 _col(points, f"codiff_dual_{tag}"), 1.5))
    rows.append(_row_threshold("five_term_residual", eps,
                               _col(points, "five_term_residual"), 1e-8))
    return EstimateReport("3.7", rows, meta={"n_test": n_test})


def lemma310_report(points) -> EstimateReport:
    """Perpendicular part of the basis derivative along its own vector field."""
    eps = _col(points, "eps")
    fd = _col(points, "l310_fd_norm")
    an = _col(points, "l310_an_norm")
    rows = [_row_slope_min("fd_perp_norm", eps, fd, 1.0, min_slope=0.8)]
    agree = [abs(f - a) / max(a, 1e-300) for f, a in zip(fd, an)]
    rows.append(_row_threshold("path_agreement", eps, agree, 0.05,
                               note="relative gap analytic vs FD"))
    rows.append(_row_bounded("inner_chart_norm", eps,
                             _col(points, "l310_inner_norm"), 1.0))
    rows.append(_row_bounded("outer_chart_norm", eps,
                             _col(points, "l310_outer_norm"), 1.0))
    rows.append(_row_threshold("ortho_residual", eps,
                               _col(points, "l310_ortho_residual"), 1e-8))
    return EstimateReport("3.10", rows)
