"""Energy, charge, the sweep-point metrics, and the scaling-estimate reports.

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .basis import (
    InnerContext,
    _raw_gram,
    _sample_blocks,
    basis_directional_derivative,
    gram_schmidt_ball,
    gram_schmidt_weighted,
    inner_chart_context,
    project_perp,
)
from .forms import (
    DEFAULT_TOL,
    NumericalError,
    ball_rule,
    bracket_wedge_adjoint,
    bracket_wedge_coeffs,
    cdot,
    codiff_coeffs,
    codiff_signs,
    cov_d_coeffs,
    curvature_coeffs,
    d_signs,
    sq_norms,
    star_coeffs,
    weighted_sum,
)
from .instanton import (
    DEFAULT_D,
    DEFAULT_PI2,
    DIRECTIONS,
    ChartedField,
    ParamQ,
    derivative_fields,
    difference_b,
    extended_connection,
    glue,
    glued_connection,
    linear_combination,
    sample_charted,
)

__all__ = [
    "SlopeFit",
    "fit_slope",
    "EstimateReport",
    "QuantityRow",
    "ym_eps",
    "charge",
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


def _r4_curvature(A: ChartedField, eps, tol):
    """The curvature (3,6,N) of A sampled on the R^4 rule polar around A's
    center, and that rule's weights."""
    rule = ball_rule(A.p, A.lam, R=np.inf, tol=tol)
    ((val, jac),) = sample_charted([A], rule.nodes, rule.n_inner)
    return curvature_coeffs(val, jac, eps), rule.weights


def ym_eps(A: ChartedField, eps: float, tol: float = DEFAULT_TOL) -> float:
    """The deformed energy: integral of |dA + (eps/2)[A^A]|^2 (trace pairing).

    Integrates over all of R^4 (graded radial rule with an inversion tail).
    """
    F, w = _r4_curvature(A, eps, tol)
    return weighted_sum(w, 0.5 * cdot(F, F))


def charge(Atilde: ChartedField, eps: float, tol: float = DEFAULT_TOL) -> float:
    """Normalized topological charge of the curvature over R^4.

    charge = (eps^2 / 8 pi^2) * int <F ^ F> with the trace pairing; the sign
    convention makes the extended family carry charge +1.
    """
    F, w = _r4_curvature(Atilde, eps, tol)
    # F ^ F = <F, *F> vol, and the trace pairing is half the coefficient dot
    dens = 0.5 * cdot(F, star_coeffs(2, F))
    return eps ** 2 / (8.0 * np.pi ** 2) * weighted_sum(w, dens)


# ---------------------------------------------------------------------------
# test fields


def _bump_channels(X, center, scale):
    """The five scalar channels (phi, d_0 phi, ..., d_3 phi) of the bump
    phi = (1 - |x-c|^2/s^2)^3 at nodes X inside its ball, as (5, len(X));
    outside the ball all five vanish (the profile is C^2 there)."""
    Y = np.subtract(X.T, center[:, None], order="C")
    u = 1.0 - sq_norms(Y) / scale ** 2
    out = np.empty((5, len(X)))
    out[0] = u ** 3
    np.multiply(-6.0 / scale ** 2 * u ** 2, Y, out=out[1:])
    return out


def _shape_gram(ctx: InnerContext, center, scale):
    """The rows of ctx.rule inside the bump's ball (center, scale), and the
    12 x 12 covariant H^1 Gram N (ctx unweighted) of the probes C phi of
    that shape: |C phi|^2 = c^T N c with c = C.ravel().

    phi and its gradient are 0 on every other node, so N is summed over the
    rows only, in closed form: with grad_A beta = C (x) grad phi +
    eps phi [A, C] and <C_mu, [A_nu, C_mu]> = 0, the density of |beta|^2 is
    |C|^2 (|grad phi|^2 + phi^2) + eps^2 phi^2 (|A|^2 |C|^2 - tr(C^T A A^T C)),
    so N = (m + eps^2 tr B) I_12 - eps^2 B (x) I_4 with m = sum w |(phi,
    grad phi)|^2 and B = sum w phi^2 A A^T (3 x 3), both summed without
    BLAS, so that their bits do not depend on the thread count.
    """
    X, w = ctx.rule.nodes, ctx.rule.weights
    Y = np.subtract(X.T, center[:, None], order="C")
    rows = np.flatnonzero(1.0 - sq_norms(Y) / scale ** 2 > 0)
    phi, wr, Ar = (_bump_channels(X[rows], center, scale), w[rows],
                   ctx.Aval[..., rows])
    m = weighted_sum(wr, np.einsum("cn,cn->n", phi, phi, optimize=False))
    B = np.einsum("amn,bmn,n->ab", Ar, Ar, wr * phi[0] ** 2, optimize=False)
    eps2 = ctx.eps ** 2
    return rows, ((m + eps2 * np.trace(B)) * np.eye(12)
                  - eps2 * np.kron(B, np.eye(4)))


def test_field_family(q: ParamQ, ctx: InnerContext, n: int, seed: int):
    """n seeded bump probes C phi at scales {lam/4, lam, 1}, unit norm in ctx,
    grouped by shape (center, scale).

    Each shape is returned as (rows, center, scale, coeffs), in the order of
    its first accepted probe: rows and its Gram N come from _shape_gram, and
    coeffs (k, 3, 4) holds the shape's accepted C in draw order, each scaled
    to c^T N c = 1.  A draw with c^T N c <= 1e-20 (a bump covering no node)
    is rejected and the next one drawn.
    """
    rng = np.random.default_rng(seed)
    scales = [q.lam / 4.0, q.lam, 1.0]
    grams, shapes = {}, {}
    k = accepted = 0
    while accepted < n:
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
        key = (center.tobytes(), sc)
        if key not in grams:        # the full-ball probes share one
            grams[key] = _shape_gram(ctx, center, sc)
        rows, N = grams[key]
        nrm2 = C.reshape(12) @ N @ C.reshape(12)
        if nrm2 <= 1e-20:
            continue
        shapes.setdefault(key, (rows, center, sc, []))[3].append(
            C / np.sqrt(nrm2))
        accepted += 1
    return [(rows, center, sc, np.array(coeffs))
            for rows, center, sc, coeffs in shapes.values()]


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

    def passed(self) -> bool:
        return all(r.verdict in ("pass", "exact") for r in self.rows)


# the verdict bounds: a fit's RMS log residual, the least decay rate of a
# slope-min row and the level below which all its values count as exact, a
# bounded row's max/min ratio and its null level relative to its scales, and
# a band row's allowed spread
_RESIDUAL_MAX = 0.1
_MIN_SLOPE = 0.8
_EXACT_FLOOR = 1e-10
_MAX_RATIO = 10.0
_NULL_REL = 1e-8
_BAND = 3.0


def _row_slope_window(name, eps, vals, expo, window) -> QuantityRow:
    fit = fit_slope(list(zip(eps, vals)))
    ok = window[0] <= fit.slope <= window[1] and fit.residual < _RESIDUAL_MAX
    return QuantityRow(name, list(eps), list(vals), expo, "slope-window",
                       fit.slope, fit.residual, "pass" if ok else "fail",
                       f"window [{window[0]}, {window[1]}]")


def _row_slope_min(name, eps, vals, expo, noise=None) -> QuantityRow:
    """Decay-rate verdict; noise censors points below the measurement floor.

    A quantity that dives under the quadrature noise floor mid-sweep cannot
    be fitted through the noise plateau; the fit then runs on the measurable
    prefix and the censored points are recorded in the note.
    """
    vals = [abs(v) for v in vals]
    if max(vals) < _EXACT_FLOOR:
        return QuantityRow(name, list(eps), vals, expo, "slope-min",
                           None, None, "exact", f"all below {_EXACT_FLOOR:g}")
    pairs = list(zip(eps, vals))
    note = f"slope >= {_MIN_SLOPE}"
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
    ok = fit.slope >= _MIN_SLOPE and fit.residual < _RESIDUAL_MAX
    return QuantityRow(name, list(eps), vals, expo, "slope-min",
                       fit.slope, fit.residual, "pass" if ok else "fail",
                       note)


def _row_bounded(name, eps, vals, expo, scales=None) -> QuantityRow:
    """Boundedness verdict on the ratios r_k = |value_k| / eps_k^expo.

    Passes when, checked in this order, every value is null within
    precision (|value| <= _NULL_REL * scale, scales given), or every ratio
    is positive and max/min <= _MAX_RATIO, or the ratios are non-increasing
    (5% slack) as eps decreases; otherwise fails.  That is a spread test
    with a monotone escape, not a one-sided bound: a sequence that stays
    below its first ratio can fail.  A resolved pairing that changes sign
    mid-sweep does, as its |value| dips towards 0 and grows again: 5.7
    pair_p1_p2 at p = (0.1, -0.08, 0.05, 0.12), g = exp(0.3, -0.4, 0.2),
    D = 1 on the six default eps reads max/min 408 and fails.
    """
    eps = list(eps)
    vals = [abs(v) for v in vals]
    ratios = [v / e ** expo for v, e in zip(vals, eps)]
    note = f"ratio to eps^{expo:g}"
    if scales is not None and all(v <= _NULL_REL * s for v, s in zip(vals, scales)):
        return QuantityRow(name, eps, vals, expo, "bounded", None, None,
                           "pass", note + "; null within precision")
    pos = [r for r in ratios if r > 0]
    if pos and max(pos) / min(pos) <= _MAX_RATIO and len(pos) == len(ratios):
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


def _row_band(name, eps, vals, expo) -> QuantityRow:
    ratios = [v / e ** expo for v, e in zip(vals, eps)]
    lo, hi = min(ratios), max(ratios)
    # a ratio at or below 0 has no finite spread and fails the band
    spread = hi / lo if lo > 0 else float("inf")
    return QuantityRow(name, list(eps), list(vals), expo, "band", None, None,
                       "pass" if spread <= _BAND else "fail",
                       f"eps^{expo:g}-normalized spread "
                       f"{spread:.3g} (allowed {_BAND:g})")


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


_POINT_BLOCKS = ("weighted", "l36", "l37", "l310")


def sweep_points(eps_list, D=DEFAULT_D):
    """ParamQ points for a sweep: lam = sqrt(D * eps)."""
    return [ParamQ.default(e, D=D) for e in eps_list]


def compute_point_metrics(q: ParamQ, pi2: str = DEFAULT_PI2, tol: float = DEFAULT_TOL,
                          seed: int = 0, n_test: int = 32, blocks=frozenset()) -> dict:
    """All scalar diagnostics of one sweep point needed by the reports.

    The ball basis is always computed; blocks names the expensive parts
    beyond it, "weighted", "l36", "l37" and "l310" (another name raises
    ValueError).  Each block samples the fields it pairs block by block,
    so no block holds a full-rule sample.
    """
    unknown = sorted(set(blocks) - set(_POINT_BLOCKS))
    if unknown:
        raise ValueError(f"unknown metric blocks {unknown}; "
                         f"choose from {_POINT_BLOCKS}")
    out = {"eps": q.eps}
    basis = gram_schmidt_ball(q, pi2, tol=tol)
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
        # A = Atilde - b on the term lists, so a_i - atilde_i is
        # -sum_j c_ij db/dq_j and its squared norm is (C G_b C^T)_ii
        db = derivative_fields(difference_b(q, pi2=pi2))
        gaps = np.diag(basis.coeff @ _raw_gram(ctx, db) @ basis.coeff.T)
        for i in range(8):
            out[f"basis_diff_{i+1}"] = float(np.sqrt(max(gaps[i], 0.0)))

    if "l37" in blocks:
        out.update(_hessian_difference_metrics(q, pi2, basis, ctx,
                                               seed=seed, n_test=n_test))

    if "l310" in blocks:
        out.update(_perp_derivative_metrics(q, pi2, basis, ctx))

    return out


def _dphi_map() -> np.ndarray:
    """The constant (228, 48) map from the d phi rows of a probe's pairing
    with a representer to the 12-vectors of its four functionals.

    Row (mu, c) takes d_mu phi times entry c of the d phi block that follows
    a representer's 48 phi rows: three 2-forms X, paired with d beta, then
    the 0-form y, paired with delta beta (57 rows).  With d_nu beta_src =
    C_src d_nu phi, each sign S[T, nu, src] of d (resp. delta) on 1-forms
    puts S X_T (resp. S y) on C_src d_nu phi.
    """
    signs = [d_signs(1)] * 3 + [codiff_signs(1)]
    cols = [(f, a, S_T) for f, fs in enumerate(signs) for a in range(3)
            for S_T in fs]
    S = np.zeros((4, len(cols), len(signs), 3, 4))
    for col, (f, a, S_T) in enumerate(cols):
        S[:, col, f, a] = S_T
    return S.reshape(4 * len(cols), -1)


_DPHI_MAP = _dphi_map()


def _shape_functionals(G) -> np.ndarray:
    """The (S, 4, 12) pairings of S shapes' unit coefficients with a
    representer, from the product G (5S, rows) of their stacked weighted
    channels W with it, W @ Rt.T summed over the nodes:
    L = sum w (V phi + P^mu d_mu phi)."""
    n_phi = _DPHI_MAP.shape[1]
    G = G.reshape(len(G) // 5, 5, -1)
    L = G[:, 0, :n_phi] + G[:, 1:, n_phi:].reshape(len(G), -1) @ _DPHI_MAP
    return L.reshape(len(G), -1, 12)


def _representer(eps, A_, At_, b_, FA, FAt, Fb, val, jac, Rt):
    """Write into Rt (rows, m) the representer of the basis field a with
    samples (val, jac) on m nodes, given A, Atilde, b and the curvatures
    F_A, F_At and Fb = d_A b + (eps/2) [b ^ b] there.

    Rt holds, per node (its last axis), the probe-independent coefficients
    of four functionals of a probe beta: HA, HAt, the five-term expansion
    t1 + ... + t5 of HAt - HA and the two-term expansion of cAt - cA, where
    c = <delta a, delta beta>.  First come their phi-coefficients V (4,3,4),
    then the d phi block of _dphi_map: the 2-forms d_A a, d_At a, eps [b ^ a]
    paired with d beta, and the 0-form y_2 paired with delta beta.  The
    bracket parts are pointwise adjoints: <X, [Y ^ beta]> =
    <adjoint(Y, X), beta> for a 2-form X, and the bracket of delta_A beta
    pairs with a 0-form y as <eps [A ^ y], beta>.  The connection enters
    delta only through that bracket, bilinearly, and At - A = b, so
    delta_At a - delta_A a = y_2 = eps adjoint(b, a) node by node and
    cAt - cA = <y_2, delta_At beta> + <delta_A a, eps adjoint(b, beta)>:
    neither expansion is a difference of nearly equal pairings.  Every
    entry is computed node by node, so none depends on how the nodes are
    blocked.
    """
    n_phi, m = _DPHI_MAP.shape[1], Rt.shape[1]
    V = Rt[:n_phi].reshape(-1, 3, 4, m)
    X = Rt[n_phi:-3].reshape(3, 3, 6, m)
    y2 = Rt[-3:].reshape(3, 1, m)
    # HA: <d_A a, eps [A ^ beta]> + eps <F_A, [a ^ beta]>, HAt alike
    for k, Ct, F in ((0, A_, FA), (1, At_, FAt)):
        X[k] = cov_d_coeffs(1, Ct, val, jac, eps)
        V[k] = eps * (bracket_wedge_adjoint(1, Ct, X[k])
                      + bracket_wedge_adjoint(1, val, F))
    X[2] = eps * bracket_wedge_coeffs(1, b_, val)
    y2[...] = eps * bracket_wedge_adjoint(0, b_, val)
    # t1 + t3 = eps <d_A a + eps [b ^ a], [b ^ beta]>, t2's bracket
    # eps <eps [b ^ a], [A ^ beta]>, then t4 + t5 = eps <Fb, [a ^ beta]>
    V[2] = eps * (bracket_wedge_adjoint(1, b_, X[0] + X[2])
                  + bracket_wedge_adjoint(1, A_, X[2])
                  + bracket_wedge_adjoint(1, val, Fb))
    # the brackets of <y_2, delta_At beta> and <y_0, eps adj(b, beta)>
    y0 = codiff_coeffs(1, A_, val, jac, eps)        # delta_A a
    V[3] = eps * (bracket_wedge_coeffs(0, At_, y2)
                  + bracket_wedge_coeffs(0, b_, y0))


def _hessian_difference_metrics(q, pi2, basis, ctx, seed, n_test):
    """Sampled dual norms of H_A - H_Atilde and delta_A - delta_Atilde.

    A probe beta = C phi enters every pairing only through its bump's five
    channels (phi, grad phi), which vanish outside its ball, so each tag's
    representer (_representer) pairs with every probe linearly in C.  One
    loop over node blocks samples A, Atilde, b and the tag fields a_1 (i1)
    and a_5 (i5), folded into term lists, puts every shape's weighted
    channels into five rows of one W, and adds W @ Rt.T to each tag's
    (5S, rows) sum, every representer Rt written into one buffer and checked
    on every node.  Each shape's pairings L (4, 12) with the unit
    coefficients are read off the sums, and its probes' as coeffs @ L.T.
    hess_dual and codiff_dual are read from the five- and two-term
    expansions; the direct difference HAt - HA gives five_term_residual.
    """
    eps, nodes, weights = q.eps, ctx.rule.nodes, ctx.rule.weights
    shapes = test_field_family(q, ctx, n_test, seed)
    # A = Atilde - b holds Atilde's and b's atom objects, and so do the f_j
    # derived from A and their combinations, so one pass per block samples
    # all five fields with each atom channel evaluated once; C is lower
    # triangular, so a_1 and a_5 need only f_1..f_5
    At, b = extended_connection(q), difference_b(q, pi2=pi2)
    A = glue(At, b)
    raw = derivative_fields(A, DIRECTIONS[:5])
    tags = {tag: linear_combination(raw, basis.coeff[i, :5])
            for tag, i in (("i1", 0), ("i5", 4))}
    n_dphi, n_phi = _DPHI_MAP.shape
    W = R = None
    G = dict.fromkeys(tags, 0.0)
    for a, ((A_, jA), (At_, jAt), (b_, jb), *samples) in _sample_blocks(
            ctx, [A, At, b, *tags.values()]):
        m = A_.shape[-1]
        if W is None:       # the first block is the largest
            W = np.empty((5 * len(shapes), m))
            R = np.empty((n_phi + n_dphi // 4, m))
        Wb, Rt = W[:, :m], R[:, :m]
        Wb.fill(0.0)
        for j, (rows, center, scale, _) in enumerate(shapes):
            s = rows[slice(*np.searchsorted(rows, (a, a + m)))]
            Wb[5 * j:5 * j + 5, s - a] = (
                _bump_channels(nodes[s], center, scale) * weights[s])
        FA = curvature_coeffs(A_, jA, eps)
        FAt = curvature_coeffs(At_, jAt, eps)
        Fb = (cov_d_coeffs(1, A_, b_, jb, eps)
              + 0.5 * eps * bracket_wedge_coeffs(1, b_, b_))
        for tag, (val, jac) in zip(tags, samples):
            _representer(eps, A_, At_, b_, FA, FAt, Fb, val, jac, Rt)
            # outside a probe's support a non-finite entry would still
            # poison the full-rule integrals, so every node is checked
            if not np.all(np.isfinite(Rt)):
                raise NumericalError(
                    f"non-finite integrand in the l37 pairings ({tag})")
            G[tag] += Wb @ Rt.T
        del FA, FAt, Fb     # not held while the next block is sampled
    out, five_term_resid = {}, 0.0
    for tag, Gt in G.items():
        # the probes in shape order: only maxima over them are reported
        P = np.concatenate([coeffs.reshape(-1, 12) @ L.T for (*_, coeffs), L
                            in zip(shapes, _shape_functionals(Gt))])
        HA, HAt, expansion, codiff = P.T
        five_term_resid = max(five_term_resid, np.max(
            np.abs(HAt - HA - expansion)
            / np.maximum(np.maximum(np.abs(HA), np.abs(HAt)), 1.0)))
        out[f"hess_dual_{tag}"] = np.max(np.abs(expansion))
        out[f"codiff_dual_{tag}"] = np.max(np.abs(codiff))
    out["five_term_residual"] = five_term_resid
    return out


def _perp_derivative_metrics(q, pi2, basis, ctx):
    """The FD and analytic derivatives of a_1 along q_1, projected off
    span{a_i}, read off one streamed Gram H of the fields [rich - d2, rich,
    d2A, f_1..f_8] (the FD fields folded on the base C, d2A and the f_j
    from one A, sharing its atoms): with M the projection rows, the norms
    are read from M H M^T and the FD one's pairings with the a_i from
    C (M H).  Its inner-chart norm is the one-field Gram, on the inner
    chart's nodes alone, of its projection folded into one term list.

    With C fixed, perp(d_{q_1} a_1) = a11^2 perp(d2A) exactly, so the
    "analytic" norm is the exact perpendicular derivative and the FD checks
    the differences of the raw fields against the second-derivative term
    lists."""
    out = {}
    a11 = float(basis.coeff[0, 0])
    fd = basis_directional_derivative(q, 1, 1, basis, pi2=pi2)
    raw = derivative_fields(glued_connection(q, pi2=pi2))
    fields = [*fd, *derivative_fields(raw[0], ("p1",)), *raw]
    H = _raw_gram(ctx, fields)
    M = project_perp(H[1:, 1:], 2, basis)
    MH = M @ H[1:, 1:]
    P = MH @ M.T
    total = max(P[0, 0], 0.0)
    inner2 = _raw_gram(inner_chart_context(ctx),
                       [linear_combination(fields[1:], M[0])])[0, 0]
    out["l310_fd_norm"] = float(np.sqrt(total))
    out["l310_an_norm"] = a11 ** 2 * float(np.sqrt(max(P[1, 1], 0.0)))
    out["l310_inner_norm"] = float(np.sqrt(max(inner2, 0.0)))
    out["l310_outer_norm"] = float(np.sqrt(max(total - inner2, 0.0)))
    out["l310_halving"] = float(np.sqrt(max(H[0, 0], 0.0))
                                / np.sqrt(max(H[1, 1], 1e-300)))
    out["l310_ortho_residual"] = float(np.max(np.abs(basis.coeff @ MH[0, 2:])))
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


def lemma37_report(points) -> EstimateReport:
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
    return EstimateReport("3.7", rows)


def lemma310_report(points) -> EstimateReport:
    """Perpendicular part of the basis derivative along its own vector field."""
    eps = _col(points, "eps")
    fd = _col(points, "l310_fd_norm")
    an = _col(points, "l310_an_norm")
    rows = [_row_slope_min("fd_perp_norm", eps, fd, 1.0)]
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
