"""Exterior calculus for su(2)-valued forms on flat R^4, plus quadrature.

Array conventions (fields sampled on a rule's N nodes):
  * points           X    -> (N, 4) float64
  * k-form values    val  -> (3, C, N)        C = C(4,k), increasing multi-index order
  * first derivs     jac  -> (3, C, 4, N)     axis 2 = d/dx_nu

Every sampled array is node-last: its last axis runs over the nodes, so each
kernel below works in passes over contiguous rows of length N.  The algebra
axis (first, length 3) carries coefficients on the basis (e1,e2,e3) of
su(2); the pointwise bracket in that basis is the cross product.  The
component axis (second) carries the multi-index.  Orientation is fixed by
dx0^dx1^dx2^dx3 = vol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

__all__ = [
    "MULTI_INDEX",
    "COMP_INDEX",
    "QuadratureRule",
    "QuadratureError",
    "NumericalError",
    "cdot",
    "star_coeffs",
    "bracket_wedge_coeffs",
    "bracket_wedge_adjoint",
    "d_coeffs",
    "d_signs",
    "codiff_signs",
    "cov_d_coeffs",
    "codiff_coeffs",
    "curvature_coeffs",
    "cov_grad_coeffs",
    "sq_norms",
    "ball_rule",
    "domain_ball_rule",
    "weighted_r4_rule",
    "weight_fn",
    "integrate",
    "weighted_sum",
]


# ---------------------------------------------------------------------------
# multi-index tables

MULTI_INDEX = {k: [tuple(c) for c in combinations(range(4), k)] for k in range(5)}
COMP_INDEX = {k: {c: i for i, c in enumerate(MULTI_INDEX[k])} for k in range(5)}
N_COMP = {k: len(MULTI_INDEX[k]) for k in range(5)}


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _build_star_table(k):
    table = []
    for I in MULTI_INDEX[k]:
        Ic = tuple(sorted(set(range(4)) - set(I)))
        table.append((_perm_sign(I + Ic), COMP_INDEX[4 - k][Ic]))
    return table

STAR_TABLE = {k: _build_star_table(k) for k in range(5)}


def _build_antisym_table(k):
    """For degree k -> k+1: entries per target component: (sign, nu, src)."""
    table = []
    for K in MULTI_INDEX[k + 1]:
        entries = []
        for j, nu in enumerate(K):
            src = tuple(i for i in K if i != nu)
            entries.append(((-1) ** j, nu, COMP_INDEX[k][src]))
        table.append(entries)
    return table

ANTISYM_TABLE = {k: _build_antisym_table(k) for k in range(4)}


def _build_codiff_table(k):
    """For degree k -> k-1: entries per target J: (sign, j, src), j not in J.

    sign is minus the sign of sorting (j, J) into the source multi-index, so
    (delta w)_J = sum sign * (d_j w_src + eps [A_j, w_src]).
    """
    table = []
    for J in MULTI_INDEX[k - 1]:
        entries = []
        for j in sorted(set(range(4)) - set(J)):
            src = tuple(sorted((j,) + J))
            entries.append((-(-1) ** sum(i < j for i in J), j, COMP_INDEX[k][src]))
        table.append(entries)
    return table

CODIFF_TABLE = {k: _build_codiff_table(k) for k in range(1, 5)}


# ---------------------------------------------------------------------------
# Hodge star


def star_coeffs(degree: int, vals: np.ndarray) -> np.ndarray:
    """Hodge star on the component axis: (3, C_k, ...) -> (3, C_{4-k}, ...).

    Orientation dx0^dx1^dx2^dx3 = vol, so ** = (-1)^{k(4-k)}.
    """
    out = np.empty((vals.shape[0], N_COMP[4 - degree]) + vals.shape[2:],
                   dtype=vals.dtype)
    for src, (sign, tgt) in enumerate(STAR_TABLE[degree]):
        out[:, tgt] = sign * vals[:, src]
    return out


# ---------------------------------------------------------------------------
# array kernels: pointwise operations on sampled (val, jac) coefficient arrays
#
# A k-form sampled at N nodes is val (3,C_k,N) with jac (3,C_k,4,N); a
# connection enters by its values Aval (3,4,N).  Each kernel accepts strided
# views, such as a block of nodes [..., a:b], and returns a C-contiguous
# array.


def cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient dot product density (N,): twice the trace pairing."""
    return np.einsum("acn,acn->n", a, b, optimize=False)


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _bracket_contract(table, A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out_T = sum sign * [a_nu, w_src] over each target's (sign, nu, src) entries.

    A (3,4,N), w (3,C,N) -> out (3,T,N).  The cross product is written out
    component by component, so every product runs over all nodes in one
    pass.  Swapping the factors of a component negates it exactly, so each
    term rounds as sign * np.cross(a_nu, w_src) does, and the result is
    bit-identical to accumulating those cross products entry by entry.
    """
    N = A.shape[-1]
    out = np.empty((3, len(table), N))
    cr, tmp = np.empty(N), np.empty(N)
    for tgt, entries in enumerate(table):
        for a, b, c in _CYCLIC:
            acc = out[a, tgt]
            for j, (sign, nu, src) in enumerate(entries):
                p, m = (b, c) if sign > 0 else (c, b)
                dst = cr if j else acc
                np.multiply(A[p, nu], w[m, src], out=dst)
                np.multiply(A[m, nu], w[p, src], out=tmp)
                dst -= tmp
                if j:
                    acc += cr
    return out


def _d_contract(table, jac: np.ndarray) -> np.ndarray:
    """out_T = sum sign * d_nu w_src over each target's (sign, nu, src) entries.

    jac (3,C,4,N) -> (3,T,N); each term is one pass over contiguous rows.
    """
    out = np.empty((3, len(table), jac.shape[-1]))
    for tgt, entries in enumerate(table):
        acc = out[:, tgt]
        for j, (sign, nu, src) in enumerate(entries):
            if j == 0:
                np.multiply(jac[:, src, nu], sign, out=acc)
            elif sign > 0:
                acc += jac[:, src, nu]
            else:
                acc -= jac[:, src, nu]
    return out


def bracket_wedge_coeffs(degree: int, Aval: np.ndarray, w: np.ndarray) -> np.ndarray:
    """[A ^ w] for a 1-form A and k-form w, k = degree: (3,C_{k+1},N).

    ([A^w])_K = sum_j (-1)^j [A_{K_j}, w_{K minus K_j}], algebra bracket = cross.
    """
    return _bracket_contract(ANTISYM_TABLE[degree], Aval, w)


def bracket_wedge_adjoint(degree: int, Aval: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pointwise adjoint of w -> [A ^ w] on k-forms, k = degree.

    <x, [A ^ w]> = <bracket_wedge_adjoint(k, A, x), w> node by node, for a
    (k+1)-form x (3,C_{k+1},N) -> (3,C_k,N).
    """
    return _bracket_contract(CODIFF_TABLE[degree + 1], Aval, x)


def d_coeffs(degree: int, jac: np.ndarray) -> np.ndarray:
    """(dw)_K = sum_j (-1)^j d_{K_j} w_{K minus K_j} of a k-form: (3,C_{k+1},N)."""
    return _d_contract(ANTISYM_TABLE[degree], jac)


def cov_d_coeffs(k: int, Aval, val, jac, eps: float) -> np.ndarray:
    """d_A^eps w = dw + eps [A ^ w] of a k-form: (3,C_{k+1},N)."""
    return d_coeffs(k, jac) + eps * bracket_wedge_coeffs(k, Aval, val)


def codiff_coeffs(k: int, Aval, val, jac, eps: float) -> np.ndarray:
    """delta_A^eps w = -* d_A^eps * w of a k-form (k >= 1): (3,C_{k-1},N).

    The formal adjoint of d_A^eps on flat R^4, evaluated as minus the
    covariant divergence: (delta w)_J = -sum_{j not in J} (d_j w_{jJ}
    + eps [A_j, w_{jJ}]), with w_{jJ} the component on dx_j ^ dx_J.
    """
    return (_d_contract(CODIFF_TABLE[k], jac)
            + eps * bracket_wedge_adjoint(k - 1, Aval, val))


def curvature_coeffs(val, jac, eps: float) -> np.ndarray:
    """F = dA + (eps/2)[A ^ A] of a connection given as arrays: (3,6,N)."""
    return d_coeffs(1, jac) + 0.5 * eps * bracket_wedge_coeffs(1, val, val)


def _sign_array(table, n_src: int) -> np.ndarray:
    S = np.zeros((len(table), 4, n_src))
    for tgt, entries in enumerate(table):
        for sign, nu, src in entries:
            S[tgt, nu, src] = sign
    return S


def d_signs(degree: int) -> np.ndarray:
    """d on k-forms as signs S (C_{k+1}, 4, C_k): (dw)_T = sum S[T,nu,src] d_nu w_src."""
    return _sign_array(ANTISYM_TABLE[degree], N_COMP[degree])


def codiff_signs(degree: int) -> np.ndarray:
    """The derivative part of delta on k-forms as signs S (C_{k-1}, 4, C_k):
    (delta w)_J = sum S[J,nu,src] d_nu w_src + bracket terms."""
    return _sign_array(CODIFF_TABLE[degree], N_COMP[degree])


def cov_grad_coeffs(Aval, val, jac, eps: float, out=None) -> np.ndarray:
    """grad_A^eps a of a 1-form: out[a,mu,nu,n] = d_nu a_mu + eps [A_nu, a_mu].

    (3,4,4,N), written into out when given.  The cross product is written
    out component by component, so every product runs over all nodes in
    one pass.
    """
    At = eps * Aval                                    # [b,nu,n]
    out = np.empty(jac.shape) if out is None else out
    for a, b, c in _CYCLIC:
        np.multiply(At[b], val[c][:, None], out=out[a])    # [mu,nu,n]
        out[a] -= At[c] * val[b][:, None]
    out += jac
    return out


def sq_norms(Y: np.ndarray) -> np.ndarray:
    """|y|^2 of each row of an (N, 4) batch, (N,).

    Summed column by column in the order np.sum(Y * Y, axis=1) uses on four
    columns, so the two agree bit for bit; the column sum skips the (N, 4)
    product array and the reduction's per-row overhead.
    """
    s = Y[:, 0] * Y[:, 0]
    for e in (1, 2, 3):
        s += Y[:, e] * Y[:, e]
    return s


# ---------------------------------------------------------------------------
# quadrature


class QuadratureError(RuntimeError):
    """Rule construction could not meet the requested tolerance."""


class NumericalError(RuntimeError):
    """Non-finite value met during integration."""


@dataclass
class QuadratureRule:
    """Weighted nodes for a polar rule centered at `center`.

    weights include the r^3 polar Jacobian: integrate(f) = sum w_i f(node_i).
    r holds |node - center|.  The inner chart r < lam/4 is the node range
    [:n_inner]: a polar rule lists its radii outward and lam/4 is a panel
    edge, so a node order with an inner node after an outer one raises
    ValueError.
    """

    nodes: np.ndarray
    weights: np.ndarray
    center: np.ndarray
    lam: float
    region: str
    r: np.ndarray = None
    self_check_error: float = 0.0
    n_inner: int = field(init=False)

    def __post_init__(self):
        if self.r is None:
            self.r = np.linalg.norm(self.nodes - self.center, axis=1)
        inner = self.r < self.lam / 4.0
        self.n_inner = int(np.count_nonzero(inner))
        if not inner[:self.n_inner].all():
            raise ValueError("a rule lists its inner-chart nodes first")

    def __len__(self):
        return self.nodes.shape[0]


def s3_nodes(n: int):
    """Product angular rule on S^3, exact for spherical polynomials of degree <= 2n-1.

    cos(psi): Gauss-Chebyshev 2nd kind (weight sqrt(1-u^2));
    cos(theta): Gauss-Legendre; phi: uniform with 2n points.
    Returns (directions (M,4), weights (M,)), weights summing to 2 pi^2.
    """
    k = np.arange(1, n + 1)
    u = np.cos(k * np.pi / (n + 1))
    wu = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
    v, wv = np.polynomial.legendre.leggauss(n)
    m = 2 * n
    phi = (np.arange(m) + 0.5) * (2 * np.pi / m)
    wphi = np.full(m, 2 * np.pi / m)

    U, V, P = np.meshgrid(u, v, phi, indexing="ij")
    WU, WV, WP = np.meshgrid(wu, wv, wphi, indexing="ij")
    su = np.sqrt(1 - U ** 2)
    sv = np.sqrt(1 - V ** 2)
    dirs = np.stack(
        [U, su * V, su * sv * np.cos(P), su * sv * np.sin(P)], axis=-1
    ).reshape(-1, 4)
    w = (WU * WV * WP).reshape(-1)
    return dirs, w


def _radial_breaks(lam: float, R: float):
    """Graded radial panel edges from 0 to R resolving the cutoff scales."""
    pts = [0.0, lam / 8, lam / 4, lam / 2, lam, 2 * lam]
    r = 4 * lam
    while r < R:
        pts.append(r)
        r *= 2
    pts.extend(b for b in (0.5, 1.0) if 0 < b < R)
    pts.append(R)
    pts = sorted(set(b for b in pts if b <= R + 1e-15))
    # drop panels thinner than 1e-12 (duplicate breaks)
    out = [pts[0]]
    for b in pts[1:]:
        if b - out[-1] > 1e-12:
            out.append(b)
    return out


def _gauss_panel(a, b, order: int):
    """Gauss-Legendre radii on [a, b] with weights carrying r^3; an edge given
    per direction, shape (M,), gives (order, M) arrays."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    if np.ndim(a) or np.ndim(b):
        xg, wg = xg[:, None], wg[:, None]
    mid, half = (a + b) / 2, (b - a) / 2
    r = mid + half * xg
    return r, half * wg * r ** 3


def _tail_nodes(R0: float, order: int):
    """Inversion tail for [R0, inf): r = 1/t, r^3 dr = t^-5 dt on (0, 1/R0]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    half = 0.5 / R0               # t runs over (0, 1/R0]: its midpoint is half
    t = half + half * xg
    return 1.0 / t, half * wg * t ** -5.0


def _boundary_along(p, dirs):
    """Distance from p to the unit sphere along each direction."""
    pd = dirs @ p
    return -pd + np.sqrt(np.maximum(1 - p @ p + pd ** 2, 0.0))


def _radial_pieces(p, lam: float, region: str, R, dirs, n_rad: int):
    """The radial pieces (r, w_r) of a polar rule around p, listed outward:
    (K,) when every direction shares the radii, (K, M) when they run per direction.

    "ball": B_R(p), or for R None the unit ball B^4, whose last panel ends on
    the unit sphere per direction unless p = 0; "r4": R^4, with an inversion
    tail beyond max(8, 64 lam); "weighted-r4": the B^4 pieces, then [|x| = 1, 2],
    [2, 4], [4, 8] and the inversion tail beyond 8.
    """
    def panels(R0):
        edges = _radial_breaks(lam, R0)
        return [_gauss_panel(a, b, n_rad) for a, b in zip(edges[:-1], edges[1:])]

    if region == "r4":
        R0 = max(8.0, 64.0 * lam)
        return panels(R0) + [_tail_nodes(R0, n_rad)]
    if R is not None:
        return panels(R)
    Rb = _boundary_along(p, dirs)
    if not p.any():
        pieces = panels(1.0)
    else:
        r_last = float(Rb.min()) * 0.999
        pieces = panels(r_last) + [_gauss_panel(r_last, Rb, n_rad)]
    if region == "weighted-r4":
        pieces += [_gauss_panel(Rb, 2.0, n_rad), _gauss_panel(2.0, 4.0, n_rad),
                   _gauss_panel(4.0, 8.0, n_rad), _tail_nodes(8.0, n_rad)]
    return pieces


_CHECK_CACHE: dict = {}


def _polar_rule(p, lam: float, region: str, R=None, tol: float = None,
                n_ang: int = 6, n_rad: int = 10) -> QuadratureRule:
    """Nodes p + r u and weights w_r w_u over the S^3 rule u and the radial
    pieces, radius-major within each piece; R None is the unit ball (|p| <= 0.4).

    With a tol, one refinement doubling (n_ang + 2, 2 n_rad) must move the
    integral of the canonical peaked density by at most tol, else
    QuadratureError.  A weighted-r4 rule checks only its unit-ball part, the
    B^4 rule of the same p and lam, and reports that part's error.
    """
    p = np.asarray(p, dtype=float)
    if R is None:
        if np.linalg.norm(p) > 0.4:
            raise ValueError("domain_ball_rule expects |p| <= 0.4")
        p = np.zeros(4) if np.linalg.norm(p) < 1e-14 else p
    dirs, wdirs = s3_nodes(n_ang)
    # every piece broadcast to (K, M), stacked outward
    r, wr = (np.concatenate([np.broadcast_to(x.reshape(len(x), -1), (len(x), len(dirs)))
                             for x in xs])
             for xs in zip(*_radial_pieces(p, lam, region, R, dirs, n_rad)))
    rule = QuadratureRule((p + r[..., None] * dirs).reshape(-1, 4),
                          (wr * wdirs).reshape(-1), p, lam, region)
    if tol is None:
        return rule
    checked = "ball" if region == "weighted-r4" else region
    key = (checked, tuple(np.round(p, 12)), round(lam, 14), R)
    if key not in _CHECK_CACHE:
        def peaked(X):
            return 48 * lam ** 4 / (lam ** 2 + np.sum((X - p) ** 2, axis=1)) ** 4
        base = rule if checked == region else _polar_rule(p, lam, checked, R)
        fine = _polar_rule(p, lam, checked, R, None, n_ang + 2, 2 * n_rad)
        a, b = integrate(base, peaked), integrate(fine, peaked)
        _CHECK_CACHE[key] = abs(a - b) / max(abs(b), 1e-300)
    rule.self_check_error = err = _CHECK_CACHE[key]
    if err > tol:
        raise QuadratureError(f"rule self-check failed: refinement changes "
                              f"integral by {err:.3e} > tol {tol:.1e}")
    return rule


def ball_rule(p, lam: float, R: float, tol: float = 1e-4) -> QuadratureRule:
    """Polar rule on the ball B_R(p) (R = inf gives all of R^4 with a tail).

    Graded radial panels through {lam/8, lam/4, lam/2, lam, 2lam, geometric, 1/2, 1}
    x product S^3 angular rule, self-checked to tol.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if not (R > 0):
        raise ValueError("R must be positive")
    return _polar_rule(p, lam, "r4" if math.isinf(R) else "ball", R, tol)


def domain_ball_rule(p, lam: float, tol: float = 1e-4) -> QuadratureRule:
    """Rule over the unit ball B^4 (centered at the origin), polar around p.

    For p = 0 this is ball_rule(0, lam, 1).  For small |p| != 0 the final panel
    runs, per direction, to the boundary distance along that direction.
    """
    return _polar_rule(p, lam, "ball", None, tol)


def weight_fn(X: np.ndarray) -> np.ndarray:
    """The weighted-product weight: 1 on the closed unit ball, 1/(1+|x|^2)^2 outside."""
    s = np.sum(np.asarray(X, dtype=float) ** 2, axis=-1)
    return np.where(s <= 1.0, 1.0, 1.0 / (1.0 + s) ** 2)


def weighted_r4_rule(p, lam: float, tol: float = 1e-4) -> QuadratureRule:
    """Rule for integrals over R^4 split at the unit sphere (weight jump there).

    Its first nodes are domain_ball_rule's; exterior panels are geometric to
    R_far = 8 with an inversion tail.  Only the unit-ball part is
    self-checked, and its error is the one reported.
    """
    return _polar_rule(p, lam, "weighted-r4", None, tol)


def tail_report(rule: QuadratureRule, vals: np.ndarray) -> dict:
    """Convergence report for the exterior tail of a weighted-r4 rule.

    vals: density values on rule.nodes.  Compares contributions of the two
    outermost geometric shells, |x-p| in [2,4) and [4,8); a density decaying
    like r^{-4} or slower (so the R^4 integral diverges) keeps the shell ratio
    near 1, while anything integrable decays the shells geometrically.  The
    tail beyond 8 is reported as well.
    """
    if rule.region != "weighted-r4":
        raise ValueError("tail_report needs a weighted-r4 rule")
    w = rule.weights
    c1, c2, c3 = (float(np.sum(w[m] * vals[m])) for m in
                  ((rule.r >= 2) & (rule.r < 4), (rule.r >= 4) & (rule.r < 8),
                   rule.r >= 8))
    scale = abs(float(np.sum(w * vals))) + 1e-300
    converged = abs(c2) <= 0.75 * abs(c1) + 1e-13 * scale
    return {
        "tail_converged": bool(converged),
        "shell_ratio": abs(c2) / (abs(c1) + 1e-300),
        "shell_values": (c1, c2),
        "tail_value": c3,
    }


def integrate(rule: QuadratureRule, density) -> float:
    """Deterministic weighted sum of a scalar density over the rule's nodes.

    density: callable on the (N,4) batch of nodes returning (N,) values; a
    result of another shape raises ValueError.  Non-finite values raise
    NumericalError naming the offending node.
    """
    vals = np.asarray(density(rule.nodes), dtype=float)
    if vals.shape != (len(rule),):
        raise ValueError(f"density returned shape {vals.shape}, "
                         f"expected ({len(rule)},)")
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        raise NumericalError(
            f"non-finite density value at node {i}: x={rule.nodes[i]!r}")
    return weighted_sum(rule.weights, vals)


def weighted_sum(weights: np.ndarray, vals: np.ndarray) -> float:
    """sum_i w_i vals_i, e.g. over a rule's nodes; a non-finite sum raises."""
    v = float(np.sum(weights * vals))
    if not math.isfinite(v):
        raise NumericalError("non-finite integral")
    return v
