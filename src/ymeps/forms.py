"""Exterior calculus for su(2)-valued forms on flat R^4, plus quadrature.

Array conventions (fields sampled on a rule's N nodes):
  * points           X    -> (N, 4) float64
  * k-form values    val  -> (N, 3, C)        C = C(4,k), increasing multi-index order
  * first derivs     jac  -> (N, 3, C, 4)     last axis = d/dx_nu

The algebra axis (length 3) carries coefficients on the basis (e1,e2,e3) of
su(2); the pointwise bracket in that basis is the cross product.  Orientation
is fixed by dx0^dx1^dx2^dx3 = vol.
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
    "d_coeffs",
    "cov_d_coeffs",
    "codiff_coeffs",
    "curvature_coeffs",
    "cov_grad_coeffs",
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
    """Hodge star on batched coefficient arrays (..., C_k) -> (..., C_{4-k}).

    Orientation dx0^dx1^dx2^dx3 = vol, so ** = (-1)^{k(4-k)}.
    """
    out = np.empty(vals.shape[:-1] + (N_COMP[4 - degree],), dtype=vals.dtype)
    for src, (sign, tgt) in enumerate(STAR_TABLE[degree]):
        out[..., tgt] = sign * vals[..., src]
    return out


# ---------------------------------------------------------------------------
# array kernels: pointwise operations on sampled (val, jac) coefficient arrays
#
# A k-form sampled at N nodes is val (N,3,C_k) with jac (N,3,C_k,4); a
# connection enters by its values Aval (N,3,4).


def cdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient dot product density (N,): twice the trace pairing."""
    return np.einsum("nac,nac->n", a, b, optimize=False)


_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _bracket_contract(table, a_vals: np.ndarray, w_vals: np.ndarray) -> np.ndarray:
    """out_T = sum sign * [a_nu, w_src] over each target's (sign, nu, src) entries.

    The cross product is written out component by component in a node-last
    layout, so every product runs over all nodes in one pass.  Swapping the
    factors of a component negates it exactly, so each term rounds as
    sign * np.cross(a_nu, w_src) does, and the result is bit-identical to
    accumulating those cross products entry by entry.
    """
    N = a_vals.shape[0]
    At = np.ascontiguousarray(a_vals.transpose(1, 2, 0))   # [b,nu,n]
    wt = np.ascontiguousarray(w_vals.transpose(1, 2, 0))   # [c,src,n]
    out = np.empty((3, len(table), N))
    cr, tmp = np.empty(N), np.empty(N)
    for tgt, entries in enumerate(table):
        for a, b, c in _CYCLIC:
            acc = out[a, tgt]
            for j, (sign, nu, src) in enumerate(entries):
                p, m = (b, c) if sign > 0 else (c, b)
                dst = cr if j else acc
                np.multiply(At[p, nu], wt[m, src], out=dst)
                np.multiply(At[m, nu], wt[p, src], out=tmp)
                dst -= tmp
                if j:
                    acc += cr
    # C-contiguous, so the pairings downstream sum in a fixed order
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def bracket_wedge_coeffs(degree: int, a_vals: np.ndarray, w_vals: np.ndarray) -> np.ndarray:
    """[A ^ w] for a 1-form A and k-form w, on coefficient arrays.

    ([A^w])_K = sum_j (-1)^j [A_{K_j}, w_{K minus K_j}], algebra bracket = cross.
    a_vals: (N,3,4); w_vals: (N,3,C_k) -> (N,3,C_{k+1}), C-contiguous.
    """
    return _bracket_contract(ANTISYM_TABLE[degree], a_vals, w_vals)


def _d_contract(table, jac_vals: np.ndarray) -> np.ndarray:
    """out_T = sum sign * d_nu w_src over each target's (sign, nu, src) entries."""
    N = jac_vals.shape[0]
    out = np.zeros((N, 3, len(table)))
    for tgt, entries in enumerate(table):
        for sign, nu, src in entries:
            out[:, :, tgt] += sign * jac_vals[:, :, src, nu]
    return out


def d_coeffs(degree: int, jac_vals: np.ndarray) -> np.ndarray:
    """(dw)_K = sum_j (-1)^j d_{K_j} w_{K minus K_j}; jac_vals (N,3,C,4)."""
    return _d_contract(ANTISYM_TABLE[degree], jac_vals)


def cov_d_coeffs(k: int, Aval, val, jac, eps: float) -> np.ndarray:
    """d_A^eps w = dw + eps [A ^ w] of a k-form: (N,3,C_{k+1})."""
    return d_coeffs(k, jac) + eps * bracket_wedge_coeffs(k, Aval, val)


def codiff_coeffs(k: int, Aval, val, jac, eps: float) -> np.ndarray:
    """delta_A^eps w = -* d_A^eps * w of a k-form (k >= 1): (N,3,C_{k-1}).

    The formal adjoint of d_A^eps on flat R^4, evaluated as minus the
    covariant divergence: (delta w)_J = -sum_{j not in J} (d_j w_{jJ}
    + eps [A_j, w_{jJ}]), with w_{jJ} the component on dx_j ^ dx_J.
    """
    table = CODIFF_TABLE[k]
    return _d_contract(table, jac) + eps * _bracket_contract(table, Aval, val)


def curvature_coeffs(val, jac, eps: float) -> np.ndarray:
    """F = dA + (eps/2)[A ^ A] of a connection given as arrays: (N,3,6)."""
    return d_coeffs(1, jac) + 0.5 * eps * bracket_wedge_coeffs(1, val, val)


def cov_grad_coeffs(Aval, val, jac, eps: float) -> np.ndarray:
    """grad_A^eps a of a 1-form: out[n,a,mu,nu] = d_nu a_mu + eps [A_nu, a_mu].

    The cross product is written out component by component in a node-last
    layout, so every product runs over all nodes in one pass.
    """
    At = np.ascontiguousarray((eps * Aval).transpose(1, 2, 0))[:, None]  # [b,.,nu,n]
    vt = np.ascontiguousarray(val.transpose(1, 2, 0))[:, :, None]        # [c,mu,.,n]
    br = np.empty((3, 4, 4, Aval.shape[0]))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(At[b], vt[c], out=br[a])
        br[a] -= At[c] * vt[b]
    return np.add(jac, br.transpose(3, 0, 1, 2), out=np.empty_like(jac))


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
    mask_inner marks nodes with |x - center| < lam/4 (the inner chart).
    """

    nodes: np.ndarray
    weights: np.ndarray
    center: np.ndarray
    lam: float
    tol: float
    region: str
    r: np.ndarray = None
    mask_inner: np.ndarray = None
    meta: dict = field(default_factory=dict)
    self_check_error: float = 0.0

    def __post_init__(self):
        if self.r is None:
            self.r = np.linalg.norm(self.nodes - self.center, axis=1)
        if self.mask_inner is None:
            self.mask_inner = self.r < self.lam / 4.0

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


def _radial_breaks(lam: float, R: float, extra=()):
    """Graded radial panel edges from 0 to R resolving the cutoff scales."""
    pts = [0.0, lam / 8, lam / 4, lam / 2, lam, 2 * lam]
    r = 4 * lam
    while r < R:
        pts.append(r)
        r *= 2
    pts.extend(b for b in extra if 0 < b < R)
    pts.append(R)
    pts = sorted(set(b for b in pts if b <= R + 1e-15))
    # drop panels thinner than 1e-12 (duplicate breaks)
    out = [pts[0]]
    for b in pts[1:]:
        if b - out[-1] > 1e-12:
            out.append(b)
    return out


def _panel_nodes(breaks, order):
    """Gauss-Legendre nodes/weights on each panel; weights carry r^3."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    rs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        mid, half = (a + b) / 2, (b - a) / 2
        r = mid + half * xg
        rs.append(r)
        ws.append(half * wg * r ** 3)
    return np.concatenate(rs), np.concatenate(ws)


def _tail_nodes(R0: float, order: int):
    """Inversion tail for [R0, inf): r = 1/t, r^3 dr = t^-5 dt on (0, 1/R0]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    a, b = 0.0, 1.0 / R0
    mid, half = (a + b) / 2, (b - a) / 2
    t = mid + half * xg
    return 1.0 / t, half * wg * t ** -5.0


def _assemble(center, lam, dirs, wdirs, r, wr, region, tol, meta):
    nodes = center[None, :] + r[:, None, None] * dirs[None, :, :]
    nodes = nodes.reshape(-1, 4)
    w = (wr[:, None] * wdirs[None, :]).reshape(-1)
    return QuadratureRule(nodes, w, center, lam, tol, region, meta=meta)


_CHECK_CACHE: dict = {}


def _self_check(rule: QuadratureRule, builder, tol: float, key):
    """Compare one refinement doubling on the canonical peaked density."""
    if key in _CHECK_CACHE:
        err = _CHECK_CACHE[key]
    else:
        lam, p = rule.lam, rule.center

        def peaked(X):
            s = np.sum((X - p) ** 2, axis=1)
            return 48 * lam ** 4 / (lam ** 2 + s) ** 4

        base = integrate(rule, peaked)
        fine = integrate(builder(), peaked)
        err = abs(base - fine) / max(abs(fine), 1e-300)
        _CHECK_CACHE[key] = err
    rule.self_check_error = err
    if err > tol:
        raise QuadratureError(
            f"rule self-check failed: refinement changes integral by {err:.3e} > tol {tol:.1e}"
        )


def ball_rule(p, lam: float, R: float, tol: float = 1e-4,
              n_ang: int = 6, n_rad: int = 10, _check: bool = True) -> QuadratureRule:
    """Polar rule on the ball B_R(p) (R = inf gives all of R^4 with a tail).

    Graded radial panels through {lam/8, lam/4, lam/2, lam, 2lam, geometric, 1/2, 1}
    x product S^3 angular rule.  One refinement doubling must move the canonical
    peaked integrand by less than tol, else QuadratureError.
    """
    p = np.asarray(p, dtype=float)
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if not (R > 0):
        raise ValueError("R must be positive")
    dirs, wdirs = s3_nodes(n_ang)
    infinite = math.isinf(R)
    R0 = max(8.0, 64.0 * lam) if infinite else R
    breaks = _radial_breaks(lam, R0, extra=(0.5, 1.0))
    r, wr = _panel_nodes(breaks, n_rad)
    if infinite:
        rt, wt = _tail_nodes(R0, n_rad)
        r, wr = np.concatenate([r, rt]), np.concatenate([wr, wt])
    region = "r4" if infinite else "ball"
    meta = {"breaks": breaks, "n_ang": n_ang, "n_rad": n_rad, "R": R}
    rule = _assemble(p, lam, dirs, wdirs, r, wr, region, tol, meta)
    if _check:
        key = ("ball", tuple(np.round(p, 12)), round(lam, 14), R, n_ang, n_rad)
        _self_check(rule, lambda: ball_rule(p, lam, R, tol, n_ang + 2, 2 * n_rad,
                                            _check=False), tol, key)
    return rule


def _boundary_along(p, dirs):
    """Distance from p to the unit sphere along each direction."""
    pd = dirs @ p
    return -pd + np.sqrt(np.maximum(1 - p @ p + pd ** 2, 0.0))


def domain_ball_rule(p, lam: float, tol: float = 1e-4,
                     n_ang: int = 6, n_rad: int = 10, _check: bool = True) -> QuadratureRule:
    """Rule over the unit ball B^4 (centered at the origin), polar around p.

    For p = 0 this is ball_rule(0, lam, 1).  For small |p| != 0 the final panel
    runs, per direction, to the boundary distance along that direction.
    """
    p = np.asarray(p, dtype=float)
    if np.linalg.norm(p) < 1e-14:
        return ball_rule(np.zeros(4), lam, 1.0, tol, n_ang, n_rad, _check=_check)
    if np.linalg.norm(p) > 0.4:
        raise ValueError("domain_ball_rule expects |p| <= 0.4")
    dirs, wdirs = s3_nodes(n_ang)
    Rb = _boundary_along(p, dirs)  # (M,)
    r_last = float(Rb.min()) * 0.999
    breaks = _radial_breaks(lam, r_last, extra=(0.5,))
    r_in, wr_in = _panel_nodes(breaks, n_rad)
    # shared interior panels x all directions
    nodes_in = p[None, :] + r_in[:, None, None] * dirs[None, :, :]
    w_in = wr_in[:, None] * wdirs[None, :]
    # per-direction boundary panel [r_last, Rb(dir)]
    xg, wg = np.polynomial.legendre.leggauss(n_rad)
    mid = (r_last + Rb) / 2
    half = (Rb - r_last) / 2
    r_out = mid[None, :] + half[None, :] * xg[:, None]          # (n_rad, M)
    wr_out = half[None, :] * wg[:, None] * r_out ** 3
    nodes_out = p[None, None, :] + r_out[..., None] * dirs[None, :, :]
    w_out = wr_out * wdirs[None, :]
    nodes = np.concatenate([nodes_in.reshape(-1, 4), nodes_out.reshape(-1, 4)])
    w = np.concatenate([w_in.reshape(-1), w_out.reshape(-1)])
    meta = {"breaks": breaks, "n_ang": n_ang, "n_rad": n_rad, "R": "unit-ball"}
    rule = QuadratureRule(nodes, w, p, lam, tol, "ball", meta=meta)
    if _check:
        key = ("dball", tuple(np.round(p, 12)), round(lam, 14), n_ang, n_rad)
        _self_check(rule, lambda: domain_ball_rule(p, lam, tol, n_ang + 2, 2 * n_rad,
                                                   _check=False), tol, key)
    return rule


def weight_fn(X: np.ndarray) -> np.ndarray:
    """The weighted-product weight: 1 on the closed unit ball, 1/(1+|x|^2)^2 outside."""
    s = np.sum(np.asarray(X, dtype=float) ** 2, axis=-1)
    return np.where(s <= 1.0, 1.0, 1.0 / (1.0 + s) ** 2)


def weighted_r4_rule(p, lam: float, tol: float = 1e-4,
                     n_ang: int = 6, n_rad: int = 10, _check: bool = True) -> QuadratureRule:
    """Rule for integrals over R^4 split at the unit sphere (weight jump there).

    Interior nodes coincide with domain_ball_rule's; exterior panels are
    geometric to R_far = 8 with an inversion tail.  meta['ext_panels'] holds
    node slices of the last two geometric shells and the tail so callers can
    report non-convergent tails.
    """
    p = np.asarray(p, dtype=float)
    inner = domain_ball_rule(p, lam, tol, n_ang, n_rad, _check=_check)
    dirs, wdirs = s3_nodes(n_ang)
    Rb = _boundary_along(p, dirs)
    xg, wg = np.polynomial.legendre.leggauss(n_rad)
    # per-direction first exterior panel [Rb, 2], then [2,4], [4,8], tail
    panels = []
    mid = (Rb + 2.0) / 2
    half = (2.0 - Rb) / 2
    r0 = mid[None, :] + half[None, :] * xg[:, None]
    w0 = half[None, :] * wg[:, None] * r0 ** 3 * wdirs[None, :]
    nodes0 = p[None, None, :] + r0[..., None] * dirs[None, :, :]
    panels.append((nodes0.reshape(-1, 4), w0.reshape(-1)))
    for a, b in ((2.0, 4.0), (4.0, 8.0)):
        r, wr = _panel_nodes([a, b], n_rad)
        nodes = p[None, :] + r[:, None, None] * dirs[None, :, :]
        w = wr[:, None] * wdirs[None, :]
        panels.append((nodes.reshape(-1, 4), w.reshape(-1)))
    rt, wt = _tail_nodes(8.0, n_rad)
    nodes_t = p[None, :] + rt[:, None, None] * dirs[None, :, :]
    w_t = wt[:, None] * wdirs[None, :]
    panels.append((nodes_t.reshape(-1, 4), w_t.reshape(-1)))

    all_nodes = [inner.nodes] + [n for n, _ in panels]
    all_w = [inner.weights] + [w for _, w in panels]
    sizes = np.cumsum([0] + [n.shape[0] for n in all_nodes])
    nodes = np.concatenate(all_nodes)
    w = np.concatenate(all_w)
    meta = dict(inner.meta)
    # slices of shells [2,4], [4,8], tail (for tail-convergence reporting)
    meta["ext_panels"] = [(int(sizes[2]), int(sizes[3])),
                          (int(sizes[3]), int(sizes[4])),
                          (int(sizes[4]), int(sizes[5]))]
    rule = QuadratureRule(nodes, w, p, lam, tol, "weighted-r4", meta=meta)
    rule.self_check_error = inner.self_check_error
    return rule


def tail_report(rule: QuadratureRule, vals: np.ndarray) -> dict:
    """Convergence report for the exterior tail of a weighted-r4 rule.

    vals: density values on rule.nodes.  Compares contributions of the two
    outermost geometric shells; a density decaying like r^{-4} or slower (so
    the R^4 integral diverges) keeps the shell ratio near 1, while anything
    integrable decays the shells geometrically.
    """
    if "ext_panels" not in rule.meta:
        raise ValueError("tail_report needs a weighted-r4 rule")
    (a0, a1), (b0, b1), (t0, t1) = rule.meta["ext_panels"]
    w = rule.weights
    c1 = float(np.sum(w[a0:a1] * vals[a0:a1]))
    c2 = float(np.sum(w[b0:b1] * vals[b0:b1]))
    c3 = float(np.sum(w[t0:t1] * vals[t0:t1]))
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
