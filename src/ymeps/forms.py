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
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product

import numpy as np

__all__ = [
    "MULTI_INDEX",
    "COMP_INDEX",
    "QuadratureRule",
    "QuadratureError",
    "RuleSpec",
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
    "cov_grad_scaled",
    "sq_norms",
    "ball_rule",
    "domain_ball_rule",
    "weighted_r4_rule",
    "weight_fn",
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
# array of its inputs' dtype.


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
    out = np.empty((3, len(table), N), np.result_type(A, w))
    cr, tmp = np.empty(N, out.dtype), np.empty(N, out.dtype)
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
    out = np.empty((3, len(table), jac.shape[-1]), jac.dtype)
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


def cov_grad_scaled(At, val, jac, out=None) -> np.ndarray:
    """grad_A^eps a given At = eps A (3,4,N), which a caller pairing many
    fields forms once: out[a,mu,nu,n] = d_nu a_mu + [At_nu, a_mu], (3,4,4,N).

    out may be jac itself, whose entries then gain the bracket in place.
    The cross product is written out component by component, so every
    product runs over all nodes in one pass; each component's bracket is
    formed in a (4,4,N) scratch before it is added, so an entry rounds as
    the sum of jac and bracket whether or not out is jac.
    """
    if out is None:
        out = np.empty(jac.shape)
    if out is not jac:
        out[...] = jac
    br, tmp = np.empty((2,) + out.shape[1:])
    for a, b, c in _CYCLIC:
        np.multiply(At[b], val[c][:, None], out=br)       # [mu,nu,n]
        np.multiply(At[c], val[b][:, None], out=tmp)
        br -= tmp
        out[a] += br
    return out


def sq_norms(Y: np.ndarray) -> np.ndarray:
    """|y|^2 of each node of a node-last (4, N) batch, (N,).

    Summed row by row in the order np.sum(Y * Y, axis=0) uses on four rows,
    so the two agree bit for bit; the row sum skips the (4, N) product
    array.
    """
    s = Y[0] * Y[0]
    for e in (1, 2, 3):
        s += Y[e] * Y[e]
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

    weights include the r^3 polar Jacobian: sum_i w_i f(node_i) integrates f.
    r holds |node - center|, computed from the nodes unless given.  The inner
    chart r < lam/4 is the node range [:n_inner]: a polar rule lists its radii
    outward and lam/4 is a panel edge, so a node order with an inner node
    after an outer one raises ValueError.
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


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order
    (an eigenvalue solve each time, most of a rule's build) and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def s3_nodes(n: int):
    """Product angular rule on S^3, exact for spherical polynomials of degree <= 2n-1.

    cos(psi): Gauss-Chebyshev 2nd kind (weight sqrt(1-u^2));
    cos(theta): Gauss-Legendre; phi: uniform with 2n points.
    Returns (directions (M,4), weights (M,)), weights summing to 2 pi^2.
    """
    k = np.arange(1, n + 1)
    u = np.cos(k * np.pi / (n + 1))
    wu = (np.pi / (n + 1)) * np.sin(k * np.pi / (n + 1)) ** 2
    v, wv = _leggauss(n)
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


def _sphere_moments(t: int) -> np.ndarray:
    """The closed-form S^3 integrals E[a] of the monomials u^a, a in
    0..t per coordinate: 2 prod Gamma((a_i+1)/2) / Gamma((|a|+4)/2) for
    even exponents, 0 when one is odd."""
    a = np.indices((t + 1,) * 4)
    g = np.array([math.gamma((k + 1) / 2) for k in range(4 * t + 4)])
    E = 2.0 * np.prod(g[a], axis=0) / g[a.sum(axis=0) + 3]
    E[np.any(a % 2, axis=0)] = 0.0
    return E


# the round-off bound of the design check, relative to the weights' sum
# 2 pi^2: the 600-cell and s3_nodes(6) miss no monomial of degree <= 11 by
# more than 3.2e-14 and 1.4e-14, a coarse design by 1e-3 or more
_DESIGN_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class RuleSpec:
    """The orders of a polar rule: an angular design on S^3, directions
    dirs (M,4) with weights (M,), that claims to integrate every polynomial
    of degree <= t exactly, and n_rad Gauss radii per radial piece.

    The claim is checked once, at the spec's first rule build, and the
    result is kept on the spec (design_error).
    """

    dirs: np.ndarray
    weights: np.ndarray
    t: int
    n_rad: int

    def __post_init__(self):
        for name in ("dirs", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if (self.dirs.ndim != 2 or self.dirs.shape[1] != 4
                or self.weights.shape != self.dirs.shape[:1]):
            raise ValueError("a design is (M, 4) directions and (M,) weights")

    def refined(self) -> "RuleSpec":
        """The self-check's refinement: the product rule of degree t + 4
        and twice the radial order."""
        return product_spec((self.t + 1) // 2 + 2, 2 * self.n_rad)

    @cached_property
    def design_error(self) -> float:
        """The largest error of the design on the monomials of degree <= t
        against their closed-form S^3 moments; QuadratureError names the
        first monomial beyond the round-off bound _DESIGN_RTOL."""
        t, M = self.t, len(self.dirs)
        P = [self.dirs[:, i, None] ** np.arange(t + 1) for i in range(4)]
        # got[a, b, c, d] = sum_m w_m u0^a u1^b u2^c u3^d, as one GEMM
        # over the pairs (a, b) and (c, d)
        wab = (self.weights[:, None, None] * P[0][:, :, None] * P[1][:, None])
        cd = P[2][:, :, None] * P[3][:, None]
        got = (wab.reshape(M, -1).T @ cd.reshape(M, -1)).reshape((t + 1,) * 4)
        err = np.abs(got - _sphere_moments(t))
        err[np.indices(err.shape).sum(axis=0) > t] = 0.0
        bound = _DESIGN_RTOL * float(np.sum(np.abs(self.weights)))
        bad = np.argwhere(err > bound)
        if len(bad):
            a = tuple(int(k) for k in bad[0])
            raise QuadratureError(
                f"angular design of {len(self.dirs)} directions is not of "
                f"degree {t}: monomial u^{a} off its S^3 moment by "
                f"{err[a]:.3e} > {bound:.1e}")
        return float(err.max())


@lru_cache(maxsize=None)
def product_spec(n: int, n_rad: int) -> RuleSpec:
    """The spec of the product rule s3_nodes(n), of degree 2n - 1, built
    once per (n, n_rad), so that its design is checked once."""
    return RuleSpec(*s3_nodes(n), 2 * n - 1, n_rad)


def _icosians() -> np.ndarray:
    """The 120 unit icosians, the vertices of the 600-cell: the 8
    permutations of (+-1, 0, 0, 0), the 16 sign patterns of (+-1/2)^4 and
    the 96 even permutations of (+-phi, +-1, +-1/phi, 0) / 2."""
    phi = (1 + math.sqrt(5)) / 2
    even = [s for s in permutations(range(4)) if _perm_sign(s) > 0]
    out = [np.roll([float(s), 0.0, 0.0, 0.0], k) for k in range(4) for s in (1, -1)]
    out += [0.5 * np.array(s) for s in product((1.0, -1.0), repeat=4)]
    for s in product((1.0, -1.0), repeat=3):
        v = 0.5 * np.array([s[0] * phi, s[1], s[2] / phi, 0.0])
        out += [v[list(perm)] for perm in even]
    return np.array(out)


# the spec of every polar rule unless another is given: the 600-cell, an
# 11-design on S^3 (Delsarte-Goethals-Seidel 1977) of 120 equal weights, the
# degree of the 432-direction product rule s3_nodes(6), with 10 Gauss radii
# per radial piece
DEFAULT_SPEC = RuleSpec(_icosians(), np.full(120, 2 * math.pi ** 2 / 120), 11, 10)
# the default gate of the self-check: the relative change the refinement
# may make to the peaked integral (the CLI's --tol)
DEFAULT_TOL = 1e-4


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
    xg, wg = _leggauss(order)
    if np.ndim(a) or np.ndim(b):
        xg, wg = xg[:, None], wg[:, None]
    mid, half = (a + b) / 2, (b - a) / 2
    r = mid + half * xg
    return r, half * wg * r ** 3


def _tail_nodes(R0: float, order: int):
    """Inversion tail for [R0, inf): r = 1/t, r^3 dr = t^-5 dt on (0, 1/R0]."""
    xg, wg = _leggauss(order)
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


def _peaked_integral(p, lam: float, region: str, R, spec: RuleSpec) -> float:
    """The integral of the canonical peaked density
    48 lam^4 / (lam^2 + |x - p|^2)^4 by the polar rule of spec around p,
    summed without its nodes: the density is radial about p, so a piece of
    shared radii (K,) gives sum_k w_k f(r_k) times the angular weights'
    sum, and a piece run per direction (K, M) its sum over both axes with
    the angular weights."""
    total = 0.0
    for r, wr in _radial_pieces(p, lam, region, R, spec.dirs, spec.n_rad):
        f = wr * (48 * lam ** 4 / (lam ** 2 + r * r) ** 4)
        total += (np.sum(f) * np.sum(spec.weights) if f.ndim == 1
                  else np.sum(f * spec.weights))
    return float(total)


def _polar_rule(p, lam: float, region: str, R=None, tol: float = None,
                spec: RuleSpec = None) -> QuadratureRule:
    """Nodes p + r u and weights w_r w_u over spec's S^3 design u (None is
    DEFAULT_SPEC) and the radial pieces, radius-major within each piece; R
    None is the unit ball (|p| <= 0.4).  The design's degree is checked
    first (design_error).

    With a tol, the refinement spec.refined() must move the integral of the
    canonical peaked density by at most tol, else QuadratureError; both
    integrals are radial sums (_peaked_integral), so the refined rule is
    never built.  A weighted-r4 rule checks only its unit-ball part, the B^4
    rule of the same p and lam, and reports that part's error.
    """
    spec = DEFAULT_SPEC if spec is None else spec
    spec.design_error        # QuadratureError unless of degree spec.t
    p = np.asarray(p, dtype=float)
    if R is None:
        if np.linalg.norm(p) > 0.4:
            raise ValueError("domain_ball_rule expects |p| <= 0.4")
        p = np.zeros(4) if np.linalg.norm(p) < 1e-14 else p
    dirs = spec.dirs
    # every piece broadcast to (K, M), stacked outward
    r, wr = (np.concatenate([np.broadcast_to(x.reshape(len(x), -1), (len(x), len(dirs)))
                             for x in xs])
             for xs in zip(*_radial_pieces(p, lam, region, R, dirs, spec.n_rad)))
    rule = QuadratureRule((p + r[..., None] * dirs).reshape(-1, 4),
                          (wr * spec.weights).reshape(-1), p, lam, region,
                          r.reshape(-1))
    if tol is None:
        return rule
    checked = "ball" if region == "weighted-r4" else region
    a, b = (_peaked_integral(p, lam, checked, R, s)
            for s in (spec, spec.refined()))
    rule.self_check_error = err = abs(a - b) / max(abs(b), 1e-300)
    if err > tol:
        raise QuadratureError(f"rule self-check failed: refinement changes "
                              f"integral by {err:.3e} > tol {tol:.1e}")
    return rule


def ball_rule(p, lam: float, R: float, tol: float = DEFAULT_TOL) -> QuadratureRule:
    """Polar rule on the ball B_R(p) (R = inf gives all of R^4 with a tail).

    Graded radial panels through {lam/8, lam/4, lam/2, lam, 2lam, geometric, 1/2, 1}
    x the S^3 design of DEFAULT_SPEC, self-checked to tol.
    """
    if not (lam > 0):
        raise ValueError("lam must be positive")
    if not (R > 0):
        raise ValueError("R must be positive")
    return _polar_rule(p, lam, "r4" if math.isinf(R) else "ball", R, tol)


def domain_ball_rule(p, lam: float, tol: float = DEFAULT_TOL,
                     spec: RuleSpec = None) -> QuadratureRule:
    """Rule over the unit ball B^4 (centered at the origin), polar around p,
    of spec (None is DEFAULT_SPEC).

    For p = 0 this is ball_rule(0, lam, 1).  For small |p| != 0 the final panel
    runs, per direction, to the boundary distance along that direction.
    """
    return _polar_rule(p, lam, "ball", None, tol, spec)


def weight_fn(X: np.ndarray) -> np.ndarray:
    """The weighted-product weight: 1 on the closed unit ball, 1/(1+|x|^2)^2 outside."""
    s = np.sum(np.asarray(X, dtype=float) ** 2, axis=-1)
    return np.where(s <= 1.0, 1.0, 1.0 / (1.0 + s) ** 2)


def weighted_r4_rule(p, lam: float, tol: float = DEFAULT_TOL) -> QuadratureRule:
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


def weighted_sum(weights: np.ndarray, vals: np.ndarray) -> float:
    """sum_i w_i vals_i, e.g. over a rule's nodes; a non-finite sum raises."""
    v = float(np.sum(weights * vals))
    if not math.isfinite(v):
        raise NumericalError("non-finite integral")
    return v
