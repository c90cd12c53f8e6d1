"""The glued connection family A(q), its extension, and parameter derivatives.

Everything evaluable here is a list of Terms of the shape

    coef * [cutoff factor] * [3x3 algebra matrix] @ atom(y or x; lam)

where the atoms are closed-form radial profiles times linear maps:

    I1 : 2 (eta ybar-map y) / (lam^2 + s)            s = |x-p|^2, y = x-p
    I2 : 2 (etabar y) (1/s - 1/(lam^2+s))
    H  : 2 (etabar y) lam^2 (1 - 4s)^3_+             model correction profile
    bg : 0.5 DEFAULT_BG_CMAT (1 - |x|^2)^3_+         the fixed background

Parameter derivatives (d/dp_i, d/dlam, rotation directions xi_i) act on term
lists symbolically, so the derivative fields of the family — including the
differences between the glued and extended families — are exact closed forms,
never numerical differences.  The su(2) coefficients are on e_i = u_i/2; the
eta/etabar tables and all radial laws were frozen from a symbolic quaternion
expansion (see the coefficient-table tests).

Sampling works on scalar coefficient channels, node-last like forms.  Every
atom channel is a sum of a few scalar profiles times constant algebra
tensors: an atom's eval returns the coefficients K (k,N) of its tensor
(k,3,4), so the value is sum_e K[e] tensor[e]; a cutoff factor is one scalar
(N,).  Terms and their Leibniz products are summed on those coefficient
rows, and a term list is expanded into its (3,4,N) block by one GEMM over
its terms, each term owning one row block of the coefficients.  What
depends on a term list alone, its terms' Leibniz products and stacked
tensors, is its plan, built once per sampling pass.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations
from typing import ClassVar, Optional

import numpy as np

from .forms import sq_norms
from .liealg import SO3_GENERATORS, so3_generator

__all__ = [
    "ETA",
    "ETABAR",
    "ParamQ",
    "ParamError",
    "ChartedField",
    "Term",
    "DIRECTIONS",
    "beta_profile",
    "glue",
    "glued_connection",
    "extended_connection",
    "difference_b",
    "derivative_fields",
    "linear_combination",
    "inner_first",
    "sample_charted",
]


# ---------------------------------------------------------------------------
# 't Hooft tensors (self-dual eta, anti-self-dual etabar), frozen from the
# symbolic expansion of Im[(x-p) dxbar] and Im[lam^2 (xbar-pbar) dx / s].

def _build_eta(bar: bool) -> np.ndarray:
    T = np.zeros((3, 4, 4))
    # spatial block: the epsilon tensor eps_{abc}; (L_a)_{cb} = eps_{abc}
    T[:, 1:, 1:] = SO3_GENERATORS.transpose(0, 2, 1)
    for a in range(3):
        T[a, 0, a + 1] = -1.0 if bar else 1.0
        T[a, a + 1, 0] = 1.0 if bar else -1.0
    return T

ETA = _build_eta(False)
ETABAR = _build_eta(True)


# ---------------------------------------------------------------------------
# radial profiles f(s, lam) with s- and lam-derivative channels


def _check_dlam(dlam):
    if dlam > 1:
        raise ValueError("lam-derivatives implemented to order 1")


def rad_i1(s, lam, ds=0, dlam=0):
    """f = 1/(lam^2+s); returns d^ds/ds^ds d^dlam/dlam^dlam f."""
    _check_dlam(dlam)
    q = lam * lam + s
    k = ds
    if dlam == 0:
        return (-1.0) ** k * math.factorial(k) * q ** (-(k + 1))
    # d/dlam (-1)^k k! q^{-(k+1)} = (-1)^{k+1} (k+1)! 2 lam q^{-(k+2)}
    return (-1.0) ** (k + 1) * math.factorial(k + 1) * 2 * lam * q ** (-(k + 2))


def rad_i2(s, lam, ds=0, dlam=0):
    """f = lam^2/(s(lam^2+s)) = 1/s - 1/(lam^2+s) (partial fractions)."""
    _check_dlam(dlam)
    q = lam * lam + s
    k = ds
    if dlam == 0:
        return (-1.0) ** k * math.factorial(k) * (s ** (-(k + 1)) - q ** (-(k + 1)))
    # f_lam = 2 lam / q^2; d^k/ds^k = (-1)^k (k+1)! 2 lam q^{-(k+2)}
    return (-1.0) ** k * math.factorial(k + 1) * 2 * lam * q ** (-(k + 2))


def _cubic(s, r2, k):
    """d^k/ds^k (1 - s/r2)^3 on s < r2, else 0 (C^2 at the edge).

    r2 is a power of 2 (1/4 for h, 1 for the background), so s/r2 and the
    coefficient (-1/r2)^k 3!/(3-k)! are exact.
    """
    if k > 3:
        return np.zeros_like(s)
    u = 1.0 - s / r2
    return np.where(u > 0, (-1.0 / r2) ** k * (1, 3, 6, 6)[k] * u ** (3 - k), 0.0)


def rad_model_h(s, lam, ds=0, dlam=0):
    """f = lam^2 (1 - 4s)^3 on s < 1/4, the model correction h."""
    _check_dlam(dlam)
    if dlam == 0:
        return lam * lam * _cubic(s, 0.25, ds)
    return 2.0 * lam * _cubic(s, 0.25, ds)


# ---------------------------------------------------------------------------
# cutoff profile: C^3 smoothstep, 1 on [0,1], 0 on [2, inf)

_S_COEF = (35.0, -84.0, 70.0, -20.0)  # 35u^4 - 84u^5 + 70u^6 - 20u^7


def beta_profile(t, order=0):
    """k-th t-derivative of the transition profile beta(t)."""
    t = np.asarray(t, dtype=float)
    u = np.clip(t - 1.0, 0.0, 1.0)
    if order == 0:
        S = ((( _S_COEF[3] * u + _S_COEF[2]) * u + _S_COEF[1]) * u + _S_COEF[0]) * u ** 4
        return np.where(t <= 1.0, 1.0, np.where(t >= 2.0, 0.0, 1.0 - S))
    if order not in (1, 2, 3):
        raise ValueError("profile derivatives available to order 3")
    # S^(k) = sum_j c_j j!/(j-k)! u^(j-k), its exact integer derivative, summed
    # by ascending powers, left to right: the outputs' bits depend on this
    # order (the start 0 changes no bit, as no first term is -0.0)
    d = sum(c * math.perm(j, order) * u ** (j - order)
            for j, c in enumerate(_S_COEF, start=4))
    mid = (t > 1.0) & (t < 2.0)
    return np.where(mid, -d, 0.0)


# the band value of P^(k), k = 0..3, by the chain rule from the t-derivatives
# b[0..k] of beta at t = sqrt(w)
_CHAIN = (
    lambda b, t: b[0],
    lambda b, t: b[1] / (2 * t),
    lambda b, t: b[2] / (4 * t ** 2) - b[1] / (4 * t ** 3),
    lambda b, t: (b[3] / (8 * t ** 3) - 3 * b[2] / (8 * t ** 4)
                  + 3 * b[1] / (8 * t ** 5)),
)


class _ProfileW:
    """Derivatives of P(w) := beta(sqrt(w)) with respect to w on one batch w.

    Off the transition band 1 < w < 4, P is exactly 1 (w <= 1) or 0 and its
    derivatives are 0, so the chain rule runs on the band's entries only.
    The list P = [P, P', ...] grows an order at a time: upto(order) adds the
    orders it lacks, each with one beta_profile call, and returns P.  Orders
    0..3 are available (a channel reads k + dlam <= 3); a higher one raises.
    """

    def __init__(self, w):
        self.w = np.asarray(w, dtype=float)
        self.band = (self.w > 1.0) & (self.w < 4.0)
        self.t = np.sqrt(self.w[self.band])   # t >= 1 on the band: no division by 0
        self.b = []
        self.P = []

    def upto(self, order):
        if order not in range(len(_CHAIN)):
            raise ValueError(f"profile order {order} is not available "
                             f"(0..{len(_CHAIN) - 1})")
        for k in range(len(self.P), order + 1):
            self.b.append(beta_profile(self.t, k))
            out = np.zeros(self.w.shape)
            if k == 0:
                out[self.w <= 1.0] = 1.0
            out[self.band] = _CHAIN[k](self.b, self.t)
            self.P.append(out)
        return self.P


# ---------------------------------------------------------------------------
# atoms and their evaluation memo
#
# A memo is a dict of evaluations on one node batch X: atom channels keyed
# (atom, sorted ydirs, dlam), the geometry (Y, |Y|^2) of each centre, each
# radial law channel and each BetaAtom's profile.  It remembers the X it was
# first filled on under _NODES and refuses other nodes.  Under _PLANS it may
# hold the plan dict of a sampling pass (_plan), which all of the pass's
# memos share; a memo without one holds its plans itself.

_NODES = "nodes"
_PLANS = "plans"


def _memo_for(memo, X):
    """memo bound to the batch X: a new one for None, else the caller's,
    which must have been filled on the same nodes."""
    if memo is None:
        return {_NODES: X}
    filled = memo.setdefault(_NODES, X)
    if filled is not X and not (filled.shape == X.shape
                                and np.array_equal(filled, X)):
        raise ValueError("memo was filled on other nodes")
    return memo


def _cached(memo, key, make):
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _geometry(memo, X, p):
    """(Y, |Y|^2) for Y = X - p node-last (4,N), or the view Y = X.T for p
    None (the origin)."""
    def make():
        Y = X.T if p is None else np.subtract(X.T, p[:, None], order="C")
        return Y, sq_norms(Y)
    return _cached(memo, ("geometry", None if p is None else p.tobytes()), make)


def _radial(memo, law, centre, s, *args):
    """law(s, *args) on the batch, once per (law, centre, args)."""
    return _cached(memo, ("radial", law, centre) + args, lambda: law(s, *args))


def _scalar_radial_derivs(Y, f, ydirs):
    """d^{|ydirs|}/dy... of f(s), s = |Y|^2 for node-last Y (4,N), given
    f = [f0, ..., f_k], k = |ydirs|."""
    k = len(ydirs)
    if k == 0:
        return f[0]
    if k == 1:
        (e,) = ydirs
        return 2.0 * Y[e] * f[1]
    if k == 2:
        e1, e2 = ydirs
        d = 2.0 * f[1] if e1 == e2 else 0.0
        return d + 4.0 * Y[e1] * Y[e2] * f[2]
    if k == 3:
        a, b, c = ydirs
        out = 4.0 * f[2] * ((b == c) * Y[a] + (a == c) * Y[b] + (a == b) * Y[c])
        return out + 8.0 * f[3] * Y[a] * Y[b] * Y[c]
    raise ValueError("scalar radial derivatives implemented to order 3")


class LinRadAtom:
    """(M y) * f(s, lam): linear map times radial profile, bound to (p, lam).

    M: (3,4,4) including any constant coefficient factors.  The value is
    sum_e M[:, :, e] y_e f(s), so every channel is linear in the tensor
    M[:, :, e]: eval returns the coefficients K (4,N) of the mixed partial
    d_y^{ydirs} d_lam^{dlam}, K_e = d^{ydirs}(y_e f), to be expanded with
    tensor = M moved to (e, a, u) order.
    """

    def __init__(self, M, radial, p, lam):
        self.tensor = np.asarray(M, dtype=float).transpose(2, 0, 1)
        self.radial = radial
        self.p = np.asarray(p, dtype=float)
        self.lam = float(lam)

    def eval(self, X, ydirs=(), dlam=0, memo=None):
        k = len(ydirs)
        if k > 3:
            raise ValueError("atom derivatives implemented to order 3")
        memo = _memo_for(memo, X)
        Y, s = _geometry(memo, X, self.p)
        centre = self.p.tobytes()
        f = [_radial(memo, self.radial, centre, s, self.lam, j, dlam)
             for j in range(k + 1)]
        # y_e is linear, so each derivative falls on f except at most one
        K = Y * _scalar_radial_derivs(Y, f, ydirs)
        for i, e in enumerate(ydirs):
            K[e] += _scalar_radial_derivs(Y, f, ydirs[:i] + ydirs[i + 1:])
        return K


class BetaAtom:
    """Cutoff factor beta(c |x-p| / lam) = P(w), w = c^2 s / lam^2.

    A scalar factor: eval returns the (N,) channel d_y^{ydirs} d_lam^{dlam}.
    """

    def __init__(self, c, p, lam):
        self.c = float(c)
        self.p = np.asarray(p, dtype=float)
        self.lam = float(lam)

    def eval(self, X, ydirs=(), dlam=0, memo=None):
        _check_dlam(dlam)
        memo = _memo_for(memo, X)
        Y, s = _geometry(memo, X, self.p)
        a = self.c ** 2 / self.lam ** 2
        profile = _cached(memo, ("profile", self), lambda: _ProfileW(a * s))
        w = profile.w
        k = len(ydirs)
        # the lam-channel reads one order more than the y-derivatives need
        P = profile.upto(k + dlam)
        if dlam == 0:
            f = [a ** j * P[j] for j in range(k + 1)]
        else:
            # d/dlam [a^j P^(j)(w)] = -(2/lam) a^j (j P^(j) + w P^(j+1))
            f = [-(2.0 / self.lam) * a ** j * (j * P[j] + w * P[j + 1])
                 for j in range(k + 1)]
        return _scalar_radial_derivs(Y, f, ydirs)


class BgAtom:
    """Background 1-form Cmat (1 - |x|^2)^3 on the unit ball, 0 outside.

    eval returns the coefficient (1,N) of tensor = Cmat[None]; it does not
    depend on lam, so every lam-channel is 0.
    """

    def __init__(self, Cmat):
        self.tensor = np.asarray(Cmat, dtype=float)[None]

    def eval(self, X, ydirs=(), dlam=0, memo=None):
        if dlam > 0:
            return np.zeros((1, X.shape[0]))
        memo = _memo_for(memo, X)
        Y, sig = _geometry(memo, X, None)
        f = [_radial(memo, _cubic, None, sig, 1.0, j)
             for j in range(len(ydirs) + 1)]
        return _scalar_radial_derivs(Y, f, ydirs)[None]


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    """coef * beta-factor * (mat @ atom), with symbolic derivative bookkeeping.

    mat is the conjugation by g (None: the term does not rotate with g), and
    a BgAtom lie is the background, which does not move with p or lam.
    """

    coef: float
    lie: object
    lie_ydirs: tuple = ()
    lie_dlam: int = 0
    beta: Optional[object] = None
    beta_ydirs: tuple = ()
    beta_dlam: int = 0
    mat: Optional[np.ndarray] = None


def _channel(memo, X, key):
    """The atom channel key = (atom, sorted ydirs, dlam) on X, evaluated once
    per memo.  Keyed on the atom object itself: the key keeps it alive, so a
    memo shared across term lists never sees a recycled id."""
    if key not in memo:
        atom, ydirs, dlam = key
        memo[key] = atom.eval(X, ydirs, dlam, memo)
    return memo[key]


def _products(t: Term, extra_ydirs):
    """The Leibniz expansion of a term with extra spatial derivatives: per
    product, the channel keys of its atom and of its beta factor (None
    without one), the extra derivatives distributed between the two."""
    n = len(extra_ydirs)
    out = []
    for r in range(n + 1 if t.beta is not None else 1):
        for sel in combinations(range(n), r):
            lie = tuple(extra_ydirs[i] for i in range(n) if i not in sel)
            beta = tuple(extra_ydirs[i] for i in sel)
            out.append(((t.lie, tuple(sorted(t.lie_ydirs + lie)), t.lie_dlam),
                        None if t.beta is None else
                        (t.beta, tuple(sorted(t.beta_ydirs + beta)), t.beta_dlam)))
    return out


def _plan(memo, terms, extra_ydirs):
    """A term list's plan for _terms_sum with extra spatial derivatives:
    each term's products (_products) and the stacked tensors
    T^T (12, sum k) of its terms' mat @ tensor, None for an empty list.  It
    depends on the list and extra_ydirs alone, so it is built once in
    memo[_PLANS], the plan dict of a sampling pass, or in the memo itself
    without one.  Keyed on the list's id, each entry holds the list, so the
    id is not recycled while the entry lives."""
    def make():
        Tt = np.concatenate([
            (t.lie.tensor if t.mat is None else np.matmul(t.mat, t.lie.tensor))
            .reshape(-1, 12) for t in terms]).T if terms else None
        return terms, [_products(t, extra_ydirs) for t in terms], Tt
    return _cached(memo.get(_PLANS, memo), (id(terms), extra_ydirs), make)[1:]


def _terms_sum(memo, terms, X, extra_ydirs, out):
    """Sum of the terms' values written into out, node-last (3,4,N), by one GEMM.

    Each term owns the k rows of K (sum k,N) of its atom tensor, in list
    order, and sums coef * beta * atom coefficients over its Leibniz
    products there.  K is expanded with the stacked tensors mat @ tensor as
    T^T @ K, straight into out's (12,N) rows; reshape(copy=False) raises
    rather than write a copy.
    """
    rows = np.reshape(out, (12, -1), copy=False)
    products, Tt = _plan(memo, terms, extra_ydirs)
    if Tt is None:
        rows[...] = 0.0
        return
    K = np.empty((Tt.shape[1], X.shape[0]))
    a = 0
    for t, prods in zip(terms, products):
        block = K[a:a + len(t.lie.tensor)]
        a += len(block)
        for j, (lie, beta) in enumerate(prods):
            v = _channel(memo, X, lie)
            factor = t.coef if beta is None else t.coef * _channel(memo, X, beta)
            if j == 0:
                np.multiply(v, factor, out=block)
            else:
                block += v * factor
    np.matmul(Tt, K, out=rows)


def terms_value(terms, X, memo=None, out=None):
    """Value of a term list at X, (3,4,N), written into out when given.

    memo (optional) caches evaluations on X across calls: atom channels, the
    geometry of each atom centre and each radial law channel, and the term
    lists' plans unless it holds a pass's plan dict.  Term lists holding the
    same atom objects then evaluate each of them once.  A memo remembers the
    X it was first filled on and raises ValueError with other nodes.  out
    may be a node range val[..., a:b] of a (3,4,M) array.
    """
    X = np.asarray(X, dtype=float)
    memo = _memo_for(memo, X)
    out = np.empty((3, 4, X.shape[0])) if out is None else out
    _terms_sum(memo, terms, X, (), out)
    return out


def terms_jac(terms, X, memo=None, out=None):
    """Spatial jacobian of a term list at X, (3,4,4,N); memo and out as in
    terms_value (out may be jac[..., a:b] of a (3,4,4,M) array)."""
    X = np.asarray(X, dtype=float)
    memo = _memo_for(memo, X)
    out = np.empty((3, 4, 4, X.shape[0])) if out is None else out
    for nu in range(4):
        _terms_sum(memo, terms, X, (nu,), out[:, :, nu])
    return out


def d_dp(terms, i):
    """d/dp_i of a term list (0-based coordinate index i)."""
    out = []
    for t in terms:
        if not isinstance(t.lie, BgAtom):
            out.append(dataclasses.replace(
                t, coef=-t.coef, lie_ydirs=t.lie_ydirs + (i,)))
        if t.beta is not None:
            out.append(dataclasses.replace(
                t, coef=-t.coef, beta_ydirs=t.beta_ydirs + (i,)))
    return out


def d_dlam(terms):
    out = []
    for t in terms:
        if not isinstance(t.lie, BgAtom):
            out.append(dataclasses.replace(t, lie_dlam=t.lie_dlam + 1))
        if t.beta is not None:
            out.append(dataclasses.replace(t, beta_dlam=t.beta_dlam + 1))
    return out


def d_dxi(terms, i):
    """Rotation direction at g via the flow t -> g exp(t e_i).

    d/dt Ad(g exp(t e_i)) = Ad(g) ad(e_i), so the conjugation matrix picks up
    a generator on the right; unconjugated factors do not move.
    """
    L = so3_generator(i)
    return [dataclasses.replace(t, mat=t.mat @ L)
            for t in terms if t.mat is not None]


# ---------------------------------------------------------------------------
# parameters, charted fields


class ParamError(ValueError):
    pass


# the ratio lam^2 / eps of a default point (the CLI's --ratio-D)
DEFAULT_D = 1.0


@dataclass(frozen=True, eq=False)
class ParamQ:
    """Gluing parameter q = (p, [g], lam) with its eps and admissibility bounds.

    [g] in SU(2)/{+-1} = SO(3) is held as g, the rotation Ad(g) (3, 3) of
    su(2) coefficients: the family reads g only through Ad(g), so -g is the
    same point.  The bounds satisfy 0 < 2 lam0 < d0.  Points compare and
    hash by identity, as their fields are arrays.
    """

    p: np.ndarray
    g: np.ndarray
    lam: float
    eps: float
    d0: ClassVar[float] = 0.6
    lam0: ClassVar[float] = 0.26
    D1: ClassVar[float] = 0.5
    D2: ClassVar[float] = 2.0

    def __post_init__(self):
        _check_eps(self.eps)
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.p.shape != (4,):
            raise ParamError("p must be a point of R^4")
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.shape != (3, 3):
            raise ParamError(f"[g] must be a (3, 3) rotation, got shape {g.shape}")
        # on Python floats, as numpy's 3x3 temporaries raised peak RSS; det g
        # is the triple product g[0] . (g[1] x g[2]), NaN where g has one
        a, b, c = rows = g.tolist()
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        off = max(abs(sum(x * y for x, y in zip(u, v)) - (i == j))
                  for i, u in enumerate(rows) for j, v in enumerate(rows))
        if not (det > 0 and off <= 1e-12):
            raise ParamError("[g] must be a rotation: g g^T = I, det g > 0")
        if np.linalg.norm(self.p) >= 1.0 - self.d0:
            raise ParamError(f"|p| = {np.linalg.norm(self.p):.4f} not < 1 - d0 = {1-self.d0}")
        if not (0 < self.lam < self.lam0):
            raise ParamError(f"lam = {self.lam} not in (0, lam0 = {self.lam0})")
        if not (self.D1 * self.eps < self.lam ** 2 < self.D2 * self.eps):
            raise ParamError(
                f"lam^2 = {self.lam**2:.5g} not in (D1*eps, D2*eps) = "
                f"({self.D1*self.eps:.5g}, {self.D2*self.eps:.5g})")

    @staticmethod
    def default(eps: float, D: float = DEFAULT_D, p=None, g=None) -> "ParamQ":
        eps = _check_eps(float(eps))
        p = np.zeros(4) if p is None else np.asarray(p, dtype=float)
        g = np.eye(3) if g is None else g
        return ParamQ(p=p, g=g, lam=float(np.sqrt(D * eps)), eps=eps)


def _check_eps(eps: float) -> float:
    """eps, rejected by name unless positive and finite, before anything
    (such as lam = sqrt(D eps)) is derived from it."""
    if not (0 < eps < np.inf):
        raise ParamError(f"eps must be positive and finite, got {eps}")
    return eps


# the background A_0 = 0.5 DEFAULT_BG_CMAT (1-|x|^2)^3, a smooth compactly
# supported stand-in: fixed, asymmetric, order-one C^1 norm
DEFAULT_BG_CMAT = np.array([
    [0.6, 0.0, 0.3, 0.0],
    [0.0, 0.5, 0.0, 0.2],
    [0.1, 0.0, 0.4, 0.0],
])


@dataclass
class ChartedField:
    """A 1-form field in the two-chart representation split at |x-p| = lam/4."""

    p: np.ndarray
    lam: float
    inner_terms: list
    outer_terms: list

    def chart_radius(self) -> float:
        return self.lam / 4.0

    def value_split(self, X, n_inner):
        """Chart-consistent value on a batch whose first n_inner nodes are
        the inner chart's."""
        return sample_charted([self], X, n_inner, need_jac=False)[0][0]


def inner_first(mask_inner):
    """A stable node order listing the inner chart first, and the inner
    count: sample_charted(fields, X[order], n_inner) samples the charts that
    mask_inner marks on X, in the order of X within each chart."""
    return np.argsort(~mask_inner, kind="stable"), int(np.count_nonzero(mask_inner))


def sample_charted(fields, X, n_inner, need_jac=True, out=None, plans=None):
    """Node-last values (3,4,N) (and jacobians (3,4,4,N)) of charted fields
    at X, in one pass per chart.

    The charts are node ranges: X[:n_inner] is the inner chart and the rest
    the outer one (a QuadratureRule's n_inner; inner_first orders any other
    batch).  Every field is evaluated on each chart's view of X with one
    memo, so fields holding the same atom objects (the derivative_fields of
    one connection) evaluate each atom channel, centre geometry and radial
    law once, and each GEMM writes into its chart's node range of the
    outputs.  The memo lives only for the pass.  plans, a dict, holds the
    term lists' plans (_plan) across calls: a block sampler passes one per
    pass over its blocks, so each block only looks its channels up.
    Returns (val, jac) pairs, jac None when need_jac is false.  out, a list
    of such pairs, one per field, receives the samples in place of fresh
    arrays (a block sampler reuses its buffers this way); each array must
    be one whose (12, N) row view reshape gives without a copy.
    """
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    if not 0 <= n_inner <= N:
        raise ValueError(f"n_inner = {n_inner} outside 0..{N}")
    if out is None:
        out = [(np.empty((3, 4, N)),
                np.empty((3, 4, 4, N)) if need_jac else None) for _ in fields]
    plans = {} if plans is None else plans
    for a, b, chart in ((0, n_inner, "inner_terms"), (n_inner, N, "outer_terms")):
        if a == b:
            continue
        Xs = X[a:b]
        memo = {_PLANS: plans}
        for f, (val, jac) in zip(fields, out):
            terms = getattr(f, chart)
            terms_value(terms, Xs, memo, val[..., a:b])
            if need_jac:
                terms_jac(terms, Xs, memo, jac[..., a:b])
    return out


# ---------------------------------------------------------------------------
# the family


# h := I2 - PI2 per strategy, as the radial law of 2 (etabar y) f(s, lam)
_H_RADIAL = {
    "zero": rad_i2,          # PI2 = 0, h = I2
    "model": rad_model_h,    # PI2 = I2 - lam^2 Theta, h = lam^2 Theta
    "full": None,            # PI2 = I2, h = 0
}
PI2_STRATEGIES = tuple(_H_RADIAL)
# the strategy the estimates cover (the CLI's --pi2)
DEFAULT_PI2 = "model"


def glued_connection(q: ParamQ, pi2: str = DEFAULT_PI2) -> ChartedField:
    """The glued family member A(q) = Atilde(q) - b(q).

    Outer chart: (1-beta_lam) bg + (1/eps) beta_{lam/4} g I2 g^{-1}
                 + (1/eps)(1 - beta_{lam/4}) g PI2 g^{-1};
    inner chart: (1/eps) g I1 g^{-1}, the extension's, as b vanishes there.
    """
    return glue(extended_connection(q), difference_b(q, pi2))


def glue(At: ChartedField, b: ChartedField) -> ChartedField:
    """At - b on the term lists; the result holds At's and b's atom objects."""
    minus_b = [dataclasses.replace(t, coef=-t.coef) for t in b.outer_terms]
    return ChartedField(At.p, At.lam, At.inner_terms, At.outer_terms + minus_b)


def extended_connection(q: ParamQ) -> ChartedField:
    """The extension: pure (1/eps)-scaled instanton in both charts, on all of R^4."""
    inner = [Term(1.0 / q.eps, lie=LinRadAtom(2 * ETA, rad_i1, q.p, q.lam), mat=q.g)]
    outer = [Term(1.0 / q.eps, lie=LinRadAtom(2 * ETABAR, rad_i2, q.p, q.lam),
                  mat=q.g)]
    return ChartedField(q.p, q.lam, inner, outer)


def difference_b(q: ParamQ, pi2: str = DEFAULT_PI2) -> ChartedField:
    """b(q) = extension minus glued family member (identically 0 on the inner chart).

    Derived directly from the definitions:
        b = (beta_lam - 1) bg + (1/eps)(1 - beta_{lam/4}) g h g^{-1},  h = I2 - PI2.
    """
    if pi2 not in _H_RADIAL:
        raise ValueError(f"unknown pi2 strategy {pi2!r}; use one of {PI2_STRATEGIES}")
    bga = BgAtom(DEFAULT_BG_CMAT * 0.5)
    outer = [Term(-1.0, lie=bga),
             Term(1.0, lie=bga, beta=BetaAtom(1.0, q.p, q.lam))]
    radial = _H_RADIAL[pi2]
    if radial is not None:
        h = LinRadAtom(2 * ETABAR, radial, q.p, q.lam)
        outer.append(Term(1.0 / q.eps, lie=h, mat=q.g))
        outer.append(Term(-1.0 / q.eps, lie=h, mat=q.g, beta=BetaAtom(4.0, q.p, q.lam)))
    return ChartedField(q.p, q.lam, [], outer)


DIRECTIONS = ("p1", "p2", "p3", "p4", "xi1", "xi2", "xi3", "lam")


def _apply_direction(terms, direction: str):
    if direction in ("p1", "p2", "p3", "p4"):
        return d_dp(terms, int(direction[1]) - 1)
    if direction in ("xi1", "xi2", "xi3"):
        return d_dxi(terms, int(direction[2]))
    if direction == "lam":
        return d_dlam(terms)
    raise ValueError(f"unknown direction {direction!r}; use one of {DIRECTIONS}")


def derivative_fields(A: ChartedField, directions=DIRECTIONS) -> list:
    """Parameter derivatives of one family member, one field per direction.

    Every field is derived from A's own term lists, so all of them hold A's
    atom objects and sample_charted shares one atom memo across them.
    """
    return [ChartedField(A.p, A.lam,
                         _apply_direction(A.inner_terms, d),
                         _apply_direction(A.outer_terms, d))
            for d in directions]


def linear_combination(fields, coeffs) -> ChartedField:
    """sum_j c_j f_j on the term lists: the f_j's terms with coef scaled by
    c_j, zero c_j skipped.  It holds the f_j's atom objects, so it samples
    in one memo with them."""
    def scaled(chart):
        return [dataclasses.replace(t, coef=float(c) * t.coef)
                for c, f in zip(coeffs, fields) if c != 0.0
                for t in getattr(f, chart)]
    return ChartedField(fields[0].p, fields[0].lam, scaled("inner_terms"),
                        scaled("outer_terms"))
