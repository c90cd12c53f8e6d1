"""The glued connection family A(q), its extension, and parameter derivatives.

Everything evaluable here is a list of Terms of the shape

    coef * [cutoff factor] * [3x3 algebra matrix] @ atom(y or x; lam)

where the atoms are closed-form radial profiles times linear maps:

    I1 : 2 (eta ybar-map y) / (lam^2 + s)            s = |x-p|^2, y = x-p
    I2 : 2 (etabar y) (1/s - 1/(lam^2+s))
    H  : 2 (etabar y) lam^2 rho(s)                   model correction profile
    bg : Cmat * chi(|x|^2)                           background 1-form

Parameter derivatives (d/dp_i, d/dlam, rotation directions xi_i) act on term
lists symbolically, so the derivative fields of the family — including the
differences between the glued and extended families — are exact closed forms,
never numerical differences.  The su(2) coefficients are on e_i = u_i/2; the
eta/etabar tables and all radial laws were frozen from a symbolic quaternion
expansion (see the coefficient-table tests).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .liealg import SO3_GENERATORS, GroupElement, adjoint_matrix, so3_generator

__all__ = [
    "ETA",
    "ETABAR",
    "ParamQ",
    "ParamError",
    "BackgroundConnection",
    "ChartedField",
    "Term",
    "DIRECTIONS",
    "beta_profile",
    "glued_connection",
    "extended_connection",
    "difference_b",
    "derivative_fields",
    "d2A_dp1p1",
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


def rad_i1(s, lam, ds=0, dlam=0):
    """f = 1/(lam^2+s); returns d^ds/ds^ds d^dlam/dlam^dlam f."""
    q = lam * lam + s
    k = ds
    if dlam == 0:
        return (-1.0) ** k * math.factorial(k) * q ** (-(k + 1))
    # d/dlam (-1)^k k! q^{-(k+1)} = (-1)^{k+1} (k+1)! 2 lam q^{-(k+2)}
    return (-1.0) ** (k + 1) * math.factorial(k + 1) * 2 * lam * q ** (-(k + 2))


def rad_i2(s, lam, ds=0, dlam=0):
    """f = lam^2/(s(lam^2+s)) = 1/s - 1/(lam^2+s) (partial fractions)."""
    q = lam * lam + s
    k = ds
    if dlam == 0:
        return (-1.0) ** k * math.factorial(k) * (s ** (-(k + 1)) - q ** (-(k + 1)))
    # f_lam = 2 lam / q^2; d^k/ds^k = (-1)^k (k+1)! 2 lam q^{-(k+2)}
    return (-1.0) ** k * math.factorial(k + 1) * 2 * lam * q ** (-(k + 2))


def _rho(s, k):
    """rho = (1-4s)^3 on s < 1/4, else 0; k-th s-derivative (C^2 at the edge)."""
    u = 1.0 - 4.0 * s
    pos = u > 0
    if k == 0:
        return np.where(pos, u ** 3, 0.0)
    if k == 1:
        return np.where(pos, -12.0 * u ** 2, 0.0)
    if k == 2:
        return np.where(pos, 96.0 * u, 0.0)
    if k == 3:
        return np.where(pos, -384.0, 0.0)
    return np.zeros_like(s)


def rad_model_h(s, lam, ds=0, dlam=0):
    """f = lam^2 rho(s) for the model correction h."""
    if dlam == 0:
        return lam * lam * _rho(s, ds)
    return 2.0 * lam * _rho(s, ds)


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
    mid = (t > 1.0) & (t < 2.0)
    if order == 1:
        d = 140 * u ** 3 - 420 * u ** 4 + 420 * u ** 5 - 140 * u ** 6
    elif order == 2:
        d = 420 * u ** 2 - 1680 * u ** 3 + 2100 * u ** 4 - 840 * u ** 5
    elif order == 3:
        d = 840 * u - 5040 * u ** 2 + 8400 * u ** 3 - 4200 * u ** 4
    elif order == 4:
        d = 840 - 10080 * u + 25200 * u ** 2 - 16800 * u ** 3
    else:
        raise ValueError("profile derivatives available to order 4")
    return np.where(mid, -d, 0.0)


def _profile_w(w, order=0):
    """Derivatives of P(w) := beta(sqrt(w)) with respect to w."""
    w = np.asarray(w, dtype=float)
    t = np.sqrt(np.maximum(w, 0.0))
    if order == 0:
        return beta_profile(t, 0)
    # all higher derivatives are supported on the transition band 1 < t < 2;
    # divide only there so tiny t never produces 0/0
    mid = (t > 1.0) & (t < 2.0)
    ts = np.where(mid, t, 1.5)
    b1 = beta_profile(ts, 1)
    if order == 1:
        out = b1 / (2 * ts)
    elif order == 2:
        b2 = beta_profile(ts, 2)
        out = b2 / (4 * ts ** 2) - b1 / (4 * ts ** 3)
    elif order == 3:
        b2 = beta_profile(ts, 2)
        b3 = beta_profile(ts, 3)
        out = b3 / (8 * ts ** 3) - 3 * b2 / (8 * ts ** 4) + 3 * b1 / (8 * ts ** 5)
    elif order == 4:
        b2 = beta_profile(ts, 2)
        b3 = beta_profile(ts, 3)
        b4 = beta_profile(ts, 4)
        out = (b4 / (16 * ts ** 4) - 6 * b3 / (16 * ts ** 5)
               + 15 * b2 / (16 * ts ** 6) - 15 * b1 / (16 * ts ** 7))
    else:
        raise ValueError("order must be 0..4")
    return np.where(mid, out, 0.0)


# ---------------------------------------------------------------------------
# atoms


def _scalar_radial_derivs(Y, f, ydirs):
    """d^{|ydirs|}/dy... of f(s), s = |Y|^2, given f = [f0, f1, f2, f3(, f4)]."""
    k = len(ydirs)
    if k == 0:
        return f[0]
    if k == 1:
        (e,) = ydirs
        return 2.0 * Y[:, e] * f[1]
    if k == 2:
        e1, e2 = ydirs
        d = 2.0 * f[1] if e1 == e2 else 0.0
        return d + 4.0 * Y[:, e1] * Y[:, e2] * f[2]
    if k == 3:
        a, b, c = ydirs
        out = 4.0 * f[2] * ((b == c) * Y[:, a] + (a == c) * Y[:, b] + (a == b) * Y[:, c])
        return out + 8.0 * f[3] * Y[:, a] * Y[:, b] * Y[:, c]
    raise ValueError("scalar radial derivatives implemented to order 3")


class LinRadAtom:
    """(M y) * f(s, lam): linear map times radial profile, bound to (p, lam).

    M: (3,4,4) including any constant coefficient factors.  eval returns
    (N,3,4) arrays of the mixed partial d_y^{ydirs} d_lam^{dlam}.
    """

    def __init__(self, M, radial, p, lam):
        self.M = np.asarray(M, dtype=float)
        self.radial = radial
        self.p = np.asarray(p, dtype=float)
        self.lam = float(lam)

    def eval(self, X, ydirs=(), dlam=0):
        Y = X - self.p
        s = np.sum(Y * Y, axis=1)
        k = len(ydirs)
        if k > 3:
            raise ValueError("atom derivatives implemented to order 3")
        f = [self.radial(s, self.lam, ds=j, dlam=dlam) for j in range(k + 1)]
        M = self.M
        # (M y) as one GEMM: (N,4) @ (4,12), rows ordered (a, u)
        My = (Y @ M.reshape(12, 4).T).reshape(-1, 3, 4)
        # My is linear in y, so each derivative falls on f except at most one
        out = None
        for i, e in enumerate(ydirs):
            rest = ydirs[:i] + ydirs[i + 1:]
            v = M[None, :, :, e] * _scalar_radial_derivs(Y, f, rest)[:, None, None]
            out = v if out is None else out + v
        v = My * _scalar_radial_derivs(Y, f, ydirs)[:, None, None]
        return v if out is None else out + v


class BetaAtom:
    """Cutoff factor beta(c |x-p| / lam) = P(w), w = c^2 s / lam^2."""

    def __init__(self, c, p, lam):
        self.c = float(c)
        self.p = np.asarray(p, dtype=float)
        self.lam = float(lam)

    def eval(self, X, ydirs=(), dlam=0):
        Y = X - self.p
        s = np.sum(Y * Y, axis=1)
        a = self.c ** 2 / self.lam ** 2
        w = a * s
        k_needed = len(ydirs) + 1
        P = [_profile_w(w, j) for j in range(k_needed + 1)]
        if dlam == 0:
            f = [a ** j * P[j] for j in range(k_needed)]
        else:
            # d/dlam [a^j P^(j)(w)] = -(2/lam) a^j (j P^(j) + w P^(j+1))
            f = [-(2.0 / self.lam) * a ** j * (j * P[j] + w * P[j + 1])
                 for j in range(k_needed)]
        f = f + [np.zeros_like(s)] * (4 - len(f))
        return _scalar_radial_derivs(Y, f, ydirs)


class BgAtom:
    """Background 1-form Cmat * chi(|x|^2), chi = (1-sigma)^3 on the unit ball."""

    def __init__(self, Cmat, amplitude=1.0):
        self.C = np.asarray(Cmat, dtype=float) * amplitude

    @staticmethod
    def _chi(sig, k):
        u = 1.0 - sig
        pos = u > 0
        if k == 0:
            return np.where(pos, u ** 3, 0.0)
        if k == 1:
            return np.where(pos, -3.0 * u ** 2, 0.0)
        if k == 2:
            return np.where(pos, 6.0 * u, 0.0)
        if k == 3:
            return np.where(pos, -6.0, 0.0)
        return np.zeros_like(sig)

    def eval(self, X, ydirs=(), dlam=0):
        if dlam > 0:
            return np.zeros((X.shape[0], 3, 4))
        sig = np.sum(X * X, axis=1)
        f = [self._chi(sig, j) for j in range(4)]
        scal = _scalar_radial_derivs(X, f, ydirs)
        return self.C[None, :, :] * scal[:, None, None]


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    """coef * beta-factor * (mat @ atom), with symbolic derivative bookkeeping."""

    coef: float
    lie: object
    lie_ydirs: tuple = ()
    lie_dlam: int = 0
    beta: Optional[object] = None
    beta_ydirs: tuple = ()
    beta_dlam: int = 0
    mat: Optional[np.ndarray] = None
    conjugated: bool = False
    x_based: bool = False


def _atom_eval(memo, atom, X, ydirs, dlam):
    # keyed on the atom object itself: the key keeps it alive, so a memo
    # shared across term lists never sees a recycled id
    ydirs = tuple(sorted(ydirs))
    key = (atom, ydirs, dlam)
    if key not in memo:
        memo[key] = atom.eval(X, ydirs, dlam)
    return memo[key]


def _term_value(memo, t: Term, X, extra_ydirs=()):
    """coef * beta * atom of a term with extra spatial derivatives.

    The Leibniz expansion is summed here; the algebra matrix t.mat is left
    for the caller, which applies it once per group of terms sharing it.
    """
    n_extra = len(extra_ydirs)
    out = None
    # distribute extra derivatives between the beta factor and the atom
    idx = range(n_extra)
    for r in range(n_extra + 1):
        for sel in combinations(idx, r):
            beta_dirs = tuple(extra_ydirs[i] for i in sel)
            lie_dirs = tuple(extra_ydirs[i] for i in idx if i not in sel)
            if t.beta is None and beta_dirs:
                continue
            v = _atom_eval(memo, t.lie, X, t.lie_ydirs + lie_dirs, t.lie_dlam)
            if t.beta is not None:
                b = _atom_eval(memo, t.beta, X, t.beta_ydirs + beta_dirs, t.beta_dlam)
                v = v * (t.coef * b)[:, None, None]
            else:
                v = t.coef * v
            out = v if out is None else out + v
    return out


def _terms_sum(memo, terms, X, extra_ydirs=()):
    """Sum of the terms' values, each distinct matrix applied once.

    Terms whose matrices are equal (the conjugation R, or R L_i after a
    rotation derivative) are summed first; the sum is then mapped by one
    (3,3) @ (N,3,4) matmul.
    """
    groups = {}                       # matrix bytes -> [mat, partial sum]
    for t in terms:
        v = _term_value(memo, t, X, extra_ydirs)
        key = None if t.mat is None else t.mat.tobytes()
        if key in groups:
            groups[key][1] += v
        else:
            groups[key] = [t.mat, v]
    out = np.zeros((X.shape[0], 3, 4))
    for mat, v in groups.values():
        out += v if mat is None else np.matmul(mat, v)
    return out


def terms_value(terms, X, memo=None):
    """Value of a term list at X, (N,3,4).

    memo (optional) is an atom-evaluation cache shared by calls at the same
    X; term lists holding the same atom objects then evaluate each atom
    channel once.
    """
    X = np.asarray(X, dtype=float)
    return _terms_sum({} if memo is None else memo, terms, X)


def terms_jac(terms, X, memo=None):
    """Spatial jacobian of a term list at X, (N,3,4,4); memo as terms_value."""
    X = np.asarray(X, dtype=float)
    memo = {} if memo is None else memo
    out = np.empty((X.shape[0], 3, 4, 4))
    for nu in range(4):
        out[..., nu] = _terms_sum(memo, terms, X, (nu,))
    return out


def d_dp(terms, i):
    """d/dp_i of a term list (0-based coordinate index i)."""
    out = []
    for t in terms:
        if not t.x_based:
            out.append(dataclasses.replace(
                t, coef=-t.coef, lie_ydirs=t.lie_ydirs + (i,)))
        if t.beta is not None:
            out.append(dataclasses.replace(
                t, coef=-t.coef, beta_ydirs=t.beta_ydirs + (i,)))
    return out


def d_dlam(terms):
    out = []
    for t in terms:
        if not t.x_based:
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
    out = []
    for t in terms:
        if not t.conjugated:
            continue
        mat = L if t.mat is None else t.mat @ L
        out.append(dataclasses.replace(t, mat=mat))
    return out


# ---------------------------------------------------------------------------
# parameters, charted fields


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class ParamQ:
    """Gluing parameter q = (p, [g], lam) with its eps and admissibility bounds."""

    p: np.ndarray
    g: GroupElement
    lam: float
    eps: float
    d0: float = 0.6
    lam0: float = 0.26
    D1: float = 0.5
    D2: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.p.shape != (4,):
            raise ParamError("p must be a point of R^4")
        if not (0 < 2 * self.lam0 < self.d0):
            raise ParamError("need 0 < 2*lam0 < d0")
        if np.linalg.norm(self.p) >= 1.0 - self.d0:
            raise ParamError(f"|p| = {np.linalg.norm(self.p):.4f} not < 1 - d0 = {1-self.d0}")
        if not (0 < self.lam < self.lam0):
            raise ParamError(f"lam = {self.lam} not in (0, lam0 = {self.lam0})")
        if not (self.eps > 0):
            raise ParamError("eps must be positive")
        if not (self.D1 * self.eps < self.lam ** 2 < self.D2 * self.eps):
            raise ParamError(
                f"lam^2 = {self.lam**2:.5g} not in (D1*eps, D2*eps) = "
                f"({self.D1*self.eps:.5g}, {self.D2*self.eps:.5g})")

    @staticmethod
    def default(eps: float, D: float = 1.0, p=None, g=None) -> "ParamQ":
        p = np.zeros(4) if p is None else np.asarray(p, dtype=float)
        g = GroupElement.identity() if g is None else g
        return ParamQ(p=p, g=g, lam=float(np.sqrt(D * eps)), eps=float(eps))


# default background coefficient pattern: fixed, asymmetric, order-one C^1 norm
DEFAULT_BG_CMAT = np.array([
    [0.6, 0.0, 0.3, 0.0],
    [0.0, 0.5, 0.0, 0.2],
    [0.1, 0.0, 0.4, 0.0],
])


@dataclass(frozen=True)
class BackgroundConnection:
    """Smooth compactly supported stand-in background: Cmat * (1-|x|^2)^3."""

    Cmat: np.ndarray = None
    amplitude: float = 0.5

    def __post_init__(self):
        C = DEFAULT_BG_CMAT if self.Cmat is None else np.asarray(self.Cmat, float)
        object.__setattr__(self, "Cmat", C)

    @staticmethod
    def zero() -> "BackgroundConnection":
        return BackgroundConnection(Cmat=np.zeros((3, 4)), amplitude=0.0)

    def atom(self) -> BgAtom:
        return BgAtom(self.Cmat, self.amplitude)


@dataclass
class ChartedField:
    """A 1-form field in the two-chart representation split at |x-p| = lam/4."""

    p: np.ndarray
    lam: float
    inner_terms: list
    outer_terms: list
    name: str = ""

    def chart_radius(self) -> float:
        return self.lam / 4.0

    def value_split(self, X, mask_inner):
        """Chart-consistent value on a batch with a given inner-chart mask."""
        return sample_charted([self], X, mask_inner, need_jac=False)[0][0]


def sample_charted(fields, X, mask_inner, need_jac=True):
    """Values (and jacobians) of charted fields at X in one pass per chart.

    Each chart's nodes are cut out once and every field is evaluated there
    with one atom memo, so fields holding the same atom objects (the
    derivative_fields of one connection) evaluate each atom channel once.
    The memo lives only for the pass.  Returns (val, jac) pairs, jac None
    when need_jac is false.
    """
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    vals = [np.zeros((N, 3, 4)) for _ in fields]
    jacs = [np.zeros((N, 3, 4, 4)) if need_jac else None for _ in fields]
    for sel, chart in ((mask_inner, "inner_terms"), (~mask_inner, "outer_terms")):
        if not np.any(sel):
            continue
        Xs = X[sel]
        memo = {}
        for f, val, jac in zip(fields, vals, jacs):
            terms = getattr(f, chart)
            val[sel] = terms_value(terms, Xs, memo=memo)
            if need_jac:
                jac[sel] = terms_jac(terms, Xs, memo=memo)
    return list(zip(vals, jacs))


# ---------------------------------------------------------------------------
# the family


PI2_STRATEGIES = ("zero", "model", "full")


def _strategy_h_atoms(q: ParamQ, pi2: str):
    """Term templates (no beta, unconjugated) for h := I2 - PI2 per strategy."""
    if pi2 not in PI2_STRATEGIES:
        raise ValueError(f"unknown pi2 strategy {pi2!r}; use one of {PI2_STRATEGIES}")
    if pi2 == "zero":      # PI2 = 0, h = I2
        return [(1.0, LinRadAtom(2 * ETABAR, rad_i2, q.p, q.lam))]
    if pi2 == "model":     # PI2 = I2 - lam^2 Theta, h = lam^2 Theta
        return [(1.0, LinRadAtom(2 * ETABAR, rad_model_h, q.p, q.lam))]
    return []              # "full": PI2 = I2, h = 0


def _i1_atom(q: ParamQ):
    return LinRadAtom(2 * ETA, rad_i1, q.p, q.lam)


def _i2_atom(q: ParamQ):
    return LinRadAtom(2 * ETABAR, rad_i2, q.p, q.lam)


def _inner_terms(q: ParamQ) -> list:
    R = adjoint_matrix(q.g)
    return [Term(1.0 / q.eps, lie=_i1_atom(q), mat=R, conjugated=True)]


def _outer_terms_glued(q: ParamQ, bg: BackgroundConnection, pi2: str) -> list:
    R = adjoint_matrix(q.g)
    beta_lam = BetaAtom(1.0, q.p, q.lam)
    beta_q = BetaAtom(4.0, q.p, q.lam)
    bga = bg.atom()
    terms = [
        Term(1.0, lie=bga, x_based=True),
        Term(-1.0, lie=bga, x_based=True, beta=beta_lam),
    ]
    if pi2 == "zero":
        terms.append(Term(1.0 / q.eps, lie=_i2_atom(q), mat=R, conjugated=True,
                          beta=beta_q))
    else:
        terms.append(Term(1.0 / q.eps, lie=_i2_atom(q), mat=R, conjugated=True))
        for c, atom in _strategy_h_atoms(q, pi2):
            terms.append(Term(-c / q.eps, lie=atom, mat=R, conjugated=True))
            terms.append(Term(c / q.eps, lie=atom, mat=R, conjugated=True,
                              beta=beta_q))
    return terms


def glued_connection(q: ParamQ, bg: BackgroundConnection = None,
                     pi2: str = "model") -> ChartedField:
    """The glued family member A(q): background + cutoff instanton of scale lam.

    Outer chart: (1-beta_lam) bg + (1/eps) beta_{lam/4} g I2 g^{-1}
                 + (1/eps)(1 - beta_{lam/4}) g PI2 g^{-1}   (expanded per strategy);
    inner chart: (1/eps) g I1 g^{-1}.
    """
    bg = BackgroundConnection() if bg is None else bg
    return ChartedField(q.p, q.lam, _inner_terms(q),
                        _outer_terms_glued(q, bg, pi2), name="A")


def extended_connection(q: ParamQ) -> ChartedField:
    """The extension: pure (1/eps)-scaled instanton in both charts, on all of R^4."""
    R = adjoint_matrix(q.g)
    outer = [Term(1.0 / q.eps, lie=_i2_atom(q), mat=R, conjugated=True)]
    return ChartedField(q.p, q.lam, _inner_terms(q), outer, name="Atilde")


def difference_b(q: ParamQ, bg: BackgroundConnection = None,
                 pi2: str = "model") -> ChartedField:
    """b(q) = extension minus glued family member (identically 0 on the inner chart).

    Derived directly from the definitions:
        b = (beta_lam - 1) bg + (1/eps)(1 - beta_{lam/4}) g h g^{-1},  h = I2 - PI2.
    """
    bg = BackgroundConnection() if bg is None else bg
    R = adjoint_matrix(q.g)
    beta_lam = BetaAtom(1.0, q.p, q.lam)
    beta_q = BetaAtom(4.0, q.p, q.lam)
    bga = bg.atom()
    outer = [
        Term(-1.0, lie=bga, x_based=True),
        Term(1.0, lie=bga, x_based=True, beta=beta_lam),
    ]
    for c, atom in _strategy_h_atoms(q, pi2):
        outer.append(Term(c / q.eps, lie=atom, mat=R, conjugated=True))
        outer.append(Term(-c / q.eps, lie=atom, mat=R, conjugated=True, beta=beta_q))
    return ChartedField(q.p, q.lam, [], outer, name="b")


DIRECTIONS = ("p1", "p2", "p3", "p4", "xi1", "xi2", "xi3", "lam")


def _apply_direction(terms, direction: str):
    if direction in ("p1", "p2", "p3", "p4"):
        return d_dp(terms, int(direction[1]) - 1)
    if direction in ("xi1", "xi2", "xi3"):
        return d_dxi(terms, int(direction[2]))
    if direction in ("lam", "lambda"):
        return d_dlam(terms)
    raise ValueError(f"unknown direction {direction!r}; use one of {DIRECTIONS}")


def derivative_fields(A: ChartedField, directions=DIRECTIONS,
                      name: str = "dA") -> list:
    """Parameter derivatives of one family member, one field per direction.

    Every field is derived from A's own term lists, so all of them hold A's
    atom objects and sample_charted shares one atom memo across them.
    """
    return [ChartedField(A.p, A.lam,
                         _apply_direction(A.inner_terms, d),
                         _apply_direction(A.outer_terms, d),
                         name=f"{name}/d{d}")
            for d in directions]


def d2A_dp1p1(q: ParamQ, bg: BackgroundConnection = None,
              pi2: str = "model") -> ChartedField:
    """Second p1-derivative of the glued family (exact term-level differentiation)."""
    bg = BackgroundConnection() if bg is None else bg
    A = glued_connection(q, bg, pi2)
    return ChartedField(q.p, q.lam,
                        d_dp(d_dp(A.inner_terms, 0), 0),
                        d_dp(d_dp(A.outer_terms, 0), 0),
                        name="d2A/dp1^2")
