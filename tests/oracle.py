"""Reference implementation the tests compare the library against.

The library samples closed-form ChartedField term lists into NodeField
arrays.  The oracle here is the lazy route: a FormField is a vectorized
evaluator with optional analytic jacobian and hessian channels (missing ones
fall back to finite differences).  Its channels are node-first, (N, 3, C),
and its operators evaluate them with the library's node-last array kernels
through the node-first adapters below.  The helpers at the end turn
FormFields into (node-last) NodeFields on a rule, so they can enter the
library's pairings, give the energy's first and second variations in a
sampled direction (grad_pairing, hessian_form), and build the suite-3.7
bump probes on the full rule, as an independent check of the probe shapes
of functionals.test_field_family and their closed-form Grams
(full_rule_shape_gram).  SU(2) is here as unit quaternions on plain
(4,) arrays (qmul, qconj, qexp, ad, bracket), the reference for
liealg.rotation and for the charts' transition.  Last come the whole-rule
references for routes the library streams: the raw Gram summed in long
double over the whole rule, chart sampling scattered through boolean masks,
the suite-3.7 probes paired one at a time with the representer kernel run
on the whole rule, and their direct differences in long double.  The last section pairs basis
combinations the explicit way, combining the eight fields node by node
before any pairing, against the library's reading of those pairings through
the coefficient matrix; it holds the node-field arithmetic (lincomb) and the
whole-rule samples of a basis' raw fields, which the library never forms,
and combine, the node-wise reference for term lists folded by
instanton.linear_combination.  The next section takes suite 3.10's FD with
C rebuilt at every shifted point, the reference for the library's FD on
the base point's C: a context, Gram and MGS per shifted point (rebuilt_fd)
and coefficient rows combined node by node on each block (rows_gram).
The term-list helpers include d2A_dp1p1, the exact second p1-derivative of
the family, which suite 3.10 no longer needs.  The final section builds the
polar rules of the rule self-check node by node and integrates its density
over them (integrate, the weighted sum of a density over a rule's nodes,
with its shape and finiteness checks), the reference for the library's
node-free radial sums.
"""

import numpy as np

from ymeps.basis import (
    _H_REL,
    InnerContext,
    NodeField,
    _raw_gram,
    _sample_blocks,
    _shift_along,
    ball_context,
    mgs_coefficients,
    project_perp,
    weighted_context,
)
from ymeps.functionals import (
    _DPHI_MAP,
    _bump_channels,
    _representer,
    test_field_family,
)
from ymeps.forms import (
    N_COMP,
    NumericalError,
    QuadratureRule,
    _radial_pieces,
    bracket_wedge_coeffs,
    cdot,
    codiff_coeffs,
    cov_d_coeffs,
    cov_grad_scaled,
    curvature_coeffs,
    d_coeffs,
    s3_nodes,
    weighted_sum,
)
from ymeps.instanton import (
    DIRECTIONS,
    ETA,
    ETABAR,
    ChartedField,
    LinRadAtom,
    Term,
    _terms_sum,
    beta_profile,
    d_dp,
    derivative_fields,
    difference_b,
    extended_connection,
    glue,
    glued_connection,
    linear_combination,
    rad_i1,
    rad_i2,
    sample_charted,
    terms_jac,
    terms_value,
)


def _as_batch(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X[None, :]
    return X


# ---------------------------------------------------------------------------
# node-first adapters of the node-last kernels


def node_last(x) -> np.ndarray:
    """A node-first array (N, ...) as a C-contiguous node-last copy (..., N)."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def node_first(x) -> np.ndarray:
    """A node-last array (..., N) as a C-contiguous node-first copy (N, ...)."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


def bracket_nf(degree, a_vals, w_vals):
    """bracket_wedge_coeffs on node-first arrays: (N,3,4), (N,3,C_k)."""
    return node_first(bracket_wedge_coeffs(degree, node_last(a_vals),
                                           node_last(w_vals)))


def d_nf(degree, jac):
    """d_coeffs on a node-first jacobian (N,3,C,4)."""
    return node_first(d_coeffs(degree, node_last(jac)))


def cov_d_nf(k, Aval, val, jac, eps):
    """cov_d_coeffs on node-first arrays."""
    return node_first(cov_d_coeffs(k, node_last(Aval), node_last(val),
                                   node_last(jac), eps))


def codiff_nf(k, Aval, val, jac, eps):
    """codiff_coeffs on node-first arrays."""
    return node_first(codiff_coeffs(k, node_last(Aval), node_last(val),
                                    node_last(jac), eps))


def cov_grad_coeffs(Aval, val, jac, eps: float) -> np.ndarray:
    """grad_A^eps a of a 1-form: out[a,mu,nu,n] = d_nu a_mu + eps [A_nu, a_mu],
    (3,4,4,N) (cov_grad_scaled with At = eps * Aval)."""
    return cov_grad_scaled(eps * Aval, val, jac)


def cov_grad_nf(Aval, val, jac, eps):
    """cov_grad_coeffs on node-first arrays: (N,3,4,4)."""
    return node_first(cov_grad_coeffs(node_last(Aval), node_last(val),
                                      node_last(jac), eps))


def cdot_nf(a, b):
    """The coefficient dot density (N,) of node-first arrays."""
    return np.einsum("nac,nac->n", a, b, optimize=False)


# ---------------------------------------------------------------------------
# the field type


class FormField:
    """A k-form field: vectorized evaluator with optional analytic derivatives.

    value_fn(X: (N,4)) -> (N,3,C); jac_fn -> (N,3,C,4); hess_fn -> (N,3,C,4,4).
    Missing derivative channels fall back to Richardson-extrapolated central
    differences (base step 1e-4 * local scale).
    """

    def __init__(self, degree: int, value_fn, jac_fn=None, hess_fn=None):
        if degree not in range(5):
            raise ValueError(f"degree must be 0..4, got {degree}")
        self.degree = degree
        self._value = value_fn
        self._jac = jac_fn
        self._hess = hess_fn

    # -- evaluation ---------------------------------------------------------
    def value(self, X) -> np.ndarray:
        return self._value(_as_batch(X))

    def jac(self, X) -> np.ndarray:
        X = _as_batch(X)
        if self._jac is not None:
            return self._jac(X)
        return _fd_derivative(self._value, X)

    def hess(self, X) -> np.ndarray:
        X = _as_batch(X)
        if self._hess is not None:
            return self._hess(X)
        if self._jac is not None:
            return _fd_derivative(self._jac, X)
        return _fd_derivative(lambda Y: _fd_derivative(self._value, Y), X)

    @property
    def has_analytic_jac(self) -> bool:
        return self._jac is not None

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "FormField") -> "FormField":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in field sum")
        jac = None
        if self._jac is not None and other._jac is not None:
            jac = lambda X: self._jac(X) + other._jac(X)
        hess = None
        if self._hess is not None and other._hess is not None:
            hess = lambda X: self._hess(X) + other._hess(X)
        return FormField(self.degree, lambda X: self._value(X) + other._value(X),
                         jac, hess)

    def __mul__(self, c: float) -> "FormField":
        jac = None if self._jac is None else (lambda X: self._jac(X) * c)
        hess = None if self._hess is None else (lambda X: self._hess(X) * c)
        return FormField(self.degree, lambda X: self._value(X) * c, jac, hess)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)


def _fd_derivative(fn, X, base_h: float = 1e-4):
    """Central-difference derivative with one Richardson level, per axis.

    fn maps (N,4) -> array with leading axis N; result appends a length-4 axis.
    Step = base_h * max(1, |x|) per node (local scale).
    """
    X = _as_batch(X)
    scale = np.maximum(1.0, np.linalg.norm(X, axis=1))
    probe = fn(X)
    out = np.zeros(probe.shape + (4,))
    for nu in range(4):
        h = base_h * scale
        e = np.zeros_like(X)
        e[:, nu] = h
        hshape = (slice(None),) + (None,) * (probe.ndim - 1)
        d1 = (fn(X + e) - fn(X - e)) / (2 * h[hshape])
        e2 = np.zeros_like(X)
        e2[:, nu] = h / 2
        d2 = (fn(X + e2) - fn(X - e2)) / (h[hshape])
        out[..., nu] = (4 * d2 - d1) / 3.0
    return out


def constant_form(degree: int, coeffs) -> FormField:
    """The constant k-form with (3, C_k) coefficients; zero derivatives."""
    coeffs = np.asarray(coeffs, dtype=float)
    v = lambda X: np.broadcast_to(coeffs, (X.shape[0],) + coeffs.shape).copy()
    zj = lambda X: np.zeros((X.shape[0], 3, N_COMP[degree], 4))
    zh = lambda X: np.zeros((X.shape[0], 3, N_COMP[degree], 4, 4))
    return FormField(degree, v, zj, zh)


def bump_one_form(center, scale, coeff, degree: int = 1,
                  power: int = 3) -> FormField:
    """Compactly supported k-form (1-|y|^2/s^2)^power * coeff, analytic jac.

    coeff is the (3, C_k) coefficient pattern, y = x - center; power sets the
    smoothness at the support boundary (C^{power-1}).
    """
    c = np.asarray(center, dtype=float)
    C = np.asarray(coeff, dtype=float)

    def value(X):
        u = 1.0 - np.sum((X - c) ** 2, axis=1) / scale ** 2
        prof = np.where(u > 0, u ** power, 0.0)
        return C[None, :, :] * prof[:, None, None]

    def jac(X):
        Y = X - c
        u = 1.0 - np.sum(Y * Y, axis=1) / scale ** 2
        dprof = np.where(u > 0, power * u ** (power - 1), 0.0) * (-2.0 / scale ** 2)
        return C[None, :, :, None] * (dprof[:, None] * Y)[:, None, None, :]

    return FormField(degree, value, jac)


# ---------------------------------------------------------------------------
# operators: the array kernels applied to evaluated channels


def wedge_bracket(alpha: FormField, beta: FormField) -> FormField:
    """[alpha ^ beta] for two 1-forms: ([a^b])_{mu nu} = [a_mu,b_nu] - [a_nu,b_mu].

    Symmetric in (alpha, beta) because the algebra bracket is antisymmetric.
    """
    if alpha.degree != 1 or beta.degree != 1:
        raise ValueError("wedge_bracket needs two 1-forms")

    def value(X):
        return bracket_nf(1, alpha.value(X), beta.value(X))

    jac = None
    if alpha.has_analytic_jac and beta.has_analytic_jac:
        def jac(X):
            av, bv = alpha.value(X), beta.value(X)
            aj, bj = alpha.jac(X), beta.jac(X)
            return np.stack([bracket_nf(1, aj[..., nu], bv)
                             + bracket_nf(1, av, bj[..., nu])
                             for nu in range(4)], axis=-1)

    return FormField(2, value, jac)


def exterior_d(omega: FormField) -> FormField:
    """Exterior derivative; analytic when omega has a jac channel, else FD."""
    if omega.degree >= 4:
        raise ValueError("d of a 4-form on R^4 is zero-dimensional; not supported")
    k = omega.degree

    def value(X):
        return d_nf(k, omega.jac(X))

    def jac(X):
        H = omega.hess(X)  # (N,3,C,4,4)
        return np.stack([d_nf(k, H[..., nu]) for nu in range(4)], axis=-1)

    return FormField(k + 1, value, jac)


def covariant_d_eps(A: FormField, omega: FormField, eps: float) -> FormField:
    """d_A^eps w = dw + eps [A ^ w]."""
    if A.degree != 1:
        raise ValueError("connection must be a 1-form")
    if omega.degree >= 4:
        raise ValueError("d of a 4-form on R^4 is zero-dimensional; not supported")
    k = omega.degree

    def value(X):
        return cov_d_nf(k, A.value(X), omega.value(X), omega.jac(X), eps)

    def jac(X):
        # d_nu (d_A w) = d_A (d_nu w) + eps [d_nu A ^ w]
        Av, Aj = A.value(X), A.jac(X)
        wv, wj, wh = omega.value(X), omega.jac(X), omega.hess(X)
        return np.stack([cov_d_nf(k, Av, wj[..., nu], wh[..., nu], eps)
                         + eps * bracket_nf(k, Aj[..., nu], wv)
                         for nu in range(4)], axis=-1)

    return FormField(k + 1, value, jac)


def codifferential_eps(A: FormField, omega: FormField, eps: float) -> FormField:
    """Formal adjoint of d_A^eps on flat R^4: -* d_A^eps * (all degrees k>=1)."""
    if omega.degree < 1:
        raise ValueError("codifferential needs degree >= 1")
    k = omega.degree

    def value(X):
        return codiff_nf(k, A.value(X), omega.value(X), omega.jac(X), eps)

    return FormField(k - 1, value)


def covariant_grad_eps(A: FormField, alpha: FormField, eps: float):
    """Return evaluator X -> (N,3,4,4) of all 16 components of grad_A^eps alpha."""
    if A.degree != 1 or alpha.degree != 1:
        raise ValueError("covariant_grad_eps expects 1-forms")

    def evaluate(X):
        X = _as_batch(X)
        return cov_grad_nf(A.value(X), alpha.value(X), alpha.jac(X), eps)

    return evaluate


# ---------------------------------------------------------------------------
# term lists and charted fields as FormFields


def terms_hess(terms, X):
    """Spatial hessian of a term list at X, node-first (N,3,4,4,4)."""
    X = np.asarray(X, dtype=float)
    out = np.empty((X.shape[0], 3, 4, 4, 4))
    memo = {}
    for nu in range(4):
        for rho in range(nu, 4):
            v = np.empty((3, 4, X.shape[0]))
            _terms_sum(memo, terms, X, (nu, rho), v)
            out[..., nu, rho] = out[..., rho, nu] = node_first(v)
    return out


def terms_form_field(terms) -> FormField:
    return FormField(1, lambda X: node_first(terms_value(terms, X)),
                     lambda X: node_first(terms_jac(terms, X)),
                     lambda X: terms_hess(terms, X))


def inner_field(A) -> FormField:
    """The inner-chart term list of a ChartedField, on all of R^4."""
    return terms_form_field(A.inner_terms)


def outer_field(A) -> FormField:
    """The outer-chart term list of a ChartedField, on all of R^4."""
    return terms_form_field(A.outer_terms)


def d2A_dp1p1(q, pi2: str = "model") -> ChartedField:
    """Second p1-derivative of the glued family (exact term-level
    differentiation)."""
    A = glued_connection(q, pi2=pi2)
    return ChartedField(q.p, q.lam,
                        d_dp(d_dp(A.inner_terms, 0), 0),
                        d_dp(d_dp(A.outer_terms, 0), 0))


def i1_form(lam: float, p) -> FormField:
    """Inner-chart instanton 1-form: coefficients 2(eta y)/(lam^2+|y|^2)."""
    atom = LinRadAtom(2 * ETA, rad_i1, np.asarray(p, float), lam)
    return terms_form_field([Term(1.0, lie=atom)])


def i2_form(lam: float, p) -> FormField:
    """Outer-chart instanton 1-form: coefficients 2(etabar y)(1/s - 1/(lam^2+s))."""
    atom = LinRadAtom(2 * ETABAR, rad_i2, np.asarray(p, float), lam)
    return terms_form_field([Term(1.0, lie=atom)])


def cutoff(lam: float, p, scale: float, x, order: int = 0):
    """beta(|x-p|/scale) (scale is lam or lam/4); radial t-derivative of given order.

    order=k returns d^k/dt^k beta evaluated at t = |x-p|/scale; spatial and
    parameter derivatives used in the fields go through the atom channels.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = x[None, :] if single else x
    t = np.linalg.norm(X - np.asarray(p, dtype=float), axis=1) / scale
    out = beta_profile(t, order)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# SU(2) as unit quaternions (4,), the reference for liealg.rotation and for
# the charts' transition: e_i = u_i/2 is the pure quaternion (0, x/2)


def qmul(a, b) -> np.ndarray:
    """Hamilton product of quaternions on the last axis; (4,) and (N,4) broadcast."""
    a0, a1, a2, a3 = (a[..., i] for i in range(4))
    b0, b1, b2, b3 = (b[..., i] for i in range(4))
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def qconj(a) -> np.ndarray:
    """Quaternion conjugate on the last axis: the inverse of a unit quaternion."""
    return np.asarray(a, dtype=float) * np.array([1.0, -1.0, -1.0, -1.0])


def qexp(x) -> np.ndarray:
    """exp(x . e) as a unit quaternion: the image (0, x/2) has length
    theta = |x|/2, so exp = cos(theta) + sin(theta) x/|x|."""
    x = np.asarray(x, dtype=float)
    t = float(np.linalg.norm(x))
    if t == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate(([np.cos(t / 2)], np.sin(t / 2) * x / t))


def ad(g) -> np.ndarray:
    """Ad(g) (3,3) on e-coefficients, by conjugation X -> g X g^{-1} of a
    unit quaternion g: column i is Im(g u_i g^{-1}), as the halving of
    e_i = u_i/2 and the doubling back to coefficients cancel."""
    return np.stack([qmul(qmul(g, u), qconj(g))[1:] for u in np.eye(4)[1:]],
                    axis=1)


def bracket(x, y) -> np.ndarray:
    """Lie bracket [X, Y] of e-coefficients (3,), as the quaternion commutator.

    In e-basis coefficients this equals the cross product, which the library
    uses; the commutator route is the definition.
    """
    qx = np.concatenate(([0.0], np.asarray(x, dtype=float) / 2))
    qy = np.concatenate(([0.0], np.asarray(y, dtype=float) / 2))
    # imaginary part, rescaled back to e-coefficients (factor 2)
    return 2.0 * (qmul(qx, qy) - qmul(qy, qx))[1:]


def transition_quaternion(p, g, X) -> np.ndarray:
    """g * g12(x) * g^{-1} as unit quaternions (N,4), g12 = (x-p)/|x-p|, for
    a unit quaternion g."""
    Y = np.asarray(X, dtype=float) - np.asarray(p, dtype=float)
    g12 = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return qmul(qmul(g, g12), qconj(g))


# ---------------------------------------------------------------------------
# FormFields in the library's pairings


def flat_context(rule, eps: float) -> InnerContext:
    """An InnerContext on rule with the zero connection."""
    return InnerContext(rule, eps, np.zeros((3, 4, len(rule))))


def sample_form(f: FormField, rule) -> NodeField:
    """f's value and jacobian channels on the rule's nodes, node-last."""
    return NodeField(rule, node_last(f.value(rule.nodes)),
                     node_last(f.jac(rule.nodes)))


def grad_pairing(A, a: NodeField, eps: float, rule) -> float:
    """First variation of the energy at the charted connection A in
    direction a, a NodeField on rule: 2 int <F, d_A a> over the rule."""
    ((Av, Aj),) = sample_charted([A], rule.nodes, rule.n_inner)
    F = curvature_coeffs(Av, Aj, eps)
    da = cov_d_coeffs(1, Av, a.val, a.jac, eps)
    return weighted_sum(rule.weights, cdot(F, da))


def hessian_form(A, a: NodeField, b: NodeField, eps: float, rule) -> float:
    """Second variation of the energy at A over the rule, a and b NodeFields
    on it:

        H(a,b) = 2 int <d_A^eps a, d_A^eps b> + 2 int <F_A^eps, eps [a ^ b]>.
    """
    ((Av, Aj),) = sample_charted([A], rule.nodes, rule.n_inner)
    F = curvature_coeffs(Av, Aj, eps)
    da = cov_d_coeffs(1, Av, a.val, a.jac, eps)
    db = cov_d_coeffs(1, Av, b.val, b.jac, eps)
    ab = bracket_wedge_coeffs(1, a.val, b.val)
    return weighted_sum(rule.weights, cdot(da, db) + eps * cdot(F, ab))


def full_rule_probe_draws(q, ctx, n: int, seed: int):
    """Every candidate of the seeded probe family as (center, scale, probe).

    The draws follow test_field_family's RNG order.  probe is the bump
    sampled on all of ctx.rule and scaled to unit full-rule inner_nf norm,
    or None for a candidate rejected as numerically zero.
    """
    rng = np.random.default_rng(seed)
    scales = [q.lam / 4.0, q.lam, 1.0]
    draws = []
    k = 0
    while sum(p is not None for _, _, p in draws) < n:
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
        nf = sample_form(bump_one_form(center, sc, C), ctx.rule)
        nrm2 = ctx.inner_nf(nf, nf)
        draws.append((center, sc, lincomb([1.0 / np.sqrt(nrm2)], [nf])
                      if nrm2 > 1e-20 else None))
    return draws


def full_rule_probes(q, ctx, n: int, seed: int):
    """The n accepted probes of full_rule_probe_draws, as NodeFields."""
    return [p for _, _, p in full_rule_probe_draws(q, ctx, n, seed)
            if p is not None]


def full_rule_shape_gram(ctx, center, scale) -> np.ndarray:
    """The raw Gram, over all of ctx.rule, of the 12 bumps E phi of one
    probe shape, E running over the unit 3x4 coefficients in C.ravel()
    order."""
    return _raw_gram(ctx, [sample_form(bump_one_form(center, scale, E),
                                       ctx.rule)
                           for E in np.eye(12).reshape(12, 3, 4)])


# ---------------------------------------------------------------------------
# whole-rule routes the library streams


def long_double_gram(ctx: InnerContext, nodefields) -> np.ndarray:
    """The raw Gram of node fields over the whole rule, summed in long double.

    Row k of M holds field k's weighted gradient entries, then its weighted
    value entries, so M @ M.T pairs every two fields in ctx; the products are
    summed in long double over blocks of M's columns, whose round-off lies far
    below that of any float64 summation order.
    """
    N = len(ctx.rule)
    sw = np.sqrt(ctx.rule.weights)
    sl = sw * np.sqrt(ctx.wvals) if ctx.weighted else sw
    M = np.empty((len(nodefields), N * 60))
    for row, nf in zip(M, nodefields):
        np.multiply(ctx.grad_of(nf.val, nf.jac).reshape(48, N), sw,
                    out=row[:N * 48].reshape(48, N))
        np.multiply(nf.val.reshape(12, N), sl, out=row[N * 48:].reshape(12, N))
    G = np.zeros((len(M), len(M)), np.longdouble)
    for k in range(0, M.shape[1], 1 << 16):
        B = M[:, k:k + (1 << 16)].astype(np.longdouble)
        G += B @ B.T
    return G


def scatter_sample_charted(fields, X, mask_inner):
    """Node-last (val, jac) of charted fields at X: each chart evaluated on
    X[mask] with one atom memo and scattered into zero-filled arrays through
    the mask on the node axis."""
    N = X.shape[0]
    out = [(np.zeros((3, 4, N)), np.zeros((3, 4, 4, N))) for _ in fields]
    for sel, chart in ((mask_inner, "inner_terms"), (~mask_inner, "outer_terms")):
        if not np.any(sel):
            continue
        Xs = X[sel]
        memo = {}
        for f, (val, jac) in zip(fields, out):
            terms = getattr(f, chart)
            val[..., sel] = terms_value(terms, Xs, memo=memo)
            jac[..., sel] = terms_jac(terms, Xs, memo=memo)
    return out


def probe_pairings(R, wphi, coeff) -> np.ndarray:
    """The four pairings (HA, HAt, five-term expansion, two-term expansion)
    of the probe coeff * phi with a node-first representer R (N, rows),
    given the weighted channels w * phi on the same rows:
    sum_{a,nu} C_{a nu} L_{a nu}, with L = sum w (V phi + P^mu d_mu phi)
    read off one GEMM (w phi) @ R; R's first _DPHI_MAP.shape[1] columns are
    the phi ones."""
    G = wphi @ R
    n_phi = _DPHI_MAP.shape[1]
    L = G[0, :n_phi] + G[1:, n_phi:].reshape(-1) @ _DPHI_MAP
    return L.reshape(-1, 12) @ coeff.reshape(12)


def whole_rule_representers(q, pi2, basis, ctx) -> dict:
    """{tag: Rt (rows, N)}: the library's representer kernel run once per
    tag on the five fields A, Atilde, b, a_1 and a_5 (folded as the library
    folds them) sampled on the whole rule."""
    eps = q.eps
    At, b = extended_connection(q), difference_b(q, pi2=pi2)
    A = glue(At, b)
    raw = derivative_fields(A, DIRECTIONS[:5])
    tags = {tag: linear_combination(raw, basis.coeff[i, :5])
            for tag, i in (("i1", 0), ("i5", 4))}
    (A_, jA), (At_, jAt), (b_, jb), *samples = [
        (nf.val, nf.jac) for nf in ctx.arrays([A, At, b, *tags.values()])]
    FA = curvature_coeffs(A_, jA, eps)
    FAt = curvature_coeffs(At_, jAt, eps)
    Fb = (cov_d_coeffs(1, A_, b_, jb, eps)
          + 0.5 * eps * bracket_wedge_coeffs(1, b_, b_))
    n_dphi, n_phi = _DPHI_MAP.shape
    out = {}
    for tag, (val, jac) in zip(tags, samples):
        out[tag] = np.empty((n_phi + n_dphi // 4, len(ctx.rule)))
        _representer(eps, A_, At_, b_, FA, FAt, Fb, val, jac, out[tag])
    return out


def per_probe_l37(q, pi2, basis, ctx, seed: int, n_test: int) -> dict:
    """The l37 metrics with every probe paired on its own: its weighted
    channels, zero-padded to the whole rule, times the whole representer
    (one (5, N) @ (N, rows) product per probe and tag).  The dual norms are
    read from the same expansion columns as the library's."""
    nodes, weights = ctx.rule.nodes, ctx.rule.weights
    shapes = test_field_family(q, ctx, n_test, seed)
    wphi = np.zeros((5, len(nodes)))
    out, resid = {}, 0.0
    for tag, Rt in whole_rule_representers(q, pi2, basis, ctx).items():
        sup_h = sup_c = 0.0
        for s, center, scale, coeffs in shapes:
            wphi[:, s] = _bump_channels(nodes[s], center, scale) * weights[s]
            for coeff in coeffs:
                HA, HAt, expansion, codiff = probe_pairings(Rt.T, wphi, coeff)
                sup_h = max(sup_h, abs(expansion))
                resid = max(resid, abs(HAt - HA - expansion)
                            / max(abs(HA), abs(HAt), 1.0))
                sup_c = max(sup_c, abs(codiff))
            wphi[:, s] = 0.0
        out[f"hess_dual_{tag}"] = sup_h
        out[f"codiff_dual_{tag}"] = sup_c
    out["five_term_residual"] = resid
    return out


def long_double_l37_differences(q, pi2, basis, ctx, shapes,
                                dtype=np.longdouble) -> dict:
    """{tag: (n, 2)} direct differences (HAt - HA, cAt - cA) of every probe
    of the shapes, in shape order, each pairing formed and summed in dtype
    over its support.

    The samples of A, Atilde and a_1, a_5 (combined in float64, as the
    library combines them), the probes' channels and the weights are the
    library's float64 inputs; everything after them runs in dtype.  In long
    double (64-bit mantissa where the platform has it) each difference keeps
    about 3 more digits than in float64."""
    At, b = extended_connection(q), difference_b(q, pi2=pi2)
    A = glue(At, b)
    nfs = ctx.arrays([A, At] + derivative_fields(A, DIRECTIONS[:5]))
    (Av, jA), (Atv, jAt) = [(nf.val.astype(dtype), nf.jac.astype(dtype))
                            for nf in nfs[:2]]
    raw = [(nf.val, nf.jac) for nf in nfs[2:]]
    eps, w = dtype(q.eps), ctx.rule.weights.astype(dtype)
    nodes = ctx.rule.nodes
    out = {}
    for tag, i in (("i1", 0), ("i5", 4)):
        val, jac = (x.astype(dtype) for x in combine(basis.coeff[i, :5], raw))
        diffs = []
        for s, center, scale, coeffs in shapes:
            phi = _bump_channels(nodes[s], center, scale).astype(dtype)
            a, ja, ws = val[..., s], jac[..., s], w[s]
            for C in coeffs.astype(dtype):
                bv, bj = C[:, :, None] * phi[0], C[:, :, None, None] * phi[1:]
                H, c = [], []
                for Cv, jC in ((Av[..., s], jA[..., s]),
                               (Atv[..., s], jAt[..., s])):
                    F = curvature_coeffs(Cv, jC, eps)
                    H.append(np.sum(ws * (
                        cdot(cov_d_coeffs(1, Cv, a, ja, eps),
                             cov_d_coeffs(1, Cv, bv, bj, eps))
                        + eps * cdot(F, bracket_wedge_coeffs(1, a, bv)))))
                    c.append(np.sum(ws * cdot(
                        codiff_coeffs(1, Cv, a, ja, eps),
                        codiff_coeffs(1, Cv, bv, bj, eps))))
                diffs.append((H[1] - H[0], c[1] - c[0]))
        out[tag] = np.array(diffs, dtype=dtype)
    return out


# ---------------------------------------------------------------------------
# basis combinations formed node by node


def combine(coeffs, samples) -> tuple:
    """sum_j c_j f_j over samples (val, jac) of fields on one set of nodes,
    into fresh arrays; zero coefficients are skipped, so a unit row copies
    its field.  The node-wise reference for folded term lists: the sum runs
    in place, one coefficient at a time and in order, each term formed in
    one scratch."""
    val, jac = samples[0]
    out = (np.empty(val.shape), np.empty(jac.shape))
    tmp = np.empty(jac.size)
    first = True
    for cj, (v, j) in zip(coeffs, samples):
        if cj == 0.0:
            continue
        for src, dst in zip((v, j), out):
            if first:
                np.multiply(src, cj, out=dst)
            else:
                term = tmp[:dst.size].reshape(dst.shape)
                np.multiply(src, cj, out=term)
                dst += term
        first = False
    return out


def lincomb(coeffs, nodefields) -> NodeField:
    """sum_k c_k v_k of node fields on one rule, summed node by node in
    order."""
    return NodeField(nodefields[0].rule,
                     sum(c * nf.val for c, nf in zip(coeffs, nodefields)),
                     sum(c * nf.jac for c, nf in zip(coeffs, nodefields)))


def raw_samples(q, pi2, ctx) -> list:
    """The ball basis' eight raw fields dA/dq_j at q, sampled on ctx's whole
    rule."""
    return ctx.arrays(derivative_fields(glued_connection(q, pi2=pi2)))


def perp_nodefields(vs, basis, raw) -> list:
    """Each node field v of vs minus its projection onto span{a_i}, formed
    node by node from the library's projection rows (project_perp) over
    [v_1..v_k, f_1..f_8]; raw are the f_j sampled on the basis' rule."""
    G = _raw_gram(basis.ctx, list(vs) + raw)
    M = project_perp(G, len(vs), basis)
    samples = [(nf.val, nf.jac) for nf in list(vs) + raw]
    return [NodeField(basis.ctx.rule, *combine(row, samples)) for row in M]


def combined_fields(coeff, nodefields) -> list:
    """The fields sum_j c_ij f_j, one per row of coeff, summed node-wise."""
    vals = np.stack([nf.val for nf in nodefields])
    jacs = np.stack([nf.jac for nf in nodefields])
    return [NodeField(nodefields[0].rule, np.tensordot(c, vals, 1),
                      np.tensordot(c, jacs, 1)) for c in coeff]


def extension_combinations(ctx, q, coeff) -> list:
    """The extension's derivatives sum_j c_ij dAt/dq_j along the rows of
    coeff, sampled on ctx's rule and combined there."""
    return combined_fields(
        coeff, ctx.arrays(derivative_fields(extended_connection(q))))


def weighted_coeff_by_combination(q, ball_basis) -> np.ndarray:
    """The weighted basis' coefficients: MGS on the Gram of the eight
    combined extension derivatives, paired on the weighted rule."""
    ctx = weighted_context(extended_connection(q), q.eps)
    return mgs_coefficients(
        _raw_gram(ctx, extension_combinations(ctx, q, ball_basis.coeff)))


def basis_gaps_by_combination(q, pi2, basis) -> np.ndarray:
    """The suite-3.6 norms ||a_i - sum_j c_ij dAt/dq_j|| in the ball product,
    each difference formed node by node from the basis field a_i."""
    ctx = basis.ctx
    fields = combined_fields(basis.coeff, raw_samples(q, pi2, ctx))
    diffs = [lincomb((1.0, -1.0), (a, t)) for a, t in
             zip(fields, extension_combinations(ctx, q, basis.coeff))]
    return np.sqrt(np.diag(_raw_gram(ctx, diffs)))


def project_perp_by_combination(v: NodeField, basis, raw) -> NodeField:
    """v minus sum_i (v, a_i) a_i, with the eight basis fields combined
    first from raw, the f_j sampled on the basis' rule, and the pairings
    read off one Gram of [v, a_1..a_8]."""
    fields = combined_fields(basis.coeff, raw)
    row = _raw_gram(basis.ctx, [v] + fields)[0, 1:]
    return lincomb(np.concatenate(([1.0], -row)), [v] + fields)


# ---------------------------------------------------------------------------
# the suite-3.10 FD with C rebuilt at every shifted point


def rows_gram(ctx, fields, rows) -> np.ndarray:
    """The Gram in ctx of the combinations sum_j rows_kj f_j of charted
    fields, each formed node by node (combine) from the fields' samples on
    one block of nodes at a time and paired on that block."""
    r, G = ctx.rule, 0.0
    for a, samples in _sample_blocks(ctx, fields):
        b = a + samples[0][0].shape[-1]
        rule = QuadratureRule(r.nodes[a:b], r.weights[a:b], r.center, r.lam,
                              r.region, r.r[a:b])
        sub = InnerContext(rule, ctx.eps, ctx.Aval[..., a:b])
        G = G + _raw_gram(sub, [NodeField(rule, *combine(row, samples))
                                for row in rows])
    return G


def rebuilt_basis_field(q, i, rule, pi2):
    """a_i at q with its own C: the raw fields f_1..f_i there and row i of
    the C that MGS gives on their Gram, in q's own product on rule."""
    A = glued_connection(q, pi2=pi2)
    fields = derivative_fields(A, DIRECTIONS[:i])
    ctx = ball_context(A, q.eps, rule=rule)
    return fields, mgs_coefficients(_raw_gram(ctx, fields))[i - 1]


def rebuilt_fd(q, i, j, basis, pi2="model"):
    """The central-difference derivative of a_i along q_j with a_i rebuilt,
    C included, at q +/- h and q +/- h/2 on the basis' rule: the 4i
    shifted raw fields and the rows (2, 4i) of rich - d(h/2) and
    rich = (4 d(h/2) - d(h)) / 3 over them, for rows_gram.  The steps are
    the library's (basis_directional_derivative)."""
    vec = basis.coeff[j - 1]
    t = _H_REL * q.lam / float(np.linalg.norm(vec))
    fields, coeffs = [], []
    for s in (t, -t, t / 2.0, -t / 2.0):
        raw, c = rebuilt_basis_field(_shift_along(q, vec, s), i,
                                     basis.ctx.rule, pi2)
        fields += raw
        coeffs.append(c / (2.0 * s))
    d = np.zeros((2, 4 * i))    # rows d(h), d(h/2)
    d[0, :2 * i] = np.concatenate(coeffs[:2])
    d[1, 2 * i:] = np.concatenate(coeffs[2:])
    rich = d[1] * (4.0 / 3.0) - d[0] * (1.0 / 3.0)
    return fields, np.stack((rich - d[1], rich))


# ---------------------------------------------------------------------------
# the rule self-check on materialised rules


def materialised_rule(p, lam: float, region: str, R, n_ang: int,
                      n_rad: int) -> QuadratureRule:
    """The polar rule of orders (n_ang, n_rad) around p with all its nodes,
    built as forms._polar_rule builds its rule of the default orders."""
    p = np.asarray(p, dtype=float)
    dirs, wdirs = s3_nodes(n_ang)
    r, wr = (np.concatenate([np.broadcast_to(x.reshape(len(x), -1),
                                             (len(x), len(dirs)))
                             for x in xs])
             for xs in zip(*_radial_pieces(p, lam, region, R, dirs, n_rad)))
    return QuadratureRule((p + r[..., None] * dirs).reshape(-1, 4),
                          (wr * wdirs).reshape(-1), p, lam, region)


def materialised_peaked_integral(p, lam: float, region: str, R, n_ang: int,
                                 n_rad: int) -> float:
    """The canonical peaked density 48 lam^4 / (lam^2 + |x - p|^2)^4 summed
    node by node over materialised_rule: the reference for the self-check's
    radial sums (forms._peaked_integral)."""
    p = np.asarray(p, dtype=float)
    rule = materialised_rule(p, lam, region, R, n_ang, n_rad)
    return integrate(rule, lambda X: 48 * lam ** 4
                     / (lam ** 2 + np.sum((X - p) ** 2, axis=1)) ** 4)


# ---------------------------------------------------------------------------
# densities integrated over a rule's nodes


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
