"""Reference implementation the tests compare the library against.

The library samples closed-form ChartedField term lists into NodeField
arrays.  The oracle here is the lazy route: a FormField is a vectorized
evaluator with optional analytic jacobian and hessian channels (missing ones
fall back to finite differences), and its operators evaluate those channels
with the same array kernels.  The helpers at the end turn FormFields into
NodeFields on a rule, so they can enter the library's pairings, and build
the suite-3.7 bump probes on the full rule, as an independent check of the
support-only specs of functionals.test_field_family.
"""

import numpy as np

from ymeps.basis import InnerContext, NodeField
from ymeps.forms import (
    N_COMP,
    bracket_wedge_coeffs,
    codiff_coeffs,
    cov_d_coeffs,
    cov_grad_coeffs,
    d_coeffs,
)
from ymeps.instanton import (
    ETA,
    ETABAR,
    LinRadAtom,
    Term,
    _terms_sum,
    beta_profile,
    rad_i1,
    rad_i2,
    terms_jac,
    terms_value,
)
from ymeps.liealg import AlgElement, qmul


def _as_batch(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        return X[None, :]
    return X


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
        return bracket_wedge_coeffs(1, alpha.value(X), beta.value(X))

    jac = None
    if alpha.has_analytic_jac and beta.has_analytic_jac:
        def jac(X):
            av, bv = alpha.value(X), beta.value(X)
            aj, bj = alpha.jac(X), beta.jac(X)
            return np.stack([bracket_wedge_coeffs(1, aj[..., nu], bv)
                             + bracket_wedge_coeffs(1, av, bj[..., nu])
                             for nu in range(4)], axis=-1)

    return FormField(2, value, jac)


def exterior_d(omega: FormField) -> FormField:
    """Exterior derivative; analytic when omega has a jac channel, else FD."""
    if omega.degree >= 4:
        raise ValueError("d of a 4-form on R^4 is zero-dimensional; not supported")
    k = omega.degree

    def value(X):
        return d_coeffs(k, omega.jac(X))

    def jac(X):
        H = omega.hess(X)  # (N,3,C,4,4)
        return np.stack([d_coeffs(k, H[..., nu]) for nu in range(4)], axis=-1)

    return FormField(k + 1, value, jac)


def covariant_d_eps(A: FormField, omega: FormField, eps: float) -> FormField:
    """d_A^eps w = dw + eps [A ^ w]."""
    if A.degree != 1:
        raise ValueError("connection must be a 1-form")
    if omega.degree >= 4:
        raise ValueError("d of a 4-form on R^4 is zero-dimensional; not supported")
    k = omega.degree

    def value(X):
        return cov_d_coeffs(k, A.value(X), omega.value(X), omega.jac(X), eps)

    def jac(X):
        # d_nu (d_A w) = d_A (d_nu w) + eps [d_nu A ^ w]
        Av, Aj = A.value(X), A.jac(X)
        wv, wj, wh = omega.value(X), omega.jac(X), omega.hess(X)
        return np.stack([cov_d_coeffs(k, Av, wj[..., nu], wh[..., nu], eps)
                         + eps * bracket_wedge_coeffs(k, Aj[..., nu], wv)
                         for nu in range(4)], axis=-1)

    return FormField(k + 1, value, jac)


def codifferential_eps(A: FormField, omega: FormField, eps: float) -> FormField:
    """Formal adjoint of d_A^eps on flat R^4: -* d_A^eps * (all degrees k>=1)."""
    if omega.degree < 1:
        raise ValueError("codifferential needs degree >= 1")
    k = omega.degree

    def value(X):
        return codiff_coeffs(k, A.value(X), omega.value(X), omega.jac(X), eps)

    return FormField(k - 1, value)


def covariant_grad_eps(A: FormField, alpha: FormField, eps: float):
    """Return evaluator X -> (N,3,4,4) of all 16 components of grad_A^eps alpha."""
    if A.degree != 1 or alpha.degree != 1:
        raise ValueError("covariant_grad_eps expects 1-forms")

    def evaluate(X):
        X = _as_batch(X)
        return cov_grad_coeffs(A.value(X), alpha.value(X), alpha.jac(X), eps)

    return evaluate


# ---------------------------------------------------------------------------
# term lists and charted fields as FormFields


def terms_hess(terms, X):
    """Spatial hessian of a term list at X, (N,3,4,4,4)."""
    X = np.asarray(X, dtype=float)
    out = np.empty((X.shape[0], 3, 4, 4, 4))
    memo = {}
    for nu in range(4):
        for rho in range(nu, 4):
            v = _terms_sum(memo, terms, X, (nu, rho))
            out[..., nu, rho] = v
            out[..., rho, nu] = v
    return out


def terms_form_field(terms) -> FormField:
    return FormField(1, lambda X: terms_value(terms, X),
                     lambda X: terms_jac(terms, X),
                     lambda X: terms_hess(terms, X))


def inner_field(A) -> FormField:
    """The inner-chart term list of a ChartedField, on all of R^4."""
    return terms_form_field(A.inner_terms)


def outer_field(A) -> FormField:
    """The outer-chart term list of a ChartedField, on all of R^4."""
    return terms_form_field(A.outer_terms)


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


def transition_quaternion(p, g, X) -> np.ndarray:
    """g * g12(x) * g^{-1} as unit quaternions (N,4), g12 = (x-p)/|x-p|."""
    Y = np.asarray(X, dtype=float) - np.asarray(p, dtype=float)
    g12 = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return qmul(qmul(g.quaternion(), g12), g.inverse().quaternion())


def bracket(X: AlgElement, Y: AlgElement) -> AlgElement:
    """Ordinary Lie bracket [X, Y], computed as the quaternion commutator.

    In e-basis coefficients this equals the cross product, which the library
    uses; the commutator route is the definition.
    """
    qx = X.quaternion()
    qy = Y.quaternion()
    comm = qmul(qx, qy) - qmul(qy, qx)
    # imaginary part, rescaled back to e-coefficients (factor 2)
    return AlgElement(2.0 * comm[1], 2.0 * comm[2], 2.0 * comm[3])


# ---------------------------------------------------------------------------
# FormFields in the library's pairings


def flat_context(rule, eps: float, weighted: bool = False) -> InnerContext:
    """An InnerContext on rule with the zero connection."""
    return InnerContext(rule, eps, np.zeros((len(rule), 3, 4)), weighted=weighted)


def sample_form(f: FormField, rule) -> NodeField:
    """f's value and jacobian channels on the rule's nodes."""
    return NodeField(rule, f.value(rule.nodes), f.jac(rule.nodes))


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
        draws.append((center, sc, nf * (1.0 / np.sqrt(nrm2))
                      if nrm2 > 1e-20 else None))
    return draws


def full_rule_probes(q, ctx, n: int, seed: int):
    """The n accepted probes of full_rule_probe_draws, as NodeFields."""
    return [p for _, _, p in full_rule_probe_draws(q, ctx, n, seed)
            if p is not None]
