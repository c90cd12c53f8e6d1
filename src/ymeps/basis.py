"""Inner products and Gram-Schmidt bases of the parameter-derivative fields.

Two inner products appear:

  ball:     (a, b) = int_{B^4} <grad_A^eps a, grad_A^eps b> + <a, b>
  weighted: (a, b) = int_{R^4} <grad_A^eps a, grad_A^eps b> + w <a, b>,
            w = 1 on the closed unit ball, (1+|x|^2)^{-2} outside

with the pointwise pairing the coefficient dot over the e_i basis.  All
integrals are taken over one shared quadrature rule per parameter point, so
orthonormality of a constructed basis is exact in the discrete product up to
round-off, independent of quadrature error.

Fields enter as two-chart ChartedField term lists, split at |x-p| = lam/4
by the rule's inner mask, and leave as NodeField arrays sampled on the rule;
a NodeField passes through unchanged.  A basis is held as the eight raw
fields sampled on its context's rule plus the coefficient matrix; its fields
are combined from the samples on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .forms import (
    NumericalError,
    QuadratureRule,
    ball_rule,  # not called here: perfbench/tracer.py's expect for it names basis
    cov_grad_coeffs,
    domain_ball_rule,
    weight_fn,
    weighted_r4_rule,
    weighted_sum,
)
from .instanton import (
    BackgroundConnection,
    ChartedField,
    ParamQ,
    derivative_fields,
    extended_connection,
    glued_connection,
    sample_charted,
)
from .liealg import AlgElement, exp_map

__all__ = [
    "NodeField",
    "InnerContext",
    "GramBasis",
    "mgs_coefficients",
    "gram_schmidt_ball",
    "gram_schmidt_weighted",
    "tilde_fields",
    "project_perp",
    "basis_directional_derivative",
]


@dataclass
class NodeField:
    """A field sampled on a quadrature rule: values and spatial jacobian."""

    rule: QuadratureRule
    val: np.ndarray            # (N,3,4)
    jac: np.ndarray            # (N,3,4,4)

    def __add__(self, other):
        return NodeField(self.rule, self.val + other.val, self.jac + other.jac)

    def __sub__(self, other):
        return NodeField(self.rule, self.val - other.val, self.jac - other.jac)

    def __mul__(self, c):
        return NodeField(self.rule, self.val * c, self.jac * c)

    __rmul__ = __mul__


@dataclass
class InnerContext:
    """Shared quadrature rule, connection samples, and chart mask for one q."""

    rule: QuadratureRule
    eps: float
    Aval: np.ndarray                 # (N,3,4) connection in the H^1 term
    weighted: bool = False
    wvals: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self):
        if self.weighted:
            self.wvals = weight_fn(self.rule.nodes)

    # -- evaluation -----------------------------------------------------
    def arrays(self, f):
        """Sample a charted field, or a list of them, on the rule.

        A list gives a list of node fields, sampled in one sample_charted pass
        that shares one atom memo per chart.  A NodeField on this rule is
        returned as it is.
        """
        if isinstance(f, NodeField):
            if f.rule is not self.rule:
                raise ValueError("NodeField sampled on a different rule")
            return f
        fields = f if isinstance(f, list) else [f]
        nfs = [NodeField(self.rule, val, jac) for val, jac in
               sample_charted(fields, self.rule.nodes, self.rule.mask_inner)]
        return nfs if isinstance(f, list) else nfs[0]

    def grad_of(self, nf: NodeField) -> np.ndarray:
        """Covariant gradient of a node field under this context's connection."""
        return cov_grad_coeffs(self.Aval, nf.val, nf.jac, self.eps)

    # -- pairing --------------------------------------------------------
    def _pair_density(self, fa, ga, fb, gb) -> np.ndarray:
        d = np.einsum("namu,namu->n", ga, gb, optimize=False)
        l2 = np.einsum("nam,nam->n", fa.val, fb.val, optimize=False)
        if self.weighted:
            return d + self.wvals * l2
        return d + l2

    def density(self, fa: NodeField, fb: NodeField) -> np.ndarray:
        ga = self.grad_of(fa)
        gb = ga if fb is fa else self.grad_of(fb)
        return self._pair_density(fa, ga, fb, gb)

    def inner_nf(self, fa: NodeField, fb: NodeField) -> float:
        return weighted_sum(self.rule.weights, self.density(fa, fb))

    def inner_with(self, fa: NodeField):
        """fb -> (fa, fb) with fa's gradient computed once, for many fb.

        Each value equals inner_nf(fa, fb) bit for bit.
        """
        ga = self.grad_of(fa)

        def inner(fb: NodeField) -> float:
            return weighted_sum(self.rule.weights,
                                self._pair_density(fa, ga, fb, self.grad_of(fb)))

        return inner


def ball_context(A: ChartedField, eps, rule=None, tol=1e-4) -> InnerContext:
    """Context for the B^4 product with connection A, on the unit-ball rule
    polar around A's center unless a rule is given."""
    if rule is None:
        rule = domain_ball_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.mask_inner))


def weighted_context(A: ChartedField, eps, tol=1e-4) -> InnerContext:
    """Context for the weighted R^4 product with connection A."""
    rule = weighted_r4_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.mask_inner),
                        weighted=True)


# ---------------------------------------------------------------------------
# Gram-Schmidt


def mgs_coefficients(G: np.ndarray) -> np.ndarray:
    """Lower-triangular C with C G C^T = Id, via modified Gram-Schmidt.

    Row i of C expresses the i-th orthonormal element in the raw fields.  One
    reorthogonalization pass guards against the large norm spread of the raw
    fields.  Raises NumericalError with the condition number when the Gram
    matrix is numerically singular.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    rows = []
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        for _ in range(2):
            for c in rows:
                u = u - (u @ G @ c) * c
        nrm2 = float(u @ G @ u)
        if not np.isfinite(nrm2) or nrm2 <= 1e-24 * max(G[i, i], 1.0):
            cond = float(np.linalg.cond(G))
            raise NumericalError(
                f"raw fields numerically dependent at step {i}"
                f" (Gram condition number {cond:.3e})")
        rows.append(u / np.sqrt(nrm2))
    C = np.stack(rows)
    return np.tril(C)  # entries above the diagonal are exactly 0 by construction


@dataclass
class GramBasis:
    """An orthonormal basis a_i = sum_j c_ij f_j of the eight raw fields.

    Rows of ``coeff`` are the expansion coefficients in the raw-field order
    (p1..p4, xi1..xi3, lam); the same rows are the induced parameter-space
    vector fields q_i.  ``ctx`` holds the shared rule and connection samples
    defining the inner product ("ball" or "weighted"); ``raw_nodefields`` are
    the f_j sampled on that rule.
    """

    kind: str
    coeff: np.ndarray            # (8,8) lower triangular, positive diagonal
    ctx: InnerContext
    raw_gram: np.ndarray
    raw_nodefields: list = field(repr=False)

    def node_field(self, i: int) -> NodeField:
        """The i-th orthonormal field (1-based), combined from the samples."""
        return _combine(self.coeff[i - 1], self.raw_nodefields)

    def gram_residual(self) -> float:
        got = self.coeff @ self.raw_gram @ self.coeff.T
        return float(np.max(np.abs(got - np.eye(len(self.coeff)))))


def _combine(coeffs, nodefields) -> NodeField:
    """sum_j c_j f_j over node fields, skipping zero coefficients."""
    out = None
    for cj, nf in zip(coeffs, nodefields):
        if cj == 0.0:
            continue
        out = nf * cj if out is None else out + nf * cj
    return out


def _raw_gram(ctx: InnerContext, nodefields) -> np.ndarray:
    """All pairwise inner products at once via one weighted matrix product.

    Row k of M holds field k's weighted gradient entries, then its weighted
    value entries; rows are written in place into one preallocated matrix.
    """
    N = ctx.rule.nodes.shape[0]
    sw = np.sqrt(ctx.rule.weights)[:, None]
    sl = sw * np.sqrt(ctx.wvals)[:, None] if ctx.weighted else sw
    M = np.empty((len(nodefields), N * 60))
    for row, nf in zip(M, nodefields):
        np.multiply(ctx.grad_of(nf).reshape(N, 48), sw,
                    out=row[:N * 48].reshape(N, 48))
        np.multiply(nf.val.reshape(N, 12), sl, out=row[N * 48:].reshape(N, 12))
    G = M @ M.T
    if not np.all(np.isfinite(G)):
        raise NumericalError("non-finite Gram matrix")
    return G


def _basis_from_fields(kind, ctx, nodefields) -> GramBasis:
    """Orthonormalize eight fields sampled on ctx's rule."""
    G = _raw_gram(ctx, nodefields)
    return GramBasis(kind, mgs_coefficients(G), ctx, G, nodefields)


def gram_schmidt_ball(q: ParamQ, bg: BackgroundConnection = None,
                      pi2: str = "model", tol: float = 1e-4,
                      rule: QuadratureRule = None) -> GramBasis:
    """Orthonormalize the eight parameter derivatives of the glued family.

    The eight fields dA/dq_i are derived from one A and sampled in one pass.
    """
    bg = BackgroundConnection() if bg is None else bg
    A = glued_connection(q, bg, pi2)
    ctx = ball_context(A, q.eps, rule=rule, tol=tol)
    return _basis_from_fields("ball", ctx, ctx.arrays(derivative_fields(A)))


def tilde_fields(ctx: InnerContext, q: ParamQ, coeff: np.ndarray):
    """The extension's derivatives sum_j c_ij dAt/dq_j along the ball-basis q_i.

    The eight raw derivatives are sampled on ctx in one pass and combined
    node-wise, instead of evaluating each combination's term list.
    """
    raw_nf = ctx.arrays(derivative_fields(extended_connection(q), name="dAt"))
    return [_combine(c, raw_nf) for c in coeff]


def gram_schmidt_weighted(q: ParamQ, ball_basis: GramBasis,
                          tol: float = 1e-4) -> GramBasis:
    """Orthonormalize the extension's derivatives along the ball-basis q_i.

    Inputs are the fields obtained by applying the ball basis' parameter
    vector fields to the extension; the product is the weighted one with the
    extension itself in the derivative term.
    """
    ctx = weighted_context(extended_connection(q), q.eps, tol=tol)
    return _basis_from_fields("weighted", ctx,
                              tilde_fields(ctx, q, ball_basis.coeff))


def project_perp(v, basis: GramBasis) -> NodeField:
    """v minus its orthogonal projection onto span{a_i}, on the basis' rule."""
    ctx = basis.ctx
    nv = ctx.arrays(v)
    inner_v = ctx.inner_with(nv)
    out = nv
    for i in range(1, len(basis.coeff) + 1):
        ai = basis.node_field(i)
        out = out - inner_v(ai) * ai
    return out


# ---------------------------------------------------------------------------
# directional derivatives of the basis fields


def _shift_along(q: ParamQ, vec: np.ndarray, t: float) -> ParamQ:
    """Flow the parameter point by t along a coefficient vector (p, xi, lam)."""
    dp = t * vec[0:4]
    xi = t * vec[4:7]
    g = q.g * exp_map(AlgElement(*xi))
    return replace(q, p=q.p + dp, g=g, lam=q.lam + t * vec[7])


def _basis_field_at(q: ParamQ, i: int, ctx: InnerContext,
                    bg: BackgroundConnection, pi2: str) -> NodeField:
    """a_i at a (possibly shifted) q, sampled on the base rule and base mask."""
    return gram_schmidt_ball(q, bg, pi2, rule=ctx.rule).node_field(i)


_H_REL = 1e-3   # first FD step, relative to lam along a unit-length q_j


def basis_directional_derivative(q: ParamQ, i: int, j: int, basis: GramBasis,
                                 bg: BackgroundConnection = None,
                                 pi2: str = "model") -> tuple[NodeField, float]:
    """Central-difference derivative of a_i along the vector field q_j.

    The whole basis is rebuilt at the flowed parameter points; every field is
    sampled on the base rule with the base chart mask, so differences are
    taken in a fixed chart and gauge.  Richardson extrapolation over steps
    (h, h/2).  Returns the derivative and the step-halving relative change
    of the extrapolated value.
    """
    bg = BackgroundConnection() if bg is None else bg
    ctx = basis.ctx
    vec = basis.coeff[j - 1]
    vnorm = float(np.linalg.norm(vec))
    if vnorm == 0.0:
        raise NumericalError("q_j vector vanishes; no flow direction")
    t = _H_REL * q.lam / vnorm

    def fd(step: float) -> NodeField:
        plus = _basis_field_at(_shift_along(q, vec, step), i, ctx, bg, pi2)
        minus = _basis_field_at(_shift_along(q, vec, -step), i, ctx, bg, pi2)
        return (plus - minus) * (1.0 / (2.0 * step))

    d1 = fd(t)
    d2 = fd(t / 2.0)
    rich = d2 * (4.0 / 3.0) - d1 * (1.0 / 3.0)
    num = np.sqrt(max(ctx.inner_nf(rich - d2, rich - d2), 0.0))
    den = np.sqrt(max(ctx.inner_nf(rich, rich), 1e-300))
    return rich, float(num / den)
