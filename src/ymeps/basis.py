"""Inner products and Gram-Schmidt bases of the parameter-derivative fields.

Two inner products appear:

  ball:     (a, b) = int_{B^4} <grad_A^eps a, grad_A^eps b> + <a, b>
  weighted: (a, b) = int_{R^4} <grad_A^eps a, grad_A^eps b> + w <a, b>,
            w = 1 on the closed unit ball, (1+|x|^2)^{-2} outside

with the pointwise pairing the coefficient dot over the e_i basis.  All
integrals are taken over one shared quadrature rule per parameter point, so
orthonormality of a constructed basis is exact in the discrete product up to
round-off, independent of quadrature error.  One streamed Gram (_raw_gram)
serves every pairing: the basis Grams, inner_nf, the projections and the
norms of the checks are all entries of it.

Fields enter as two-chart ChartedField term lists, split at |x-p| = lam/4
by the rule's inner mask, and leave as NodeField arrays sampled on the rule,
node-last as in forms; a NodeField passes through unchanged.  A ball basis
is held as the eight raw fields sampled on its context's rule plus the
coefficient matrix C.  Every pairing with the combinations
a_i = sum_j c_ij f_j is read through C off the raw fields' Gram, so no list
of combined fields is built; one a_i is combined from the samples only where
its values are needed.
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
)
from .instanton import (
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
    "project_perp",
    "basis_directional_derivative",
]


@dataclass
class NodeField:
    """A field sampled on a quadrature rule: values and spatial jacobian,
    node-last."""

    rule: QuadratureRule
    val: np.ndarray            # (3,4,N)
    jac: np.ndarray            # (3,4,4,N)

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
    Aval: np.ndarray                 # (3,4,N) connection in the H^1 term
    wvals: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self):
        if self.weighted:
            self.wvals = weight_fn(self.rule.nodes)

    @property
    def weighted(self) -> bool:
        """The weighted R^4 product, decided by the rule's region."""
        return self.rule.region == "weighted-r4"

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
               sample_charted(fields, self.rule.nodes, self.rule.n_inner)]
        return nfs if isinstance(f, list) else nfs[0]

    def grad_of(self, nf: NodeField, cols=slice(None), out=None) -> np.ndarray:
        """Covariant gradient (3,4,4,n) of a node field under this context's
        connection, on a slice of the rule's nodes (all of them by default),
        written into out when given."""
        return cov_grad_coeffs(self.Aval[..., cols], nf.val[..., cols],
                               nf.jac[..., cols], self.eps, out)

    # -- pairing --------------------------------------------------------
    def inner_nf(self, fa: NodeField, fb: NodeField) -> float:
        """(fa, fb): the off-diagonal entry of the two fields' Gram."""
        return float(_raw_gram(self, [fa, fb])[0, 1])


def ball_context(A: ChartedField, eps, rule=None, tol=1e-4) -> InnerContext:
    """Context for the B^4 product with connection A, on the unit-ball rule
    polar around A's center unless a rule is given."""
    if rule is None:
        rule = domain_ball_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.n_inner))


def weighted_context(A: ChartedField, eps, tol=1e-4) -> InnerContext:
    """Context for the weighted R^4 product with connection A."""
    rule = weighted_r4_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.n_inner))


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
    """An orthonormal basis a_i = sum_j c_ij f_j of eight raw fields.

    Rows of ``coeff`` are the expansion coefficients in the raw-field order
    (p1..p4, xi1..xi3, lam); the same rows are the induced parameter-space
    vector fields q_i.  ``ctx`` holds the shared rule and connection samples
    defining the inner product (ball or weighted), and ``raw_gram`` is the
    f_j's Gram in it.  A ball basis keeps the f_j sampled on that rule as
    ``raw_nodefields``; a weighted basis, read only through its
    coefficients, holds no samples.
    """

    coeff: np.ndarray            # (8,8) lower triangular, positive diagonal
    ctx: InnerContext
    raw_gram: np.ndarray
    raw_nodefields: Optional[list] = field(default=None, repr=False)

    def node_field(self, i: int, val=None, jac=None, tmp=None) -> NodeField:
        """The i-th orthonormal field (1-based), combined from the samples,
        into val and jac with the scratch tmp if given (see _combine)."""
        return _combine(self.coeff[i - 1], self.raw_nodefields, val, jac, tmp)

    def gram_residual(self) -> float:
        got = self.coeff @ self.raw_gram @ self.coeff.T
        return float(np.max(np.abs(got - np.eye(len(self.coeff)))))


def _combine(coeffs, nodefields, val=None, jac=None, tmp=None) -> NodeField:
    """sum_j c_j f_j over node fields, skipping zero coefficients.

    The sum runs in place, one coefficient at a time and in order: into val
    (3,4,N) and jac (3,4,4,N), each term formed in the flat scratch tmp (at
    least 48N entries).  Those not given are allocated.
    """
    ref = nodefields[0]
    val = np.empty_like(ref.val) if val is None else val
    jac = np.empty_like(ref.jac) if jac is None else jac
    tmp = np.empty(ref.jac.size) if tmp is None else tmp
    first = True
    for cj, nf in zip(coeffs, nodefields):
        if cj == 0.0:
            continue
        for src, dst in ((nf.val, val), (nf.jac, jac)):
            if first:
                np.multiply(src, cj, out=dst)
            else:
                term = tmp[:dst.size].reshape(dst.shape)
                np.multiply(src, cj, out=term)
                dst += term
        first = False
    return NodeField(ref.rule, val, jac)


# nodes per block of the streamed Gram, whose weighted rows then take 3.75 MiB:
# at 2^-7 (one core of a 2-core Xeon, one BLAS thread) blocks of 256 to 4,096
# nodes took the same time, and 16,384 took 40% longer
_GRAM_CHUNK = 1024


def _raw_gram(ctx: InnerContext, nodefields, weights=None) -> np.ndarray:
    """All pairwise inner products, accumulated over blocks of nodes.

    The one H^1 pairing: every inner product of the library is an entry of
    such a Gram.  weights are the node weights of the sum, by default the
    rule's (a chart mask times them restricts it to that chart).  On each
    block of nodes, row k of M holds field k's weighted gradient entries
    (48, m), then its weighted value entries (12, m), and G gains M @ M.T.
    Gradients are computed on the block only, straight into M, so no
    full-rule gradient or weighted matrix is held.
    """
    N = len(ctx.rule)
    sw = np.sqrt(ctx.rule.weights if weights is None else weights)
    sl = sw * np.sqrt(ctx.wvals) if ctx.weighted else sw
    n = len(nodefields)
    G = np.zeros((n, n))
    buf = np.empty((n, min(_GRAM_CHUNK, N) * 60))
    for a in range(0, N, _GRAM_CHUNK):
        b = min(a + _GRAM_CHUNK, N)
        m = b - a
        M = buf[:, :m * 60]
        for row, nf in zip(M, nodefields):
            grad = row[:m * 48].reshape(48, m)
            ctx.grad_of(nf, slice(a, b), grad.reshape(3, 4, 4, m))
            grad *= sw[a:b]
            np.multiply(nf.val[..., a:b].reshape(12, m), sl[a:b],
                        out=row[m * 48:].reshape(12, m))
        G += M @ M.T
    if not np.all(np.isfinite(G)):
        raise NumericalError("non-finite Gram matrix")
    return G


def _basis_from_fields(ctx, G, nodefields=None) -> GramBasis:
    """Orthonormalize the fields whose Gram in ctx is G; nodefields are their
    samples on ctx's rule, when the basis keeps them."""
    return GramBasis(mgs_coefficients(G), ctx, G, nodefields)


def gram_schmidt_ball(q: ParamQ, pi2: str = "model", tol: float = 1e-4,
                      rule: QuadratureRule = None) -> GramBasis:
    """Orthonormalize the eight parameter derivatives of the glued family.

    The eight fields dA/dq_i are derived from one A and sampled in one pass.
    """
    A = glued_connection(q, pi2=pi2)
    ctx = ball_context(A, q.eps, rule=rule, tol=tol)
    nfs = ctx.arrays(derivative_fields(A))
    return _basis_from_fields(ctx, _raw_gram(ctx, nfs), nfs)


def gram_schmidt_weighted(q: ParamQ, ball_basis: GramBasis,
                          tol: float = 1e-4) -> GramBasis:
    """Orthonormalize the extension's derivatives along the ball-basis q_i.

    Inputs are the fields sum_j c_ij dAt/dq_j obtained by applying the ball
    basis' parameter vector fields (rows of C) to the extension; the product
    is the weighted one with the extension itself in the derivative term.
    Their Gram is C Gt C^T from the raw derivatives' Gram Gt; no field is kept.
    """
    At = extended_connection(q)
    ctx = weighted_context(At, q.eps, tol=tol)
    C = ball_basis.coeff
    return _basis_from_fields(
        ctx, C @ _raw_gram(ctx, ctx.arrays(derivative_fields(At))) @ C.T)


def project_perp(v, basis: GramBasis) -> NodeField:
    """v minus its orthogonal projection onto span{a_i}, on the basis' rule.

    With g the pairings (v, f_j), one Gram row of [v, f_1..f_8], the
    pairings (v, a_i) are C g and the projection is sum_j k_j f_j with
    k = C^T C g: one combination of v and the raw fields.
    """
    fields = [basis.ctx.arrays(v)] + basis.raw_nodefields
    g = _raw_gram(basis.ctx, fields)[0, 1:]
    C = basis.coeff
    return _combine(np.concatenate(([1.0], -(C.T @ (C @ g)))), fields)


# ---------------------------------------------------------------------------
# directional derivatives of the basis fields


def _shift_along(q: ParamQ, vec: np.ndarray, t: float) -> ParamQ:
    """Flow the parameter point by t along a coefficient vector (p, xi, lam)."""
    dp = t * vec[0:4]
    xi = t * vec[4:7]
    g = q.g * exp_map(AlgElement(*xi))
    return replace(q, p=q.p + dp, g=g, lam=q.lam + t * vec[7])


def _basis_field_at(q: ParamQ, i: int, ctx: InnerContext, pi2: str) -> NodeField:
    """a_i at a (possibly shifted) q, sampled on the base rule and base mask."""
    return gram_schmidt_ball(q, pi2, rule=ctx.rule).node_field(i)


_H_REL = 1e-3   # first FD step, relative to lam along a unit-length q_j


def basis_directional_derivative(q: ParamQ, i: int, j: int, basis: GramBasis,
                                 pi2: str = "model") -> tuple[NodeField, float]:
    """Central-difference derivative of a_i along the vector field q_j.

    The whole basis is rebuilt at the flowed parameter points; every field is
    sampled on the base rule with the base chart mask, so differences are
    taken in a fixed chart and gauge.  Richardson extrapolation over steps
    (h, h/2).  Returns the derivative and the step-halving relative change
    of the extrapolated value.
    """
    ctx = basis.ctx
    vec = basis.coeff[j - 1]
    vnorm = float(np.linalg.norm(vec))
    if vnorm == 0.0:
        raise NumericalError("q_j vector vanishes; no flow direction")
    t = _H_REL * q.lam / vnorm

    def fd(step: float) -> NodeField:
        plus = _basis_field_at(_shift_along(q, vec, step), i, ctx, pi2)
        minus = _basis_field_at(_shift_along(q, vec, -step), i, ctx, pi2)
        return (plus - minus) * (1.0 / (2.0 * step))

    d1 = fd(t)
    d2 = fd(t / 2.0)
    rich = d2 * (4.0 / 3.0) - d1 * (1.0 / 3.0)
    G = _raw_gram(ctx, [rich - d2, rich])
    num = np.sqrt(max(G[0, 0], 0.0))
    return rich, float(num / np.sqrt(max(G[1, 1], 1e-300)))
