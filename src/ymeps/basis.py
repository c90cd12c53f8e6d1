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
by the rule's inner chart (its first n_inner nodes), and are sampled on the
rule node-last as in forms.  The Gram samples its fields one block of
nodes at a time straight into the rows it pairs, finishes each row's
covariant gradient and weights in place and drops the block once paired,
so no full-rule sample of a field is ever held; suite 3.7 reads its basis
fields off the same block sampler.  A basis is the coefficient matrix C
over its raw fields' Gram.  Every pairing with the combinations
a_i = sum_j c_ij f_j is read through C off the raw fields' Gram, so no list
of combined fields is built.  Where a pairing needs a combination formed
node by node (the FD differences of suite 3.10, whose cancellation a Gram
quadratic form would square), the combination is folded into one term list
(instanton.linear_combination), whose sampling forms it on each node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .forms import (
    DEFAULT_TOL,
    NumericalError,
    QuadratureRule,
    ball_rule,  # not called here: perfbench/tracer.py's expect for it names basis
    cov_grad_scaled,
    domain_ball_rule,
    weight_fn,
    weighted_r4_rule,
)
from .instanton import (
    DEFAULT_PI2,
    DIRECTIONS,
    ChartedField,
    ParamQ,
    derivative_fields,
    extended_connection,
    glued_connection,
    linear_combination,
    sample_charted,
)
from .liealg import rotation

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


@dataclass
class InnerContext:
    """The H^1 product at one q: its quadrature rule, whose node range
    [:n_inner] is the inner chart, and the connection samples."""

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
    def arrays(self, fields: list) -> list:
        """Node fields of a list of charted fields sampled on the rule, in
        one sample_charted pass that shares one atom memo per chart."""
        return [NodeField(self.rule, val, jac) for val, jac in
                sample_charted(fields, self.rule.nodes, self.rule.n_inner)]

    def grad_of(self, val, jac, At=None, out=None) -> np.ndarray:
        """Covariant gradient (3,4,4,n) under this context's connection of a
        field with values val (3,4,n) and jacobian jac (3,4,4,n), written
        into out when given, which may be jac itself.  At is eps times the
        connection on the field's nodes, which a Gram forms once per block
        of nodes for all its fields; by default the whole rule's."""
        if At is None:
            At = self.eps * self.Aval
        return cov_grad_scaled(At, val, jac, out)

    # -- pairing --------------------------------------------------------
    def inner_nf(self, fa: NodeField, fb: NodeField) -> float:
        """(fa, fb): the off-diagonal entry of the two fields' Gram."""
        return float(_raw_gram(self, [fa, fb])[0, 1])


def ball_context(A: ChartedField, eps, rule=None, tol=DEFAULT_TOL) -> InnerContext:
    """Context for the B^4 product with connection A, on the unit-ball rule
    polar around A's center unless a rule is given."""
    if rule is None:
        rule = domain_ball_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.n_inner))


def weighted_context(A: ChartedField, eps, tol=DEFAULT_TOL) -> InnerContext:
    """Context for the weighted R^4 product with connection A."""
    rule = weighted_r4_rule(A.p, A.lam, tol=tol)
    return InnerContext(rule, eps, A.value_split(rule.nodes, rule.n_inner))


def inner_chart_context(ctx: InnerContext) -> InnerContext:
    """ctx restricted to its rule's inner chart, the node range [:n_inner]:
    its Grams sample and sum those nodes only."""
    r, n = ctx.rule, ctx.rule.n_inner
    rule = QuadratureRule(r.nodes[:n], r.weights[:n], r.center, r.lam,
                          r.region, r.r[:n], r.self_check_error)
    return InnerContext(rule, ctx.eps, ctx.Aval[..., :n])


# ---------------------------------------------------------------------------
# Gram-Schmidt


def mgs_coefficients(G: np.ndarray) -> np.ndarray:
    """Lower-triangular C with C G C^T = Id, via modified Gram-Schmidt.

    Row i of C expresses the i-th orthonormal element in the raw fields.  One
    reorthogonalization pass guards against the large norm spread of the raw
    fields.  A field of squared norm not positive and finite, or a step left
    with at most 1e-10 of its field's squared norm (under six correct digits),
    raises NumericalError; the latter names cond(D^-1 G D^-1), D = sqrt(diag G).
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[0]
    if G.shape != (n, n):
        raise ValueError("Gram matrix must be square")
    for i, g in enumerate(np.diag(G)):
        if not 0.0 < g < np.inf:
            raise NumericalError(f"raw field {i} has squared norm {g:g}")
    rows = []
    for i in range(n):
        u = np.zeros(n)
        u[i] = 1.0
        for _ in range(2):
            for c in rows:
                u = u - (u @ G @ c) * c
        nrm2 = float(u @ G @ u)
        if not np.isfinite(nrm2) or nrm2 <= 1e-10 * G[i, i]:
            D = np.sqrt(np.diag(G))
            cond = float(np.linalg.cond(G / np.outer(D, D)))
            raise NumericalError(
                f"raw fields numerically dependent at step {i}"
                f" (unit-diagonal Gram condition number {cond:.1e})")
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
    f_j's Gram in it.  The basis holds no samples of its fields: it is read
    only through its coefficients.
    """

    coeff: np.ndarray            # (8,8) lower triangular, positive diagonal
    ctx: InnerContext
    raw_gram: np.ndarray

    def gram_residual(self) -> float:
        got = self.coeff @ self.raw_gram @ self.coeff.T
        return float(np.max(np.abs(got - np.eye(len(self.coeff)))))


# nodes per block of the streamed Gram, whose rows M take 60 entries a node
# and field, 8.4 MiB for the eight basis fields.  The four basis builds of
# verify-scaling (2^-4..2^-7, in process, one BLAS thread, 2-core x86_64,
# best of 3, interleaved) took 0.85 / 0.70 / 0.68 / 0.68 / 0.69 / 0.72 s of
# CPU with blocks of 1,024 / 2,048 / 2,304 / 2,560 / 3,072 / 4,096 nodes,
# and one Gram of the eight basis fields at 2^-7 peaked at 6.2 / 12.0 /
# 13.4 / 14.9 / 17.8 / 23.5 MiB under tracemalloc
_GRAM_BLOCK = 2304
# nodes per sampling block of suite 3.7's representers (_sample_blocks
# called without a block size).  Its pass holds the representer rows, the
# probes' weighted channels and supports besides five fields' samples, and
# peaks no higher than the basis build before it (at 2^-7, 18.3 MiB under
# tracemalloc against the build's 19.5) only with blocks smaller than the
# Gram's: at 4,096 nodes it peaked at 28.9 MiB.  Its four points took 1.15
# / 1.22 / 1.33 / 1.37 s of CPU with blocks of 4,096 / 2,048 / 1,792 /
# 1,536 nodes (best of 3, as above).
_SAMPLE_BLOCK = 2048


def _row_samples(buf, m) -> list:
    """(val (3,4,m), jac (3,4,4,m)) views of each row of buf, whose first
    60 m entries hold a field's jacobian entries, then its value entries:
    the layout of the Gram's rows."""
    return [(row[48 * m:60 * m].reshape(3, 4, m),
             row[:48 * m].reshape(3, 4, 4, m)) for row in buf]


def _sample_blocks(ctx: InnerContext, fields, block=None, buf=None):
    """(a, samples) per block of the rule's nodes a, ..., a + m - 1, with
    samples the fields' (val, jac) there: views of the rows of buf
    (_row_samples), allocated once unless given and overwritten by the next
    block.  Blocks hold _SAMPLE_BLOCK nodes unless a block size is given.

    Charted fields are sampled on each block, its inner chart being its
    part of the rule's first n_inner nodes, with one plan dict for the pass
    (sample_charted).  Node fields, which must be sampled on ctx's rule,
    are copied block by block.
    """
    nodefields = all(isinstance(f, NodeField) for f in fields)
    if nodefields and any(nf.rule is not ctx.rule for nf in fields):
        raise ValueError("NodeField sampled on a different rule")
    nodes, n_inner, N = ctx.rule.nodes, ctx.rule.n_inner, len(ctx.rule)
    blk = min(block or _SAMPLE_BLOCK, N)
    if buf is None:
        buf = np.empty((len(fields), 60 * blk))
    plans = {}
    for a in range(0, N, blk):
        m = min(blk, N - a)
        out = _row_samples(buf, m)[:len(fields)]
        if nodefields:
            for nf, (val, jac) in zip(fields, out):
                val[...] = nf.val[..., a:a + m]
                jac[...] = nf.jac[..., a:a + m]
        else:
            sample_charted(fields, nodes[a:a + m],
                           min(max(n_inner - a, 0), m), out=out, plans=plans)
        yield a, out


def _raw_gram(ctx: InnerContext, fields) -> np.ndarray:
    """All pairwise inner products, accumulated over blocks of nodes.

    The one H^1 pairing: every inner product of the library is an entry of
    such a Gram.  fields are node fields sampled on ctx's rule or charted
    fields.  Both kinds take one path over blocks of _GRAM_BLOCK nodes,
    whose samples go straight into one buffer M (_sample_blocks): row k
    holds field k's jacobian entries (48, m), then its value entries
    (12, m).  Each row is then finished in place: grad_of adds
    eps [A_nu, a_mu] onto the jacobian part, eps A being formed once per
    block, the gradient entries are weighted by sqrt(w) and the value
    entries by sqrt(w) (sqrt(w w_R4) in the weighted product), and G gains
    M @ M.T.  So no full-rule sample, gradient or weighted matrix is held,
    and a charted field's Gram is its node field's bit for bit.  M has at
    least two rows, a zero one below a single row: the BLAS product of one
    row with itself sums in an order that depends on the thread count, that
    of two rows does not.
    """
    N = len(ctx.rule)
    sw = np.sqrt(ctx.rule.weights)
    sl = sw * np.sqrt(ctx.wvals) if ctx.weighted else sw
    n = len(fields)
    G = np.zeros((n, n))
    blk = min(_GRAM_BLOCK, N)
    buf = np.zeros((max(n, 2), 60 * blk))
    for a, samples in _sample_blocks(ctx, fields, blk, buf):
        m = samples[0][0].shape[-1]
        cols = slice(a, a + m)
        At = ctx.eps * ctx.Aval[..., cols]
        for val, jac in samples:
            ctx.grad_of(val, jac, At, out=jac)
            jac *= sw[cols]
            val *= sl[cols]
        M = buf[:, :60 * m]
        G += (M @ M.T)[:n, :n]
    if not np.all(np.isfinite(G)):
        raise NumericalError("non-finite Gram matrix")
    return G


def _basis_from_fields(ctx, G) -> GramBasis:
    """Orthonormalize the fields whose Gram in ctx is G."""
    return GramBasis(mgs_coefficients(G), ctx, G)


def gram_schmidt_ball(q: ParamQ, pi2: str = DEFAULT_PI2, tol: float = DEFAULT_TOL,
                      rule: QuadratureRule = None) -> GramBasis:
    """Orthonormalize the eight parameter derivatives of the glued family.

    The eight fields dA/dq_i are derived from one A and paired block by
    block; the basis holds no samples of them.
    """
    A = glued_connection(q, pi2=pi2)
    ctx = ball_context(A, q.eps, rule=rule, tol=tol)
    return _basis_from_fields(ctx, _raw_gram(ctx, derivative_fields(A)))


def gram_schmidt_weighted(q: ParamQ, ball_basis: GramBasis,
                          tol: float = DEFAULT_TOL) -> GramBasis:
    """Orthonormalize the extension's derivatives along the ball-basis q_i.

    Inputs are the fields sum_j c_ij dAt/dq_j obtained by applying the ball
    basis' parameter vector fields (rows of C) to the extension; the product
    is the weighted one with the extension itself in the derivative term.
    Their Gram is C Gt C^T from the raw derivatives' Gram Gt, sampled block
    by block; no field is kept.
    """
    At = extended_connection(q)
    ctx = weighted_context(At, q.eps, tol=tol)
    C = ball_basis.coeff
    return _basis_from_fields(
        ctx, C @ _raw_gram(ctx, derivative_fields(At)) @ C.T)


def project_perp(G: np.ndarray, n: int, basis: GramBasis) -> np.ndarray:
    """The rows M (n, n + 8) that take fields v_1..v_n to their parts
    orthogonal to span{a_i}, as combinations of [v_1..v_n, f_1..f_8], G
    being those fields' Gram in the basis' product.

    With g v's row of pairings (v, f_j), the pairings (v, a_i) are C g and
    the projection is sum_j k_j f_j with k = C^T C g, so M = [I | -k^T]:
    M G M^T is the Gram of the projected fields and C (M G)[:, n:] their
    pairings with the a_i.
    """
    C = basis.coeff
    # one k per v, so a v's row does not depend on the others'
    return np.hstack((np.eye(n), [-(C.T @ (C @ g)) for g in G[:n, n:]]))


# ---------------------------------------------------------------------------
# directional derivatives of the basis fields


def _shift_along(q: ParamQ, vec: np.ndarray, t: float) -> ParamQ:
    """Flow the parameter point by t along a coefficient vector (p, xi, lam)."""
    dp = t * vec[0:4]
    xi = t * vec[4:7]
    return replace(q, p=q.p + dp, g=q.g @ rotation(xi), lam=q.lam + t * vec[7])


def _basis_field_at(q: ParamQ, i: int, row: np.ndarray,
                    pi2: str) -> ChartedField:
    """a_i = sum_{j<=i} c_ij f_j at a (possibly shifted) q, with row the
    base point's row i of C, folded into one term list.

    C is lower triangular, so only f_1..f_i are derived; no context, Gram
    or MGS is built at q.
    """
    fields = derivative_fields(glued_connection(q, pi2=pi2), DIRECTIONS[:i])
    return linear_combination(fields, row[:i])


_H_REL = 1e-3   # first FD step, relative to lam along a unit-length q_j


def basis_directional_derivative(q: ParamQ, i: int, j: int, basis: GramBasis,
                                 pi2: str = DEFAULT_PI2) -> tuple:
    """Central-difference derivative of a_i along the vector field q_j, on
    the base point's coefficients.

    C is lower triangular, so every derivative of C lies in span{a_i}:
    perp(d_{q_j} a_i) = sum_{k,l} c_jk c_il perp(d_k d_l A), and keeping
    C fixed changes no perpendicular part.  a_i is folded at q +/- h and
    q +/- h/2 (_basis_field_at) from the same row of C, and those four term
    lists are folded again into the two returned fields rich - d(h/2) and
    the Richardson value rich = (4 d(h/2) - d(h)) / 3.  Their sampling forms
    each difference node by node, in a fixed chart and gauge, so no
    cancellation is left to a Gram quadratic form; the ratio of the two
    norms is the step-halving relative change.
    """
    vec = basis.coeff[j - 1]
    vnorm = float(np.linalg.norm(vec))
    if vnorm == 0.0:
        raise NumericalError("q_j vector vanishes; no flow direction")
    t = _H_REL * q.lam / vnorm
    steps = (t, -t, t / 2.0, -t / 2.0)
    shifted = [_basis_field_at(_shift_along(q, vec, s), i,
                               basis.coeff[i - 1], pi2) for s in steps]
    d = np.zeros((2, 4))    # rows d(h), d(h/2) over the four shifts
    d[0, :2] = [1.0 / (2.0 * s) for s in steps[:2]]
    d[1, 2:] = [1.0 / (2.0 * s) for s in steps[2:]]
    rich = d[1] * (4.0 / 3.0) - d[0] * (1.0 / 3.0)
    return (linear_combination(shifted, rich - d[1]),
            linear_combination(shifted, rich))
