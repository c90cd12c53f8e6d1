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
rule node-last as in forms.  The Gram of charted fields samples them one
block of nodes at a time and drops each block once paired, so a Gram read
only for its entries never holds a full-rule sample.  A basis is the
coefficient matrix C over its raw fields' Gram; a ball basis built with
keep_samples also holds the raw fields sampled on its context's rule.
Every pairing with the combinations a_i = sum_j c_ij f_j is read through C
off the raw fields' Gram, so no list of combined fields is built; one a_i
is combined from the samples only where its values are needed.
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
    DIRECTIONS,
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

    def grad_of(self, val, jac, cols=slice(None), out=None) -> np.ndarray:
        """Covariant gradient (3,4,4,n) under this context's connection of a
        field with values val (3,4,n) and jacobian jac (3,4,4,n) on a slice
        of the rule's nodes (all of them by default), written into out when
        given."""
        return cov_grad_coeffs(self.Aval[..., cols], val, jac, self.eps, out)

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
    f_j's Gram in it.  A ball basis built with keep_samples holds the f_j
    sampled on that rule as ``raw_nodefields``, which node_field and
    project_perp read; any other basis is read only through its coefficients
    and holds none (None).
    """

    coeff: np.ndarray            # (8,8) lower triangular, positive diagonal
    ctx: InnerContext
    raw_gram: np.ndarray
    raw_nodefields: Optional[list] = field(default=None, repr=False)

    def node_field(self, i: int, val=None, jac=None, tmp=None) -> NodeField:
        """The i-th orthonormal field (1-based), combined from the samples,
        into val and jac with the scratch tmp if given (see _combine)."""
        return _combine(self.coeff[i - 1], self.samples(), val, jac, tmp)

    def samples(self) -> list:
        """The raw fields sampled on ctx's rule; ValueError if not held."""
        if self.raw_nodefields is None:
            raise ValueError(
                "this basis holds no samples of its raw fields: a weighted "
                "basis never does, and a ball basis only when built with "
                "gram_schmidt_ball(..., keep_samples=True)")
        return self.raw_nodefields

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
# nodes per sampling block of a charted-field Gram, a multiple of _GRAM_CHUNK
# so that both kinds of input pair the same chunks (_sample_blocks).  The four
# basis-only builds of verify-scaling (2^-4..2^-7, in process, one BLAS
# thread, 2-core x86_64, medians of 8 alternating runs) took 1.42 s wall
# (1.35 s user, 20k minor faults) with blocks of 1,024 nodes, 1.33 s (1.28 s,
# 13k) with 2,048, 1.15 s (1.10 s, 18k) with 4,096 and 1.30 s (1.00 s user,
# 0.30 s system, 96k faults) sampling the whole rule; each block's atom and
# term passes cost Python time, and whole-rule samples cost page faults.
# 8,192 faulted 24k times and peaked at 86 MiB RSS against 63 MiB here.
_SAMPLE_BLOCK = 4 * _GRAM_CHUNK


def _sample_blocks(ctx: InnerContext, fields):
    """(a, samples) per block of the rule's nodes a, a+1, ..., with samples
    the fields' (val, jac) there.

    Node fields, which must be sampled on ctx's rule, are one block of the
    whole rule.  Charted fields are sampled _SAMPLE_BLOCK nodes at a time,
    each block's inner chart being its part of the rule's first n_inner
    nodes, into buffers allocated once and overwritten by the next block.
    """
    if all(isinstance(f, NodeField) for f in fields):
        if any(nf.rule is not ctx.rule for nf in fields):
            raise ValueError("NodeField sampled on a different rule")
        yield 0, [(nf.val, nf.jac) for nf in fields]
        return
    nodes, n_inner, N = ctx.rule.nodes, ctx.rule.n_inner, len(ctx.rule)
    blk = min(_SAMPLE_BLOCK, N)
    vals = np.empty((len(fields), 12 * blk))
    jacs = np.empty((len(fields), 48 * blk))
    for a in range(0, N, blk):
        m = min(blk, N - a)
        out = [(v[:12 * m].reshape(3, 4, m), j[:48 * m].reshape(3, 4, 4, m))
               for v, j in zip(vals, jacs)]
        yield a, sample_charted(fields, nodes[a:a + m],
                                min(max(n_inner - a, 0), m), out=out)


def _raw_gram(ctx: InnerContext, fields, weights=None) -> np.ndarray:
    """All pairwise inner products, accumulated over blocks of nodes.

    The one H^1 pairing: every inner product of the library is an entry of
    such a Gram.  fields are node fields sampled on ctx's rule, or charted
    fields, which are sampled block by block (_sample_blocks) and give the
    same Gram bit for bit without a full-rule sample ever being held.
    weights are the node weights of the sum, by default the rule's (zeroed
    past n_inner, they restrict it to the inner chart).  On each chunk of
    _GRAM_CHUNK nodes, row k of M holds field k's weighted gradient entries
    (48, m), then its weighted value entries (12, m), and G gains M @ M.T.
    Gradients are computed on the chunk only, straight into M, so no
    full-rule gradient or weighted matrix is held.
    """
    N = len(ctx.rule)
    sw = np.sqrt(ctx.rule.weights if weights is None else weights)
    sl = sw * np.sqrt(ctx.wvals) if ctx.weighted else sw
    n = len(fields)
    G = np.zeros((n, n))
    buf = np.empty((n, min(_GRAM_CHUNK, N) * 60))
    for a, samples in _sample_blocks(ctx, fields):
        size = samples[0][0].shape[-1]
        for c in range(0, size, _GRAM_CHUNK):
            d = min(c + _GRAM_CHUNK, size)
            m, cols = d - c, slice(a + c, a + d)
            M = buf[:, :m * 60]
            for row, (val, jac) in zip(M, samples):
                grad = row[:m * 48].reshape(48, m)
                ctx.grad_of(val[..., c:d], jac[..., c:d], cols,
                            grad.reshape(3, 4, 4, m))
                grad *= sw[cols]
                np.multiply(val[..., c:d].reshape(12, m), sl[cols],
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
                      rule: QuadratureRule = None,
                      keep_samples: bool = False) -> GramBasis:
    """Orthonormalize the eight parameter derivatives of the glued family.

    The eight fields dA/dq_i are derived from one A.  With keep_samples they
    are sampled on the whole rule in one pass and kept for node_field and
    project_perp; otherwise their Gram samples them block by block and the
    basis holds none.
    """
    A = glued_connection(q, pi2=pi2)
    ctx = ball_context(A, q.eps, rule=rule, tol=tol)
    fields = derivative_fields(A)
    nfs = ctx.arrays(fields) if keep_samples else None
    G = _raw_gram(ctx, fields if nfs is None else nfs)
    return _basis_from_fields(ctx, G, nfs)


def gram_schmidt_weighted(q: ParamQ, ball_basis: GramBasis,
                          tol: float = 1e-4) -> GramBasis:
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


def project_perp(vs, basis: GramBasis) -> list:
    """Each node field v of vs minus its orthogonal projection onto
    span{a_i}, on the basis' rule.

    One Gram of [v_1..v_k, f_1..f_8] gives every pairing (v, f_j): with g
    v's row of them, the pairings (v, a_i) are C g and the projection is
    sum_j k_j f_j with k = C^T C g, one combination of v and the raw fields
    per v, so the basis must hold their samples (GramBasis.samples).
    """
    raw, k, C = basis.samples(), len(vs), basis.coeff
    G = _raw_gram(basis.ctx, list(vs) + raw)
    return [_combine(np.concatenate(([1.0], -(C.T @ (C @ g)))), [v] + raw)
            for v, g in zip(vs, G[:k, k:])]


# ---------------------------------------------------------------------------
# directional derivatives of the basis fields


def _shift_along(q: ParamQ, vec: np.ndarray, t: float) -> ParamQ:
    """Flow the parameter point by t along a coefficient vector (p, xi, lam)."""
    dp = t * vec[0:4]
    xi = t * vec[4:7]
    g = q.g * exp_map(AlgElement(*xi))
    return replace(q, p=q.p + dp, g=g, lam=q.lam + t * vec[7])


def _basis_field_at(q: ParamQ, i: int, ctx: InnerContext, pi2: str) -> NodeField:
    """a_i at a (possibly shifted) q, sampled on the base rule and its charts.

    C is lower triangular, so a_i = sum_{j<=i} c_ij f_j: only f_1..f_i are
    sampled and orthonormalized.
    """
    A = glued_connection(q, pi2=pi2)
    sub = ball_context(A, q.eps, rule=ctx.rule)
    nfs = sub.arrays(derivative_fields(A, DIRECTIONS[:i]))
    return _basis_from_fields(sub, _raw_gram(sub, nfs), nfs).node_field(i)


_H_REL = 1e-3   # first FD step, relative to lam along a unit-length q_j


def basis_directional_derivative(q: ParamQ, i: int, j: int, basis: GramBasis,
                                 pi2: str = "model") -> tuple[NodeField, float]:
    """Central-difference derivative of a_i along the vector field q_j.

    a_i is rebuilt from the leading i raw fields at the flowed parameter
    points; every field is sampled on the base rule with its inner chart,
    so differences are taken in a fixed chart and gauge.  Richardson
    extrapolation over steps (h, h/2).  Returns the derivative and the
    step-halving relative change of the extrapolated value.
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
