"""Tests for the glued-connection family.

The oracle for the instanton coefficient tables lives in this file: plain
quaternion arithmetic (no eta tensors, no shared code paths with the module
under test).
"""

import dataclasses

import numpy as np
import pytest

from ymeps.forms import star_coeffs
from ymeps.instanton import (
    DIRECTIONS,
    ETA,
    ETABAR,
    PI2_STRATEGIES,
    BackgroundConnection,
    BetaAtom,
    BgAtom,
    LinRadAtom,
    ParamError,
    ParamQ,
    Term,
    beta_profile,
    d2A_dp1p1,
    derivative_fields,
    difference_b,
    extended_connection,
    glued_connection,
    sample_charted,
    terms_jac,
    terms_value,
)
from ymeps.liealg import AlgElement, GroupElement, exp_map
from oracle import (
    cutoff,
    exterior_d,
    i1_form,
    i2_form,
    terms_form_field,
    terms_hess,
    transition_quaternion,
    wedge_bracket,
)

RNG_SEED = 20240816


# ---------------------------------------------------------------------------
# quaternion oracle


def qmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return np.array([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ])


def qconj(a):
    return np.array([a[0], -a[1], -a[2], -a[3]])


UNITS = [np.array(u, dtype=float) for u in
         [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]]


def i1_oracle(y, lam):
    """e-coefficients (3,4) of the inner instanton form at offset y."""
    s = float(np.dot(y, y))
    out = np.zeros((3, 4))
    for nu in range(4):
        v = qmul(y, qconj(UNITS[nu]))
        out[:, nu] = 2.0 * v[1:] / (lam ** 2 + s)
    return out


def i2_oracle(y, lam):
    """e-coefficients (3,4) of the outer instanton form at offset y."""
    s = float(np.dot(y, y))
    out = np.zeros((3, 4))
    for nu in range(4):
        v = qmul(qconj(y), UNITS[nu])
        out[:, nu] = 2.0 * lam ** 2 * v[1:] / (s * (lam ** 2 + s))
    return out


def random_unit_quat(rng):
    v = rng.standard_normal(4)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# coefficient tables


def test_eta_tables_are_dual_pair():
    # antisymmetric, and (anti-)self-dual: T_{mu nu} = +/- (1/2) eps_{mu nu rho sig} T_{rho sig}
    eps4 = np.zeros((4, 4, 4, 4))
    from itertools import permutations
    for perm in permutations(range(4)):
        sgn, lst = 1, list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if lst[i] > lst[j]:
                    sgn = -sgn
        eps4[perm] = sgn
    for T, sig in ((ETA, 1.0), (ETABAR, -1.0)):
        assert np.allclose(T, -np.transpose(T, (0, 2, 1)))
        dual = 0.5 * np.einsum("uvrs,ars->auv", eps4, T)
        assert np.allclose(dual, sig * T)


def test_i1_matches_quaternion_oracle():
    rng = np.random.default_rng(RNG_SEED)
    lam, p = 0.2, np.array([0.1, -0.05, 0.02, 0.0])
    field = i1_form(lam, p)
    for _ in range(8):
        x = p + 0.4 * rng.standard_normal(4)
        got = field.value(x)[0]
        want = i1_oracle(x - p, lam)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_i2_matches_quaternion_oracle():
    rng = np.random.default_rng(RNG_SEED + 1)
    lam, p = 0.15, np.array([-0.02, 0.03, 0.0, 0.11])
    field = i2_form(lam, p)
    for _ in range(8):
        x = p + 0.5 * rng.standard_normal(4)
        got = field.value(x)[0]
        want = i2_oracle(x - p, lam)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


def test_coefficient_spot_table():
    # at x = p + (lam, 0, 0, 0): I1 = -(1/lam) sum_a e_a dx^a, I2 = +(1/lam) ...
    lam, p = 0.3, np.zeros(4)
    x = np.array([lam, 0.0, 0.0, 0.0])
    want = np.zeros((3, 4))
    for a in range(3):
        want[a, a + 1] = 1.0 / lam
    assert np.allclose(i1_form(lam, p).value(x)[0], -want, atol=1e-14)
    assert np.allclose(i2_form(lam, p).value(x)[0], want, atol=1e-14)


def test_i1_scaling_identity():
    rng = np.random.default_rng(RNG_SEED + 2)
    lam, c, p = 0.21, 1.7, np.zeros(4)
    u = 0.3 * rng.standard_normal(4)
    lhs = i1_form(c * lam, p).value(p + c * u)[0]
    rhs = i1_form(lam, p).value(p + u)[0] / c
    assert np.allclose(lhs, rhs, rtol=1e-13)


def test_i2_far_field_decay():
    lam, p = 0.05, np.zeros(4)
    e = np.array([0.3, 0.5, -0.2, 0.6])
    e /= np.linalg.norm(e)
    f = i2_form(lam, p)
    r = 40 * lam
    n1 = np.linalg.norm(f.value(p + r * e))
    n2 = np.linalg.norm(f.value(p + 2 * r * e))
    assert n1 / n2 == pytest.approx(8.0, rel=0.01)  # |I2| ~ lam^2 / r^3


# ---------------------------------------------------------------------------
# curvature


def _curvature_coeffs(field, X, eps=1.0):
    F = exterior_d(field) + (eps / 2.0) * wedge_bracket(field, field)
    return F.value(X)


def test_curvature_closed_form_and_self_duality():
    rng = np.random.default_rng(RNG_SEED + 3)
    lam = 0.22
    field = i1_form(lam, np.zeros(4))
    X = 0.5 * rng.standard_normal((6, 4))
    Fc = _curvature_coeffs(field, X)
    s = np.sum(X * X, axis=1)
    density = np.sum(Fc ** 2, axis=(1, 2))
    assert np.allclose(density, 96 * lam ** 4 / (lam ** 2 + s) ** 4, rtol=1e-9)
    assert np.allclose(star_coeffs(2, Fc), Fc, atol=1e-10)


def test_scaled_connection_curvature():
    # A = (1/eps) I1 with the eps-bracket has curvature density (1/eps^2) x instanton
    lam, eps = 0.2, 0.04
    field = i1_form(lam, np.zeros(4)) * (1.0 / eps)
    x = np.array([[0.1, -0.2, 0.05, 0.15]])
    Fc = _curvature_coeffs(field, x, eps=eps)
    s = np.sum(x * x, axis=1)
    assert np.allclose(np.sum(Fc ** 2, axis=(1, 2)),
                       96 * lam ** 4 / (eps ** 2 * (lam ** 2 + s) ** 4), rtol=1e-9)


def test_transition_identity():
    # I1 = g12 I2 g12^{-1} + g12 d(g12^{-1}), g12 = y/|y|, in quaternion arithmetic
    rng = np.random.default_rng(RNG_SEED + 4)
    lam = 0.17
    for _ in range(6):
        y = 0.4 * rng.standard_normal(4)
        s = float(np.dot(y, y))
        r = np.sqrt(s)
        g12 = y / r
        for nu in range(4):
            v2 = np.zeros(4)
            v2[1:] = i2_oracle(y, lam)[:, nu] / 2.0  # quaternion coefficients
            conjugated = qmul(qmul(g12, v2), qconj(g12))
            dginv = qconj(UNITS[nu]) / r - qconj(y) * y[nu] / r ** 3
            rhs = conjugated + qmul(g12, dginv)
            v1 = np.zeros(4)
            v1[1:] = i1_oracle(y, lam)[:, nu] / 2.0
            assert np.allclose(rhs, v1, atol=1e-12)


# ---------------------------------------------------------------------------
# cutoffs


def test_cutoff_plateau_and_support():
    lam, p = 0.2, np.array([0.05, 0.0, -0.1, 0.0])
    for scale in (lam, lam / 4):
        e = np.array([1.0, 2.0, -1.0, 0.5])
        e /= np.linalg.norm(e)
        assert cutoff(lam, p, scale, p + 0.5 * scale * e) == 1.0
        assert cutoff(lam, p, scale, p + 3.0 * scale * e) == 0.0
        mid = cutoff(lam, p, scale, p + 1.5 * scale * e)
        assert 0.0 < mid < 1.0


def test_profile_smoothness_c3():
    # derivatives agree with finite differences (grid avoids the exact joints,
    # where the fourth derivative jumps and centred FD of order 3 is only O(h))
    ts = np.linspace(0.5, 2.5, 400)
    h = 1e-5
    for k in (1, 2, 3):
        fd = (beta_profile(ts + h, k - 1) - beta_profile(ts - h, k - 1)) / (2 * h)
        assert np.allclose(beta_profile(ts, k), fd, atol=2e-4)
    # C^3 joints: derivative orders 1..3 vanish at t=1 and t=2
    for k in (1, 2, 3):
        assert beta_profile(1.0, k) == 0.0
        assert beta_profile(2.0, k) == 0.0
    assert np.all(np.diff(beta_profile(ts, 0)) <= 1e-15)  # monotone


def test_cutoff_derivative_sup_scaling():
    # sup |d^k beta_scale| grows like scale^{-k}
    p = np.zeros(4)
    scales = [2.0 ** -j for j in range(2, 7)]
    rng = np.random.default_rng(RNG_SEED + 5)
    e = rng.standard_normal(4)
    e /= np.linalg.norm(e)
    for k, want in ((1, -1.0), (2, -2.0), (3, -3.0)):
        sups = []
        for sc in scales:
            atom = BetaAtom(1.0, p, sc)
            rr = np.linspace(0.9 * sc, 2.1 * sc, 400)
            X = rr[:, None] * e[None, :]
            vals = atom.eval(X, ydirs=(0,) * k)
            sups.append(np.max(np.abs(vals)))
        slope = np.polyfit(np.log(scales), np.log(sups), 1)[0]
        assert slope == pytest.approx(want, abs=0.02)


def test_beta_atom_lambda_channel():
    lam, p = 0.21, np.zeros(4)
    atom = BetaAtom(4.0, p, lam)
    X = np.array([[0.08, 0.02, -0.01, 0.03]])  # inside the transition band
    h = 1e-6
    up = BetaAtom(4.0, p, lam + h).eval(X)
    dn = BetaAtom(4.0, p, lam - h).eval(X)
    assert np.allclose(atom.eval(X, dlam=1), (up - dn) / (2 * h), rtol=1e-6)
    got = atom.eval(X, ydirs=(1,), dlam=1)
    upj = BetaAtom(4.0, p, lam + h).eval(X, ydirs=(1,))
    dnj = BetaAtom(4.0, p, lam - h).eval(X, ydirs=(1,))
    assert np.allclose(got, (upj - dnj) / (2 * h), rtol=1e-5)


# ---------------------------------------------------------------------------
# parameter domain


def test_param_validation():
    q = ParamQ.default(2.0 ** -6)
    assert q.lam == pytest.approx(2.0 ** -3)
    with pytest.raises(ParamError):
        ParamQ.default(2.0 ** -6, p=np.array([0.45, 0.0, 0.0, 0.0]))  # |p| too big
    with pytest.raises(ParamError):
        ParamQ(p=np.zeros(4), g=GroupElement.identity(), lam=0.3, eps=0.09)  # lam >= lam0
    with pytest.raises(ParamError):
        ParamQ(p=np.zeros(4), g=GroupElement.identity(), lam=0.1, eps=0.1)  # lam^2 too small
    with pytest.raises(ParamError):
        ParamQ(p=np.zeros(4), g=GroupElement.identity(), lam=0.2, eps=0.01)  # lam^2 too big
    with pytest.raises(ParamError):
        ParamQ(p=np.zeros(3), g=GroupElement.identity(), lam=0.1, eps=0.01)
    for j in range(4, 10):
        ParamQ.default(2.0 ** -j)  # whole sweep range is admissible


def _generic_q(eps=2.0 ** -6):
    g = exp_map(AlgElement(0.3, -0.4, 0.2))
    return ParamQ.default(eps, p=np.array([0.1, -0.08, 0.05, 0.12]), g=g)


def test_plus_minus_g_give_same_connection():
    q = _generic_q()
    qm = ParamQ(p=q.p, g=-q.g, lam=q.lam, eps=q.eps)
    X = np.array([[0.3, 0.1, -0.2, 0.05], [0.12, -0.02, 0.03, 0.01]])
    A, Am = glued_connection(q), glued_connection(qm)
    assert np.allclose(terms_value(A.outer_terms, X), terms_value(Am.outer_terms, X))
    assert np.allclose(terms_value(A.inner_terms, X), terms_value(Am.inner_terms, X))


# ---------------------------------------------------------------------------
# the glued family


def test_far_field_vanishes_for_plain_strategy():
    q = ParamQ.default(2.0 ** -6)
    A = glued_connection(q, bg=BackgroundConnection.zero(), pi2="zero")
    X = np.array([[2 * q.lam, 0, 0, 0], [0.5, 0.3, 0, 0], [0, 0, 0.9, 0]])
    assert np.allclose(terms_value(A.outer_terms, X), 0.0, atol=1e-15)


def test_inner_chart_shared_by_family_and_extension():
    q = _generic_q()
    A, At = glued_connection(q), extended_connection(q)
    rng = np.random.default_rng(RNG_SEED + 6)
    X = q.p + (q.lam / 5) * rng.standard_normal((5, 4))
    assert np.allclose(terms_value(A.inner_terms, X), terms_value(At.inner_terms, X))


def test_chart_overlap_density_agreement():
    q = _generic_q()
    for pi2 in ("zero", "model", "full"):
        A = glued_connection(q, pi2=pi2)
        fin = terms_form_field(A.inner_terms)
        fout = terms_form_field(A.outer_terms)
        rng = np.random.default_rng(RNG_SEED + 7)
        for frac in (0.4, 0.7, 0.95):
            e = rng.standard_normal(4)
            e /= np.linalg.norm(e)
            x = q.p + frac * (q.lam / 4) * e
            di = np.sum(_curvature_coeffs(fin, x[None], eps=q.eps) ** 2)
            do = np.sum(_curvature_coeffs(fout, x[None], eps=q.eps) ** 2)
            assert abs(di - do) <= 1e-8 * abs(di)


def test_transition_relates_charts_pointwise():
    # inner = T outer T^{-1} + (1/eps) T dT^{-1}, T = g g12 g^{-1}, inside the plateau
    q = _generic_q()
    A = glued_connection(q)
    x = q.p + np.array([0.3, 0.5, -0.1, 0.4]) * (q.lam / 8)
    vi = terms_value(A.inner_terms, x[None])[0]   # e-coeffs (3,4)
    vo = terms_value(A.outer_terms, x[None])[0]
    T = transition_quaternion(q.p, q.g, x[None])[0]
    h = 1e-7
    for nu in range(4):
        qo = np.zeros(4)
        qo[1:] = vo[:, nu] / 2.0
        xp, xm = x.copy(), x.copy()
        xp[nu] += h
        xm[nu] -= h
        Tp = transition_quaternion(q.p, q.g, xp[None])[0]
        Tm = transition_quaternion(q.p, q.g, xm[None])[0]
        dTinv = (qconj(Tp) - qconj(Tm)) / (2 * h)
        want = qmul(qmul(T, qo), qconj(T)) + qmul(T, dTinv) / q.eps
        got = np.zeros(4)
        got[1:] = vi[:, nu] / 2.0
        assert np.allclose(got, want, atol=1e-5 * max(1.0, np.linalg.norm(want)))


def _fd_jac(fn, X, h=1e-5):
    out = []
    for nu in range(4):
        e = np.zeros(4)
        e[nu] = h
        d1 = (fn(X + e) - fn(X - e)) / (2 * h)
        d2 = (fn(X + e / 2) - fn(X - e / 2)) / h
        out.append((4 * d2 - d1) / 3)
    return np.stack(out, axis=-1)


def test_analytic_jacobian_and_hessian_match_fd():
    q = _generic_q()
    A = glued_connection(q)  # model strategy, generic g, bg on
    lam = q.lam
    # radii clear of the profile joints {lam/4, lam/2, lam, 2lam} and edges
    radii = [0.35 * lam, 0.8 * lam, 1.5 * lam, 3.0 * lam, 0.45, 0.8]
    e = np.array([0.4, -0.3, 0.7, 0.2])
    e /= np.linalg.norm(e)
    X = q.p + np.array([r * e for r in radii])
    J = terms_jac(A.outer_terms, X)
    Jfd = _fd_jac(lambda Y: terms_value(A.outer_terms, Y), X)
    scale = np.max(np.abs(J))
    assert np.allclose(J, Jfd, atol=1e-6 * scale)
    H = terms_hess(A.outer_terms, X)
    Hfd = _fd_jac(lambda Y: terms_jac(A.outer_terms, Y), X)
    assert np.allclose(H, Hfd, atol=1e-5 * np.max(np.abs(H)))


# ---------------------------------------------------------------------------
# parameter derivatives


def _param_shift(q, direction, t):
    if direction.startswith("p"):
        dp = np.zeros(4)
        dp[int(direction[1]) - 1] = t
        return dataclasses.replace(q, p=q.p + dp)
    if direction.startswith("xi"):
        i = int(direction[2])
        coeffs = [0.0, 0.0, 0.0]
        coeffs[i - 1] = t
        return ParamQ(p=q.p, g=q.g * exp_map(AlgElement(*coeffs)), lam=q.lam,
                      eps=q.eps)
    return dataclasses.replace(q, lam=q.lam + t)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_dA_dparam_matches_fd(direction):
    q = _generic_q()
    lam = q.lam
    e = np.array([0.2, 0.5, -0.4, 0.3])
    e /= np.linalg.norm(e)
    Xin = q.p + 0.1 * lam * np.stack([e, -e])
    Xout = q.p + np.array([0.7 * lam, 1.6 * lam, 0.45])[:, None] * e[None, :]
    (dfield,) = derivative_fields(glued_connection(q), (direction,))
    t = 1e-4 if direction != "lam" else 1e-5
    for chart, pts in (("inner", Xin), ("outer", Xout)):
        def val(s):
            qs = _param_shift(q, direction, s)
            As = glued_connection(qs)
            terms = As.inner_terms if chart == "inner" else As.outer_terms
            return terms_value(terms, pts)
        d1 = (val(t) - val(-t)) / (2 * t)
        d2 = (val(t / 2) - val(-t / 2)) / t
        fd = (4 * d2 - d1) / 3
        terms = dfield.inner_terms if chart == "inner" else dfield.outer_terms
        got = terms_value(terms, pts)
        scale = max(np.max(np.abs(fd)), 1e-12)
        assert np.allclose(got, fd, atol=5e-6 * scale), f"{direction}/{chart}"


def test_datilde_dparam_matches_fd():
    q = _generic_q()
    e = np.array([1.0, -1.0, 0.5, 0.25])
    e /= np.linalg.norm(e)
    pts = q.p + np.array([[0.6], [2.5]]) * q.lam * e
    for direction in ("p2", "xi3", "lam"):
        (dfield,) = derivative_fields(extended_connection(q), (direction,))
        t = 1e-5

        def val(s):
            qs = _param_shift(q, direction, s)
            return terms_value(extended_connection(qs).outer_terms, pts)

        d1 = (val(t) - val(-t)) / (2 * t)
        d2 = (val(t / 2) - val(-t / 2)) / t
        fd = (4 * d2 - d1) / 3
        got = terms_value(dfield.outer_terms, pts)
        assert np.allclose(got, fd, atol=5e-6 * np.max(np.abs(fd)))


def test_d2A_dp1p1_matches_fd():
    q = _generic_q()
    e = np.array([0.1, 0.6, 0.2, -0.5])
    e /= np.linalg.norm(e)
    pts = q.p + np.array([[0.8], [1.7]]) * q.lam * e
    d2 = d2A_dp1p1(q)
    h = 1e-3 * q.lam

    def val(s):
        dp = np.array([s, 0.0, 0.0, 0.0])
        qs = dataclasses.replace(q, p=q.p + dp)
        return terms_value(glued_connection(qs).outer_terms, pts)

    fd = (val(h) - 2 * val(0.0) + val(-h)) / h ** 2
    got = terms_value(d2.outer_terms, pts)
    assert np.allclose(got, fd, atol=1e-4 * np.max(np.abs(got)))


# ---------------------------------------------------------------------------
# the difference field


def test_difference_is_extension_minus_family():
    q = _generic_q()
    for pi2 in ("zero", "model", "full"):
        A = glued_connection(q, pi2=pi2)
        At = extended_connection(q)
        b = difference_b(q, pi2=pi2)
        rng = np.random.default_rng(RNG_SEED + 8)
        X = q.p + 0.6 * rng.standard_normal((8, 4))
        va, vt, vb = (terms_value(A.outer_terms, X),
                      terms_value(At.outer_terms, X),
                      terms_value(b.outer_terms, X))
        assert np.allclose(vb, vt - va, atol=1e-9 * max(1.0, np.max(np.abs(vt))))
        assert b.inner_terms == []


def test_difference_vanishes_in_inner_region_and_is_order_eps():
    sups = []
    for j in range(4, 9):
        eps = 2.0 ** -j
        q = ParamQ.default(eps)
        b = difference_b(q)
        rng = np.random.default_rng(RNG_SEED + j)
        # inside the inner chart radius the two connections agree identically
        e = rng.standard_normal((4, 4))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        Xin = q.p + 0.2 * q.lam * e
        # charted evaluation: mask selects the inner chart where b has no terms
        assert np.allclose(b.value_split(Xin, np.ones(4, dtype=bool)), 0.0)
        rr = np.linspace(q.lam / 4, 1.5, 300)
        X = q.p + rr[:, None] * e[0][None, :]
        sups.append(eps * np.max(np.abs(terms_value(b.outer_terms, X))))
    assert max(sups) < 50.0  # eps * sup|b| stays bounded along the sweep


def test_direction_name_validation():
    q = _generic_q()
    A = glued_connection(q)
    with pytest.raises(ValueError):
        derivative_fields(A, ("p5",))
    with pytest.raises(ValueError):
        derivative_fields(A, ("mu",))
    assert DIRECTIONS == ("p1", "p2", "p3", "p4", "xi1", "xi2", "xi3", "lam")


# ---------------------------------------------------------------------------
# one evaluation pass for the eight derivative fields


def _pass_nodes(q, n=240):
    """Nodes in both charts around an off-center p; mask = inner chart."""
    rng = np.random.default_rng(RNG_SEED + 7)
    dirs = rng.standard_normal((n, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = q.lam * np.geomspace(0.02, 2.5 / q.lam, n)
    X = q.p + r[:, None] * dirs
    return X, r < q.lam / 4.0


@pytest.mark.parametrize("pi2", PI2_STRATEGIES)
def test_one_pass_matches_per_field_evaluation(pi2):
    # reference: each direction's own family member and its own atom memo
    q = ParamQ.default(2.0 ** -5, p=[0.12, -0.2, 0.07, 0.15],
                       g=exp_map(AlgElement(0.9, -0.4, 1.3)))
    assert np.linalg.norm(q.p) < 0.4
    X, mask = _pass_nodes(q)
    assert 0 < mask.sum() < len(mask)
    fields = derivative_fields(glued_connection(q, pi2=pi2))
    got = sample_charted(fields, X, mask)
    for d, (val, jac) in zip(DIRECTIONS, got):
        (ref,) = derivative_fields(glued_connection(q, pi2=pi2), (d,))
        for sel, terms in ((mask, ref.inner_terms), (~mask, ref.outer_terms)):
            for one, per_field in ((val[sel], terms_value(terms, X[sel])),
                                   (jac[sel], terms_jac(terms, X[sel]))):
                scale = np.max(np.abs(per_field))
                assert scale > 0.0
                assert np.max(np.abs(one - per_field)) <= 1e-13 * scale, d


def test_one_pass_evaluates_each_atom_channel_once(monkeypatch):
    q = ParamQ.default(2.0 ** -5, p=[0.1, 0.0, -0.1, 0.05])
    X, mask = _pass_nodes(q, n=60)
    seen = []
    for cls in (LinRadAtom, BetaAtom, BgAtom):
        orig = cls.eval

        def counted(self, Y, ydirs=(), dlam=0, _orig=orig):
            seen.append((id(self), tuple(ydirs), dlam, len(Y)))
            return _orig(self, Y, ydirs, dlam)
        monkeypatch.setattr(cls, "eval", counted)
    sample_charted(derivative_fields(glued_connection(q)), X, mask)
    assert len(seen) == len(set(seen))
    per_field = len(seen)
    seen.clear()
    for d in DIRECTIONS:
        sample_charted(derivative_fields(glued_connection(q), (d,)), X, mask)
    assert per_field < len(seen)
