"""Tests for the glued-connection family.

The oracle for the instanton coefficient tables lives in this file: plain
quaternion arithmetic (no eta tensors, no shared code paths with the module
under test).
"""

import dataclasses

import numpy as np
import pytest

from ymeps import instanton
from ymeps.forms import domain_ball_rule, star_coeffs
from ymeps.instanton import (
    DEFAULT_BG_CMAT,
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
    _ProfileW,
    beta_profile,
    d2A_dp1p1,
    d_dlam,
    d_dxi,
    derivative_fields,
    difference_b,
    extended_connection,
    glue,
    glued_connection,
    inner_first,
    rad_i1,
    rad_i2,
    rad_model_h,
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
    node_first,
    node_last,
    scatter_sample_charted,
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
    assert np.allclose(star_coeffs(2, node_last(Fc)), node_last(Fc), atol=1e-10)


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


def _profile_w_full(w, order):
    """The chain rule for P(w) = beta(sqrt w), evaluated on the whole array."""
    t = np.sqrt(np.maximum(w, 0.0))
    if order == 0:
        return beta_profile(t, 0)
    mid = (t > 1.0) & (t < 2.0)
    ts = np.where(mid, t, 1.5)
    b1, b2, b3, b4 = (beta_profile(ts, k) for k in (1, 2, 3, 4))
    out = {
        1: b1 / (2 * ts),
        2: b2 / (4 * ts ** 2) - b1 / (4 * ts ** 3),
        3: b3 / (8 * ts ** 3) - 3 * b2 / (8 * ts ** 4) + 3 * b1 / (8 * ts ** 5),
        4: (b4 / (16 * ts ** 4) - 6 * b3 / (16 * ts ** 5)
            + 15 * b2 / (16 * ts ** 6) - 15 * b1 / (16 * ts ** 7)),
    }[order]
    return np.where(mid, out, 0.0)


def test_profile_w_on_band_matches_full_chain_rule():
    rng = np.random.default_rng(RNG_SEED + 8)
    joints = [1.0, 4.0, np.nextafter(1.0, 2.0), np.nextafter(4.0, 0.0)]
    w = np.concatenate([rng.uniform(0.0, 6.0, 400), joints, [0.0, 0.5, 5.0]])
    orders = _ProfileW(w).upto(4)
    assert len(orders) == 5
    # grown an order at a time, the list is the one computed at once
    grown = _ProfileW(w)
    for order in range(5):
        grown.upto(order)
    assert all(np.array_equal(a, b) for a, b in zip(grown.P, orders))
    for order, got in enumerate(orders):
        want = _profile_w_full(w, order)
        assert np.array_equal(got, want), order
        # the band is open: at w = 1 and w = 4 only the plateau values remain
        assert got[400] == (1.0 if order == 0 else 0.0)
        assert got[401] == 0.0


def test_lam_channels_above_first_order_raise():
    # d^2/dlam^2 is not implemented: asking for it must not return d/dlam
    X = np.array([[0.05, 0.02, -0.01, 0.03]])
    for radial in (rad_i1, rad_i2, rad_model_h):
        with pytest.raises(ValueError):
            radial(0.01, 0.2, 0, 2)
    with pytest.raises(ValueError):
        BetaAtom(4.0, np.zeros(4), 0.2).eval(X, dlam=2)
    A = glued_connection(_generic_q())
    with pytest.raises(ValueError):
        terms_value(d_dlam(d_dlam(A.outer_terms)), X)
    # the background does not depend on lam, so these channels are exactly 0
    assert np.all(BgAtom(np.ones((3, 4))).eval(X, dlam=2) == 0.0)


# ---------------------------------------------------------------------------
# atom coefficient channels

CHANNEL_YDIRS = ((), (0,), (3,), (1, 1), (0, 2), (2, 2, 2), (0, 1, 3), (1, 1, 2))
ATOM_P = np.array([0.1, -0.08, 0.05, 0.12])


def _expanded(atom, X, ydirs=(), dlam=0):
    """An atom channel as a value: its coefficients times its tensor."""
    K = atom.eval(X, ydirs, dlam)
    if isinstance(atom, BetaAtom):       # a scalar factor, no tensor
        assert K.shape == (len(X),)
        return K
    assert K.shape == (len(X), len(atom.tensor))
    return np.einsum("ne,eau->nau", K, atom.tensor)


def _lin_closed_form(M, f):
    def value(X, lam):
        Y = X - ATOM_P
        s = np.sum(Y * Y, axis=1)
        return np.einsum("aue,ne->nau", M, Y) * f(s, lam)[:, None, None]
    return value


def _atom_cases():
    """(name, atom factory in lam, closed-form value(X, lam), radii |x - p|)."""
    lin = [("i1", 2 * ETA, rad_i1, lambda s, lam: 1.0 / (lam ** 2 + s),
            (0.2, 0.7, 1.5)),
           ("i2", 2 * ETABAR, rad_i2,
            lambda s, lam: lam ** 2 / (s * (lam ** 2 + s)), (0.5, 1.0, 2.0)),
           ("h", 2 * ETABAR, rad_model_h,
            lambda s, lam: lam ** 2 * (1.0 - 4.0 * s) ** 3, (0.3, 1.0, 1.6))]
    for name, M, radial, f, radii in lin:
        yield (name, lambda lam, M=M, radial=radial: LinRadAtom(M, radial, ATOM_P, lam),
               _lin_closed_form(M, f), radii)
    for c, radii in ((1.0, (1.15, 1.5, 1.85)), (4.0, (0.29, 0.37, 0.46))):
        yield (f"beta{c:g}", lambda lam, c=c: BetaAtom(c, ATOM_P, lam),
               lambda X, lam, c=c: beta_profile(
                   c * np.linalg.norm(X - ATOM_P, axis=1) / lam),
               radii)
    C = DEFAULT_BG_CMAT
    yield ("bg", lambda lam: BgAtom(C * 0.5),
           lambda X, lam: 0.5 * C[None] * ((1.0 - np.sum(X * X, axis=1)) ** 3)[:, None, None],
           (0.2, 0.5, 0.7))


@pytest.mark.parametrize("dlam", [0, 1])
def test_beta_atom_evaluates_each_profile_order_once(monkeypatch, dlam):
    # one _profile_w pass gives the orders 0..len(ydirs)+dlam a channel
    # reads, with one beta_profile call per order
    calls = []

    def counted(t, order=0):
        calls.append(order)
        return beta_profile(t, order)
    monkeypatch.setattr(instanton, "beta_profile", counted)
    lam = 0.2
    atom = BetaAtom(4.0, ATOM_P, lam)
    X = ATOM_P + (lam * np.array([0.29, 0.37, 0.46]))[:, None] * np.eye(4)[:3]
    for ydirs in CHANNEL_YDIRS:
        calls.clear()
        atom.eval(X, ydirs, dlam)
        assert calls == list(range(len(ydirs) + dlam + 1)), (ydirs, calls)


def test_bg_atom_evaluates_only_the_cubic_orders_it_reads(monkeypatch):
    # a channel with k y-derivatives reads the cutoff law's orders 0..k
    calls = []
    cubic = instanton._cubic

    def counted(s, r2, k):
        calls.append(k)
        return cubic(s, r2, k)
    monkeypatch.setattr(instanton, "_cubic", counted)
    atom = BgAtom(DEFAULT_BG_CMAT)
    X = np.array([[0.1, 0.2, -0.3, 0.05], [0.4, -0.1, 0.2, 0.3]])
    for ydirs in CHANNEL_YDIRS:
        calls.clear()
        atom.eval(X, ydirs)
        assert calls == list(range(len(ydirs) + 1)), (ydirs, calls)


def _richardson(fn, h):
    d1 = (fn(h) - fn(-h)) / (2 * h)
    d2 = (fn(h / 2) - fn(-h / 2)) / h
    return (4 * d2 - d1) / 3


@pytest.mark.parametrize("case", list(_atom_cases()), ids=lambda c: c[0])
def test_atom_coefficients_expand_to_closed_form_channels(case):
    # order 0 against the closed form; each further y- or lam-derivative
    # against a finite difference of the channel one order below
    name, make, closed, radii = case
    lam = 0.2
    rng = np.random.default_rng(RNG_SEED + 9)
    e = rng.standard_normal((len(radii), 4))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    X = ATOM_P + (lam * np.asarray(radii))[:, None] * e
    atom = make(lam)
    got = _expanded(atom, X)
    assert np.allclose(got, closed(X, lam), rtol=1e-13, atol=0.0)
    h = 1e-4 * lam
    for ydirs in CHANNEL_YDIRS:
        for dlam in (0, 1):
            got = _expanded(atom, X, ydirs, dlam)
            if dlam:
                fd = _richardson(lambda t: _expanded(make(lam + t), X, ydirs), h)
            elif ydirs:
                step = np.eye(4)[ydirs[-1]]
                fd = _richardson(
                    lambda t: _expanded(atom, X + t * step, ydirs[:-1]), h)
            else:
                continue
            scale = max(np.max(np.abs(got)), np.max(np.abs(fd)))
            if name == "bg" and dlam:
                assert scale == 0.0
                continue
            assert scale > 0.0, (name, ydirs, dlam)
            assert np.allclose(got, fd, rtol=0.0, atol=1e-7 * scale), (name, ydirs, dlam)


def _term_by_term(terms, X, nu=None):
    """Reference sum: each term expanded to (N,3,4) and mapped on its own.

    nu None gives the value, a coordinate index nu its x_nu-derivative.
    """
    out = np.zeros((len(X), 3, 4))
    for t in terms:
        def lie(extra):
            return _expanded(t.lie, X, t.lie_ydirs + extra, t.lie_dlam)

        def beta(extra):
            if t.beta is None:
                return 0.0 if extra else 1.0
            return t.beta.eval(X, t.beta_ydirs + extra, t.beta_dlam)[:, None, None]

        if nu is None:
            v = beta(()) * lie(())
        else:
            v = beta((nu,)) * lie(()) + beta(()) * lie((nu,))
        if t.mat is not None:
            v = np.einsum("ab,nbu->nau", t.mat, v)
        out += t.coef * v
    return out


def test_grouped_expansion_with_rotation_and_background_groups():
    # one term list holding the bg group (no matrix) and, under each of the
    # matrices R, R L_1, R L_3, a 2 eta group (I1) and a 2 etabar group (the
    # I2 and model-h atoms share that tensor)
    q = _generic_q()
    A = glued_connection(q)
    both = A.outer_terms + A.inner_terms
    terms = both + d_dxi(both, 1) + d_dxi(both, 3)
    keys = {(None if t.mat is None else t.mat.tobytes(), t.lie.tensor.tobytes())
            for t in terms}
    assert len(keys) == 7
    e = np.array([0.3, -0.6, 0.2, 0.7])
    e /= np.linalg.norm(e)
    X = q.p + np.array([0.3, 0.6, 1.5, 3.0, 0.45 / q.lam])[:, None] * q.lam * e
    want = _term_by_term(terms, X)
    assert np.allclose(node_first(terms_value(terms, X)), want, rtol=0.0,
                       atol=1e-13 * np.max(np.abs(want)))
    J = node_first(terms_jac(terms, X))
    for nu in range(4):
        want = _term_by_term(terms, X, nu)
        assert np.allclose(J[..., nu], want, rtol=0.0,
                           atol=1e-13 * np.max(np.abs(want)))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [-1.0, 0.0, np.nan, np.inf])
def test_bad_eps_is_rejected_by_name(eps):
    with pytest.raises(ParamError, match="eps must be positive and finite"):
        ParamQ.default(eps)
    with pytest.raises(ParamError, match="eps must be positive and finite"):
        ParamQ(p=np.zeros(4), g=GroupElement.identity(), lam=0.1, eps=eps)


def _generic_q(eps=2.0 ** -6):
    g = exp_map(AlgElement(0.3, -0.4, 0.2))
    return ParamQ.default(eps, p=np.array([0.1, -0.08, 0.05, 0.12]), g=g)


def test_plus_minus_g_give_same_connection():
    q = _generic_q()
    minus_g = GroupElement(-q.g.q0, -q.g.q1, -q.g.q2, -q.g.q3)
    qm = ParamQ(p=q.p, g=minus_g, lam=q.lam, eps=q.eps)
    X = np.array([[0.3, 0.1, -0.2, 0.05], [0.12, -0.02, 0.03, 0.01]])
    A, Am = glued_connection(q), glued_connection(qm)
    assert np.allclose(terms_value(A.outer_terms, X), terms_value(Am.outer_terms, X))
    assert np.allclose(terms_value(A.inner_terms, X), terms_value(Am.inner_terms, X))


# ---------------------------------------------------------------------------
# the glued family


def test_far_field_vanishes_for_plain_strategy():
    q = ParamQ.default(2.0 ** -6)
    bg = BackgroundConnection(Cmat=np.zeros((3, 4)), amplitude=0.0)
    A = glued_connection(q, bg=bg, pi2="zero")
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
    vi = terms_value(A.inner_terms, x[None])[..., 0]   # e-coeffs (3,4)
    vo = terms_value(A.outer_terms, x[None])[..., 0]
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
    J = node_first(terms_jac(A.outer_terms, X))
    Jfd = _fd_jac(lambda Y: node_first(terms_value(A.outer_terms, Y)), X)
    scale = np.max(np.abs(J))
    assert np.allclose(J, Jfd, atol=1e-6 * scale)
    H = terms_hess(A.outer_terms, X)
    Hfd = _fd_jac(lambda Y: node_first(terms_jac(A.outer_terms, Y)), X)
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
        # charted evaluation: all four nodes in the inner chart, where b has
        # no terms
        assert np.allclose(b.value_split(Xin, 4), 0.0)
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
    """Nodes in both charts around an off-center p, listed outward; mask =
    inner chart, a node prefix."""
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
    got = sample_charted(fields, X, mask.sum())
    for d, (val, jac) in zip(DIRECTIONS, got):
        (ref,) = derivative_fields(glued_connection(q, pi2=pi2), (d,))
        for sel, terms in ((mask, ref.inner_terms), (~mask, ref.outer_terms)):
            for one, per_field in ((val[..., sel], terms_value(terms, X[sel])),
                                   (jac[..., sel], terms_jac(terms, X[sel]))):
                scale = np.max(np.abs(per_field))
                assert scale > 0.0
                assert np.max(np.abs(one - per_field)) <= 1e-13 * scale, d


def test_one_pass_evaluates_each_atom_channel_once(monkeypatch):
    q = ParamQ.default(2.0 ** -5, p=[0.1, 0.0, -0.1, 0.05])
    X, mask = _pass_nodes(q, n=60)
    seen = []
    for cls in (LinRadAtom, BetaAtom, BgAtom):
        orig = cls.eval

        def counted(self, Y, ydirs=(), dlam=0, memo=None, _orig=orig):
            seen.append((id(self), tuple(ydirs), dlam, len(Y)))
            return _orig(self, Y, ydirs, dlam, memo)
        monkeypatch.setattr(cls, "eval", counted)
    n_inner = mask.sum()
    sample_charted(derivative_fields(glued_connection(q)), X, n_inner)
    assert len(seen) == len(set(seen))
    per_field = len(seen)
    seen.clear()
    for d in DIRECTIONS:
        sample_charted(derivative_fields(glued_connection(q), (d,)), X, n_inner)
    assert per_field < len(seen)
    # A = Atilde - b holds Atilde's and b's atoms: one pass samples all three
    seen.clear()
    At, b = extended_connection(q), difference_b(q)
    joint = sample_charted([glue(At, b), At, b], X, n_inner)
    assert len(seen) == len(set(seen))
    per_field = len(seen)
    seen.clear()
    apart = [sample_charted([f], X, n_inner)[0]
             for f in (glued_connection(q), extended_connection(q), difference_b(q))]
    assert per_field < len(seen)
    for (val, jac), (val1, jac1) in zip(joint, apart):
        assert np.array_equal(val, val1) and np.array_equal(jac, jac1)


def test_one_pass_evaluates_each_law_profile_and_geometry_once(monkeypatch):
    # one pass of the eight derivative fields evaluates, per chart, each
    # centre's |Y|^2, each radial law channel (ds, dlam), each background
    # cutoff order and each BetaAtom profile order once
    q = ParamQ.default(2.0 ** -5, p=[0.1, 0.0, -0.1, 0.05])
    X, mask = _pass_nodes(q)
    fields = derivative_fields(glued_connection(q))
    seen = []

    def batch(a):
        """The node batch an evaluation ran on (its chart and its atom)."""
        return len(a), hash(a.tobytes())

    def counting(fn, name, record=lambda *args: True):
        def counted(x, *args, **kw):
            if record(*args):
                seen.append((name,) + args + tuple(sorted(kw.items())) + batch(x))
            return fn(x, *args, **kw)
        return counted
    monkeypatch.setattr(instanton, "sq_norms",
                        counting(instanton.sq_norms, "geometry"))
    monkeypatch.setattr(instanton, "_cubic",
                        counting(instanton._cubic, "background",
                                 lambda r2, k: r2 == 1.0))
    monkeypatch.setattr(instanton, "beta_profile",
                        counting(instanton.beta_profile, "profile"))
    atoms = {t.lie for f in fields for t in f.inner_terms + f.outer_terms
             if isinstance(t.lie, LinRadAtom)}
    laws = {a.radial: counting(a.radial, a.radial.__name__) for a in atoms}
    for a in atoms:
        monkeypatch.setattr(a, "radial", laws[a.radial])
    sample_charted(fields, X, mask.sum())
    assert len(seen) == len(set(seen))
    kinds = [e[0] for e in seen]
    # the inner chart has one centre, the outer one p and the origin
    assert kinds.count("geometry") == 3
    assert {"background", "profile", "rad_i1", "rad_i2", "rad_model_h"} <= set(kinds)
    # each profile grew through its orders 0..k, one order at a time
    orders = {}
    for name, order, *b in seen:
        if name == "profile":
            orders.setdefault(tuple(b), []).append(order)
    assert len(orders) == 2          # the two BetaAtoms, outer chart only
    assert all(o == list(range(len(o))) for o in orders.values())


def test_memo_refuses_other_nodes():
    # a memo remembers the nodes it was filled on: those nodes (or an equal
    # copy) read its channels, other nodes raise instead
    q = ParamQ.default(2.0 ** -5, p=[0.1, 0.0, -0.1, 0.05])
    X, _ = _pass_nodes(q, n=60)
    terms = glued_connection(q).outer_terms
    memo = {}
    val = terms_value(terms, X, memo)
    assert np.array_equal(terms_value(terms, X.copy(), memo), val)
    assert np.array_equal(terms_jac(terms, X, memo), terms_jac(terms, X))
    for other in (X[::-1], X[:30]):
        with pytest.raises(ValueError):
            terms_value(terms, other, memo)
        with pytest.raises(ValueError):
            terms_jac(terms, other, memo)


def test_terms_write_into_a_node_range_of_out():
    q = ParamQ.default(2.0 ** -5, p=[0.1, 0.0, -0.1, 0.05])
    X, _ = _pass_nodes(q, n=60)
    terms = glued_connection(q).outer_terms
    val = np.zeros((3, 4, 70))
    jac = np.zeros((3, 4, 4, 70))
    assert terms_value(terms, X, out=val[..., 4:64]).base is val
    assert terms_jac(terms, X, out=jac[..., 4:64]).base is jac
    assert np.array_equal(val[..., 4:64], terms_value(terms, X))
    assert np.array_equal(jac[..., 4:64], terms_jac(terms, X))
    assert not val[..., :4].any() and not val[..., 64:].any()
    assert not jac[..., :4].any() and not jac[..., 64:].any()
    # an out whose rows cannot be one (12, N) view is refused, not copied
    with pytest.raises(ValueError):
        terms_value(terms, X, out=np.zeros((3, 5, 60))[:, :4])


def _chart_cases():
    """(X, mask) pairs: a domain rule's prefix mask, an interleaved mask on
    shuffled nodes, and all-inner and all-outer masks."""
    q = ParamQ.default(2.0 ** -4, p=[0.12, -0.2, 0.07, 0.15],
                       g=exp_map(AlgElement(0.9, -0.4, 1.3)))
    rule = domain_ball_rule(q.p, q.lam)
    prefix = np.arange(len(rule)) < rule.n_inner
    X, mask = _pass_nodes(q)
    perm = np.random.default_rng(RNG_SEED + 11).permutation(len(X))
    X, mask = X[perm], mask[perm]
    assert np.any(mask[:-1] < mask[1:]) and np.any(mask[:-1] > mask[1:])
    return q, {"domain-rule": (rule.nodes, prefix),
               "interleaved": (X, mask),
               "all-inner": (X, np.ones(len(X), bool)),
               "all-outer": (X, np.zeros(len(X), bool))}


@pytest.mark.parametrize("case", ["domain-rule", "interleaved", "all-inner",
                                  "all-outer"])
def test_charts_written_into_their_rows_match_the_scatter(case):
    # each chart is a node range of the inner-first order (dump-field's), and
    # its columns read back through that order are the masked scatter's
    q, cases = _chart_cases()
    X, mask = cases[case]
    order, n_inner = inner_first(mask)
    col = np.argsort(order)
    assert (case == "interleaved") != np.array_equal(order, np.arange(len(X)))
    fields = derivative_fields(glued_connection(q))
    got = sample_charted(fields, X[order], n_inner)
    ref = scatter_sample_charted(fields, X, mask)
    for (val, jac), (val0, jac0) in zip(got, ref):
        assert (np.array_equal(val[..., col], val0)
                and np.array_equal(jac[..., col], jac0))
    ((val, jac),) = sample_charted(fields[:1], X[order], n_inner, need_jac=False)
    assert jac is None and np.array_equal(val[..., col], ref[0][0])
