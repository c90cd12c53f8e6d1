"""Test-only reference fields built through the FormField path.

The suite-3.7 probes are evaluated from closed-form specs on their supports
(functionals.test_field_family); the helpers here build the same bumps as
FormFields sampled on the full rule, so tests can check the fast path
against an independent one.
"""

import numpy as np

from ymeps.forms import FormField


def bump_one_form(center, scale, coeff_mat, power: int = 3) -> FormField:
    """Compactly supported 1-form (1-|y|^2/s^2)^power * coeff, analytic jac.

    power controls the smoothness at the support boundary (C^{power-1}).
    """
    c = np.asarray(center, dtype=float)
    C = np.asarray(coeff_mat, dtype=float)

    def value(X):
        u = 1.0 - np.sum((X - c) ** 2, axis=1) / scale ** 2
        prof = np.where(u > 0, u ** power, 0.0)
        return C[None, :, :] * prof[:, None, None]

    def jac(X):
        Y = X - c
        u = 1.0 - np.sum(Y * Y, axis=1) / scale ** 2
        dprof = np.where(u > 0, power * u ** (power - 1), 0.0) * (-2.0 / scale ** 2)
        return C[None, :, :, None] * (dprof[:, None] * Y)[:, None, None, :]

    return FormField(1, value, jac, domain="ball", name="bump")


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
        nf = ctx.arrays(bump_one_form(center, sc, C))
        nrm2 = ctx.inner_nf(nf, nf, warn=False)
        draws.append((center, sc, nf * (1.0 / np.sqrt(nrm2))
                      if nrm2 > 1e-20 else None))
    return draws


def full_rule_probes(q, ctx, n: int, seed: int):
    """The n accepted probes of full_rule_probe_draws, as NodeFields."""
    return [p for _, _, p in full_rule_probe_draws(q, ctx, n, seed)
            if p is not None]
