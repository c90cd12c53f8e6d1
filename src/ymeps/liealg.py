"""su(2) conventions, the so(3) generators and the rotation Ad(exp(xi)).

Conventions used throughout the package:

* su(2) elements are stored by coefficients (x1, x2, x3) on the basis
  e_i = u_i / 2, where (u_1, u_2, u_3) are the imaginary quaternion units.
  Then [e1, e2] = e3 cyclically, i.e. the bracket in coefficients is the
  ordinary cross product (forms.bracket_wedge_coeffs).
* The inner product on the algebra is the plain coefficient dot,
  <X, Y> = x1 y1 + x2 y2 + x3 y3 (forms.cdot).  The trace pairing of the
  defining 2x2 representation is -tr(XY) = <X, Y> / 2; the energy and charge
  in functionals apply that factor explicitly.
* A point [g] of SU(2)/{+-1} = SO(3) is stored as the rotation Ad(g) (3, 3)
  it induces on coefficients, the only way the family reads g; g and -g
  are one point.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rotation",
    "so3_generator",
    "SO3_GENERATORS",
]


# so(3) generators (L_i)_{cb} = epsilon_{ibc}: L1 rotates the (2,3)-plane, etc.
SO3_GENERATORS = np.zeros((3, 3, 3))
_EPS3 = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
         (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
for (_i, _b, _c), _v in _EPS3.items():
    SO3_GENERATORS[_i, _c, _b] = _v


def so3_generator(i: int) -> np.ndarray:
    """The so(3) basis matrix L_i (1-based i), with [L1, L2] = L3 cyclically."""
    if i not in (1, 2, 3):
        raise ValueError(f"so(3) direction index must be 1, 2 or 3, got {i}")
    return SO3_GENERATORS[i - 1].copy()


def rotation(xi) -> np.ndarray:
    """Ad(exp(xi . e)) = expm(xi . L), by Rodrigues: the rotation by |xi|
    about xi, ad(e_i) being L_i on coefficients.  Exactly np.eye(3) at 0."""
    xi = np.asarray(xi, dtype=float)
    t = float(np.sqrt(xi @ xi))
    if t == 0.0:
        return np.eye(3)
    K = np.tensordot(xi, SO3_GENERATORS, axes=1)
    half = np.sin(t / 2) / t
    return np.eye(3) + (np.sin(t) / t) * K + (2 * half * half) * (K @ K)
