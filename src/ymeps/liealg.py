"""su(2)/SU(2) kernel: quaternion algebra, exp, adjoint, so(3).

Conventions used throughout the package:

* su(2) elements are stored by coefficients (x1, x2, x3) on the basis
  e_i = u_i / 2, where (u_1, u_2, u_3) are the imaginary quaternion units.
  Then [e1, e2] = e3 cyclically, i.e. the bracket in coefficients is the
  ordinary cross product (forms.bracket_wedge_coeffs).
* The inner product on the algebra is the plain coefficient dot,
  <X, Y> = x1 y1 + x2 y2 + x3 y3 (forms.cdot).  The trace pairing of the
  defining 2x2 representation is -tr(XY) = <X, Y> / 2; the energy and charge
  in functionals apply that factor explicitly.
* SO(3) points are stored as SU(2) representatives (unit quaternions); g and
  -g are never distinguished except through the adjoint action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgElement",
    "GroupElement",
    "qmul",
    "exp_map",
    "adjoint",
    "adjoint_matrix",
    "so3_generator",
    "SO3_GENERATORS",
]


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


@dataclass(frozen=True)
class AlgElement:
    """su(2) element by coefficients on (e1, e2, e3), e_i = (quaternion unit)/2."""

    x1: float
    x2: float
    x3: float

    def coeffs(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)

    def quaternion(self) -> np.ndarray:
        """Image as a pure-imaginary quaternion (components halve: e_i = u_i/2)."""
        return np.array([0.0, self.x1 / 2.0, self.x2 / 2.0, self.x3 / 2.0])


E1 = AlgElement(1.0, 0.0, 0.0)
E2 = AlgElement(0.0, 1.0, 0.0)
E3 = AlgElement(0.0, 0.0, 1.0)


class GroupElement:
    """SU(2) point as a unit quaternion; renormalized on construction and product."""

    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0: float, q1: float, q2: float, q3: float):
        n = float(np.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3))
        if n < 1e-14:
            raise ValueError("group element from near-zero quaternion")
        self.q0 = q0 / n
        self.q1 = q1 / n
        self.q2 = q2 / n
        self.q3 = q3 / n

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0, 0.0, 0.0, 0.0)

    def quaternion(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3])

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(*qmul(self.quaternion(), other.quaternion()))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.q0, -self.q1, -self.q2, -self.q3)

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.q0, -self.q1, -self.q2, -self.q3)

    def __repr__(self):
        return f"GroupElement({self.q0:.6g}, {self.q1:.6g}, {self.q2:.6g}, {self.q3:.6g})"


def exp_map(X: AlgElement) -> GroupElement:
    """Group exponential: exp of the quaternion image of X.

    For X = theta * unit direction, the quaternion image has length theta/2 and
    exp(X) = cos(theta/2) + sin(theta/2) * vhat.
    """
    v = X.quaternion()[1:]
    t = float(np.linalg.norm(v))
    if t < 1e-30:
        return GroupElement.identity()
    c = np.cos(t)
    sc = np.sin(t) / t
    return GroupElement(c, sc * v[0], sc * v[1], sc * v[2])


def adjoint(g: GroupElement, X: AlgElement) -> AlgElement:
    """Adjoint action g X g^{-1}; norm preserving, independent of the sign of g."""
    q = g.quaternion()
    res = qmul(qmul(q, X.quaternion()), g.inverse().quaternion())
    return AlgElement(2.0 * res[1], 2.0 * res[2], 2.0 * res[3])


def adjoint_matrix(g: GroupElement) -> np.ndarray:
    """3x3 rotation matrix R with adjoint(g, X) = R @ X.coeffs() for all X."""
    cols = [adjoint(g, E).coeffs() for E in (E1, E2, E3)]
    return np.stack(cols, axis=1)


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
