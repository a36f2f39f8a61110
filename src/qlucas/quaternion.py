"""Quaternion arithmetic, 2-sphere geometry, and slice frame selection."""

from __future__ import annotations

import math
from typing import NamedTuple

from .tolerances import (TAU_CLOSE, TAU_DRAW, TAU_PARALLEL, TAU_SPHERE,
                         TAU_UNIT, TAU_UNIT_INPUT)


class Quaternion:
    """Element w + x i + y j + z k of the real quaternion algebra.

    Instances are treated as immutable values. Multiplication is the
    Hamilton product (ij = k, jk = i, ki = j, unit squares are -1) and
    is not commutative:

    >>> I * J
    Quaternion(0.0, 0.0, 0.0, 1.0)
    >>> J * I
    Quaternion(0.0, 0.0, 0.0, -1.0)
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def from_list(cls, values) -> "Quaternion":
        w, x, y, z = values
        return cls(w, x, y, z)

    def to_list(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    def __repr__(self) -> str:
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.w == other.w and self.x == other.x
                and self.y == other.y and self.z == other.z)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        aw, ax, ay, az = self.w, self.x, self.y, self.z
        bw, bx, by, bz = other.w, other.x, other.y, other.z
        return Quaternion(
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        )

    def __rmul__(self, other):
        # reals commute with everything, so scalar * q == q * scalar
        if isinstance(other, (int, float)):
            return Quaternion(other * self.w, other * self.x,
                              other * self.y, other * self.z)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def __abs__(self) -> float:
        return self.norm()

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + self.x * self.x
                         + self.y * self.y + self.z * self.z)

    def norm2(self) -> float:
        """Squared norm, exact in the components."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def im_norm(self) -> float:
        """Norm of the vector part."""
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ValueError("zero quaternion has no inverse")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def isclose(self, other, tol=TAU_CLOSE) -> bool:
        other = _coerce(other)
        return (self - other).norm() <= tol

    def is_finite(self) -> bool:
        return all(math.isfinite(c) for c in (self.w, self.x, self.y, self.z))


def _coerce(value):
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    if isinstance(value, complex):
        # complex numbers live on the C(i) slice
        return Quaternion(value.real, value.imag)
    return None


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


class TwoSphere(NamedTuple):
    """The sphere [x + Iy] of all quaternions with real part x and
    imaginary norm y. Degenerates to the real point x when y = 0."""

    x: float
    y: float

    def contains(self, q: Quaternion) -> bool:
        return (abs(q.w - self.x) <= TAU_SPHERE
                and abs(q.im_norm() - self.y) <= TAU_SPHERE)

    def representative(self, unit: Quaternion) -> Quaternion:
        """The point x + unit * y on the sphere."""
        return Quaternion(self.x, unit.x * self.y, unit.y * self.y,
                          unit.z * self.y)


def imag_unit(q: Quaternion) -> Quaternion:
    """Unit imaginary direction Im(q)/|Im(q)| of a non-real quaternion.

    Raises ValueError for (numerically) real input: every unit imaginary
    works there and the caller must pick a slice explicitly.
    """
    n = q.im_norm()
    if n <= TAU_UNIT:
        raise ValueError("real quaternion has no canonical imaginary unit; "
                         "choose a slice explicitly")
    return Quaternion(0.0, q.x / n, q.y / n, q.z / n)


def imag_direction(q: Quaternion) -> Quaternion:
    """Im q / |Im q| from the parts scaled by the largest, so that tiny,
    subnormal and huge parts still give a unit vector; I when Im q = 0."""
    big = max(abs(q.x), abs(q.y), abs(q.z))
    if not big:
        return I
    v = Quaternion(0.0, q.x / big, q.y / big, q.z / big)
    return v / v.norm()


def sphere_of(q: Quaternion) -> TwoSphere:
    return TwoSphere(q.w, q.im_norm())


def same_sphere(p: Quaternion, q: Quaternion) -> bool:
    return (abs(p.w - q.w) <= TAU_SPHERE
            and abs(p.im_norm() - q.im_norm()) <= TAU_SPHERE)


def is_unit_imaginary(q: Quaternion, tol: float = TAU_UNIT) -> bool:
    return abs(q.w) <= tol and abs(q.norm() - 1.0) <= tol


def orthogonal_unit(unit: Quaternion) -> Quaternion:
    """Deterministic unit imaginary J orthogonal to the given unit I.

    Gram-Schmidt of the first of (i, j, k) not parallel to I; the scan
    order is fixed so equal input bits give equal output bits.
    """
    if not is_unit_imaginary(unit, TAU_UNIT_INPUT):
        raise ValueError("orthogonal_unit needs a unit imaginary quaternion")
    v = (unit.x, unit.y, unit.z)
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        d = axis[0] * v[0] + axis[1] * v[1] + axis[2] * v[2]
        if abs(d) > 1.0 - TAU_PARALLEL:
            continue
        ox = axis[0] - d * v[0]
        oy = axis[1] - d * v[1]
        oz = axis[2] - d * v[2]
        n = math.sqrt(ox * ox + oy * oy + oz * oz)
        return Quaternion(0.0, ox / n, oy / n, oz / n)
    raise ValueError("no orthogonal axis found")  # unreachable for unit input


def random_unit_imaginary(rng) -> Quaternion:
    """Uniform random point of S^2 drawn from the given random.Random."""
    while True:
        x, y, z = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        n = math.sqrt(x * x + y * y + z * z)
        if n > TAU_DRAW:
            return Quaternion(0.0, x / n, y / n, z / n)
