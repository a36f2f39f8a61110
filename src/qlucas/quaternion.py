"""Quaternion arithmetic, 2-sphere geometry, and slice frame selection."""

from __future__ import annotations

import math
from typing import NamedTuple

from .tolerances import (NORM_SQ_MIN, TAU_CLOSE, TAU_DRAW, TAU_PARALLEL,
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
        return Quaternion(*_mul4(self.w, self.x, self.y, self.z,
                                 other.w, other.x, other.y, other.z))

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
        """sqrt of the sum of squares, or math.hypot outside the range
        where that sum is a norm correct to rounding (NORM_SQ_MIN)."""
        return _norm4(self.w, self.x, self.y, self.z)

    def norm2(self) -> float:
        """Squared norm, exact in the components."""
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def im_norm(self) -> float:
        """Norm of the vector part, computed as norm is."""
        return _norm4(0.0, self.x, self.y, self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def inverse(self) -> "Quaternion":
        return Quaternion(*_inverse_parts(self.w, self.x, self.y, self.z))

    def isclose(self, other, tol=TAU_CLOSE) -> bool:
        other = _coerce(other)
        return (self - other).norm() <= tol

    def is_finite(self) -> bool:
        return all(math.isfinite(c) for c in (self.w, self.x, self.y, self.z))


def _norm4(w: float, x: float, y: float, z: float) -> float:
    """Quaternion(w, x, y, z).norm() on the four floats."""
    s = w * w + x * x + y * y + z * z
    if NORM_SQ_MIN <= s < math.inf:
        return math.sqrt(s)
    return math.hypot(w, x, y, z)


def _mul4(aw: float, ax: float, ay: float, az: float, bw: float, bx: float,
          by: float, bz: float) -> tuple[float, float, float, float]:
    """The parts of the Hamilton product (aw, ax, ay, az)(bw, bx, by, bz)."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _inverse_parts(w: float, x: float, y: float,
                   z: float) -> tuple[float, float, float, float]:
    """The parts of Quaternion(w, x, y, z).inverse(), the conjugate over
    the squared norm. Where that square leaves the range in which it is
    correct to rounding (NORM_SQ_MIN to inf), the parts are first divided
    by 2^e, e the exponent of the largest, which is exact and brings the
    square to at least 1/4, and the quotients are then divided by 2^e
    again, exact unless they fall below the normal range. Only the zero
    quaternion raises ValueError."""
    n2 = w * w + x * x + y * y + z * z
    if NORM_SQ_MIN <= n2 < math.inf:
        return w / n2, -x / n2, -y / n2, -z / n2
    if not (w or x or y or z):
        raise ValueError("zero quaternion has no inverse")
    e = math.frexp(max(abs(w), abs(x), abs(y), abs(z)))[1]
    w, x, y, z = (math.ldexp(w, -e), math.ldexp(x, -e),
                  math.ldexp(y, -e), math.ldexp(z, -e))
    n2 = w * w + x * x + y * y + z * z
    return (math.ldexp(w / n2, -e), math.ldexp(-x / n2, -e),
            math.ldexp(-y / n2, -e), math.ldexp(-z / n2, -e))


def _parts(value):
    """The four float parts of a Quaternion, a real number or a complex
    number (on the C(i) slice), or None for any other type. float()
    raises OverflowError for an integer beyond the float range."""
    if isinstance(value, Quaternion):
        return value.w, value.x, value.y, value.z
    if isinstance(value, (int, float)):
        return float(value), 0.0, 0.0, 0.0
    if isinstance(value, complex):
        return float(value.real), float(value.imag), 0.0, 0.0
    return None


def _coerce(value):
    """value as a Quaternion, from _parts; None for another type."""
    if isinstance(value, Quaternion):
        return value
    parts = _parts(value)
    return None if parts is None else Quaternion(*parts)


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

    def representative(self, unit: Quaternion) -> Quaternion:
        """The point x + unit * y on the sphere."""
        return Quaternion(self.x, unit.x * self.y, unit.y * self.y,
                          unit.z * self.y)


def imag_direction(q: Quaternion) -> Quaternion:
    """Im q / |Im q| from the parts scaled by the largest, so that tiny,
    subnormal and huge parts still give a unit vector; I when Im q = 0."""
    return Quaternion(*_direction_parts(q.x, q.y, q.z))


def _direction_parts(x: float, y: float,
                     z: float) -> tuple[float, float, float, float]:
    """The four parts of imag_direction(Quaternion(0, x, y, z))."""
    big = max(abs(x), abs(y), abs(z))
    if not big:
        return 0.0, 1.0, 0.0, 0.0
    vx, vy, vz = x / big, y / big, z / big
    n = _norm4(0.0, vx, vy, vz)
    return 0.0 / n, vx / n, vy / n, vz / n


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
