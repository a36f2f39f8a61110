"""Right-coefficient quaternionic polynomials.

P(q) = sum_n q^n a_n with the coefficients a_n to the right of the
powers. The ring product is the star product (coefficient convolution),
which agrees with pointwise multiplication only for real coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .quaternion import (
    Quaternion,
    TwoSphere,
    _coerce,
    orthogonal_unit,
)

TAU_TRIM_REL = 1e-12
TAU_REAL = 1e-12


class QPoly:
    """Dense ascending-degree quaternionic polynomial.

    Trailing coefficients with norm at most 1e-12 * max|a_n| are trimmed
    so the leading coefficient of a nonzero polynomial is significant.
    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        qs = []
        for c in coeffs:
            q = _coerce(c)
            if q is None:
                raise TypeError(f"coefficient {c!r} is not a quaternion or real")
            qs.append(q)
        top = max((q.norm() for q in qs), default=0.0)
        tau = TAU_TRIM_REL * top
        while qs and qs[-1].norm() <= tau:
            qs.pop()
        self.coeffs = tuple(qs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = []
        for k in range(n):
            s = Quaternion()
            if k < len(a):
                s = s + a[k]
            if k < len(b):
                s = s + b[k]
            out.append(s)
        return QPoly(out)

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, QPoly):
            return star_mul(self, other)
        q = _coerce(other)
        if q is None:
            return NotImplemented
        # right scaling: coefficients pick up the factor on the right
        return QPoly([c * q for c in self.coeffs])

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return QPoly([other * c for c in self.coeffs])
        return NotImplemented

    def __call__(self, q: Quaternion) -> Quaternion:
        return self.evaluate(q)

    def evaluate(self, q: Quaternion) -> Quaternion:
        """P(q) = A + I B, where (A, B) = sphere_values(self, Re q, |Im q|)
        and I = Im q / |Im q|; A alone when q is real."""
        q = _coerce(q)
        y = q.im_norm()
        a, b = sphere_values(self, q.w, y)
        if y == 0.0:
            return a
        return a + Quaternion(0.0, q.x / y, q.y / y, q.z / y) * b

    def conjugate(self) -> "QPoly":
        """Coefficientwise quaternionic conjugate P^c."""
        return QPoly([c.conjugate() for c in self.coeffs])

    def symmetrize(self) -> "QPoly":
        """P^s = P * P^c. Real coefficients up to rounding; the imaginary
        residue is kept (not snapped) so it can be measured."""
        return star_mul(self, self.conjugate())

    def derivative(self) -> "QPoly":
        return QPoly([n * c for n, c in enumerate(self.coeffs) if n >= 1])

    def max_coeff_norm(self) -> float:
        return max((c.norm() for c in self.coeffs), default=0.0)

    def max_imag_norm(self) -> float:
        return max((c.im_norm() for c in self.coeffs), default=0.0)

    def is_real(self, tol: float | None = None) -> bool:
        if tol is None:
            tol = TAU_REAL * (1.0 + self.max_coeff_norm())
        return self.max_imag_norm() <= tol

    def real_coeffs(self) -> list[float]:
        return [c.w for c in self.coeffs]

    def eval_scale(self, qnorm: float) -> float:
        """scale(P, q) = sum |a_n| (1 + |q|)^n, the residual yardstick."""
        return horner_scale(self.coeffs, qnorm)

    def to_json_dict(self) -> dict:
        return {"coeffs": [c.to_list() for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QPoly":
        return cls([Quaternion.from_list(c) for c in data["coeffs"]])


def horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Value at z of the polynomial with ascending coefficients."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def horner_scale(coeffs, r: float) -> float:
    """sum |c_n| (1 + r)^n, which bounds the terms horner adds at |z| = r."""
    base = 1.0 + r
    s = 0.0
    p = 1.0
    for c in coeffs:
        s += abs(c) * p
        p *= base
    return s


def sphere_values(p: QPoly, x: float,
                  y: float) -> tuple[Quaternion, Quaternion]:
    """(A, B) with P(x + I y) = A + I B for every unit imaginary I.

    Representation formula (Gentili and Struppa, Adv. Math. 216, 2007):
    (x + I y)^n = Re z^n + I Im z^n with z = x + iy, so A and B hold the
    real and imaginary parts at z of the four real component polynomials
    of P (the w, x, y and z parts of the coefficients). One Horner pass
    with four complex accumulators; no Hamilton product.
    """
    z = complex(x, y)
    aw = ax = ay = az = 0j
    for c in reversed(p.coeffs):
        aw = aw * z + c.w
        ax = ax * z + c.x
        ay = ay * z + c.y
        az = az * z + c.z
    return (Quaternion(aw.real, ax.real, ay.real, az.real),
            Quaternion(aw.imag, ax.imag, ay.imag, az.imag))


def star_mul(p: QPoly, q: QPoly) -> QPoly:
    """Star product: coefficient n of the result is sum_{s+k=n} a_s b_k."""
    if p.is_zero or q.is_zero:
        return QPoly()
    out = [Quaternion() for _ in range(len(p.coeffs) + len(q.coeffs) - 1)]
    for s, a in enumerate(p.coeffs):
        for k, b in enumerate(q.coeffs):
            out[s + k] = out[s + k] + a * b
    return QPoly(out)


def pointwise_star_eval(p: QPoly, q: QPoly, at: Quaternion) -> Quaternion:
    """(P * Q)(at) via the evaluation formula.

    Zero when P(at) is (numerically) zero; otherwise
    P(at) * Q(P(at)^{-1} at P(at)). Agrees with evaluating star_mul(p, q).
    """
    at = _coerce(at)
    v = p.evaluate(at)
    # threshold 1e-10 * (1 + sum |a_n| |at|^n): the formula branches on an
    # exact zero that floating point cannot decide absolutely
    s = 0.0
    power = 1.0
    r = at.norm()
    for c in p.coeffs:
        s += c.norm() * power
        power *= r
    if v.norm() <= 1e-10 * (1.0 + s):
        return Quaternion()
    inner = v.inverse() * at * v
    return v * q.evaluate(inner)


def left_divide_linear(p: QPoly, alpha: Quaternion) -> tuple[QPoly, Quaternion]:
    """Divide by the left factor (q - alpha): P = (q - alpha) * Q + r.

    The constant remainder r equals P(alpha), so it vanishes exactly when
    alpha is a zero of P.
    """
    alpha = _coerce(alpha)
    if p.is_zero:
        raise ValueError("cannot divide the zero polynomial")
    a = p.coeffs
    m = len(a) - 1
    if m == 0:
        return QPoly(), a[0]
    # back-substitution of a_n = b_{n-1} - alpha b_n
    b: list[Quaternion] = [Quaternion()] * m
    b[m - 1] = a[m]
    for n in range(m - 1, 0, -1):
        b[n - 1] = a[n] + alpha * b[n]
    r = a[0] + alpha * b[0]
    return QPoly(b), r


def characteristic_poly(s: TwoSphere) -> QPoly:
    """Real quadratic q^2 - 2x q + (x^2 + y^2) vanishing exactly on [s]."""
    return QPoly([Quaternion(s.x * s.x + s.y * s.y),
                  Quaternion(-2.0 * s.x),
                  Quaternion(1.0)])


@dataclass(frozen=True)
class SlicePoly:
    """Restriction P|C(I) = P1(z) + P2(z) J with P1, P2 complex on C(I).

    Complex numbers are taken relative to the basis {1, I}; J is the
    deterministic orthogonal unit for I.
    """

    unit_i: Quaternion
    unit_j: Quaternion
    p1: tuple[complex, ...]
    p2: tuple[complex, ...]

    def embed(self, z: complex) -> Quaternion:
        """The point Re(z) + I Im(z) of the slice."""
        ui = self.unit_i
        return Quaternion(z.real, ui.x * z.imag, ui.y * z.imag, ui.z * z.imag)

    def evaluate(self, z: complex) -> Quaternion:
        v1 = horner(self.p1, z)
        v2 = horner(self.p2, z)
        return self.embed(v1) + self.embed(v2) * self.unit_j

    def derivative(self) -> "SlicePoly":
        return SlicePoly(self.unit_i, self.unit_j,
                         _cpoly_der(self.p1), _cpoly_der(self.p2))


def _cpoly_der(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    return tuple(n * c for n, c in enumerate(coeffs) if n >= 1)


def restrict_to_slice(p: QPoly, unit: Quaternion) -> SlicePoly:
    """Split each coefficient as a_n = alpha_n + beta_n J over the
    orthonormal real basis {1, I, J, IJ} of the quaternions."""
    uj = orthogonal_unit(unit)
    uij = unit * uj
    p1 = []
    p2 = []
    for a in p.coeffs:
        u0 = a.w
        u1 = a.x * unit.x + a.y * unit.y + a.z * unit.z
        u2 = a.x * uj.x + a.y * uj.y + a.z * uj.z
        u3 = a.x * uij.x + a.y * uij.y + a.z * uij.z
        p1.append(complex(u0, u1))
        p2.append(complex(u2, u3))
    return SlicePoly(unit, uj, tuple(p1), tuple(p2))
