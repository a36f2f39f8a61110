"""Right-coefficient quaternionic polynomials.

P(q) = sum_n q^n a_n with the coefficients a_n to the right of the
powers. The ring product is the star product (coefficient convolution),
which agrees with pointwise multiplication only for real coefficients.

Storage: `parts` holds the w, x, y and z parts of the coefficients as
four tuples of floats (the four real component polynomials of P), and
`norms` the coefficient norms, computed once at construction. The
kernels run on these floats: values by `horner` on each component
polynomial, with one Hamilton product (quaternion._mul4) for I B, and
derivatives by `_derivative` on each part. `coeffs`, the public tuple of
Quaternion values, is built only when a caller reads it. A float, int or
complex coefficient is read into its parts without a Quaternion
(quaternion._parts).
Tuples are built from lists: tuple(iterator) resizes, bloating free lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .quaternion import (Quaternion, _coerce, _mul4, _norm4, _parts,
                         orthogonal_unit)
from .tolerances import TAU_STAR_ZERO, TAU_TRIM_REL


class NumericalBreakdown(RuntimeError):
    """A numeric step violated an invariant that exact arithmetic
    guarantees. Carries diagnostics in .info."""

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info


class QPoly:
    """Dense ascending-degree quaternionic polynomial.

    Trailing coefficients with norm at most TAU_TRIM_REL * max|a_n| are
    trimmed so the leading coefficient of a nonzero polynomial is
    significant. The zero polynomial has an empty coefficient tuple and
    degree -1. A coefficient with an infinite or NaN part is a ValueError.
    """

    __slots__ = ("parts", "norms", "_coeffs")

    def __init__(self, coeffs: Sequence = ()):
        qs = []
        for n, c in enumerate(coeffs):
            q = _parts(c)
            if q is None:
                raise TypeError(f"coefficient {c!r} is not a quaternion or real")
            if not all(map(math.isfinite, q)):
                raise ValueError(f"coefficient {n} is not finite: {c!r}")
            qs.append(q)
        self._store(*(zip(*qs) if qs else ((), (), (), ())))

    def _store(self, w, x, y, z, norms=None) -> "QPoly":
        """Trim by the norms unless given (they are then already trimmed)."""
        if norms is None:
            norms = list(map(_norm4, w, x, y, z))
            norms = tuple(norms[:_kept(norms)])
        self.parts = tuple([tuple(c)[:len(norms)] for c in (w, x, y, z)])
        self.norms = norms
        self._coeffs = None
        return self

    @property
    def coeffs(self) -> tuple[Quaternion, ...]:
        if self._coeffs is None:
            self._coeffs = tuple([Quaternion(*c) for c in zip(*self.parts)])
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.norms) - 1

    @property
    def is_zero(self) -> bool:
        return not self.norms

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.parts == other.parts

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        pairs = (zip_longest(u, v, fillvalue=0.0)
                 for u, v in zip(self.parts, other.parts))
        return _qpoly(*([0.0 + a + b for a, b in c] for c in pairs))

    def __sub__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _qpoly(*([-v for v in c] for c in self.parts), self.norms)

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
        """P(q), from _value."""
        q = _coerce(q)
        return Quaternion(*_value(self.parts, q.w, q.x, q.y, q.z))

    def conjugate(self) -> "QPoly":
        """Coefficientwise quaternionic conjugate P^c."""
        w, x, y, z = self.parts
        return _qpoly(w, *([-v for v in c] for c in (x, y, z)), self.norms)

    def symmetrize(self) -> "QPoly":
        """P^s = P * P^c, real by construction (_symmetrized)."""
        out = _symmetrized(self.parts)
        return _qpoly(out, *[(0.0,) * len(out)] * 3, tuple(map(abs, out)))

    def derivative(self) -> "QPoly":
        return _qpoly(*map(_derivative, self.parts))

    def max_coeff_norm(self) -> float:
        return max(self.norms, default=0.0)

    def is_real(self) -> bool:
        """True when every imaginary part of every coefficient is zero
        (-0.0 included). The test reads the bits and takes no tolerance,
        so P and 2^m P are real together."""
        _, x, y, z = self.parts
        return not (any(x) or any(y) or any(z))

    def real_coeffs(self) -> list[float]:
        return list(self.parts[0])

    def eval_scale(self, qnorm: float) -> float:
        """scale(P, q) = sum |a_n| (1 + |q|)^n, the residual yardstick."""
        return _magnitude_scale(self.norms, 1.0 + qnorm)


def _qpoly(w, x, y, z, norms=None) -> QPoly:
    return QPoly.__new__(QPoly)._store(w, x, y, z, norms)


def trim_rel(coeffs):
    """coeffs without the trailing entries of magnitude at most
    TAU_TRIM_REL times the largest, so all of them when that is 0."""
    return coeffs[:_kept(list(map(abs, coeffs)))]


def _kept(mags) -> int:
    """How many entries trim_rel keeps, from their magnitudes."""
    tau = TAU_TRIM_REL * max(mags, default=0.0)
    keep = len(mags)
    while keep and mags[keep - 1] <= tau:
        keep -= 1
    return keep


def _symmetrized(parts) -> list[float]:
    """The ascending coefficients of P^s = P * P^c from the parts of P,
    trimmed as QPoly trims them. Coefficient n is sum_{s+k=n} <a_s, a_k>
    in star_mul's order (s outer, k inner), so it is bit for bit the real
    part of star_mul(P, P^c). The norm of a real coefficient is its
    magnitude: sqrt(c * c) == |c| in binary floating point, and
    math.hypot(c, 0, 0, 0) == |c| outside the range of the square. Only
    here does P^s leave the float range: for a nonzero P, an inf or NaN,
    or nothing left after the trim, is a NumericalBreakdown."""
    cs = list(zip(*parts))
    out = [0.0] * max(2 * len(cs) - 1, 0)
    for s, (aw, ax, ay, az) in enumerate(cs):
        for n, (bw, bx, by, bz) in enumerate(cs, s):
            out[n] += aw * bw + ax * bx + ay * by + az * bz
    kept = trim_rel(out)
    if not (kept and all(map(math.isfinite, out))) and any(map(any, parts)):
        raise NumericalBreakdown(
            "symmetrization overflows or underflows the float range",
            degree=len(cs) - 1, max_norm=max(map(_norm4, *parts)))
    return kept


def horner(coeffs: Sequence[complex], z: complex) -> complex:
    """Value at z of the polynomial with ascending coefficients. At a
    float z the accumulator starts as 0.0, not 0j: float coefficients
    then give a float, the real part of the value at complex(z, 0.0)
    bit for bit, and complex ones the same complex value."""
    acc = 0.0 if type(z) is float else 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def horner_scale(coeffs, r: float) -> float:
    """sum |c_n| (1 + r)^n, which bounds the terms horner adds at |z| = r."""
    return _magnitude_scale(map(abs, coeffs), 1.0 + r)


def _magnitude_scale(mags, base: float) -> float:
    """sum m_n base^n over the magnitudes m_n, the powers taken by
    repeated multiplication; horner_scale passes base 1 + r."""
    s = 0.0
    p = 1.0
    for m in mags:
        s += m * p
        p *= base
    return s


def _sphere_parts(parts, x: float, y: float) -> tuple[float, ...]:
    """(A, B) with P(x + I y) = A + I B for every unit imaginary I, as
    eight floats, A's parts then B's, from the parts of P.

    Representation formula (Gentili and Struppa, Adv. Math. 216, 2007):
    (x + I y)^n = Re z^n + I Im z^n with z = x + iy, so A and B hold the
    real and imaginary parts at z of the four real component polynomials
    of P (the w, x, y and z parts of the coefficients): horner of each
    part at z, from 0j. No Hamilton product.
    """
    z = complex(x, y)
    aw, ax, ay, az = [horner(c, z) for c in parts]
    return (aw.real, ax.real, ay.real, az.real,
            aw.imag, ax.imag, ay.imag, az.imag)


def _value(parts, w: float, x: float, y: float,
           z: float) -> tuple[float, float, float, float]:
    """The parts of P(q), q = w + x i + y j + z k, from the parts of P:
    A + I B with (A, B) = _sphere_parts(parts, w, |Im q|) and I B the
    Hamilton product _mul4, I = Im q / |Im q|; A alone when q is real."""
    r = _norm4(0.0, x, y, z)
    aw, ax, ay, az, bw, bx, by, bz = _sphere_parts(parts, w, r)
    if r == 0.0:
        return aw, ax, ay, az
    iw, ix, iy, iz = _mul4(0.0, x / r, y / r, z / r, bw, bx, by, bz)
    return aw + iw, ax + ix, ay + iy, az + iz


def star_mul(p: QPoly, q: QPoly) -> QPoly:
    """Star product: coefficient n of the result is sum_{s+k=n} a_s b_k,
    the Hamilton products written out on the float parts."""
    if p.is_zero or q.is_zero:
        return QPoly()
    n = len(p.norms) + len(q.norms) - 1
    ow, ox, oy, oz = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    bs = list(zip(*q.parts))
    for s, (aw, ax, ay, az) in enumerate(zip(*p.parts)):
        for t, (bw, bx, by, bz) in enumerate(bs, s):
            ow[t] += aw * bw - ax * bx - ay * by - az * bz
            ox[t] += aw * bx + ax * bw + ay * bz - az * by
            oy[t] += aw * by - ax * bz + ay * bw + az * bx
            oz[t] += aw * bz + ax * by - ay * bx + az * bw
    return _qpoly(ow, ox, oy, oz)


def pointwise_star_eval(p: QPoly, q: QPoly, at: Quaternion) -> Quaternion:
    """(P * Q)(at) via the evaluation formula.

    Zero when P(at) is (numerically) zero; otherwise
    P(at) * Q(P(at)^{-1} at P(at)). Agrees with evaluating star_mul(p, q).
    """
    at = _coerce(at)
    v = p.evaluate(at)
    # threshold TAU_STAR_ZERO * (1 + sum |a_n| |at|^n)
    s = _magnitude_scale(p.norms, at.norm())
    if v.norm() <= TAU_STAR_ZERO * (1.0 + s):
        return Quaternion()
    inner = v.inverse() * at * v
    return v * q.evaluate(inner)


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
                         tuple(_derivative(self.p1)),
                         tuple(_derivative(self.p2)))


def _derivative(coeffs: Sequence) -> list:
    """The ascending coefficients of the derivative, n c_n for n >= 1."""
    return [n * c for n, c in enumerate(coeffs) if n >= 1]


def restrict_to_slice(p: QPoly, unit: Quaternion) -> SlicePoly:
    """Split each coefficient as a_n = alpha_n + beta_n J over the
    orthonormal real basis {1, I, J, IJ} of the quaternions."""
    uj = orthogonal_unit(unit)
    uij = unit * uj
    w, x, y, z = p.parts

    def along(u):
        return [a * u.x + b * u.y + c * u.z for a, b, c in zip(x, y, z)]

    p1 = [complex(a, b) for a, b in zip(w, along(unit))]
    p2 = [complex(a, b) for a, b in zip(along(uj), along(uij))]
    return SlicePoly(unit, uj, tuple(p1), tuple(p2))
