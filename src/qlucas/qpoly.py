"""Right-coefficient quaternionic polynomials.

P(q) = sum_n q^n a_n with the coefficients a_n to the right of the
powers. The ring product is the star product (coefficient convolution),
which agrees with pointwise multiplication only for real coefficients.

Storage: `parts` holds the w, x, y and z parts of the coefficients as
four tuples of floats (the four real component polynomials of P), and
`norms` the coefficient norms, computed once at construction. The
kernels run on these floats with no Hamilton product; `coeffs`, the
public tuple of Quaternion values, is built only when a caller reads it.
Tuples are built from lists: tuple(iterator) resizes, bloating free lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .quaternion import Quaternion, TwoSphere, _coerce, orthogonal_unit
from .tolerances import NORM_SQ_MIN, TAU_REAL, TAU_STAR_ZERO, TAU_TRIM_REL


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
            q = _coerce(c)
            if q is None:
                raise TypeError(f"coefficient {c!r} is not a quaternion or real")
            if not all(map(math.isfinite, (q.w, q.x, q.y, q.z))):
                raise ValueError(f"coefficient {n} is not finite: {c!r}")
            qs.append((q.w, q.x, q.y, q.z))
        self._store(*(zip(*qs) if qs else ((), (), (), ())))

    def _store(self, w, x, y, z, norms=None) -> "QPoly":
        """Trim by the norms unless given (they are then already trimmed)."""
        if norms is None:
            norms = tuple(trim_rel([
                math.sqrt(s) if NORM_SQ_MIN <= s < math.inf
                else math.hypot(a, b, c, d)
                for a, b, c, d in zip(w, x, y, z)
                for s in (a * a + b * b + c * c + d * d,)]))
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
        w, x, y, z = self.parts
        return _qpoly(w, *([-v for v in c] for c in (x, y, z)), self.norms)

    def symmetrize(self) -> "QPoly":
        """P^s = P * P^c, real by construction: coefficient n is
        sum_{s+k=n} <a_s, a_k> in star_mul's order (s outer, k inner), so
        it is bit for bit the real part of star_mul(self, self.conjugate())."""
        cs = list(zip(*self.parts))
        out = [0.0] * max(2 * len(cs) - 1, 0)
        for s, (aw, ax, ay, az) in enumerate(cs):
            for n, (bw, bx, by, bz) in enumerate(cs, s):
                out[n] += aw * bw + ax * bx + ay * by + az * bz
        return _qpoly(out, *[(0.0,) * len(out)] * 3)

    def derivative(self) -> "QPoly":
        return _qpoly(*([n * v for n, v in enumerate(c) if n >= 1]
                        for c in self.parts))

    def max_coeff_norm(self) -> float:
        return max(self.norms, default=0.0)

    def max_imag_norm(self) -> float:
        return max((math.sqrt(x * x + y * y + z * z)
                    for x, y, z in zip(*self.parts[1:])), default=0.0)

    def is_real(self) -> bool:
        return (self.max_imag_norm()
                <= TAU_REAL * (1.0 + self.max_coeff_norm()))

    def real_coeffs(self) -> list[float]:
        return list(self.parts[0])

    def eval_scale(self, qnorm: float) -> float:
        """scale(P, q) = sum |a_n| (1 + |q|)^n, the residual yardstick."""
        return horner_scale(self.norms, qnorm)

    def to_json_dict(self) -> dict:
        return {"coeffs": [list(c) for c in zip(*self.parts)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "QPoly":
        return cls([Quaternion.from_list(c) for c in data["coeffs"]])


def _qpoly(w, x, y, z, norms=None) -> QPoly:
    return QPoly.__new__(QPoly)._store(w, x, y, z, norms)


def trim_rel(coeffs):
    """coeffs without the trailing entries of magnitude at most
    TAU_TRIM_REL times the largest, so all of them when that is 0."""
    tau = TAU_TRIM_REL * max(map(abs, coeffs), default=0.0)
    keep = len(coeffs)
    while keep and abs(coeffs[keep - 1]) <= tau:
        keep -= 1
    return coeffs[:keep]


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
    for cw, cx, cy, cz in zip(*map(reversed, p.parts)):
        aw = aw * z + cw
        ax = ax * z + cx
        ay = ay * z + cy
        az = az * z + cz
    return (Quaternion(aw.real, ax.real, ay.real, az.real),
            Quaternion(aw.imag, ax.imag, ay.imag, az.imag))


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
    s = 0.0
    power = 1.0
    r = at.norm()
    for c in p.norms:
        s += c * power
        power *= r
    if v.norm() <= TAU_STAR_ZERO * (1.0 + s):
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
    return QPoly([s.x * s.x + s.y * s.y, -2.0 * s.x, 1.0])


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
    w, x, y, z = p.parts

    def along(u):
        return [a * u.x + b * u.y + c * u.z for a, b, c in zip(x, y, z)]

    p1 = [complex(a, b) for a, b in zip(w, along(unit))]
    p2 = [complex(a, b) for a, b in zip(along(uj), along(uij))]
    return SlicePoly(unit, uj, tuple(p1), tuple(p2))
