"""Spectral factorization of nonnegative real-coefficient polynomials
and the sampled check of the slice product identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .qpoly import SlicePoly, horner, trim_rel
from .roots import NumericalBreakdown, complex_roots

TAU_FACTOR = 1e-8


@dataclass(frozen=True)
class MFactor:
    """Half-degree factor M with Q(z) = M(z) * conj(M(conj(z)))."""

    m_coeffs: tuple[complex, ...]
    residual: float

    @property
    def degree(self) -> int:
        return len(self.m_coeffs) - 1

    def reflected_coeffs(self) -> tuple[complex, ...]:
        return tuple(c.conjugate() for c in self.m_coeffs)

    def product_coeffs(self) -> np.ndarray:
        m = np.asarray(self.m_coeffs, dtype=complex)
        return npp.polymul(m, np.conj(m)).real

    def __call__(self, z: complex) -> complex:
        return horner(self.m_coeffs, z)


def fejer_riesz_factor(q_coeffs, tau_factor: float = TAU_FACTOR) -> MFactor:
    """Factor a real polynomial that is nonnegative on the real axis as
    Q(z) = M(z) * conj(M(conj(z))) with deg M = deg Q / 2.

    M collects the positive-imaginary member of every conjugate root
    pair at full multiplicity and half of every (necessarily even) real
    root multiplicity, scaled by sqrt of the leading coefficient. Odd
    degree, a nonpositive leading coefficient, or an odd real root
    multiplicity all mean Q takes negative values and there is no such
    factorization.
    """
    q = np.asarray(list(q_coeffs), dtype=complex)
    if q.size == 0 or not np.any(q):
        raise ValueError("cannot factor the zero polynomial")
    top = float(np.max(np.abs(q)))
    if float(np.max(np.abs(q.imag))) > 1e-13 * top:
        raise ValueError("factorization input must have real coefficients")
    q = trim_rel(q.real.astype(float))

    if q.size == 1:
        c = float(q[0])
        if c <= 0.0:
            raise NumericalBreakdown(
                "constant polynomial is not positive", value=c)
        return MFactor((complex(c) ** 0.5,), 0.0)
    deg = q.size - 1
    if deg % 2:
        raise NumericalBreakdown(
            "odd degree admits no half-degree factorization", degree=deg)
    lc = float(q[-1])
    if lc <= 0.0:
        raise NumericalBreakdown(
            "negative leading coefficient, polynomial is negative at "
            "infinity", leading=lc)

    roots_m: list[complex] = []
    for cl in complex_roots(q):
        if cl.center.imag > 0:
            roots_m.extend([cl.center] * cl.multiplicity)
        elif cl.center.imag == 0:
            if cl.multiplicity % 2:
                raise NumericalBreakdown(
                    "odd real root multiplicity, polynomial changes sign",
                    root=cl.center.real, multiplicity=cl.multiplicity)
            roots_m.extend([cl.center] * (cl.multiplicity // 2))
    m = npp.polyfromroots(roots_m).astype(complex) * np.sqrt(lc)

    prod = npp.polymul(m, np.conj(m))
    width = max(prod.size, q.size)
    diff = np.zeros(width, dtype=complex)
    diff[:prod.size] += prod
    diff[:q.size] -= q
    residual = float(np.max(np.abs(diff))) / (1.0 + float(np.max(np.abs(q))))
    if residual > tau_factor:
        raise NumericalBreakdown(
            "reconstructed product does not match the input",
            residual=residual)
    return MFactor(tuple(complex(c) for c in m), residual)


def check_l_identity(p1, p2, m_coeffs, z_samples,
                     rel_tol: float = 1e-8) -> bool:
    """Sampled test of z L(z) = z M'(z) conj(M(conj z)) where
    L = P1' conj(P1(conj .)) + P2' conj(P2(conj .)).

    Checked pointwise against a magnitude scale built from the
    coefficient sizes; returns False as soon as one sample fails.

    The identity holds when P2 = 0 but not in general: P1 = 1, P2 = z
    give Q = 1 + z^2 and M = z - i, so z L = z^2 while
    z M' conj(M(conj z)) = z^2 + i z. What always holds is
    L + L^c = Q' = N + N^c with N = M' conj(M(conj .)), since both
    sides are the derivative of Q.
    """
    p1 = np.asarray(list(p1), dtype=complex)
    p2 = np.asarray(list(p2), dtype=complex)
    m = np.asarray(list(m_coeffs), dtype=complex)
    d1 = npp.polyder(p1) if p1.size > 1 else np.zeros(1, dtype=complex)
    d2 = npp.polyder(p2) if p2.size > 1 else np.zeros(1, dtype=complex)
    dm = npp.polyder(m) if m.size > 1 else np.zeros(1, dtype=complex)

    def mag(coeffs, r):
        base = max(1.0, r)
        return float(sum(abs(c) * base ** n for n, c in enumerate(coeffs)))

    for z in z_samples:
        z = complex(z)
        lhs = z * (horner(d1, z) * horner(np.conj(p1), z)
                   + horner(d2, z) * horner(np.conj(p2), z))
        rhs = z * horner(dm, z) * horner(np.conj(m), z)
        r = abs(z)
        scale = 1.0 + r * (mag(d1, r) * mag(p1, r) + mag(d2, r) * mag(p2, r)
                           + mag(dm, r) * mag(m, r))
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def slice_symmetrization(sp: SlicePoly) -> np.ndarray:
    """Real coefficients of P1 conj-reflect(P1) + P2 conj-reflect(P2),
    the restriction of the symmetrization to the slice."""
    p1 = np.asarray(sp.p1, dtype=complex)
    p2 = np.asarray(sp.p2, dtype=complex)
    width = 1
    parts = []
    for p in (p1, p2):
        if p.size and np.any(p):
            prod = npp.polymul(p, np.conj(p))
            parts.append(prod)
            width = max(width, prod.size)
    out = np.zeros(width, dtype=complex)
    for prod in parts:
        out[:prod.size] += prod
    return out.real
