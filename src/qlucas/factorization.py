"""Spectral factorization of nonnegative real-coefficient polynomials
and the sampled check of the slice product identity. The kernels run on
lists of Python complex numbers, with one convolution for every product;
only the ndarray results of slice_symmetrization and product_coeffs are
numpy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .qpoly import SlicePoly, _cpoly_der, horner, trim_rel
from .roots import NumericalBreakdown, complex_roots
from .tolerances import TAU_COEFF_REAL, TAU_FACTOR, TAU_L_IDENTITY


def _mul(a, b) -> list:
    """Ascending coefficients of the product of two polynomials."""
    out = [0j] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        for n, y in enumerate(b, s):
            out[n] += x * y
    return out


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
        m = self.m_coeffs
        return np.array([c.real for c in _mul(m, [c.conjugate() for c in m])])

    def __call__(self, z: complex) -> complex:
        return horner(self.m_coeffs, z)


def fejer_riesz_factor(q_coeffs) -> MFactor:
    """Factor a real polynomial that is nonnegative on the real axis as
    Q(z) = M(z) * conj(M(conj(z))) with deg M = deg Q / 2.

    M collects the positive-imaginary member of every conjugate root
    pair at full multiplicity and half of every (necessarily even) real
    root multiplicity, scaled by sqrt of the leading coefficient. Odd
    degree, a nonpositive leading coefficient, or an odd real root
    multiplicity all mean Q takes negative values and there is no such
    factorization.
    """
    q = [complex(c) for c in q_coeffs]
    if not any(q):
        raise ValueError("cannot factor the zero polynomial")
    top = max(map(abs, q))
    if max(abs(c.imag) for c in q) > TAU_COEFF_REAL * top:
        raise ValueError("factorization input must have real coefficients")
    q = trim_rel([c.real for c in q])

    if len(q) == 1:
        c = q[0]
        if c <= 0.0:
            raise NumericalBreakdown(
                "constant polynomial is not positive", value=c)
        return MFactor((complex(c) ** 0.5,), 0.0)
    deg = len(q) - 1
    if deg % 2:
        raise NumericalBreakdown(
            "odd degree admits no half-degree factorization", degree=deg)
    lc = q[-1]
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
    m = [complex(math.sqrt(lc))]
    for r in roots_m:
        m = _mul(m, [-r, 1.0])

    prod = _mul(m, [c.conjugate() for c in m])
    diff = [a - b for a, b in zip_longest(prod, q, fillvalue=0.0)]
    residual = max(map(abs, diff)) / (1.0 + max(map(abs, q)))
    if residual > TAU_FACTOR:
        raise NumericalBreakdown(
            "reconstructed product does not match the input",
            residual=residual)
    return MFactor(tuple(m), residual)


def check_l_identity(p1, p2, m_coeffs, z_samples,
                     rel_tol: float = TAU_L_IDENTITY) -> bool:
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
    p1, p2, m = ([complex(c) for c in a] for a in (p1, p2, m_coeffs))
    d1, d2, dm = (list(_cpoly_der(a)) or [0j] for a in (p1, p2, m))
    c1, c2, cm = ([c.conjugate() for c in a] for a in (p1, p2, m))

    def mag(coeffs, r):
        base = max(1.0, r)
        return sum(abs(c) * base ** n for n, c in enumerate(coeffs))

    for z in z_samples:
        z = complex(z)
        lhs = z * (horner(d1, z) * horner(c1, z)
                   + horner(d2, z) * horner(c2, z))
        rhs = z * horner(dm, z) * horner(cm, z)
        r = abs(z)
        scale = 1.0 + r * (mag(d1, r) * mag(p1, r) + mag(d2, r) * mag(p2, r)
                           + mag(dm, r) * mag(m, r))
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def slice_symmetrization(sp: SlicePoly) -> np.ndarray:
    """Real coefficients of P1 conj-reflect(P1) + P2 conj-reflect(P2),
    the restriction of the symmetrization to the slice."""
    out = [0.0]
    for p in (sp.p1, sp.p2):
        if any(p):
            prod = _mul(p, [c.conjugate() for c in p])
            out += [0.0] * (len(prod) - len(out))
            for n, c in enumerate(prod):
                out[n] += c.real
    return np.array(out)
