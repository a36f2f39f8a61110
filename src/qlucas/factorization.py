"""Spectral factorization of nonnegative real-coefficient polynomials
and the sampled check of the slice product identity. The kernels run on
lists of Python complex numbers, with one convolution for every product,
and slice_symmetrization takes P^s from qpoly._symmetrized. P^s and the
product M conj(M(conj z)) are returned as lists of floats.

fejer_riesz_factor takes the eigenvalues of Q once. When none of them
lies near the real axis, M is the product over the upper ones, with no
clustering or polishing; otherwise the cluster ladder of
roots._root_clusters runs on those same eigenvalues and decides the
real multiplicities. Either way the product residual against Q is the
acceptance test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from .qpoly import (SlicePoly, _derivative, _magnitude_scale, _symmetrized,
                    horner, trim_rel)
from .roots import (NumericalBreakdown, _clear_of_mirror, _clusters_from,
                    _companion_roots)
from .tolerances import TAU_FACTOR, TAU_L_IDENTITY, _check_setting


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

    def product_coeffs(self) -> list[float]:
        m = self.m_coeffs
        return [c.real for c in _mul(m, [c.conjugate() for c in m])]

    def __call__(self, z: complex) -> complex:
        return horner(self.m_coeffs, z)


def fejer_riesz_factor(q_coeffs) -> MFactor:
    """Factor a real polynomial that is nonnegative on the real axis as
    Q(z) = M(z) * conj(M(conj(z))) with deg M = deg Q / 2.

    M is sqrt of the leading coefficient times the product of z - r
    over the roots r of Q on the closed upper half-plane: the
    positive-imaginary member of every conjugate root pair at full
    multiplicity and half of every (necessarily even) real root
    multiplicity, sorted by real then imaginary part. Odd degree, a
    nonpositive leading coefficient, or an odd real root multiplicity
    all mean Q takes negative values and there is no such
    factorization. Q must be real from the bits: any nonzero imaginary
    part, however small, is a ValueError, and so is an inf or NaN.

    The roots come from the companion eigenvalues of Q, taken once
    (roots._companion_roots, one per conjugate pair), by one of two
    routes:

    - eigenvalue route: when every eigenvalue is clear of its mirror
      (roots._clear_of_mirror, the test roots._real_clusters applies,
      which a real eigenvalue fails), M is the product over the
      eigenvalues themselves. The computed eigenvalues are the exact
      roots of a nearby polynomial Q~; with no root near the axis Q~
      has no real root, M is its exact factor, and a
      complete cluster of close upper roots enters M whole, where its
      coefficients are well-conditioned. At a complex root of
      multiplicity 3 this M can differ from the cluster route's by
      1e-10 or more relative, yet it reproduces Q to about 1e-14, where
      the snapped triple root of the cluster route reproduces it only
      to about 1e-9.
    - cluster route: otherwise roots._clusters_from, the rest of
      roots._root_clusters, whose ladder alone decides real
      multiplicities, gives the centers from the same eigenvalues, and
      each real double root enters M once. This is the work
      _root_clusters(Q) does, with no second eigenvalue solve.

    On both routes the product M conj(M(conj z)) must match Q within
    TAU_FACTOR, relative to 1 plus its largest coefficient.
    """
    q = [complex(c) for c in q_coeffs]
    if not any(q):
        raise ValueError("cannot factor the zero polynomial")
    if any(c.imag for c in q):
        raise ValueError("factorization input must have real coefficients")
    for n, c in enumerate(q):
        if not math.isfinite(c.real):
            raise ValueError(f"coefficient {n} is not finite: {c.real!r}")
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

    c, mags, raw = _companion_roots(q)
    if all(map(_clear_of_mirror, raw)):
        roots_m = sorted(raw, key=lambda z: (z.real, z.imag))
    else:
        roots_m = []
        for z, mult, _ in _clusters_from(c, mags, raw):
            if z.imag > 0:
                roots_m.extend([z] * mult)
            else:
                if mult % 2:
                    raise NumericalBreakdown(
                        "odd real root multiplicity, polynomial changes sign",
                        root=z.real, multiplicity=mult)
                roots_m.extend([z] * (mult // 2))
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
    coefficient sizes; returns False as soon as one sample fails. A NaN
    or negative rel_tol is a ValueError.

    The identity holds when P2 = 0 but not in general: P1 = 1, P2 = z
    give Q = 1 + z^2 and M = z - i, so z L = z^2 while
    z M' conj(M(conj z)) = z^2 + i z. What always holds is
    L + L^c = Q' = N + N^c with N = M' conj(M(conj .)), since both
    sides are the derivative of Q.
    """
    _check_setting("rel_tol", rel_tol)
    p1, p2, m = ([complex(c) for c in a] for a in (p1, p2, m_coeffs))
    d1, d2, dm = (_derivative(a) or [0j] for a in (p1, p2, m))
    c1, c2, cm = ([c.conjugate() for c in a] for a in (p1, p2, m))
    # the magnitudes once, not per sample
    a1, a2, am, ad1, ad2, adm = [list(map(abs, a))
                                 for a in (p1, p2, m, d1, d2, dm)]
    mag = _magnitude_scale
    for z in z_samples:
        z = complex(z)
        lhs = z * (horner(d1, z) * horner(c1, z)
                   + horner(d2, z) * horner(c2, z))
        rhs = z * horner(dm, z) * horner(cm, z)
        r = abs(z)
        base = max(1.0, r)
        scale = 1.0 + r * (mag(ad1, base) * mag(a1, base)
                           + mag(ad2, base) * mag(a2, base)
                           + mag(adm, base) * mag(am, base))
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def slice_symmetrization(sp: SlicePoly) -> list[float]:
    """Real coefficients of P1 conj-reflect(P1) + P2 conj-reflect(P2),
    the restriction of the symmetrization to the slice. That is P^s
    itself: (Re P1, Im P1, Re P2, Im P2) are the parts of P in the
    orthonormal basis {1, I, J, IJ}, and _symmetrized takes only inner
    products of coefficients, which no orthonormal basis changes. Every
    slice gives P^s, up to the rounding of the slice parts, as the list
    of floats that _symmetrized builds."""
    return _symmetrized([[c.real for c in sp.p1], [c.imag for c in sp.p1],
                         [c.real for c in sp.p2], [c.imag for c in sp.p2]])
