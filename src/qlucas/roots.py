"""Complex root extraction with multiplicities, and classification of the
zeros of a quaternionic polynomial into real points, isolated points, and
whole 2-spheres."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _lapack_eigvals

from .quaternion import Quaternion, TwoSphere, is_unit_imaginary
from .qpoly import QPoly, horner, horner_scale, sphere_values, trim_rel
from .tolerances import (CLUSTER_RADII, TAU_CLUSTER, TAU_COEFF_REAL,
                         TAU_CONJUGATE, TAU_IM_SNAP, TAU_REACH, TAU_ROOT,
                         TAU_UNIT, TAU_VALIDATE, TAU_ZERO, ULP)

_NEWTON_STEPS = 80


class NumericalBreakdown(RuntimeError):
    """A numeric step violated an invariant that exact arithmetic
    guarantees. Carries diagnostics in .info."""

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info


@dataclass(frozen=True)
class RootCluster:
    center: complex
    multiplicity: int
    residual: float


class _derivs:
    """All derivatives as lists of Python numbers, which Horner's rule
    runs through faster than numpy scalars, then [0j] at every higher
    order; each is built on first use (simple roots need orders 0, 1)."""

    def __init__(self, coeffs):
        self._built = [coeffs]
        self._top = max(len(coeffs), 1)  # the order of the final [0j]

    def __getitem__(self, order: int) -> list:
        order = min(order, self._top)
        built = self._built
        while len(built) <= order:
            prev = built[-1]
            built.append([n * c for n, c in enumerate(prev) if n >= 1]
                         if len(prev) > 1 else [0j])
        return built[order]


def _newton(derivs, order: int, z0: complex) -> complex:
    """Newton on the order-th derivative, where the hypothesized root is
    simple. Stops after a step within the spacing of doubles at z, or
    once a step is no shorter than the one before, without taking it:
    the iterate has then reached the rounding noise, where a threshold
    below the spacing would stop only on an exactly zero step.
    Returns the start point if the iteration wanders."""
    d = derivs[order]
    dp = derivs[order + 1]
    z = z0
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        fp = horner(dp, z)
        if fp == 0:
            break
        step = horner(d, z) / fp
        if abs(step) >= last:
            break
        z = z - step
        if abs(step) <= ULP * abs(z):
            break
        last = abs(step)
    if not (abs(z - z0) <= 0.1 * (1.0 + abs(z0))):
        return z0
    return z


def _validated(derivs, z: complex, mu: int) -> bool:
    for j in range(mu):
        dj = derivs[j]
        if abs(horner(dj, z)) > TAU_VALIDATE * horner_scale(dj, abs(z)):
            return False
    return True


def _components(items, radius_rel: float):
    """Single-linkage components; edge when the gap is within the
    relative radius. Deterministic given the input order. The items
    come sorted by real part, and an edge from z_i to a later z_j has
    d = |z_i - z_j| <= r (1 + |z_i| + d), so for r < 1 it needs
    Re z_j - Re z_i <= d <= r (1 + |z_i|) / (1 - r). The scan over j
    stops at the first larger gap (widened by TAU_REACH):
    every later gap is larger still, so the edges are the same."""
    n = len(items)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        zi = items[i][0]
        reach = (radius_rel * (1.0 + abs(zi)) / (1.0 - radius_rel)
                 * (1.0 + TAU_REACH) if radius_rel < 1.0 else math.inf)
        for j in range(i + 1, n):
            zj = items[j][0]
            if zj.real - zi.real > reach:
                break
            lim = 1.0 + max(abs(zi), abs(zj))
            if abs(zi - zj) <= radius_rel * lim:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(items[i])
    return [groups[k] for k in sorted(groups)]


def _centroid(group):
    m = sum(g[1] for g in group)
    z = sum(g[0] * g[1] for g in group) / m
    return z, m


def _agglomerate(items, derivs):
    def rec(group, level):
        if len(group) == 1:
            return [group[0]]
        if level >= len(CLUSTER_RADII):
            # base radius: merging is mandated, no validation
            out = []
            for comp in _components(group, TAU_CLUSTER):
                z, m = _centroid(comp)
                out.append([z, m])
            return out
        radius = CLUSTER_RADII[level]
        out = []
        for comp in _components(group, radius):
            if len(comp) == 1:
                out.append(comp[0])
                continue
            z0, m = _centroid(comp)
            zp = _newton(derivs, m - 1, z0)
            if (abs(zp - z0) <= radius * (1.0 + abs(z0))
                    and _validated(derivs, zp, m)):
                out.append([zp, m])
            else:
                out.extend(rec(comp, level + 1))
        return out

    return rec(items, 0)


def complex_roots(coeffs) -> list[RootCluster]:
    """All roots of a complex-coefficient polynomial with multiplicities.

    Ascending coefficients. Companion-matrix eigenvalues, agglomerative
    cluster merging (see CLUSTER_RADII), then Newton polishing on the
    (multiplicity-1)-th derivative and the residual at each center.
    Real coefficients make the roots conjugate-symmetric, and Horner's
    rule commutes exactly with conjugation, so conjugate clusters polish
    to exact conjugates with equal residuals: _polish_real pairs them
    first, then polishes one of each pair and snaps near-axis centers.
    """
    c = list(coeffs)
    for n, a in enumerate(c):
        if not cmath.isfinite(a):
            raise ValueError(f"coefficient {n} is not finite: {a!r}")
    c = trim_rel(c)
    if len(c) < 2:
        raise ValueError("root finding needs degree >= 1 after trimming")
    deg = len(c) - 1
    is_real = (max(abs(a.imag) for a in c)
               <= TAU_COEFF_REAL * max(map(abs, c)))
    c = [complex(a.real + 0.0) if is_real else complex(a) for a in c]
    raw = _eigen_roots([a.real for a in c] if is_real else c)
    derivs = _derivs(c)
    mags = [abs(a) for a in derivs[0]]

    def residual(z):
        return abs(horner(derivs[0], z)) / horner_scale(mags, abs(z))

    items = sorted(([z, 1] for z in raw),
                   key=lambda it: (it[0].real, it[0].imag))
    clusters = _agglomerate(items, derivs)
    if is_real:
        found = _polish_real(clusters, derivs, residual)
    else:
        polished = [(_newton(derivs, m - 1, z), m) for z, m in clusters]
        found = [(z, m, residual(z)) for z, m in polished]

    out = []
    for z, m, res in sorted(found, key=lambda it: (it[0].real, it[0].imag)):
        if res > TAU_ROOT:
            raise NumericalBreakdown(
                "root residual above tolerance",
                center=z, multiplicity=m, residual=res)
        out.append(RootCluster(z, m, res))
    if sum(r.multiplicity for r in out) != deg:
        raise NumericalBreakdown("multiplicities do not sum to the degree",
                                 degree=deg,
                                 found=sum(r.multiplicity for r in out))
    return out


def _eigen_roots(c: list) -> list[complex]:
    """np.roots(c[::-1]) for ascending c with c[-1] != 0, bit for bit
    and without its fixed overhead: the same companion matrix's
    eigenvalues, then one zero root per zero constant term. The LAPACK
    gufunc behind np.linalg.eigvals (xGEEV) is called directly, as the
    wrapper costs more than LAPACK on small matrices; its two checks,
    non-finite entries and non-convergence (NaN output), are kept."""
    k = next(i for i, a in enumerate(c) if a != 0)
    n = len(c) - 1 - k
    if n == 0:
        return [0j] * k
    a = np.eye(n, k=-1, dtype=type(c[-1]))
    with np.errstate(all="ignore"):
        a[0] = -np.array(c[k:-1][::-1]) / c[-1]
        if not np.isfinite(a[0]).all():
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        sig = "D->D" if a.dtype.kind == "c" else "d->D"
        out = _lapack_eigvals(a, signature=sig).tolist()
    if any(z != z for z in out):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return out + [0j] * k


def _polish_real(clusters, derivs, residual):
    """(center, multiplicity, residual) of the clusters of a real
    polynomial, closed under exact conjugation. Each lower cluster must
    match an upper one in multiplicity and to TAU_CONJUGATE relative
    distance; only the upper one is polished. Centers within TAU_IM_SNAP
    of the axis, before or after polishing, are put on it."""
    def on_axis(z):
        return abs(z.imag) <= TAU_IM_SNAP * (1.0 + abs(z))

    out, pos, neg = [], [], []
    for z, m in clusters:
        if on_axis(z):
            x = complex(_newton(derivs, m - 1, z).real, 0.0)
            out.append((x, m, residual(x)))
        elif z.imag > 0:
            pos.append([z, m])
        else:
            neg.append([z, m])
    if len(pos) != len(neg):
        raise NumericalBreakdown(
            "conjugate pairing failed for a real polynomial",
            unpaired=len(pos) - len(neg))
    pos.sort(key=lambda it: (it[0].real, it[0].imag))
    neg.sort(key=lambda it: (it[0].real, -it[0].imag))
    for (zp, mp), (zn, mn) in zip(pos, neg):
        if (mp != mn
                or abs(zp - zn.conjugate()) > TAU_CONJUGATE * (1.0 + abs(zp))):
            raise NumericalBreakdown(
                "conjugate pairing failed for a real polynomial",
                upper=zp, lower=zn)
        z = _newton(derivs, mp - 1, zp)
        zc = z.conjugate()
        if on_axis(z):
            z = zc = complex(z.real, 0.0)
        res = residual(z)
        out += [(z, mp, res), (zc, mp, res)]
    return out


# ---------------------------------------------------------------------------
# quaternionic zero sets


@dataclass(frozen=True)
class IsolatedZero:
    point: Quaternion
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SphereZero:
    sphere: TwoSphere
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class ZeroSet:
    """Classified zeros: real zeros sit in `isolated` with zero vector
    part; spheres all have y > 0. Multiplicities satisfy
    sum(isolated) + 2 sum(spheres) = degree of the analyzed polynomial."""

    isolated: tuple[IsolatedZero, ...]
    spheres: tuple[SphereZero, ...]
    source_degree: int

    def zero_count(self) -> int:
        return (sum(z.multiplicity for z in self.isolated)
                + 2 * sum(s.multiplicity for s in self.spheres))

    def is_empty(self) -> bool:
        return not self.isolated and not self.spheres

    def is_points_and_spheres(self) -> bool:
        """True when every isolated zero is real (no off-axis points)."""
        return all(z.point.im_norm() <= TAU_UNIT for z in self.isolated)

    def max_modulus(self) -> float:
        vals = [z.point.norm() for z in self.isolated]
        vals += [math.hypot(s.sphere.x, s.sphere.y) for s in self.spheres]
        return max(vals, default=0.0)

    def to_json_dict(self) -> dict:
        return {
            "isolated": [{"q": z.point.to_list(), "mult": z.multiplicity,
                          "residual": z.residual} for z in self.isolated],
            "spheres": [{"x": s.sphere.x, "y": s.sphere.y,
                         "mult": s.multiplicity, "residual": s.residual}
                        for s in self.spheres],
        }


def _sphere_residual(p: QPoly, s: TwoSphere, ab=None) -> float:
    """Exact maximum of |P| / eval_scale(hypot(x, y)) over the whole
    sphere [x + Iy], or at the real point x when y = 0.

    With P(x + Iy) = A + I B (sphere_values, or ab when the caller has
    them), |A + I B|^2 = |A|^2 + |B|^2 - 2 <Im(B A^c), I>, so the
    maximum is sqrt(|A|^2 + |B|^2 + 2 |Im(B A^c)|), attained at
    I = -Im(B A^c) / |Im(B A^c)| (at every I when Im(B A^c) = 0).
    """
    a, b = ab or sphere_values(p, s.x, s.y)
    cross = (b * a.conjugate()).im_norm()
    top = math.sqrt(a.norm2() + b.norm2() + 2.0 * cross)
    return top / p.eval_scale(math.hypot(s.x, s.y))


def classify_sphere(p: QPoly, s: TwoSphere, tau_zero: float = TAU_ZERO):
    """Classify a candidate sphere of zeros of p.

    Returns ("spherical", None), ("isolated", point) or
    ("not_a_zero", None).

    On [x + Iy] the polynomial takes the form P(x + Ky) = a + K b with a,
    b independent of K: (a, b) = sphere_values(p, x, y), the real and
    imaginary parts at x + iy of the four real component polynomials of
    p. Both vanishing means the whole sphere is zeros; otherwise the
    only candidate zero is at K = -a b^{-1}, valid when K is unit
    imaginary. A sphere with y <= 0 is the real point x.
    """
    if s.y <= 0.0:
        q = Quaternion(s.x)
        if p.evaluate(q).norm() <= tau_zero * p.eval_scale(abs(s.x)):
            return ("isolated", q)
        return ("not_a_zero", None)
    return _classify(p, s, sphere_values(p, s.x, s.y), tau_zero)


def _classify(p: QPoly, s: TwoSphere, ab, tau_zero: float):
    """classify_sphere for y > 0 from ab = sphere_values(p, x, y), which
    zero_set then reuses for the residual."""
    a, b = ab
    scale = p.eval_scale(math.hypot(s.x, s.y))
    if a.norm() <= tau_zero * scale and b.norm() <= tau_zero * scale:
        return ("spherical", None)
    if b.norm() > tau_zero * scale:
        k = -(a * b.inverse())
        if is_unit_imaginary(k):
            return ("isolated", s.representative(k))
    return ("not_a_zero", None)


def zero_set(p: QPoly, tau_zero: float = TAU_ZERO) -> ZeroSet:
    """Full zero set of p with multiplicities.

    Route: roots of the symmetrization P^s on C(i); real roots are real
    zeros (half the P^s multiplicity), conjugate pairs are candidate
    spheres classified by classify_sphere. Real-coefficient input skips
    the symmetrization: its own real roots and conjugate pairs already
    are the real zeros and the (always spherical) zero spheres.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("zero_set needs a polynomial of degree >= 1")
    if p.is_real():
        return _zero_set_real(p, tau_zero)

    clusters = complex_roots(p.symmetrize().real_coeffs())

    isolated: list[IsolatedZero] = []
    spheres: list[SphereZero] = []
    for cl in clusters:
        if cl.center.imag < 0:
            continue
        if cl.center.imag == 0:
            x, mu = cl.center.real, cl.multiplicity
            if mu % 2:
                raise NumericalBreakdown(
                    "odd multiplicity at a real root of the symmetrization",
                    x=x, multiplicity=mu)
            res = _sphere_residual(p, TwoSphere(x, 0.0))
            if res > tau_zero:
                raise NumericalBreakdown(
                    "real root of the symmetrization is not a zero",
                    x=x, residual=res)
            isolated.append(IsolatedZero(Quaternion(x), mu // 2, res))
            continue
        s = TwoSphere(cl.center.real, cl.center.imag)
        t = cl.multiplicity
        ab = sphere_values(p, s.x, s.y)
        kind, pt = _classify(p, s, ab, tau_zero)
        if kind == "spherical":
            if t % 2:
                raise NumericalBreakdown(
                    "odd multiplicity at a spherical zero",
                    sphere=(s.x, s.y), multiplicity=t)
            spheres.append(SphereZero(s, t // 2, _sphere_residual(p, s, ab)))
        elif kind == "isolated":
            res = p.evaluate(pt).norm() / p.eval_scale(pt.norm())
            if res > tau_zero:
                raise NumericalBreakdown(
                    "classified isolated zero fails its residual bound",
                    point=pt.to_list(), residual=res)
            isolated.append(IsolatedZero(pt, t, res))
        else:
            raise NumericalBreakdown(
                "sphere of the symmetrization carries no zero of p",
                sphere=(s.x, s.y), multiplicity=t)
    return _assemble(p, isolated, spheres)


def _zero_set_real(p: QPoly, tau_zero: float) -> ZeroSet:
    """Zeros of a real p from the roots of its real part. For an exactly
    real p the cluster residuals are its sphere residuals, up to an ulp
    (abs of a complex rounds unlike sqrt(u^2 + v^2)); imaginary parts
    within the is_real tolerance need _sphere_residual."""
    clusters = complex_roots(p.real_coeffs())
    exact = not any(map(any, p.parts[1:]))
    isolated: list[IsolatedZero] = []
    spheres: list[SphereZero] = []
    for cl in clusters:
        if cl.center.imag < 0:
            continue
        s = TwoSphere(cl.center.real, cl.center.imag)
        res = cl.residual if exact else _sphere_residual(p, s)
        if s.y == 0:
            isolated.append(IsolatedZero(Quaternion(s.x), cl.multiplicity,
                                         res))
        else:
            spheres.append(SphereZero(s, cl.multiplicity, res))
    return _assemble(p, isolated, spheres)


def _assemble(p: QPoly, isolated, spheres) -> ZeroSet:
    isolated.sort(key=lambda z: (z.point.w, z.point.x, z.point.y, z.point.z))
    spheres.sort(key=lambda s: (s.sphere.x, s.sphere.y))
    zs = ZeroSet(tuple(isolated), tuple(spheres), p.degree)
    if zs.zero_count() != p.degree:
        raise NumericalBreakdown(
            "zero multiplicities do not account for the degree",
            degree=p.degree, counted=zs.zero_count())
    return zs


def critical_points(p: QPoly, tau_zero: float = TAU_ZERO) -> ZeroSet:
    """Zero set of the derivative. Empty for degree-1 input."""
    if p.is_zero or p.degree < 1:
        raise ValueError("critical_points needs degree >= 1")
    if p.degree == 1:
        return ZeroSet((), (), 0)
    return zero_set(p.derivative(), tau_zero)
