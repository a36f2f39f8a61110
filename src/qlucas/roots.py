"""Roots of real polynomials with multiplicities, and classification of
the zeros of a quaternionic polynomial into real points, isolated points,
and whole 2-spheres."""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

from .quaternion import Quaternion, TwoSphere, _inverse_parts, _mul4, _norm4
from .qpoly import (NumericalBreakdown, QPoly, _derivative, _kept,
                    _magnitude_scale, _sphere_parts, _symmetrized, _value,
                    horner, horner_scale)
from .tolerances import (CLUSTER_RADII, TAU_IM_SNAP, TAU_REACH, TAU_ROOT,
                         TAU_UNIT, TAU_VALIDATE, TAU_ZERO, ULP, _check_setting)

_NEWTON_STEPS = 80


class _derivs:
    """All derivatives of a real polynomial as lists of Python floats,
    which Horner's rule runs through faster than numpy scalars; each is
    built on first use (simple roots need order 0 only, as newton_pass
    forms d' itself). The orders asked for stay below the degree: a
    cluster of multiplicity m <= degree needs them up to m - 1."""

    def __init__(self, coeffs):
        self._built = [coeffs]
        self._passes = {}

    def __getitem__(self, order: int) -> list:
        built = self._built
        while len(built) <= order:
            built.append(_derivative(built[-1]))
        return built[order]

    def newton_pass(self, order: int):
        """(start, pairs, d[0]) for _newton on the order-th derivative d,
        built once per order: the pairs (d[k], d'[k - 1]) for
        k = n, ..., 1, the leading one the accumulators (f, f') a pass
        starts from: 0 * z + c is c for a float c != 0, and at a complex
        z it is complex(c, 0.0), the operand that c becomes in complex
        arithmetic."""
        got = self._passes.get(order)
        if got is None:
            d = self[order]
            # d'[k - 1] = k * d[k], as _derivative builds it
            pairs = [(d[k], k * d[k]) for k in range(len(d) - 1, 0, -1)]
            got = self._passes[order] = (pairs[0], pairs[1:], d[0])
        return got


def _newton(derivs, order: int, z0: complex) -> complex:
    """Newton on the order-th derivative, where the hypothesized root is
    simple. Stops after a step within the spacing of doubles at z, or
    once a step is no shorter than the one before, without taking it:
    the iterate has then reached the rounding noise, where a threshold
    below the spacing would stop only on an exactly zero step.
    Returns the start point if the iteration wanders.

    One pass evaluates d and d', one accumulator each, with horner's
    operations in horner's order: the pass takes d[k] with d'[k - 1]
    for k = n, ..., 1, then d[0].

    A start with imaginary part exactly 0 is replaced by its real part,
    and the iteration runs in float arithmetic and returns a float."""
    start, pairs, d0 = derivs.newton_pass(order)
    if not z0.imag:
        z0 = z0.real
    z = z0
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        f, fp = start
        for c, cp in pairs:
            f = f * z + c
            fp = fp * z + cp
        if fp == 0:
            break
        step = (f * z + d0) / fp
        size = abs(step)
        if size >= last:
            break
        z = z - step
        if size <= ULP * abs(z):
            break
        last = size
    if not (abs(z - z0) <= 0.1 * (1.0 + abs(z0))):
        return z0
    return z


def _validated(derivs, z: complex, mu: int) -> bool:
    for j in range(mu):
        dj = derivs[j]
        if abs(horner(dj, z)) > TAU_VALIDATE * horner_scale(dj, abs(z)):
            return False
    return True


def _reach(z: complex, radius_rel: float) -> float:
    """How far to the right of z the scan of _components looks for an
    edge: r (1 + |z|) / (1 - r), widened by TAU_REACH."""
    return (radius_rel * (1.0 + abs(z)) / (1.0 - radius_rel)
            * (1.0 + TAU_REACH) if radius_rel < 1.0 else math.inf)


def _components(items, radius_rel: float):
    """Single-linkage components; edge when the gap is within the
    relative radius. Deterministic given the input order. The items
    come sorted by real part, and an edge from z_i to a later z_j has
    d = |z_i - z_j| <= r (1 + |z_i| + d), so for r < 1 it needs
    Re z_j - Re z_i <= d <= r (1 + |z_i|) / (1 - r). The scan over j
    stops at the first gap beyond _reach(z_i): every later gap is
    larger still, so the edges are the same."""
    n = len(items)
    edges = []
    for i in range(n):
        zi = items[i][0]
        reach = _reach(zi, radius_rel)
        for j in range(i + 1, n):
            zj = items[j][0]
            if zj.real - zi.real > reach:
                break
            lim = 1.0 + max(abs(zi), abs(zj))
            if abs(zi - zj) <= radius_rel * lim:
                edges.append((i, j))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
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


def _order(item):
    return (item[0].real, item[0].imag)


def _agglomerate(comp, derivs, level: int):
    """The clusters [center, multiplicity] of comp, a component at
    CLUSTER_RADII[level] of items [root, 1] sorted by _order: its
    centroid, polished on the (m-1)-th derivative, when that stays
    within the radius and validates; otherwise the clusters of its
    components at the next radius. Below the last radius its roots stay
    as they are."""
    if len(comp) > 1:
        radius = CLUSTER_RADII[level]
        z0, m = _centroid(comp)
        zp = _newton(derivs, m - 1, z0)
        if (abs(zp - z0) <= radius * (1.0 + abs(z0))
                and _validated(derivs, zp, m)):
            return [[zp, m]]
        if level + 1 < len(CLUSTER_RADII):
            return [c for sub in _components(comp, CLUSTER_RADII[level + 1])
                    for c in _agglomerate(sub, derivs, level + 1)]
    return comp


def _on_axis(z: complex) -> bool:
    return abs(z.imag) <= TAU_IM_SNAP * (1.0 + abs(z))


def _mirror_linked(comp, radius: float) -> bool:
    """True when a component of the roots on the closed upper half-plane
    holds u and v (u = v allowed) with u linked to the mirror of v:
    |u - conj v| <= radius (1 + max(|u|, |v|)), the edge test of
    _components. A real root links to itself."""
    for i, (u, _) in enumerate(comp):
        for v, _ in comp[i:]:
            if abs(u - v.conjugate()) <= radius * (1.0 + max(abs(u), abs(v))):
                return True
    return False


def _real_clusters(items, derivs):
    """The clusters of a real polynomial on the closed upper half-plane,
    from items, its real roots and the upper member of each conjugate
    pair, sorted by _order.

    Conjugation maps the links of the roots onto links, and folding a
    root onto the closed upper half-plane never lengthens one, so each
    component of the items is the fold of one component of all roots.
    A component that does not link to its mirror stands for itself and
    its mirror image, and runs the ladder once; a cluster that Newton
    moved below the axis is mirrored back, and one on the axis is one
    cluster with its mirror, of twice the multiplicity. A component that
    does is the fold of a conjugate-closed one: that set runs the ladder
    whole, and the clusters above or on the axis are kept.

    A singleton component is its own cluster unless it is a non-real
    root linked to its own mirror, so when every component is a
    singleton and none is so linked, the clusters are the items. One
    scan finds the common case first: when every gap between the real
    parts of neighbours exceeds _reach of the left one, _components
    stops each of its scans at the first neighbour, which is the same
    comparison of the same floats, and finds no edge; and a non-real
    root u links to its mirror when |u - conj u| = 2 Im u is within
    radius (1 + |u|). Only when the scan fails are the components
    built."""
    radius = CLUSTER_RADII[0]
    left = None
    for z, _ in items:
        if z.imag and 2.0 * z.imag <= radius * (1.0 + abs(z)):
            break
        if left is not None and z.real - left.real <= _reach(left, radius):
            break
        left = z
    else:
        return items
    out = []
    for comp in _components(items, radius):
        if _mirror_linked(comp, radius):
            closed = sorted(comp + [[z.conjugate(), m] for z, m in comp
                                    if z.imag > 0], key=_order)
            out += [c for c in _agglomerate(closed, derivs, 0)
                    if c[0].imag > 0 or _on_axis(c[0])]
            continue
        for z, m in _agglomerate(comp, derivs, 0):
            if _on_axis(z):
                out.append([z, 2 * m])
            else:
                out.append([z if z.imag > 0 else z.conjugate(), m])
    return out


def _root_clusters(coeffs: list[float]) -> list:
    """All roots of a polynomial with ascending real coefficients, with
    multiplicities, on the closed upper half-plane: the real ones and
    the upper member of each conjugate pair, whose mirror image has the
    same multiplicity and residual, as (center, multiplicity, residual)
    tuples sorted by _order. Companion-matrix eigenvalues, agglomerative
    cluster merging (see CLUSTER_RADII), then Newton polishing on the
    (multiplicity-1)-th derivative and the residual at each center. A
    real center is listed once, with its whole multiplicity: a pair
    polished onto the axis is one real root of twice the multiplicity.

    Real coefficients make the roots conjugate-symmetric, and Horner's
    rule commutes exactly with conjugation, so the work on one
    half-plane fixes the other. LAPACK's real xGEEV lists each pair
    x +- iy as adjacent exact conjugates, upper first (_one_per_pair);
    only the real roots and the upper members are clustered
    (_real_clusters), validated and polished. Centers within TAU_IM_SNAP
    of the axis, before or after polishing, are put on it.

    Each coefficient is read as a + 0.0, a float that is never -0.0.
    Their magnitudes are taken once; the trim and the residual scale
    read them. The derivatives, Newton, validation and the residual run
    on the float list. A real root polishes in float arithmetic
    (_newton) and its residual is the float Horner value."""
    c = [a + 0.0 for a in coeffs]
    mags = list(map(abs, c))
    deg = _kept(mags) - 1
    if deg < 1:
        raise ValueError("root finding needs degree >= 1 after trimming")
    del c[deg + 1:], mags[deg + 1:]
    derivs = _derivs(c)

    def residual(z):
        return abs(horner(c, z)) / _magnitude_scale(mags, 1.0 + abs(z))

    found = []
    total = 0
    raw = _one_per_pair(_eigen_roots(c))
    items = sorted(([z, 1] for z in raw), key=_order)
    for z, m in _real_clusters(items, derivs):
        real = _on_axis(z)
        count = m if real else 2 * m
        total += count
        z = _newton(derivs, m - 1, z)
        if real or _on_axis(z):
            x = z.real
            found.append((complex(x, 0.0), count, residual(x)))
        else:
            found.append((z if z.imag > 0 else z.conjugate(), m, residual(z)))

    found.sort(key=_order)
    failing = [cl for cl in found if cl[2] > TAU_ROOT]
    if failing:
        # a conjugate pair shares its residual; name the failing root
        # first in _order, the lower member of a pair; a real center is
        # not conjugated, which would give its imaginary part as -0.0
        z, m, res = min([(z.conjugate() if z.imag else z, m, res)
                         for z, m, res in failing], key=_order)
        raise NumericalBreakdown(
            "root residual above tolerance",
            center=z, multiplicity=m, residual=res)
    if total != deg:
        raise NumericalBreakdown("multiplicities do not sum to the degree",
                                 degree=deg, found=total)
    return found


def _eigen_roots(c: list[float]) -> list[complex]:
    """np.roots(c[::-1]) for ascending real c with c[-1] != 0, bit for
    bit and without its fixed overhead: the eigenvalues of the same
    companion matrix, from the same LAPACK routine (dgeev), then one
    zero root per zero constant term. The two checks of the
    np.linalg.eigvals wrapper are kept, with its messages: a non-finite
    companion row and non-convergence are a NumericalBreakdown.

    The companion row is divided out in Python floats, the same IEEE
    operations as numpy's, and goes to dgeev from the OpenBLAS that
    numpy's wheel bundles (_bundled_dgeev), called through ctypes on
    numpy's inputs (_bundled_eigvals), without importing numpy. Only
    when that lookup finds no library does numpy's gufunc root the
    matrix (_gufunc_eigvals)."""
    k = 0
    while c[k] == 0:
        k += 1
    if k == len(c) - 1:
        return [0j] * k
    lead = c[-1]
    row = [-v / lead for v in reversed(c[k:-1])]
    if not all(map(math.isfinite, row)):
        raise NumericalBreakdown("Array must not contain infs or NaNs")
    dgeev = _bundled_dgeev()
    out = (_gufunc_eigvals(row) if dgeev is None
           else _bundled_eigvals(dgeev, row))
    return out + [0j] * k


@functools.cache
def _bundled_dgeev():
    """dgeev of the OpenBLAS in numpy's wheel (numpy.libs, symbol
    scipy_dgeev_64_, 64-bit integers), the routine np.linalg.eigvals
    calls, or None when that library or symbol is missing. It is found
    without importing numpy and loaded on the first call, so importing
    qlucas loads neither numpy nor OpenBLAS and starts no OpenBLAS
    thread."""
    import ctypes
    import importlib.util
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return None
    libs = os.path.join(os.path.dirname(spec.submodule_search_locations[0]),
                        "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if name.startswith("libscipy_openblas64_") and name.endswith(".so"):
            try:
                dgeev = ctypes.CDLL(os.path.join(libs, name)).scipy_dgeev_64_
            except (OSError, AttributeError):
                continue
            dgeev.argtypes = [ctypes.c_void_p] * 14
            dgeev.restype = None
            return dgeev
    return None


class _Workspaces(threading.local):
    """Each thread's _workspace tuples, by matrix order."""

    def __init__(self):
        self.by_order = {}


_workspaces = _Workspaces()


def _workspace(dgeev, n: int) -> tuple:
    """The buffers and the arguments of dgeev on an n x n companion
    matrix, as numpy's gufunc passes them: the matrix in column-major
    order, JOBVL = JOBVR = 'N', LDVL = LDVR = 1, and the LWORK that one
    workspace query returns. The arguments are the buffers' addresses,
    fixed for the life of the workspace, which holds a reference to
    each buffer. The matrix and the eigenvalues sit in array.array
    buffers, cheaper to refill and to read than ctypes arrays.

    Returns (a, template, a_view, args, info, wr, wi, buffers): dgeev
    overwrites a, which is refilled from the template, ones below the
    diagonal, and takes the companion row at stride n through a_view."""
    import array
    import ctypes
    addr = ctypes.addressof

    def doubles(size):
        buf = array.array("d", bytes(8 * size))
        return buf, (ctypes.c_double * size).from_buffer(buf)

    template = array.array("d", bytes(8 * n * n))
    template[1::n + 1] = array.array("d", [1.0] * (n - 1))
    (a, a_view), (wr, wr_view), (wi, wi_view) = (
        doubles(n * n), doubles(n), doubles(n))
    job = ctypes.c_char(b"N")
    order, one, lwork, info = (ctypes.c_int64(v) for v in (n, 1, -1, 0))
    unused, query = ctypes.c_double(), ctypes.c_double()
    args = [addr(job), addr(job), addr(order), addr(a_view), addr(order),
            addr(wr_view), addr(wi_view), addr(unused), addr(one),
            addr(unused), addr(one), addr(query), addr(lwork), addr(info)]
    dgeev(*args)
    if info.value:
        raise NumericalBreakdown("Eigenvalues did not converge")
    lwork.value = int(query.value)
    work = (ctypes.c_double * lwork.value)()
    args[11] = addr(work)
    buffers = (job, order, a_view, wr_view, wi_view, unused, one, lwork,
               info, work)
    return a, template, a_view, tuple(args), info, wr, wi, buffers


def _bundled_eigvals(dgeev, row: list) -> list[complex]:
    """The eigenvalues of the real companion matrix with first row row,
    from dgeev in this thread's workspace for its order."""
    n = len(row)
    ws = _workspaces.by_order.get(n)
    if ws is None:
        ws = _workspaces.by_order[n] = _workspace(dgeev, n)
    a, template, a_view, args, info, wr, wi, _ = ws
    a[:] = template
    a_view[::n] = row
    dgeev(*args)
    if info.value:
        raise NumericalBreakdown("Eigenvalues did not converge")
    return list(map(complex, wr, wi))


@functools.cache
def _lapack_eigvals():
    """numpy's gufunc behind np.linalg.eigvals, imported on first use."""
    from numpy.linalg._umath_linalg import eigvals
    return eigvals


def _gufunc_eigvals(row: list[float]) -> list[complex]:
    """The eigenvalues of the real companion matrix with first row row,
    from numpy's gufunc, called directly, as the wrapper costs more than
    LAPACK on small matrices. A NaN output is how the gufunc reports
    non-convergence."""
    import numpy as np
    with np.errstate(all="ignore"):
        a = np.eye(len(row), k=-1)
        a[0] = row
        out = _lapack_eigvals()(a, signature="d->D").tolist()
    if any(z != z for z in out):
        raise NumericalBreakdown("Eigenvalues did not converge")
    return out


def _one_per_pair(raw: list) -> list[complex]:
    """The real eigenvalues and the upper member of each pair, from the
    list of a real matrix, which holds each pair as (z, conj z)."""
    out = []
    it = iter(raw)
    for z in it:
        if z.imag > 0 and next(it, None) == z.conjugate():
            out.append(z)
        elif z.imag == 0:
            out.append(z)
        else:
            raise NumericalBreakdown(
                "conjugate pairing failed for a real polynomial", root=z)
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
        """True when every isolated zero is real: its imaginary parts are
        exactly 0 (-0.0 included), with no tolerance."""
        return not any(z.point.x or z.point.y or z.point.z
                       for z in self.isolated)

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


def _sphere_residual(p: QPoly, x: float, y: float, v=None) -> float:
    """Exact maximum of |P| / eval_scale(hypot(x, y)) over the whole
    sphere [x + Iy], or at the real point x when y = 0.

    With P(x + Iy) = A + I B (the eight floats v of _sphere_parts,
    computed here when the caller has none), |A + I B|^2 =
    |A|^2 + |B|^2 - 2 <Im(B A^c), I>, so the maximum is
    sqrt(|A|^2 + |B|^2 + 2 |Im(B A^c)|), attained at
    I = -Im(B A^c) / |Im(B A^c)| (at every I when Im(B A^c) = 0).
    B A^c is the Hamilton product _mul4, and |Im(B A^c)| its _norm4
    with the real part set to 0.
    """
    aw, ax, ay, az, bw, bx, by, bz = v or _sphere_parts(p.parts, x, y)
    _, cx, cy, cz = _mul4(bw, bx, by, bz, aw, -ax, -ay, -az)
    cross = _norm4(0.0, cx, cy, cz)
    top = math.sqrt((aw * aw + ax * ax + ay * ay + az * az)
                    + (bw * bw + bx * bx + by * by + bz * bz) + 2.0 * cross)
    return top / p.eval_scale(math.hypot(x, y))


def _classify(p: QPoly, x: float, y: float, v, tau_zero: float):
    """Classify the candidate sphere [x + Iy], y > 0, of zeros of p:
    ("spherical", None), ("isolated", point) or ("not_a_zero", None).

    On the sphere P(x + Ky) = A + K B with A, B independent of K, and v
    holds their eight floats (_sphere_parts), which zero_set then reuses
    for the residual. Both vanishing means the whole sphere is zeros;
    otherwise the only candidate zero is at K = -A B^{-1}, valid when K
    is unit imaginary. K is the Hamilton product _mul4 of A and B^{-1},
    negated part by part; K, the TAU_UNIT test of is_unit_imaginary and
    the point x + K y take the IEEE operations of the Quaternion methods,
    in their order; the point is the one Quaternion built. B^{-1} comes
    from _inverse_parts, as in Quaternion.inverse, so it holds where
    |B|^2 leaves the float range."""
    aw, ax, ay, az, bw, bx, by, bz = v
    bound = tau_zero * p.eval_scale(math.hypot(x, y))
    nb = _norm4(bw, bx, by, bz)
    if _norm4(aw, ax, ay, az) <= bound and nb <= bound:
        return ("spherical", None)
    if nb > bound:
        kw, kx, ky, kz = (-k for k in _mul4(aw, ax, ay, az,
                                            *_inverse_parts(bw, bx, by, bz)))
        if (abs(kw) <= TAU_UNIT
                and abs(_norm4(kw, kx, ky, kz) - 1.0) <= TAU_UNIT):
            return ("isolated", Quaternion(x, kx * y, ky * y, kz * y))
    return ("not_a_zero", None)


def _point_residual(p: QPoly, q: Quaternion) -> float:
    """|P(q)| / eval_scale(|q|), P(q) from the floats of _value."""
    return (_norm4(*_value(p.parts, q.w, q.x, q.y, q.z))
            / p.eval_scale(q.norm()))


def zero_set(p: QPoly, tau_zero: float = TAU_ZERO) -> ZeroSet:
    """Full zero set of p with multiplicities.

    Route: roots of the symmetrization P^s on C(i); real roots are real
    zeros (half the P^s multiplicity), conjugate pairs are candidate
    spheres, classified by _classify. Only the closed upper
    half-plane of the roots is read (_root_clusters). Real-coefficient
    input, every imaginary part exactly zero (QPoly.is_real), skips the
    symmetrization: its own real roots and conjugate pairs already are
    the real zeros and the (always spherical) zero spheres. Any nonzero
    imaginary part, however small, takes the quaternionic route, so the
    route of P is the route of 2^m P.

    Every decision on a sphere [x + Iy] runs on the eight floats of
    (A, B), P(x + Iy) = A + I B for every unit imaginary I, by the
    representation formula (Gentili and Struppa, Adv. Math. 216, 2007);
    a Quaternion is built only for a zero the result reports. The
    residual of an isolated zero is taken at the reported point, which
    lies on the sphere [x + I y |K|], not [x + I y], so it takes a
    second Horner pass (_point_residual).
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("zero_set needs a polynomial of degree >= 1")
    _check_setting("tau_zero", tau_zero)
    if p.is_real():
        return _zero_set_real(p, tau_zero)

    clusters = _root_clusters(_symmetrized(p.parts))

    isolated: list[IsolatedZero] = []
    spheres: list[SphereZero] = []
    for z, t, _ in clusters:
        x, y = z.real, z.imag
        if y == 0:
            if t % 2:
                raise NumericalBreakdown(
                    "odd multiplicity at a real root of the symmetrization",
                    x=x, multiplicity=t)
            res = _sphere_residual(p, x, 0.0)
            if res > tau_zero:
                raise NumericalBreakdown(
                    "real root of the symmetrization is not a zero",
                    x=x, residual=res)
            isolated.append(IsolatedZero(Quaternion(x), t // 2, res))
            continue
        v = _sphere_parts(p.parts, x, y)
        kind, pt = _classify(p, x, y, v, tau_zero)
        if kind == "spherical":
            if t % 2:
                raise NumericalBreakdown(
                    "odd multiplicity at a spherical zero",
                    sphere=(x, y), multiplicity=t)
            spheres.append(SphereZero(TwoSphere(x, y), t // 2,
                                      _sphere_residual(p, x, y, v)))
        elif kind == "isolated":
            res = _point_residual(p, pt)
            if res > tau_zero:
                raise NumericalBreakdown(
                    "classified isolated zero fails its residual bound",
                    point=pt.to_list(), residual=res)
            isolated.append(IsolatedZero(pt, t, res))
        else:
            raise NumericalBreakdown(
                "sphere of the symmetrization carries no zero of p",
                sphere=(x, y), multiplicity=t)
    return _assemble(p, isolated, spheres)


def _zero_set_real(p: QPoly, tau_zero: float) -> ZeroSet:
    """Zeros of a real p (QPoly.is_real) from the roots of its
    coefficients. The cluster residuals are its sphere residuals, up to
    an ulp (abs of a complex rounds unlike sqrt(u^2 + v^2)), and must be
    within tau_zero, which can be tighter than the TAU_ROOT of the
    clusters."""
    isolated: list[IsolatedZero] = []
    spheres: list[SphereZero] = []
    for z, m, res in _root_clusters(p.real_coeffs()):
        x, y = z.real, z.imag
        if res > tau_zero:
            raise NumericalBreakdown(
                "root of the real part is not a zero of p",
                x=x, y=y, residual=res)
        if y == 0:
            isolated.append(IsolatedZero(Quaternion(x), m, res))
        else:
            spheres.append(SphereZero(TwoSphere(x, y), m, res))
    return _assemble(p, isolated, spheres)


def _assemble(p: QPoly, isolated, spheres) -> ZeroSet:
    # spheres arrive in the (x, y) order of _root_clusters; isolated
    # points that share a real part need the sort
    isolated.sort(key=lambda z: (z.point.w, z.point.x, z.point.y, z.point.z))
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
