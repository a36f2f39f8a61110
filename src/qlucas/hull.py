"""Convex hull membership certificates for the zero sets of quaternionic
polynomials.

A zero set is a finite union of points and 2-spheres [x + Iy]. When
every isolated zero is real, the hull meets the slice through the query
in the planar hull of the real zeros and the sphere traces x +- Iy, and
the question is exact planar geometry. Otherwise the hull is a
4-dimensional body, and the query goes to an exact minimum-norm-point
kernel: the Gilbert-Johnson-Keerthi distance algorithm (IEEE J. Robot.
Autom. 4(2), 1988) over the closed-form support map of points and
spheres, with Wolfe's minor cycle (Math. Prog. 11, 1976) as the distance
subalgorithm on at most five support points. No sphere is sampled."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .quaternion import I as UNIT_I, Quaternion, TwoSphere, imag_unit
from .roots import NumericalBreakdown, ZeroSet

EPS_HULL = 1e-8
# a 4-d Outside distance is exact to _GAP_REL times the scale of the
# problem, 1 plus the largest modulus among the query and the zero set
_GAP_REL = 1e-10
_MAX_ITER = 200


@dataclass(frozen=True)
class HullCertificate:
    """Convex combination of hull points equal to the query up to slack."""

    points: tuple[Quaternion, ...]
    weights: tuple[float, ...]
    slack: float

    def combination(self) -> Quaternion:
        acc = Quaternion()
        for w, p in zip(self.weights, self.points):
            acc = acc + w * p
        return acc

    def check(self, q: Quaternion, tol: float) -> bool:
        if any(w < -1e-15 for w in self.weights):
            return False
        if abs(sum(self.weights) - 1.0) > 1e-9:
            return False
        return (self.combination() - q).norm() <= tol

    def to_json_dict(self) -> dict:
        return {"points": [p.to_list() for p in self.points],
                "weights": list(self.weights),
                "slack": self.slack}


@dataclass(frozen=True)
class Outside:
    """Non-membership verdict with the distance from the query to the
    hull.

    On the slice route the distance is exact: projecting H orthogonally
    onto the query's slice maps each zero sphere onto the segment
    between its two trace points, so the planar distance equals the
    distance in H. On the 4-d route it is the distance to a point of
    the hull, and a separating plane farther than the collar bounds the
    true distance from below to within 1e-10 times 1 plus the largest
    modulus among the query and the zero set. Where the distance is
    many orders of magnitude below that scale, rounding in the plane's
    direction can keep the two bounds further apart; the verdict is
    still proven by the plane."""

    distance: float

    def to_json_dict(self) -> dict:
        return {"distance": self.distance}


# ---------------------------------------------------------------------------
# planar machinery


def _cross(o: complex, a: complex, b: complex) -> float:
    return ((a.real - o.real) * (b.imag - o.imag)
            - (a.imag - o.imag) * (b.real - o.real))


def _hull2d(pts: list[complex]) -> list[int]:
    """Indices of hull vertices, counter-clockwise (monotone chain)."""
    order = sorted(range(len(pts)), key=lambda i: (pts[i].real, pts[i].imag))
    uniq: list[int] = []
    for i in order:
        if not uniq or pts[i] != pts[uniq[-1]]:
            uniq.append(i)
    if len(uniq) <= 2:
        return uniq
    lower: list[int] = []
    for i in uniq:
        while len(lower) > 1 and _cross(pts[lower[-2]], pts[lower[-1]],
                                        pts[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(uniq):
        while len(upper) > 1 and _cross(pts[upper[-2]], pts[upper[-1]],
                                        pts[i]) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    # collinear input collapses the chains; the segment endpoints are the
    # lexicographic extremes
    return hull if len(hull) >= 3 else [uniq[0], uniq[-1]]


def _proj_segment(z: complex, a: complex, b: complex):
    d = b - a
    den = abs(d) ** 2
    t = 0.0 if den == 0.0 else ((z - a) * d.conjugate()).real / den
    t = min(1.0, max(0.0, t))
    return t, abs(z - (a + t * d))


def planar_points(zs: ZeroSet) -> list[complex]:
    """The real parts of the isolated zeros, then x + iy and x - iy for
    each sphere: the generators of the hull's trace on a slice."""
    pts = [complex(z.point.w, 0.0) for z in zs.isolated]
    for s in zs.spheres:
        pts += [complex(s.sphere.x, s.sphere.y),
                complex(s.sphere.x, -s.sphere.y)]
    return pts


def _member2d(z: complex, pts: list[complex], eps: float, hull=None):
    """Membership of z in conv(pts) with an eps collar; hull, when
    given, is _hull2d(pts).

    Returns (list of (index, weight), slack) or an Outside."""
    if hull is None:
        hull = _hull2d(pts)
    if len(hull) == 1:
        d = abs(z - pts[hull[0]])
        return ([(hull[0], 1.0)], d) if d <= eps else Outside(d)
    if len(hull) == 2:
        a, b = pts[hull[0]], pts[hull[1]]
        t, d = _proj_segment(z, a, b)
        if d <= eps:
            return ([(hull[0], 1.0 - t), (hull[1], t)], d)
        return Outside(d)

    h = len(hull)
    inside = all(_cross(pts[hull[i]], pts[hull[(i + 1) % h]], z) >= 0.0
                 for i in range(h))
    if inside:
        cert = _fan_certificate(z, pts, hull)
        if cert is not None:
            return cert
    # boundary projection covers both the eps collar and tiny float fuzz
    best = None
    for i in range(h):
        a, b = pts[hull[i]], pts[hull[(i + 1) % h]]
        t, d = _proj_segment(z, a, b)
        if best is None or d < best[0]:
            best = (d, i, t)
    d, i, t = best
    if d <= eps:
        return ([(hull[i], 1.0 - t), (hull[(i + 1) % h], t)], d)
    return Outside(d)


def _fan_certificate(z: complex, pts: list[complex], hull: list[int]):
    o = pts[hull[0]]
    for i in range(1, len(hull) - 1):
        a, b = pts[hull[i]], pts[hull[i + 1]]
        det = _cross(o, a, b)
        if det == 0.0:
            continue
        rz = z - o
        u = (rz.real * (b.imag - o.imag)
             - rz.imag * (b.real - o.real)) / det
        v = ((a.real - o.real) * rz.imag - (a.imag - o.imag) * rz.real) / det
        if u < -1e-9 or v < -1e-9 or u + v > 1.0 + 1e-9:
            continue
        w = [max(0.0, 1.0 - u - v), max(0.0, u), max(0.0, v)]
        tot = sum(w)
        w = [x / tot for x in w]
        comb = w[0] * o + w[1] * a + w[2] * b
        idx = [hull[0], hull[i], hull[i + 1]]
        return (list(zip(idx, w)), abs(comb - z))
    return None


# ---------------------------------------------------------------------------
# exact 4-d machinery


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _affine_min(verts: np.ndarray) -> np.ndarray:
    """Weights, summing to 1, of the point of the affine hull of the
    rows of verts nearest the origin. Least squares on the differences
    from the first row keeps that point accurate when rows nearly
    coincide, as support points on a sphere do near convergence."""
    if len(verts) == 1:
        return np.ones(1)
    base = verts[0]
    mu = np.linalg.lstsq((verts[1:] - base).T, -base, rcond=None)[0]
    return np.concatenate(([1.0 - mu.sum()], mu))


def _nearest_face(verts: np.ndarray, lam: np.ndarray):
    """Wolfe's minor cycle (Math. Prog. 11, 1976): from weights lam of
    a point of conv(verts), move toward the nearest point of the affine
    hull of the remaining vertices until a weight reaches zero, and drop
    that vertex, until the nearest point of the affine hull has positive
    weights. It is then the nearest point of conv(verts), and in exact
    arithmetic the remaining vertices are affinely independent, at most
    five in R^4. Returns the indices kept and their weights."""
    keep = np.arange(len(verts))
    while True:
        mu = _affine_min(verts[keep])
        if mu.min() > 0.0:
            return keep, mu
        down = np.flatnonzero(mu <= 0.0)
        den = lam[down] - mu[down]          # >= 0, as lam >= 0 >= mu
        ratios = np.divide(lam[down], den, out=np.zeros_like(den),
                           where=den > 0.0)
        i = int(np.argmin(ratios))
        lam = lam + ratios[i] * (mu - lam)
        alive = lam > 0.0
        alive[down[i]] = False
        keep, lam = keep[alive], lam[alive] / lam[alive].sum()


def _sphere_support(s: TwoSphere, d) -> Quaternion:
    """Point of the sphere [x + Iy] minimizing <d, .>: x - y d_v / |d_v|,
    where d_v is the imaginary part of d; any point when d_v = 0."""
    nv = math.sqrt(d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
    if nv == 0.0:
        return s.representative(UNIT_I)
    return s.representative(Quaternion(0.0, -d[1] / nv, -d[2] / nv,
                                       -d[3] / nv))


def _membership(q: Quaternion, points: list[Quaternion],
                spheres: list[TwoSphere], eps_hull: float):
    """Membership of q in the hull of points and 2-spheres, by the
    Gilbert-Johnson-Keerthi iteration on the zero set translated by -q:
    each step adds the support point in the direction of the current
    nearest point x and lets Wolfe's minor cycle keep the face of the
    simplex nearest the origin, at most five points. |x| bounds the
    distance from above and the supporting plane <x, .> = <x, w> from
    below, so a verdict is returned only when the bracket settles it:
    a certificate once the combination, recomputed in the original
    coordinates, is within the collar, and Outside once the lower bound
    exceeds the collar and the bracket has closed to the stated gap, or
    as far as double precision lets it close."""
    eps = eps_hull * (1.0 + q.norm())
    scale = 1.0 + max([q.norm()] + [p.norm() for p in points]
                      + [math.hypot(s.x, s.y) for s in spheres])
    gap = _GAP_REL * scale

    def shifted(p: Quaternion) -> tuple:
        return (p.w - q.w, p.x - q.x, p.y - q.y, p.z - q.z)

    rel = [shifted(p) for p in points]
    rel_arr = np.array(rel).reshape(-1, 4)

    def support(d):
        """Hull point minimizing <d, .>, shifted and original."""
        best = None
        if rel:
            vals = rel_arr @ d
            i = int(np.argmin(vals))
            best = (float(vals[i]), rel[i], points[i])
        for s in spheres:
            p = _sphere_support(s, d)
            t = shifted(p)
            val = _dot(d, t)
            if best is None or val < best[0]:
                best = (val, t, p)
        return np.array(best[1]), best[2]

    # start from the generator nearest the query: on a sphere that is
    # the support point in the direction of the shifted centre
    starts = [(rel[i], points[i]) for i in range(len(rel))]
    for s in spheres:
        p = _sphere_support(s, (0.0, -q.x, -q.y, -q.z))
        starts.append((shifted(p), p))
    start = min(starts, key=lambda st: _dot(st[0], st[0]))
    verts, origs = np.array([start[0]]), [start[1]]
    weights = np.ones(1)
    x = verts[0]
    nn = float(x @ x)
    lower = -math.inf
    for _ in range(_MAX_ITER):
        upper = math.sqrt(nn)
        if upper <= eps:
            cert = HullCertificate(tuple(origs),
                                   tuple(float(w) for w in weights), 0.0)
            slack = (cert.combination() - q).norm()
            if slack <= eps:
                return dataclasses.replace(cert, slack=slack)
        w, orig = support(x)
        if upper > 0.0:
            lower = max(lower, float(x @ w) / upper)
        if lower > eps and upper - lower <= gap:
            return Outside(upper)
        if len(verts) == 5:
            break       # a full simplex: x is at the origin up to rounding
        cand = np.vstack([verts, w])
        keep, lam = _nearest_face(cand, np.append(weights, 0.0))
        face = cand[keep]
        x_new = lam @ face
        if len(keep) == 4:
            # on a facet, take the direction of x from the facet normal,
            # which the differences of its vertices fix far more finely
            # than rounding leaves x itself once |x| is small
            normal = np.linalg.svd(face[1:] - face[0])[2][3]
            x_new = (normal @ face[0]) * normal
        nn_new = float(x_new @ x_new)
        if not nn_new < nn:
            break       # no progress left at this precision
        verts, weights, x, nn = face, lam, x_new, nn_new
        origs = [(origs + [orig])[i] for i in keep]
    # the bracket closes no further: far below the scale of the problem,
    # rounding in the direction of x bounds how tight the plane can be
    if lower > eps:
        return Outside(upper)
    raise NumericalBreakdown(
        "hull membership undecided: the collar lies within the distance "
        "bracket", lower=lower, upper=upper, collar=eps, gap=gap)


# ---------------------------------------------------------------------------
# public routes


def hull_membership_slice(q: Quaternion, zs: ZeroSet,
                          eps_hull: float = EPS_HULL):
    """Certificate that q lies in the convex hull of the zero set.

    When every isolated zero is real the hull meets the slice through q
    in the planar hull of the real zeros and the pairs x +- I y, so the
    question reduces to exact planar geometry. Otherwise the hull is a
    genuinely 4-dimensional body and the query goes to the exact 4-d
    kernel, with each zero sphere passed whole through its support map.
    To query one zero set many times, use slice_route(zs, eps_hull).
    """
    return slice_route(zs, eps_hull)(q)


def slice_route(zs: ZeroSet, eps_hull: float = EPS_HULL):
    """q -> hull_membership_slice(q, zs, eps_hull), with the planar hull
    built once, each planar point x + i|Im q| decided once (x +- Iy of a
    critical sphere share one), and only the at most 3 points of a
    certificate lifted to quaternions."""
    if zs.is_empty():
        raise ValueError("membership in the hull of an empty zero set")
    if not zs.is_points_and_spheres():
        points = [z.point for z in zs.isolated]
        spheres = [s.sphere for s in zs.spheres]
        return lambda q: _membership(q, points, spheres, eps_hull)
    pts2 = planar_points(zs)
    hull = _hull2d(pts2)
    n = len(zs.isolated)
    decided = {}

    def lift(i: int, unit: Quaternion) -> Quaternion:
        x, y = pts2[i].real, pts2[i].imag
        return Quaternion(x) if i < n else Quaternion(x) + y * unit

    def member(q: Quaternion):
        im = q.im_norm()
        unit = imag_unit(q) if im > 0.0 else UNIT_I
        zq = complex(q.w, im)
        if zq not in decided:
            decided[zq] = _member2d(zq, pts2, eps_hull * (1.0 + abs(zq)),
                                    hull)
        res = decided[zq]
        if isinstance(res, Outside):
            return res
        pairs, slack = res
        return HullCertificate(tuple(lift(i, unit) for i, _ in pairs),
                               tuple(w for _, w in pairs), float(slack))
    return member


def hull_membership_4d(q: Quaternion, points: list[Quaternion],
                       eps_hull: float = EPS_HULL):
    """Certificate, with at most five support points, that q is a convex
    combination of the given points, or the exact distance from q to
    their hull. Raises NumericalBreakdown when the collar lies within
    the distance bracket the iteration could reach."""
    if not points:
        raise ValueError("membership in the hull of no points")
    return _membership(q, points, [], eps_hull)
