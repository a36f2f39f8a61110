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
subalgorithm on at most five support points. No sphere is sampled. The
kernel runs on 4-tuples of Python floats, not numpy arrays: at most four
vectors in R^4 make numpy's fixed cost per call dominate."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .quaternion import I as UNIT_I, Quaternion, TwoSphere, imag_direction
from .roots import NumericalBreakdown, ZeroSet
from .tolerances import (EPS_HULL, TAU_FAN, TAU_GAP_REL, TAU_WEIGHT,
                         TAU_WEIGHT_SUM, ULP)

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
        if any(w < -TAU_WEIGHT for w in self.weights):
            return False
        if abs(sum(self.weights) - 1.0) > TAU_WEIGHT_SUM:
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
    true distance from below to within TAU_GAP_REL times 1 plus the
    largest modulus among the query and the zero set. Where the
    distance is many orders of magnitude below that scale, rounding in
    the plane's direction can keep the two bounds further apart; the
    verdict is still proven by the plane."""

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


def planar_points(zs: ZeroSet) -> list[complex]:
    """The real parts of the isolated zeros, then x + iy and x - iy for
    each sphere: the generators of the hull's trace on a slice."""
    pts = [complex(z.point.w, 0.0) for z in zs.isolated]
    for s in zs.spheres:
        pts += [complex(s.sphere.x, s.sphere.y),
                complex(s.sphere.x, -s.sphere.y)]
    return pts


def _planar(pts: list[complex]):
    """(z, eps) -> membership of z in conv(pts) with an eps collar: a
    list of (index, weight) with the slack, or an Outside.

    The hull (_hull2d), its edges and the triangles of the fan from its
    first vertex with their determinants are computed once; a query
    does only its own arithmetic. Inside every edge's half-plane, the
    first fan triangle whose barycentric coordinates are within TAU_FAN
    of [0, 1] gives the certificate; otherwise the nearest projection
    onto an edge covers both the eps collar and tiny float fuzz."""
    hull = _hull2d(pts)
    if len(hull) == 1:
        (only,) = hull
        p = pts[only]

        def point(z: complex, eps: float):
            d = abs(z - p)
            return ([(only, 1.0)], d) if d <= eps else Outside(d)
        return point

    h = len(hull)
    # (start index, end index, start, end - start, its conjugate and
    # squared length); a segment has its one edge
    edges = []
    for k in range(h if h > 2 else 1):
        i, j = hull[k], hull[(k + 1) % h]
        a = pts[i]
        d = pts[j] - a
        edges.append((i, j, a, d, d.conjugate(), abs(d) ** 2))
    # (start, end - start) in floats for the half-plane tests
    sides = [(a.real, a.imag, d.real, d.imag)
             for _, _, a, d, _, _ in edges] if h > 2 else []
    o = pts[hull[0]]
    fan = []
    for k in range(1, h - 1):
        a, b = pts[hull[k]], pts[hull[k + 1]]
        ax, ay = a.real - o.real, a.imag - o.imag
        bx, by = b.real - o.real, b.imag - o.imag
        det = ax * by - ay * bx
        if det != 0.0:
            fan.append((hull[k], hull[k + 1], a, b, ax, ay, bx, by, det))

    def member(z: complex, eps: float):
        zr, zi = z.real, z.imag
        inside = h > 2
        for ar, ai, dr, di in sides:
            if not dr * (zi - ai) - di * (zr - ar) >= 0.0:
                inside = False
                break
        if inside:
            rz = z - o
            for i, j, a, b, ax, ay, bx, by, det in fan:
                u = (rz.real * by - rz.imag * bx) / det
                v = (ax * rz.imag - ay * rz.real) / det
                if u < -TAU_FAN or v < -TAU_FAN or u + v > 1.0 + TAU_FAN:
                    continue
                w = [max(0.0, 1.0 - u - v), max(0.0, u), max(0.0, v)]
                tot = sum(w)
                w = [x / tot for x in w]
                comb = w[0] * o + w[1] * a + w[2] * b
                return (list(zip((hull[0], i, j), w)), abs(comb - z))
        best = None
        for i, j, a, d, dc, den in edges:
            t = 0.0 if den == 0.0 else ((z - a) * dc).real / den
            t = min(1.0, max(0.0, t))
            dist = abs(z - (a + t * d))
            if best is None or dist < best[0]:
                best = (dist, i, j, t)
        dist, i, j, t = best
        if dist <= eps:
            return ([(i, 1.0 - t), (j, t)], dist)
        return Outside(dist)
    return member


# ---------------------------------------------------------------------------
# exact 4-d machinery


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _orthogonalize(v, basis):
    """v minus its projection on the orthonormal basis, Gram-Schmidt run
    twice, and the coefficients removed."""
    v0, v1, v2, v3 = v
    coef = [0.0] * len(basis)
    for _ in range(2):
        for i, (u0, u1, u2, u3) in enumerate(basis):
            c = u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3
            coef[i] += c
            v0, v1, v2, v3 = v0 - c * u0, v1 - c * u1, v2 - c * u2, v3 - c * u3
    return (v0, v1, v2, v3), coef


def _affine_min(verts):
    """Weights, summing to 1, of the point of the affine hull of verts
    (4-tuples) nearest the origin, and an orthonormal basis of the span
    of the differences verts[k] - verts[0].

    Least squares on those differences keeps the point accurate when
    vertices nearly coincide, as support points on a sphere do near
    convergence. It is solved by a QR factorization, Gram-Schmidt run
    twice, and back substitution. A difference whose orthogonal part is
    within rounding of zero, at most 4 ulp of the largest difference (the
    cutoff of numpy's lstsq), is dependent: it gets weight 0 and no basis
    vector, so Wolfe's cycle drops its vertex."""
    base = b0, b1, b2, b3 = verts[0]
    diffs = [(v0 - b0, v1 - b1, v2 - b2, v3 - b3)
             for v0, v1, v2, v3 in verts[1:]]
    tol = 4.0 * ULP * math.sqrt(max(map(_dot, diffs, diffs), default=0.0))
    basis, rcols, kept = [], [], []
    for j, d in enumerate(diffs):
        v, coef = _orthogonalize(d, basis)
        r = math.sqrt(_dot(v, v))
        if r > tol:
            basis.append((v[0] / r, v[1] / r, v[2] / r, v[3] / r))
            rcols.append(coef + [r])
            kept.append(j)
    mu = [0.0] * len(diffs)       # R mu = -Q^T base, back substitution
    for i in reversed(range(len(kept))):
        s = sum([rcols[k][i] * mu[kept[k]] for k in range(i + 1, len(kept))])
        mu[kept[i]] = (-_dot(basis[i], base) - s) / rcols[i][i]
    return [1.0 - sum(mu)] + mu, basis


def _nearest_face(verts, lam):
    """Wolfe's minor cycle (Math. Prog. 11, 1976): from weights lam of
    a point of conv(verts), move toward the nearest point of the affine
    hull of the remaining vertices until a weight reaches zero, and drop
    that vertex, until the nearest point of the affine hull has positive
    weights. It is then the nearest point of conv(verts), and in exact
    arithmetic the remaining vertices are affinely independent, at most
    five in R^4. Returns the indices kept, their weights and the basis
    from _affine_min."""
    keep = list(range(len(verts)))
    while True:
        mu, basis = _affine_min([verts[i] for i in keep])
        if min(mu) > 0.0:
            return keep, mu, basis
        # the first smallest step lam -> mu that zeroes a weight,
        # lam >= 0 >= mu on the candidates
        t, drop = min((l / (l - m) if l > m else 0.0, i)
                      for i, (l, m) in enumerate(zip(lam, mu)) if m <= 0.0)
        lam = [l + t * (m - l) for l, m in zip(lam, mu)]
        alive = [i for i, l in enumerate(lam) if l > 0.0 and i != drop]
        tot = sum([lam[i] for i in alive])
        keep, lam = [keep[i] for i in alive], [lam[i] / tot for i in alive]


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
    gap = TAU_GAP_REL * scale

    def shifted(p: Quaternion) -> tuple:
        return (p.w - q.w, p.x - q.x, p.y - q.y, p.z - q.z)

    rel = [shifted(p) for p in points]

    def support(d):
        """Hull point minimizing <d, .>, shifted and original."""
        best = None
        if rel:
            i = min(range(len(rel)), key=lambda k: _dot(rel[k], d))
            best = (_dot(rel[i], d), rel[i], points[i])
        for s in spheres:
            p = _sphere_support(s, d)
            t = shifted(p)
            val = _dot(d, t)
            if best is None or val < best[0]:
                best = (val, t, p)
        return best[1], best[2]

    # start from the generator nearest the query: on a sphere that is
    # the support point in the direction of the shifted centre
    starts = [(rel[i], points[i]) for i in range(len(rel))]
    for s in spheres:
        p = _sphere_support(s, (0.0, -q.x, -q.y, -q.z))
        starts.append((shifted(p), p))
    start = min(starts, key=lambda st: _dot(st[0], st[0]))
    verts, origs = [start[0]], [start[1]]
    weights = [1.0]
    x = verts[0]
    nn = _dot(x, x)
    lower = -math.inf
    for _ in range(_MAX_ITER):
        upper = math.sqrt(nn)
        if upper <= eps:
            cert = HullCertificate(tuple(origs), tuple(weights), 0.0)
            slack = (cert.combination() - q).norm()
            if slack <= eps:
                return dataclasses.replace(cert, slack=slack)
        w, orig = support(x)
        if upper > 0.0:
            lower = max(lower, _dot(x, w) / upper)
        if lower > eps and upper - lower <= gap:
            return Outside(upper)
        if len(verts) == 5:
            break       # a full simplex: x is at the origin up to rounding
        cand = verts + [w]
        keep, lam, basis = _nearest_face(cand, weights + [0.0])
        face = [cand[i] for i in keep]
        x_new = [sum([l * v[c] for l, v in zip(lam, face)]) for c in range(4)]
        if len(keep) == 4:
            # on a facet, take the direction of x from the facet normal,
            # which the differences of its vertices fix far more finely
            # than rounding leaves x itself once |x| is small: the axis
            # the facet's basis covers least, orthogonalized against it
            k = min(range(4), key=lambda c: sum(u[c] * u[c] for u in basis))
            normal, _ = _orthogonalize([float(c == k) for c in range(4)],
                                       basis)
            h = _dot(normal, face[0]) / _dot(normal, normal)
            x_new = [h * a for a in normal]
        nn_new = _dot(x_new, x_new)
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
    built once and only the at most 3 points of a certificate lifted to
    quaternions."""
    if zs.is_empty():
        raise ValueError("membership in the hull of an empty zero set")
    if not zs.is_points_and_spheres():
        points = [z.point for z in zs.isolated]
        spheres = [s.sphere for s in zs.spheres]
        return lambda q: _membership(q, points, spheres, eps_hull)
    pts2 = planar_points(zs)
    planar = _planar(pts2)
    n = len(zs.isolated)

    def member(q: Quaternion):
        zq = complex(q.w, q.im_norm())
        res = planar(zq, eps_hull * (1.0 + abs(zq)))
        if isinstance(res, Outside):
            return res
        u = imag_direction(q)
        pairs, slack = res
        points = []
        for i, _ in pairs:
            x, y = pts2[i].real, pts2[i].imag
            # x + y u, as Quaternion(x) + y * u adds it
            points.append(Quaternion(x) if i < n else
                          Quaternion(x + y * u.w, 0.0 + y * u.x,
                                     0.0 + y * u.y, 0.0 + y * u.z))
        return HullCertificate(tuple(points), tuple([w for _, w in pairs]),
                               float(slack))
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
