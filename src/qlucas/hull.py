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
vectors in R^4 make numpy's fixed cost per call dominate.

One-ball lemma. Write each zero sphere as x_s + y_s S, with S the unit
sphere of the imaginary 3-space that every sphere spans, and give each
generator g (a point c_g, or a sphere with c_s = x_s) a weight
lam_g >= 0, the weights summing to 1. The hull points that give every
generator its weight, sum_g lam_g z_g over points z_g of the generators
with several points of a sphere allowed, form the ball a + rho B, where
a = sum_g lam_g c_g, rho = sum_s lam_s y_s and B is the unit ball of the
imaginary 3-space. Proof: points of one sphere with total weight lam_s
combine to lam_s x_s + y_s v with v in lam_s B, since conv S = B, and
the balls add, lam B + mu B = (lam + mu) B, as B is convex. Conversely,
a + rho u with |u| <= 1 is reached by putting u, a convex combination
of two points of S, on every sphere. So, with a shifted by -q, the
squared distance from q to the hull is the minimum over the weights of
h(lam) = a_w^2 + (|a_v| - rho)_+^2, a convex function of at most five
weights on a face, smooth where |a_v| > rho.

The GJK loop closes the distance bracket only linearly on a curved
sphere. Once its support plane has proven q outside the collar, the
kernel finishes by Newton's method on h over the weights of the current
face's generators, the generator of the newest support point joined at
weight 0 (_newton). Each iterate is a hull point, so its norm bounds the
distance from above, and the support plane at it bounds it from below.
A Newton step that turns a weight negative, leaves |a_v| <= rho or does
not bring the point nearer falls back to the plain GJK step."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quaternion import Quaternion, TwoSphere, _direction_parts
from .roots import NumericalBreakdown, ZeroSet
from .tolerances import (EPS_HULL, TAU_FAN, TAU_GAP_REL, TAU_WEIGHT,
                         TAU_WEIGHT_SUM, ULP, _check_setting)

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
    verdict is still proven by the plane.

    The 4-d distance is settled after the plane has proven the verdict,
    by Newton's method on the one-ball function of the module
    docstring: the hull points whose generators have weights lam form
    one ball a + rho B of the imaginary 3-space, with
    rho = sum lam_s y_s over the spheres, because every sphere
    [x_s + I y_s] is x_s plus y_s times the one unit sphere of that
    space and balls about 0 add radius to radius. The distance returned
    is the norm of such a hull point, never below the true one."""

    distance: float

    def to_json_dict(self) -> dict:
        return {"distance": self.distance}


# ---------------------------------------------------------------------------
# planar machinery


def _hull2d(pts: list[complex]) -> list[int]:
    """Indices of hull vertices, counter-clockwise (monotone chain). A
    chain drops its last vertex b while the cross product
    (b - a) x (p - a) of its last two vertices, a and b, and the next
    point p is at most 0."""
    keys = [(z.real, z.imag) for z in pts]
    order = sorted(range(len(pts)), key=keys.__getitem__)
    uniq: list[int] = []
    for i in order:
        if not uniq or keys[i] != keys[uniq[-1]]:
            uniq.append(i)
    if len(uniq) <= 2:
        return uniq
    lower: list[int] = []
    upper: list[int] = []
    for chain, seq in ((lower, uniq), (upper, uniq[::-1])):
        for i in seq:
            px, py = keys[i]
            while len(chain) > 1:
                ax, ay = keys[chain[-2]]
                bx, by = keys[chain[-1]]
                if not (bx - ax) * (py - ay) - (by - ay) * (px - ax) <= 0:
                    break
                chain.pop()
            chain.append(i)
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


def _factor(verts, carry=None):
    """QR factorization of the differences verts[k] - verts[0] of
    4-tuples, Gram-Schmidt run twice: (diffs, big, basis, rcols, kept),
    with big the largest squared difference, basis orthonormal, rcols
    the columns of R and kept the indices of the differences they
    factor. A difference whose orthogonal part is within rounding of
    zero, at most 4 ulp of the largest difference (the cutoff of numpy's
    lstsq), is dependent and gets no basis vector.

    carry is the factorization of verts[:-1]. One more difference can
    only raise the cutoff, so a dependent difference stays dependent;
    while every basis vector also stays above it, only the new
    difference is orthogonalized, and the result is bit-identical to a
    fresh factorization."""
    b0, b1, b2, b3 = verts[0]
    start = 0
    if carry is not None:
        diffs, big, basis, rcols, kept = carry
        v0, v1, v2, v3 = verts[-1]
        d = d0, d1, d2, d3 = v0 - b0, v1 - b1, v2 - b2, v3 - b3
        big = max(big, d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3)
        tol = 4.0 * ULP * math.sqrt(big)
        if all(rc[-1] > tol for rc in rcols):
            start = len(diffs)
            diffs = diffs + [d]
            basis, rcols, kept = basis[:], rcols[:], kept[:]
        else:
            carry = None
    if carry is None:
        diffs = [(v0 - b0, v1 - b1, v2 - b2, v3 - b3)
                 for v0, v1, v2, v3 in verts[1:]]
        big = max([d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3
                   for d0, d1, d2, d3 in diffs], default=0.0)
        tol = 4.0 * ULP * math.sqrt(big)
        basis, rcols, kept = [], [], []
    for j in range(start, len(diffs)):
        (v0, v1, v2, v3), coef = _orthogonalize(diffs[j], basis)
        r = math.sqrt(v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3)
        if r > tol:
            basis.append((v0 / r, v1 / r, v2 / r, v3 / r))
            rcols.append(coef + [r])
            kept.append(j)
    return diffs, big, basis, rcols, kept


def _solve(base, fact):
    """Weights, summing to 1, of the point of the affine hull nearest the
    origin, from the factorization of the differences from base: least
    squares R mu = -Q^T base by back substitution, weight 0 on each
    dependent difference, so Wolfe's cycle drops its vertex. Least
    squares on the differences keeps the point accurate when vertices
    nearly coincide, as support points on a sphere do near
    convergence."""
    diffs, _, basis, rcols, kept = fact
    b0, b1, b2, b3 = base
    mu = [0.0] * len(diffs)
    for i in reversed(range(len(kept))):
        s = sum([rcols[k][i] * mu[kept[k]] for k in range(i + 1, len(kept))])
        u0, u1, u2, u3 = basis[i]
        ub = u0 * b0 + u1 * b1 + u2 * b2 + u3 * b3
        mu[kept[i]] = (-ub - s) / rcols[i][i]
    return [1.0 - sum(mu)] + mu


def _wolfe(verts, lam, carry=None):
    """Wolfe's minor cycle (Math. Prog. 11, 1976): from weights lam of
    a point of conv(verts), move toward the nearest point of the affine
    hull of the remaining vertices until a weight reaches zero, and drop
    that vertex, until the nearest point of the affine hull has positive
    weights. It is then the nearest point of conv(verts), and in exact
    arithmetic the remaining vertices are affinely independent, at most
    five in R^4. Returns the indices kept, their weights and the
    factorization of the face they span (see _factor). carry, the
    factorization of verts[:-1], serves the first affine minimum."""
    keep = list(range(len(verts)))
    fact = _factor(verts, carry)
    while True:
        mu = _solve(verts[keep[0]], fact)
        if min(mu) > 0.0:
            return keep, mu, fact
        # the first smallest step lam -> mu that zeroes a weight,
        # lam >= 0 >= mu on the candidates
        t, drop = min((l / (l - m) if l > m else 0.0, i)
                      for i, (l, m) in enumerate(zip(lam, mu)) if m <= 0.0)
        lam = [l + t * (m - l) for l, m in zip(lam, mu)]
        alive = [i for i, l in enumerate(lam) if l > 0.0 and i != drop]
        tot = sum([lam[i] for i in alive])
        keep, lam = [keep[i] for i in alive], [lam[i] / tot for i in alive]
        fact = _factor([verts[i] for i in keep])


def _sphere_point(x, y, u, q):
    """The point x + y u of the sphere [x + Iy] for a unit imaginary
    u = (u1, u2, u3), shifted by -q and as it is: two 4-tuples."""
    o = (x, u[0] * y, u[1] * y, u[2] * y)
    return (x - q[0], o[1] - q[1], o[2] - q[2], o[3] - q[3]), o


def _direction(d1, d2, d3):
    """-d_v / |d_v| for the imaginary part d_v of d, the unit of the
    support point of every sphere in the direction d; i when d_v = 0."""
    nv = math.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
    if nv == 0.0:
        return 1.0, 0.0, 0.0
    return -d1 / nv, -d2 / nv, -d3 / nv


def _support(d, pts, spheres, q):
    """The hull point minimizing <d, .>: its generator's index (points,
    then spheres), and the point shifted by -q and as it is. pts holds
    (shifted, as it is) pairs of 4-tuples, spheres (x, y) pairs; a
    point wins a tie, and so does the earlier generator."""
    d0, d1, d2, d3 = d
    best = None
    for g, (t, o) in enumerate(pts):
        val = t[0] * d0 + t[1] * d1 + t[2] * d2 + t[3] * d3
        if best is None or val < best:
            best, found = val, (g, t, o)
    if spheres:
        u = _direction(d1, d2, d3)
        for g, (x, y) in enumerate(spheres, len(pts)):
            t, o = _sphere_point(x, y, u, q)
            val = d0 * t[0] + d1 * t[1] + d2 * t[2] + d3 * t[3]
            if best is None or val < best:
                best, found = val, (g, t, o)
    return found


def _ball(cen, lam):
    """a = sum lam_g c_g and rho = sum lam_g y_g for generators (c_g, y_g),
    with |Im a|: the hull points of weights lam form the ball a + rho B
    of the imaginary 3-space."""
    a0 = a1 = a2 = a3 = rho = 0.0
    for l, (c0, c1, c2, c3, y) in zip(lam, cen):
        a0 += l * c0
        a1 += l * c1
        a2 += l * c2
        a3 += l * c3
        rho += l * y
    return a0, a1, a2, a3, rho, math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)


def _newton(cen, lam):
    """One Newton step on h(lam) = a_w^2 + (|a_v| - rho)^2, the squared
    distance from the origin to the ball of weights lam (see _ball), over
    the affine hull of the generators cen, shifted by -q: the new
    weights, the nearest hull point x = a - rho a_v / |a_v|, |x|^2 and
    the unit a_v / |a_v|. None when a weight turns negative, when
    |a_v| <= rho before or after the step, where h is not smooth, or
    when the Hessian is singular to rounding.

    With n = a_v / |a_v|, delta = |a_v| - rho and the differences
    (p_j, d_j, e_j) = c_j - c_0 (real part, imaginary part) and
    y_j - y_0, the gradient of h / 2 in the weight of generator j is
    a_w p_j + delta s_j with s_j = <n, d_j> - e_j, and its Hessian is
    p_i p_j + s_i s_j + (delta / |a_v|) (<d_i, d_j> - <n, d_i> <n, d_j>):
    the curvature of |a_v| across n."""
    a0, a1, a2, a3, rho, av = _ball(cen, lam)
    if not av > rho:
        return None
    delta = av - rho
    kappa = delta / av
    n1, n2, n3 = a1 / av, a2 / av, a3 / av
    e0, e1, e2, e3, ey = cen[0]
    cols = []
    for f0, f1, f2, f3, fy in cen[1:]:
        d1, d2, d3 = f1 - e1, f2 - e2, f3 - e3
        nd = n1 * d1 + n2 * d2 + n3 * d3
        cols.append((f0 - e0, nd - (fy - ey), d1, d2, d3, nd))
    m = len(cols)
    # the upper triangle of the Hessian, the gradient on its right, both
    # halved; symmetric Gaussian elimination, as in a Cholesky solve
    rows = [[pi * pj + si * sj
             + kappa * (di1 * dj1 + di2 * dj2 + di3 * dj3 - ti * tj)
             for pj, sj, dj1, dj2, dj3, tj in cols[i:]]
            + [a0 * pi + delta * si]
            for i, (pi, si, di1, di2, di3, ti) in enumerate(cols)]
    tol = 4.0 * ULP * max([row[0] for row in rows], default=0.0)
    for i in range(m):
        ri = rows[i]
        piv = ri[0]
        if not piv > tol:
            return None
        for j in range(i + 1, m):
            f = ri[j - i] / piv
            rj = rows[j]
            for k in range(j, m + 1):
                rj[k - j] -= f * ri[k - i]
    step = [0.0] * m
    for i in reversed(range(m)):
        ri = rows[i]
        step[i] = -(ri[-1] + sum([ri[k - i] * step[k]
                                  for k in range(i + 1, m)])) / ri[0]
    lam = [lam[0] - sum(step)] + [l + s for l, s in zip(lam[1:], step)]
    if min(lam) < 0.0:
        return None
    a0, a1, a2, a3, rho, av = _ball(cen, lam)
    if not av > rho:
        return None
    f = rho / av
    x = (a0, a1 - f * a1, a2 - f * a2, a3 - f * a3)
    return (lam, x, x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3],
            (a1 / av, a2 / av, a3 / av))


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
    as far as double precision lets it close.

    Once the lower bound exceeds the collar the verdict is Outside, and
    only the distance is left to settle. Each step then runs Newton's
    method on the weights of the face's generators (_newton), the
    generator of the new support point joined at weight 0, for as long
    as the weights stay nonnegative and |x| falls, and takes the plain
    step only when the first Newton step fails. The new face has one
    vertex per generator of positive weight, each sphere [x + Iy] at
    its support point x - y n, n the direction of Im x."""
    qn = q.norm()
    eps = eps_hull * (1.0 + qn)
    qt = qw, qx, qy, qz = q.w, q.x, q.y, q.z
    pts = [((p.w - qw, p.x - qx, p.y - qy, p.z - qz), (p.w, p.x, p.y, p.z))
           for p in points]
    sph = [(float(s.x), float(s.y)) for s in spheres]
    gap = cen = None        # needed once Outside is proven

    # start from the generator nearest the query: on a sphere that is
    # the support point in the direction of the shifted centre
    u = _direction(-qx, -qy, -qz)
    best = None
    for g, (t, o) in enumerate(pts + [_sphere_point(x, y, u, qt)
                                      for x, y in sph]):
        tt = t[0] * t[0] + t[1] * t[1] + t[2] * t[2] + t[3] * t[3]
        if best is None or tt < nn:
            best, nn, x, orig = g, tt, t, o
    verts, origs, gens, weights = [x], [orig], [best], [1.0]
    carry = None
    lower = -math.inf
    for _ in range(_MAX_ITER):
        upper = math.sqrt(nn)
        if upper <= eps:
            a0 = a1 = a2 = a3 = 0.0
            for l, (o0, o1, o2, o3) in zip(weights, origs):
                a0 += l * o0
                a1 += l * o1
                a2 += l * o2
                a3 += l * o3
            slack = Quaternion(a0 - qw, a1 - qx, a2 - qy, a3 - qz).norm()
            if slack <= eps:
                return HullCertificate(tuple([Quaternion(*o) for o in origs]),
                                       tuple(weights), slack)
        gw, w, orig = _support(x, pts, sph, qt)
        if upper > 0.0:
            lower = max(lower, (x[0] * w[0] + x[1] * w[1] + x[2] * w[2]
                                + x[3] * w[3]) / upper)
        if lower > eps:
            if gap is None:
                gap = TAU_GAP_REL * _scale(qn, points, spheres)
                # each generator as its shifted centre and radius
                cen = ([t + (0.0,) for t, _ in pts]
                       + [(x - qw, -qx, -qy, -qz, y) for x, y in sph])
            if upper - lower <= gap:
                return Outside(upper)
            ids, lam = [], []
            for g, l in zip(gens + [gw], weights + [0.0]):
                if g in ids:
                    lam[ids.index(g)] += l
                else:
                    ids.append(g)
                    lam.append(l)
            face = [cen[g] for g in ids]
            unit = None
            for _ in range(_MAX_ITER):
                step = _newton(face, lam)
                if step is None or not step[2] < nn:
                    break
                lam, x, nn, unit = step
            if unit is not None:
                n1, n2, n3 = unit
                verts, origs, gens, weights = [], [], [], []
                for g, l, (c0, c1, c2, c3, y) in zip(ids, lam, face):
                    if l > 0.0:
                        verts.append((c0, c1 - y * n1, c2 - y * n2,
                                      c3 - y * n3))
                        origs.append(pts[g][1] if g < len(pts) else
                                     (sph[g - len(pts)][0], -y * n1,
                                      -y * n2, -y * n3))
                        gens.append(g)
                        weights.append(l)
                carry = None
                continue
        if len(verts) == 5:
            break       # a full simplex: x is at the origin up to rounding
        cand = verts + [w]
        keep, lam, fact = _wolfe(cand, weights + [0.0], carry)
        face = [cand[i] for i in keep]
        if len(keep) == 4:
            # on a facet, take the direction of x from the facet normal,
            # which the differences of its vertices fix far more finely
            # than rounding leaves x itself once |x| is small: the axis
            # the facet's basis covers least, orthogonalized against it
            basis = fact[2]
            k = min(range(4), key=lambda c: sum(u[c] * u[c] for u in basis))
            normal, _ = _orthogonalize([float(c == k) for c in range(4)],
                                       basis)
            h = _dot(normal, face[0]) / _dot(normal, normal)
            x_new = [h * a for a in normal]
        else:
            x_new = [sum([l * v[c] for l, v in zip(lam, face)])
                     for c in range(4)]
        nn_new = _dot(x_new, x_new)
        if not nn_new < nn:
            break       # no progress left at this precision
        verts, weights, x, nn, carry = face, lam, x_new, nn_new, fact
        origs.append(orig)
        gens.append(gw)
        origs = [origs[i] for i in keep]
        gens = [gens[i] for i in keep]
    # the bracket closes no further: far below the scale of the problem,
    # rounding in the direction of x bounds how tight the plane can be
    if lower > eps:
        return Outside(upper)
    raise NumericalBreakdown(
        "hull membership undecided: the collar lies within the distance "
        "bracket", lower=lower, upper=upper, collar=eps,
        gap=TAU_GAP_REL * _scale(qn, points, spheres))


def _scale(qn, points, spheres) -> float:
    """1 plus the largest modulus among the query (of norm qn) and the
    zero set: the scale of the stated gap."""
    return 1.0 + max([qn] + [p.norm() for p in points]
                     + [math.hypot(s.x, s.y) for s in spheres])


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
    _check_setting("eps_hull", eps_hull)
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
        uw, ux, uy, uz = _direction_parts(q.x, q.y, q.z)
        pairs, slack = res
        points = []
        for i, _ in pairs:
            x, y = pts2[i].real, pts2[i].imag
            # x + y u, u = imag_direction(q), as Quaternion(x) + y * u
            # adds it
            points.append(Quaternion(x) if i < n else
                          Quaternion(x + y * uw, 0.0 + y * ux,
                                     0.0 + y * uy, 0.0 + y * uz))
        return HullCertificate(tuple(points), tuple([w for _, w in pairs]),
                               float(slack))
    return member
