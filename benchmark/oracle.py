"""Independent checker for the program's answers.

Uses only the benchmark's own quaternion arithmetic and numpy: no
function of qlucas is called, only the attributes of its result objects
are read. Each check returns a list of problems; an empty list means the
answer is accepted.

Tolerance bands are never tighter than the library's own:
- a reported zero must have a relative residual of at most 1e-6 under
  the scale sum |a_n| (1 + |q|)^n, against the library's 1e-8;
- an Outside verdict stands unless the oracle finds the query within
  half the library's collar of the hull.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import qconv, qmul

RESIDUAL_TOL = 1e-6
WEIGHT_TOL = 1e-12
SUM_TOL = 1e-9
FACTOR_TOL = 1e-6
# the library's 4-d route samples each zero sphere at this many points
# on a golden-angle spiral; the oracle rebuilds the same point set
SPHERE_SAMPLES = 200

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_S2 = 1.0 / math.sqrt(2.0)
_S3 = 1.0 / math.sqrt(3.0)
_UNITS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
          (_S3, -_S3, _S3), (0.0, _S2, _S2))


def quat(q) -> tuple:
    return (q.w, q.x, q.y, q.z)


def as_quats(coeffs) -> list:
    """Benchmark input (numbers or [w, x, y, z] lists) as 4-tuples."""
    return [tuple(c) if isinstance(c, list) else (float(c), 0.0, 0.0, 0.0)
            for c in coeffs]


def qnorm(q) -> float:
    return math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])


def derivative(p) -> list:
    return [tuple(n * v for v in a) for n, a in enumerate(p) if n >= 1]


def symmetrization(p) -> list:
    """P^s = P * P^c with the benchmark's own star product."""
    return qconv(p, [(a[0], -a[1], -a[2], -a[3]) for a in p])


def evaluate(p, q) -> tuple:
    """P(q) = a_0 + q (a_1 + q (a_2 + ...)) for right coefficients."""
    acc = p[-1]
    for a in reversed(p[:-1]):
        m = qmul(q, acc)
        acc = (a[0] + m[0], a[1] + m[1], a[2] + m[2], a[3] + m[3])
    return acc


class Poly:
    """Coefficient list with the coefficient norms of its residual scale."""

    def __init__(self, coeffs):
        self.coeffs = coeffs
        self.norms = [qnorm(a) for a in coeffs]
        self.degree = len(coeffs) - 1

    def residual(self, q) -> float:
        """|P(q)| / sum |a_n| (1 + |q|)^n."""
        base = 1.0 + qnorm(q)
        scale = 0.0
        power = 1.0
        for n in self.norms:
            scale += n * power
            power *= base
        return qnorm(evaluate(self.coeffs, q)) / scale


def on_sphere(x: float, y: float, u) -> tuple:
    return (x, y * u[0], y * u[1], y * u[2])


def sphere_samples(x: float, y: float, n: int = SPHERE_SAMPLES) -> list:
    out = []
    for k in range(n):
        c = 1.0 - (2.0 * k + 1.0) / n
        r = math.sqrt(max(0.0, 1.0 - c * c))
        th = k * _GOLDEN_ANGLE
        out.append((x, y * r * math.cos(th), y * r * math.sin(th), y * c))
    return out


# ---------------------------------------------------------------------------
# distance to a convex hull


def _affine_min(sub: np.ndarray) -> np.ndarray:
    """Weights summing to 1 of the minimum-norm point of the affine hull
    of the rows of sub."""
    k = len(sub)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = sub @ sub.T
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]


def hull_distance(points, query) -> float:
    """Lower bound on the distance from query to conv(points), tight at
    the optimum: Wolfe's minimum-norm-point algorithm (Math. Prog. 11,
    1976) on the translated points, then the separating direction of
    the final iterate. Zero when the query is inside."""
    pts = np.asarray(points, dtype=float) - np.asarray(query, dtype=float)
    sq = np.einsum("ij,ij->i", pts, pts)
    scale = max(1.0, float(sq.max()))
    active = [int(np.argmin(sq))]
    lam = np.ones(1)
    x = pts[active[0]]
    for _ in range(100):
        dots = pts @ x
        j = int(np.argmin(dots))
        if j in active or float(x @ x) - float(dots[j]) <= 1e-13 * scale:
            break
        active.append(j)
        lam = np.append(lam, 0.0)
        while True:
            mu = _affine_min(pts[active])
            if np.all(mu > 1e-14):
                lam = mu
                break
            # move from lam toward mu until the first weight reaches zero,
            # then drop that point
            down = np.flatnonzero(mu <= 1e-14)
            den = lam[down] - mu[down]
            ratio = np.where(den > 0.0, lam[down] / np.where(den > 0.0, den,
                                                             1.0), 0.0)
            i = int(np.argmin(ratio))
            lam = lam + ratio[i] * (mu - lam)
            keep = lam > 1e-14
            keep[down[i]] = False
            active = [a for a, kp in zip(active, keep) if kp]
            lam = lam[keep] / lam[keep].sum()
        x = lam @ pts[active]
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return 0.0
    # every point satisfies <p, x/|x|> >= min, so the query is at least
    # that far from the hull whatever x is
    return max(0.0, float(np.min(pts @ x)) / nx)


# ---------------------------------------------------------------------------
# answer checks


def check_zero_set(zs, poly, label: str, real_poly: bool = False) -> list:
    """Residuals of every reported zero (several points of each sphere)
    and the multiplicity count against the degree of poly."""
    problems = []
    degree = poly.degree
    count = (sum(z.multiplicity for z in zs.isolated)
             + 2 * sum(s.multiplicity for s in zs.spheres))
    if count != degree:
        problems.append(f"{label}: multiplicities sum to {count}, "
                        f"degree is {degree}")
    for z in zs.isolated:
        q = quat(z.point)
        r = poly.residual(q)
        if not r <= RESIDUAL_TOL:
            problems.append(f"{label}: point {q} has residual {r:.3g}")
        if real_poly and math.hypot(q[1], q[2], q[3]) > 1e-9 * (1.0 + qnorm(q)):
            problems.append(f"{label}: non-real isolated zero {q} of a "
                            f"real polynomial")
    # |P(x + I y)| does not depend on I when P is real, so one point of
    # each sphere decides there
    units = _UNITS[:1] if real_poly else _UNITS
    for s in zs.spheres:
        x, y = s.sphere.x, s.sphere.y
        if not y > 0.0:
            problems.append(f"{label}: sphere ({x}, {y}) has no radius")
        for u in units:
            r = poly.residual(on_sphere(x, y, u))
            if not r <= RESIDUAL_TOL:
                problems.append(f"{label}: sphere ({x}, {y}) has residual "
                                f"{r:.3g} along {u}")
                break
    return problems


def check_certificate(cert, query, hull_poly, collar: float) -> list:
    """Weights >= 0 summing to 1, points that are zeros of hull_poly, and
    a combination within the collar of the query."""
    problems = []
    w = list(cert.weights)
    pts = [quat(p) for p in cert.points]
    if len(w) != len(pts) or not w:
        return [f"certificate has {len(w)} weights for {len(pts)} points"]
    if min(w) < -WEIGHT_TOL:
        problems.append(f"certificate has negative weight {min(w):.3g}")
    if not abs(sum(w) - 1.0) <= SUM_TOL:
        problems.append(f"certificate weights sum to {sum(w)!r}")
    for p in pts:
        r = hull_poly.residual(p)
        if not r <= RESIDUAL_TOL:
            problems.append(f"certificate point {p} is not a zero "
                            f"(residual {r:.3g})")
    comb = np.asarray(w) @ np.asarray(pts)
    gap = float(np.linalg.norm(comb - np.asarray(query)))
    if not gap <= collar + 1e-12 * (1.0 + qnorm(query)):
        problems.append(f"certificate misses the query by {gap:.3g}, "
                        f"collar {collar:.3g}")
    return problems


def _planar_points(zs) -> np.ndarray:
    """Trace of a rotation-invariant zero set on the half-plane
    (Re q, |Im q|) and its mirror image."""
    pts = []
    for z in zs.isolated:
        q = quat(z.point)
        pts.append((q[0], math.hypot(q[1], q[2], q[3])))
    for s in zs.spheres:
        pts.append((s.sphere.x, s.sphere.y))
        pts.append((s.sphere.x, -s.sphere.y))
    return np.array(pts)


def _four_d_points(zs) -> np.ndarray:
    pts = [quat(z.point) for z in zs.isolated]
    for s in zs.spheres:
        pts.extend(sphere_samples(s.sphere.x, s.sphere.y))
    return np.array(pts)


def check_membership(res, query, zs, hull_poly, eps_hull: float,
                     planar: bool) -> list:
    """One hull verdict for query against conv of the zero set zs of
    hull_poly. planar: zs is rotation invariant, so the distance is
    taken exactly in the plane (Re q, |Im q|); otherwise against the
    4-d sample set the library's sampled route uses."""
    collar = eps_hull * (1.0 + qnorm(query))
    if getattr(res, "weights", None) is not None:
        return check_certificate(res, query, hull_poly, collar)
    if planar:
        d = hull_distance(_planar_points(zs),
                          (query[0], math.hypot(query[1], query[2],
                                                query[3])))
    else:
        d = hull_distance(_four_d_points(zs), query)
    if not d > 0.5 * collar:
        return [f"Outside for {query} but the oracle puts it within "
                f"{d:.3g} of the hull, collar {collar:.3g}"]
    return []


def check_report(report, coeffs, real_case: bool) -> list:
    """A GLReport from verify_gauss_lucas (hull of the zeros of P^s) or
    verify_real_case (hull of the zeros of P), for the input coeffs."""
    p = as_quats(coeffs)
    hull_poly = Poly(p if real_case else symmetrization(p))
    crit_poly = Poly(derivative(p))
    problems = check_zero_set(report.zeros, hull_poly, "zeros",
                              real_poly=True)
    problems += check_zero_set(report.critical, crit_poly, "critical")
    inside = True
    for c in report.checks:
        q = quat(c.point)
        if not crit_poly.residual(q) <= RESIDUAL_TOL:
            problems.append(f"checked point {q} is not a critical point")
        res = c.certificate if c.certificate is not None else c.violation
        inside = inside and c.certificate is not None
        problems += check_membership(res, q, report.zeros, hull_poly,
                                     report.eps_hull, planar=True)
    checked = [quat(c.point) for c in report.checks]
    for z in report.critical.isolated:
        if quat(z.point) not in checked:
            problems.append(f"critical point {quat(z.point)} not checked")
    for s in report.critical.spheres:
        if not any(abs(q[0] - s.sphere.x) <= 1e-9 * (1.0 + abs(s.sphere.x))
                   and abs(math.hypot(q[1], q[2], q[3]) - s.sphere.y)
                   <= 1e-9 * (1.0 + s.sphere.y) for q in checked):
            problems.append(f"critical sphere ({s.sphere.x}, "
                            f"{s.sphere.y}) not checked")
    if report.verified != inside:
        problems.append(f"verdict {report.verified} disagrees with the "
                        f"checks (all inside: {inside})")
    if real_case and not report.verified:
        problems.append("real-coefficient verdict is not verified")
    return problems


def _cconv(a, b) -> np.ndarray:
    return np.convolve(np.asarray(a, dtype=complex),
                       np.asarray(b, dtype=complex))


def _cval(c, z) -> complex:
    acc = 0j
    for a in reversed(list(c)):
        acc = acc * z + a
    return acc


def _cder(c) -> list:
    return [n * a for n, a in enumerate(c) if n >= 1] or [0j]


def _l_identity_ratios(p1, p2, m, samples) -> list:
    """|z L(z) - z M'(z) conj M(conj z)| over the magnitude scale of its
    terms, at each sample: the quantity check_l_identity thresholds."""
    d1, d2, dm = _cder(p1), _cder(p2), _cder(m)
    c1, c2, cm = ([a.conjugate() for a in v] for v in (p1, p2, m))

    def mag(c, r):
        base = max(1.0, r)
        return sum(abs(a) * base ** n for n, a in enumerate(c))

    out = []
    for z in samples:
        r = abs(z)
        lhs = z * (_cval(d1, z) * _cval(c1, z) + _cval(d2, z) * _cval(c2, z))
        rhs = z * _cval(dm, z) * _cval(cm, z)
        scale = 1.0 + r * (mag(d1, r) * mag(p1, r) + mag(d2, r) * mag(p2, r)
                           + mag(dm, r) * mag(m, r))
        out.append(abs(lhs - rhs) / scale)
    return out


def check_factor(unit, p, ps, slice_out, samples, rel_tol: float) -> list:
    """Slice split, slice symmetrization, Fejer-Riesz factor and the
    sampled identity flag on the slice C(unit)."""
    sp, q_coeffs, fac, identity = slice_out
    problems = []
    ui, uj = quat(sp.unit_i), quat(sp.unit_j)
    if max(abs(a - b) for a, b in zip(ui, (0.0,) + tuple(unit))) > 1e-12:
        problems.append(f"slice unit {ui} is not the requested {unit}")
    if (uj[0] != 0.0 or abs(qnorm(uj) - 1.0) > 1e-9
            or abs(ui[1] * uj[1] + ui[2] * uj[2] + ui[3] * uj[3]) > 1e-9):
        problems.append(f"slice J {uj} is not a unit orthogonal to I")
    # a_n = alpha_n + beta_n J with alpha, beta on the slice C(I)
    rebuilt = []
    for a, b in zip(sp.p1, sp.p2):
        e2 = qmul((b.real, b.imag * ui[1], b.imag * ui[2], b.imag * ui[3]),
                  uj)
        rebuilt.append((a.real + e2[0], a.imag * ui[1] + e2[1],
                        a.imag * ui[2] + e2[2], a.imag * ui[3] + e2[3]))
    top_p = max(qnorm(a) for a in p)
    if len(rebuilt) != len(p) or max(
            qnorm(tuple(x - y for x, y in zip(a, b)))
            for a, b in zip(rebuilt, p)) > 1e-12 * (1.0 + top_p):
        problems.append(f"slice split along {unit} does not rebuild P")
    q = np.asarray(q_coeffs, dtype=float)
    want = np.array([c[0] for c in ps])
    top = float(np.max(np.abs(want)))
    if q.shape != want.shape or float(np.max(np.abs(q - want))) > 1e-9 * top:
        problems.append(f"slice symmetrization along {unit} differs "
                        f"from P^s")
    m = np.asarray(fac.m_coeffs, dtype=complex)
    if 2 * (m.size - 1) != want.size - 1:
        problems.append(f"factor has degree {m.size - 1} for P^s of degree "
                        f"{want.size - 1}")
    elif float(np.max(np.abs(_cconv(m, np.conj(m)) - want))) > \
            FACTOR_TOL * (1.0 + top):
        problems.append(f"M conj(M) along {unit} does not reproduce P^s")
    ratios = _l_identity_ratios(list(sp.p1), list(sp.p2), list(m), samples)
    if identity and max(ratios) > 10.0 * rel_tol:
        problems.append(f"identity reported to hold but misses by "
                        f"{max(ratios):.3g}")
    if not identity and max(ratios) < 0.1 * rel_tol:
        problems.append(f"identity reported to fail but holds to "
                        f"{max(ratios):.3g}")
    return problems


def check_own_hull(out, coeffs, eps_hull: float, samples,
                   rel_tol: float) -> list:
    """The five-step own-hull pipeline: zeros of P, critical points,
    their hull verdicts against conv Z(P), the modulus bound and the
    factor pipeline on three slices."""
    p = as_quats(coeffs)
    poly = Poly(p)
    zs, crit = out["zeros"], out["critical"]
    problems = check_zero_set(zs, poly, "zeros")
    problems += check_zero_set(crit, Poly(derivative(p)), "critical")
    for query, res in out["hull"]:
        problems += check_membership(res, query, zs, poly, eps_hull,
                                     planar=False)
    radius = max([qnorm(quat(z.point)) for z in zs.isolated]
                 + [math.hypot(s.sphere.x, s.sphere.y) for s in zs.spheres])
    if not 0.0 < out["bound"] <= radius * (1.0 + 1e-6):
        problems.append(f"modulus bound {out['bound']!r} is not in "
                        f"(0, {radius!r}]")
    ps = symmetrization(p)
    for unit, slice_out in out["factor"]:
        problems += check_factor(unit, p, ps, slice_out, samples, rel_tol)
    return problems
