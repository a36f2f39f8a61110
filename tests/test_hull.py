import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qlucas
from qlucas import hull
from qlucas.factorization import (
    check_l_identity, fejer_riesz_factor, slice_symmetrization,
)
from qlucas.hull import (
    HullCertificate, Outside, _planar, hull_membership_4d,
    hull_membership_slice,
)
from qlucas.qpoly import QPoly, restrict_to_slice
from qlucas.quaternion import I, J, K, Quaternion, TwoSphere
from qlucas.tolerances import TAU_FAN
from qlucas.roots import (
    IsolatedZero, NumericalBreakdown, SphereZero, ZeroSet, zero_set,
)


def rand_q(rng, r=2.0):
    return Quaternion(*(rng.uniform(-r, r) for _ in range(4)))


_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def sampled_points(zs, n):
    """The isolated zeros, then n points of each zero sphere [x + Iy] on
    a golden-angle spiral."""
    pts = [z.point for z in zs.isolated]
    for s in zs.spheres:
        x, y = s.sphere
        for k in range(n):
            c = 1.0 - (2.0 * k + 1.0) / n
            r = math.sqrt(max(0.0, 1.0 - c * c))
            th = k * _GOLDEN_ANGLE
            pts.append(Quaternion(x, y * r * math.cos(th),
                                  y * r * math.sin(th), y * c))
    return pts


def planar_weights(res, pts, z):
    """Unpack a planar membership result and check its arithmetic."""
    assert not isinstance(res, Outside)
    pairs, slack = res
    assert all(0.0 <= w <= 1.0 + 1e-12 for _, w in pairs)
    assert abs(sum(w for _, w in pairs) - 1.0) <= 1e-9
    comb = sum(w * pts[i] for i, w in pairs)
    assert abs(comb - z) <= slack + 1e-15
    return slack


def assert_sound(cert, q, tol):
    assert isinstance(cert, HullCertificate)
    assert len(cert.points) == len(cert.weights)
    assert all(w >= -1e-15 for w in cert.weights)
    assert all(w <= 1.0 + 1e-12 for w in cert.weights)
    assert abs(sum(cert.weights) - 1.0) <= 1e-9
    assert (cert.combination() - q).norm() <= cert.slack + 1e-15
    assert cert.slack <= tol
    assert cert.check(q, tol)


# ---------------------------------------------------------------------------
# planar membership


def test_planar_triangle_interior_and_exterior():
    pts = [0j, 4 + 0j, 2 + 3j]
    res = _planar(pts)(2 + 1j, 1e-9)
    assert planar_weights(res, pts, 2 + 1j) <= 1e-9

    out = _planar(pts)(2 - 1j, 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(1.0, abs=1e-9)


def test_planar_vertices_and_edges_are_members():
    pts = [0j, 4 + 0j, 2 + 3j]
    for z in pts + [2 + 0j, 1 + 1.5j]:
        planar_weights(_planar(pts)(z, 1e-9), pts, z)


def test_planar_collinear_points_form_a_segment():
    # interior query against unsorted collinear input
    pts = [0.6157 + 0j, -3.810 + 0j, -2.0 + 0j]
    planar_weights(_planar(pts)(0.3253 + 0j, 1e-9), pts, 0.3253 + 0j)
    out = _planar(pts)(0.7 + 0j, 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(0.7 - 0.6157, abs=1e-9)

    # vertical segment, query off-axis
    pts = [1 + 1j, 1 + 4j, 1 + 2.5j]
    planar_weights(_planar(pts)(1 + 3j, 1e-9), pts, 1 + 3j)
    out = _planar(pts)(1.5 + 3j, 1e-9)
    assert out.distance == pytest.approx(0.5, abs=1e-9)


def test_planar_single_point_hull():
    planar_weights(_planar([2 + 1j])(2 + 1j, 1e-9), [2 + 1j], 2 + 1j)
    out = _planar([2 + 1j])(2 + 2j, 1e-9)
    assert out.distance == pytest.approx(1.0, abs=1e-12)


def test_planar_eps_collar():
    pts = [0j, 2 + 0j]
    eps = 1e-6
    near = 1 + 0.5e-6j
    planar_weights(_planar(pts)(near, eps), pts, near)
    assert isinstance(_planar(pts)(1 + 2e-6j, eps), Outside)


def test_planar_random_certificates_are_sound():
    rng = random.Random(13)
    for _ in range(200):
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
               for _ in range(rng.randint(1, 8))]
        w = [rng.random() for _ in pts]
        tot = sum(w)
        z = sum(wk / tot * pk for wk, pk in zip(w, pts))
        slack = planar_weights(_planar(pts)(z, 1e-8), pts, z)
        assert slack <= 1e-8


def member2d_per_query(z, pts, eps):
    """Planar membership with every constant worked out per query: the
    formulas _planar computes once per point set, written out again."""
    def cross(o, a, b):
        return ((a.real - o.real) * (b.imag - o.imag)
                - (a.imag - o.imag) * (b.real - o.real))

    def project(a, b):
        d = b - a
        den = abs(d) ** 2
        t = 0.0 if den == 0.0 else ((z - a) * d.conjugate()).real / den
        t = min(1.0, max(0.0, t))
        return t, abs(z - (a + t * d))

    hull_ = hull._hull2d(pts)
    h = len(hull_)
    if h == 1:
        d = abs(z - pts[hull_[0]])
        return ([(hull_[0], 1.0)], d) if d <= eps else Outside(d)
    if h > 2 and all(cross(pts[hull_[i]], pts[hull_[(i + 1) % h]], z) >= 0.0
                     for i in range(h)):
        o = pts[hull_[0]]
        for i in range(1, h - 1):
            a, b = pts[hull_[i]], pts[hull_[i + 1]]
            det = cross(o, a, b)
            if det == 0.0:
                continue
            rz = z - o
            u = (rz.real * (b.imag - o.imag)
                 - rz.imag * (b.real - o.real)) / det
            v = ((a.real - o.real) * rz.imag
                 - (a.imag - o.imag) * rz.real) / det
            if u < -TAU_FAN or v < -TAU_FAN or u + v > 1.0 + TAU_FAN:
                continue
            w = [max(0.0, 1.0 - u - v), max(0.0, u), max(0.0, v)]
            tot = sum(w)
            w = [x / tot for x in w]
            comb = w[0] * o + w[1] * a + w[2] * b
            return (list(zip([hull_[0], hull_[i], hull_[i + 1]], w)),
                    abs(comb - z))
    best = None
    for i in range(h if h > 2 else 1):
        t, d = project(pts[hull_[i]], pts[hull_[(i + 1) % h]])
        if best is None or d < best[0]:
            best = (d, i, t)
    d, i, t = best
    if d <= eps:
        return ([(hull_[i], 1.0 - t), (hull_[(i + 1) % h], t)], d)
    return Outside(d)


def test_planar_hull_built_once_answers_as_per_query_formulas():
    rng = random.Random(43)
    for _ in range(300):
        pts = [complex(rng.uniform(-3, 3),
                       rng.choice([0.0, rng.uniform(-3, 3)]))
               for _ in range(rng.randint(1, 9))]
        member = _planar(pts)
        queries = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                   for _ in range(6)]
        # vertices, edge points and points just off an edge
        a, b = rng.choice(pts), rng.choice(pts)
        queries += [a, 0.5 * (a + b), 0.5 * (a + b) + 1e-10j]
        for z in queries:
            for eps in (1e-8, 0.5):
                want = member2d_per_query(z, pts, eps)
                assert repr(member(z, eps)) == repr(want)


# ---------------------------------------------------------------------------
# 4-dimensional membership


def test_4d_singleton_and_pair():
    p = Quaternion(1, 2, 3, 4)
    assert_sound(hull_membership_4d(p, [p], 1e-9), p, 1e-9)
    out = hull_membership_4d(Quaternion(), [p], 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(p.norm(), abs=1e-9)

    a, b = Quaternion(0, 1, 0, 0), Quaternion(0, -1, 0, 0)
    mid = Quaternion(0, 0.2, 0, 0)
    assert_sound(hull_membership_4d(mid, [a, b], 1e-9), mid, 1e-9)
    off = Quaternion(0.3, 0.2, 0, 0)
    out = hull_membership_4d(off, [a, b], 1e-9)
    assert out.distance == pytest.approx(0.3, abs=1e-9)


def test_4d_random_interior_points_certify():
    rng = random.Random(37)
    for _ in range(120):
        pts = [rand_q(rng, 3.0) for _ in range(rng.randint(2, 12))]
        w = [rng.random() for _ in pts]
        tot = sum(w)
        q = Quaternion()
        for wk, pk in zip(w, pts):
            q = q + (wk / tot) * pk
        eps = 1e-8 * (1.0 + q.norm())
        cert = hull_membership_4d(q, pts, 1e-8)
        assert_sound(cert, q, eps)
        # Caratheodory: at most dim + 1 support points
        assert len(cert.points) <= 5


def test_4d_exterior_points_report_distance():
    rng = random.Random(38)
    for _ in range(60):
        pts = [rand_q(rng, 1.0) for _ in range(rng.randint(1, 8))]
        far = Quaternion(10.0, 0, 0, 0)
        out = hull_membership_4d(far, pts, 1e-8)
        assert isinstance(out, Outside)
        best = min((far - p).norm() for p in pts)
        assert 8.0 <= out.distance <= best + 1e-9


def test_4d_empty_input_is_an_error():
    with pytest.raises(ValueError):
        hull_membership_4d(Quaternion(), [], 1e-9)


# ---------------------------------------------------------------------------
# exact membership in the hull of points and whole spheres


def points_and_spheres(points, spheres):
    """Zero set with the given isolated points and spheres (x, y)."""
    return ZeroSet(tuple(IsolatedZero(p, 1, 0.0) for p in points),
                   tuple(SphereZero(TwoSphere(x, y), 1, 0.0)
                         for x, y in spheres),
                   len(points) + 2 * len(spheres))


def test_exact_hull_closed_form_distances():
    # conv of the unit ball of Im H and the point 3k: in the (i, k) plane
    # a disc and an apex, joined by the tangent from (0, 3), which
    # touches the circle at t = (sqrt 8 / 3, 1 / 3)
    zs = points_and_spheres([3.0 * K], [(0.0, 1.0)])
    assert not zs.is_points_and_spheres()
    cone = (2.0 * math.sqrt(8.0) - 1.0) / 3.0     # <(2, 2), t> - 1
    cases = [
        (Quaternion(1.0), 1.0),                    # off the flat, over 0
        (Quaternion(0, 2, 0, 0), 1.0),             # nearest on the ball
        (Quaternion(0, 0, 0, -2), 1.0),
        (Quaternion(0, 0, 0, 4), 1.0),             # nearest at the apex
        (Quaternion(0, 2, 0, 2), cone),            # nearest on the tangent
        (Quaternion(0, 0, -2, 2), cone),           # same, rotated about k
        (Quaternion(0.5, 2, 0, 2), math.hypot(0.5, cone)),
    ]
    for q, want in cases:
        out = hull_membership_slice(q, zs, 1e-9)
        assert isinstance(out, Outside)
        assert out.distance == pytest.approx(want, abs=1e-9)
    for q in (Quaternion(0, 0.3, 0, 0.5), Quaternion(0, 0, 0, 2.9),
              Quaternion(0, 0.6, -0.6, 0.4)):
        assert_sound(hull_membership_slice(q, zs, 1e-9), q,
                     1e-9 * (1.0 + q.norm()))


def test_exact_hull_certificates_use_at_most_five_support_points():
    rng = random.Random(53)
    for _ in range(80):
        points = [rand_q(rng, 3.0) for _ in range(rng.randint(1, 3))]
        spheres = [(rng.uniform(-3, 3), rng.uniform(0.2, 3))
                   for _ in range(rng.randint(1, 3))]
        zs = points_and_spheres(points, spheres)
        # a random convex combination of zeros is a member
        members = list(points)
        for x, y in spheres:
            u = rand_q(rng, 1.0)
            u = Quaternion(0.0, u.x, u.y, u.z)
            members.append(Quaternion(x) + (y / u.norm()) * u)
        w = [rng.random() for _ in members]
        q = Quaternion()
        for wk, pk in zip(w, members):
            q = q + (wk / sum(w)) * pk
        cert = hull_membership_slice(q, zs, 1e-8)
        assert_sound(cert, q, 1e-8 * (1.0 + q.norm()))
        assert len(cert.points) <= 5
        for p in cert.points:
            assert p in points or any(
                abs(p.w - x) <= 1e-12 and abs(p.im_norm() - y) <= 1e-12
                for x, y in spheres)


coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                  allow_infinity=False)
quat4 = st.tuples(coord, coord, coord, coord)


def verdict_or_breakdown(q, zs, eps_hull):
    """The membership verdict, or None for a breakdown, which only a
    distance far below the scale of the problem may cause: there the
    rounding of the nearest point's direction loosens the separating
    plane by more than the collar."""
    try:
        return hull_membership_slice(q, zs, eps_hull)
    except NumericalBreakdown as err:
        scale = 1.0 + max([q.norm()] + [z.point.norm() for z in zs.isolated]
                          + [math.hypot(*s.sphere) for s in zs.spheres])
        assert err.info["upper"] <= 1e-6 * scale
        return None


@settings(max_examples=60, deadline=None)
# a query with |Im q| far below 1e-10 on the slice route
@example(rot=(0, 0, 0, 1), points=[(0, 0, -0.5, 0)], spheres=[],
         query=(0, 0, 0, 2.7041875176007304e-118))
# a bracket left open by a rounded facet direction
@example(rot=(0, 1, 1, 0), points=[(0, 0, 0, 1)], spheres=[(1e-8, 3.0)],
         query=(-1, 0, 2, 0))
@given(rot=quat4.filter(lambda t: math.hypot(*t) > 0.1),
       points=st.lists(quat4, min_size=1, max_size=3),
       spheres=st.lists(st.tuples(coord, st.floats(0.1, 3.0)), max_size=2),
       query=quat4)
def test_exact_hull_is_invariant_under_rotation(rot, points, spheres, query):
    # q -> u q u^-1 rotates Im H and fixes every sphere [x + Iy]
    u = Quaternion(*rot)
    u = u / u.norm()
    points = [Quaternion(*p) + 0.5 * J for p in points]   # keep one non-real
    zs = points_and_spheres(points, spheres)
    turned = points_and_spheres([u * p * u.conjugate() for p in points],
                                spheres)
    q = Quaternion(*query)
    a = verdict_or_breakdown(q, zs, 1e-8)
    b = verdict_or_breakdown(u * q * u.conjugate(), turned, 1e-8)
    if a is None or b is None:
        return
    assert type(a) is type(b)
    if isinstance(a, Outside):
        assert b.distance == pytest.approx(a.distance, abs=1e-9)


def test_slice_route_takes_tiny_imaginary_parts():
    zs = points_and_spheres([Quaternion(0.0), Quaternion(2.0)], [])
    for t in (1e-12, 1e-10, 2.7e-118):
        q = Quaternion(1.0, 0.0, 0.0, t)
        cert = hull_membership_slice(q, zs, 1e-8)
        assert_sound(cert, q, 1e-8 * (1.0 + q.norm()))
        out = hull_membership_slice(Quaternion(3.0, 0.0, t, t), zs, 1e-8)
        assert out.distance == pytest.approx(1.0, abs=1e-12)


def test_dependent_difference_gets_weight_zero():
    # C - A is exactly parallel to B - A, and the last vertex repeats A
    a, b, c = (1.0, -1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)
    mu, basis = hull._affine_min([a, b, c, a])
    assert mu == [0.5, 0.5, 0.0, 0.0]
    assert basis == [(0.0, 1.0, 0.0, 0.0)]
    # Wolfe's cycle drops the dependent vertex and keeps the nearest point
    keep, lam, _ = hull._nearest_face([a, b, c], [0.5, 0.0, 0.5])
    assert keep == [0, 1] and lam == [0.5, 0.5]


def test_4d_duplicate_vertices_change_nothing():
    # a repeated point, or one shifted by 1e-13, leaves the hull as it was
    rng = random.Random(71)
    for _ in range(60):
        pts = [rand_q(rng, 2.0) for _ in range(rng.randint(1, 6))]
        q = rand_q(rng, 2.5)
        want = hull_membership_4d(q, pts, 1e-8)
        for dup in (pts[0], pts[0] + Quaternion(1e-13, -1e-13, 1e-13, 0.0)):
            for more in (pts + [dup], [dup] + pts):
                got = hull_membership_4d(q, more, 1e-8)
                assert type(got) is type(want)
                if isinstance(want, Outside):
                    assert got.distance == pytest.approx(want.distance,
                                                         abs=1e-9)
                else:
                    assert_sound(got, q, 1e-8 * (1.0 + q.norm()))


def test_own_hull_kernels_call_no_small_array_solver(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError("numpy small-array routine in a kernel")

    for mod, name in ((np.linalg, "lstsq"), (np.linalg, "svd"),
                      (npp, "polymul"), (npp, "polyfromroots"),
                      (npp, "polyder")):
        monkeypatch.setattr(mod, name, refuse)
    assert not hasattr(hull, "np")
    rng = random.Random(29)
    for _ in range(20):
        pts = [rand_q(rng, 2.0) for _ in range(rng.randint(1, 6))]
        hull_membership_4d(rand_q(rng, 2.5), pts, 1e-8)
    zs = points_and_spheres([3.0 * K], [(0.0, 1.0)])
    for q in (Quaternion(0, 2, 0, 2), Quaternion(0, 0.3, 0, 0.5)):
        hull_membership_slice(q, zs, 1e-9)
    p = QPoly([J, I, Quaternion(0.5)])
    sp = restrict_to_slice(p, I)
    m = fejer_riesz_factor(slice_symmetrization(sp))
    m.product_coeffs()
    check_l_identity(sp.p1, sp.p2, m.m_coeffs, [0.5, 1j, -1 + 1j])


def test_exact_hull_breaks_down_when_the_iterations_run_out(monkeypatch):
    zs = points_and_spheres([3.0 * K], [(0.0, 1.0)])
    q = Quaternion(0, 0.3, 0, 0.5)           # inside, not at a generator
    monkeypatch.setattr(hull, "_MAX_ITER", 1)
    with pytest.raises(NumericalBreakdown) as err:
        hull_membership_slice(q, zs, 1e-9)
    info = err.value.info
    assert info["lower"] <= info["collar"] < info["upper"]


def test_own_hull_regression_gets_a_certificate():
    # (q - a)(q - b)(q - c)(q^2 - 2xq + x^2 + y^2): the sampled 4-d route
    # reported the critical point near (-2.7534, 0.7777, 0.6392, -1.1271)
    # Outside by 6e-4, but it lies in the hull of the zeros
    coeffs = [
        [-131.94328623724306, 134.00934423630113, 295.16697114359897,
         -538.9300809182621],
        [-86.73924212026103, 199.42658819638223, 478.9087838334055,
         -382.2831817474791],
        [22.87830352319823, 142.4086900796349, 250.20220588505674,
         -73.74373642513258],
        [33.46334861642896, 46.59989399193561, 54.73122346874402,
         4.928471993490982],
        [10.043005466400675, 5.985185841185813, 4.036399813835514,
         1.9773848770084799],
        [1, 0, 0, 0],
    ]
    p = QPoly([Quaternion(*c) for c in coeffs])
    zs = zero_set(p)
    crit = zero_set(p.derivative())
    target = Quaternion(-2.7534, 0.7777, 0.6392, -1.1271)
    q = min((z.point for z in crit.isolated),
            key=lambda z: (z - target).norm())
    assert (q - target).norm() <= 1e-4
    cert = hull_membership_slice(q, zs, 1e-8)
    assert isinstance(cert, HullCertificate)
    assert cert.check(q, 1e-8 * (1.0 + q.norm()))


def test_import_leaves_scipy_out():
    src = str(Path(qlucas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qlucas; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# zero-set membership and the slice reduction


def make_zero_set(coeffs):
    return zero_set(QPoly(coeffs))


def test_slice_membership_on_real_zero_sets():
    zs = make_zero_set([-1.0, 0.0, 1.0])          # zeros -1, 1
    res = hull_membership_slice(Quaternion(0.25), zs, 1e-9)
    assert_sound(res, Quaternion(0.25), 1e-9 * (1 + 0.25))
    out = hull_membership_slice(Quaternion(1.5), zs, 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(0.5, abs=1e-9)


def test_slice_membership_with_spheres():
    # zeros: sphere (0, 1); its hull is the unit ball of the imaginary
    # subspace, meeting each slice in the segment between the traces
    zs = make_zero_set([1.0, 0.0, 1.0])
    inside = Quaternion(0, 0.4, 0, 0)
    assert_sound(hull_membership_slice(inside, zs, 1e-9), inside, 1.5e-9)
    rot = Quaternion(0, 0, 0.3, 0.3)
    assert isinstance(hull_membership_slice(rot, zs, 1e-9), HullCertificate)
    out = hull_membership_slice(Quaternion(0, 1.2, 0, 0), zs, 1e-9)
    assert out.distance == pytest.approx(0.2, abs=1e-6)
    # nonzero real part leaves the imaginary ball
    off = hull_membership_slice(Quaternion(0.3, 0.4, 0, 0), zs, 1e-9)
    assert isinstance(off, Outside)
    assert off.distance == pytest.approx(0.3, abs=1e-9)


def test_slice_membership_empty_zero_set_raises():
    with pytest.raises(ValueError):
        hull_membership_slice(Quaternion(), ZeroSet((), (), 0), 1e-9)


def test_slice_membership_nonreal_points_use_the_full_space():
    # zero set with an off-axis isolated point forces the 4-d route
    p = QPoly([J, I, Quaternion(0.5)])
    zs = zero_set(p)
    assert not zs.is_points_and_spheres()
    v = -I
    out = hull_membership_slice(v, zs, 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(1.0, abs=1e-9)
    member = zs.isolated[0].point
    assert_sound(hull_membership_slice(member, zs, 1e-9), member, 1e-8)


def test_slice_and_4d_routes_agree():
    rng = random.Random(91)
    n_sphere = 200
    for _ in range(100):
        deg = rng.randint(2, 6)
        coeffs = [rng.uniform(-3, 3) for _ in range(deg)] + [1.0]
        zs = make_zero_set(coeffs)
        pts4 = sampled_points(zs, n_sphere)
        # sampling a sphere with n points leaves gaps of order 2 pi y / sqrt(n)
        gap = max((2 * math.pi * s.sphere.y / math.sqrt(n_sphere)
                   for s in zs.spheres), default=0.0)
        for _ in range(5):
            q = rand_q(rng, 3.0)
            q = Quaternion(q.w, q.x, 0.0, 0.0)   # stay on C(i)
            planar = hull_membership_slice(q, zs, 1e-8)
            # divide out the relative scaling so the collar is gap absolute
            dense = hull_membership_4d(q, pts4,
                                       1e-8 + gap / (1.0 + q.norm()))
            if isinstance(planar, HullCertificate):
                # the sampled hull is thinner, never thicker
                if isinstance(dense, Outside):
                    assert dense.distance <= gap + 1e-6
            elif planar.distance > gap + 1e-6:
                assert isinstance(dense, Outside)


def test_certificate_json_shapes():
    zs = make_zero_set([-1.0, 0.0, 1.0])
    cert = hull_membership_slice(Quaternion(0.0), zs, 1e-9)
    d = cert.to_json_dict()
    assert len(d["points"]) == len(d["weights"])
    assert d["slack"] <= 1e-9
    out = hull_membership_slice(Quaternion(2.0), zs, 1e-9)
    od = out.to_json_dict()
    assert od["distance"] == pytest.approx(1.0, abs=1e-9)
