import dataclasses
import json
import math
import os
import random
import statistics
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
    HullCertificate, Outside, _planar, hull_membership_slice,
)
from qlucas.qpoly import QPoly, restrict_to_slice
from qlucas.quaternion import I, J, K, Quaternion, TwoSphere
from qlucas.tolerances import TAU_FAN, TAU_GAP_REL, ULP
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
    assert out.distance == pytest.approx(1.0, abs=1e-9, rel=0)


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
    assert out.distance == pytest.approx(0.7 - 0.6157, abs=1e-9, rel=0)

    # vertical segment, query off-axis
    pts = [1 + 1j, 1 + 4j, 1 + 2.5j]
    planar_weights(_planar(pts)(1 + 3j, 1e-9), pts, 1 + 3j)
    out = _planar(pts)(1.5 + 3j, 1e-9)
    assert out.distance == pytest.approx(0.5, abs=1e-9, rel=0)


def test_planar_single_point_hull():
    planar_weights(_planar([2 + 1j])(2 + 1j, 1e-9), [2 + 1j], 2 + 1j)
    out = _planar([2 + 1j])(2 + 2j, 1e-9)
    assert out.distance == pytest.approx(1.0, abs=1e-12, rel=0)


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
    assert_sound(hull._membership(p, [p], [], 1e-9), p, 1e-9)
    out = hull._membership(Quaternion(), [p], [], 1e-9)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(p.norm(), abs=1e-9, rel=0)

    a, b = Quaternion(0, 1, 0, 0), Quaternion(0, -1, 0, 0)
    mid = Quaternion(0, 0.2, 0, 0)
    assert_sound(hull._membership(mid, [a, b], [], 1e-9), mid, 1e-9)
    off = Quaternion(0.3, 0.2, 0, 0)
    out = hull._membership(off, [a, b], [], 1e-9)
    assert out.distance == pytest.approx(0.3, abs=1e-9, rel=0)


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
        cert = hull._membership(q, pts, [], 1e-8)
        assert_sound(cert, q, eps)
        # Caratheodory: at most dim + 1 support points
        assert len(cert.points) <= 5


def test_4d_exterior_points_report_distance():
    rng = random.Random(38)
    for _ in range(60):
        pts = [rand_q(rng, 1.0) for _ in range(rng.randint(1, 8))]
        far = Quaternion(10.0, 0, 0, 0)
        out = hull._membership(far, pts, [], 1e-8)
        assert isinstance(out, Outside)
        best = min((far - p).norm() for p in pts)
        assert 8.0 <= out.distance <= best + 1e-9


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
        # the gap the Outside docstring states, with scale 1 + max(|q|, 3)
        gap = TAU_GAP_REL * (1.0 + max(q.norm(), 3.0))
        assert abs(out.distance - want) <= gap
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
        assert b.distance == pytest.approx(a.distance, abs=1e-9, rel=0)


def test_slice_route_takes_tiny_imaginary_parts():
    zs = points_and_spheres([Quaternion(0.0), Quaternion(2.0)], [])
    for t in (1e-12, 1e-10, 2.7e-118):
        q = Quaternion(1.0, 0.0, 0.0, t)
        cert = hull_membership_slice(q, zs, 1e-8)
        assert_sound(cert, q, 1e-8 * (1.0 + q.norm()))
        out = hull_membership_slice(Quaternion(3.0, 0.0, t, t), zs, 1e-8)
        assert out.distance == pytest.approx(1.0, abs=1e-12, rel=0)


def test_dependent_difference_gets_weight_zero():
    # C - A is exactly parallel to B - A, and the last vertex repeats A
    a, b, c = (1.0, -1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0)
    fact = hull._factor([a, b, c, a])
    assert hull._solve(a, fact) == [0.5, 0.5, 0.0, 0.0]
    assert fact[2] == [(0.0, 1.0, 0.0, 0.0)]
    # Wolfe's cycle drops the dependent vertex and keeps the nearest point
    keep, lam, _ = hull._wolfe([a, b, c], [0.5, 0.0, 0.5])
    assert keep == [0, 1] and lam == [0.5, 0.5]


def test_4d_duplicate_vertices_change_nothing():
    # a repeated point, or one shifted by 1e-13, leaves the hull as it was
    rng = random.Random(71)
    for _ in range(60):
        pts = [rand_q(rng, 2.0) for _ in range(rng.randint(1, 6))]
        q = rand_q(rng, 2.5)
        want = hull._membership(q, pts, [], 1e-8)
        for dup in (pts[0], pts[0] + Quaternion(1e-13, -1e-13, 1e-13, 0.0)):
            for more in (pts + [dup], [dup] + pts):
                got = hull._membership(q, more, [], 1e-8)
                assert type(got) is type(want)
                if isinstance(want, Outside):
                    assert got.distance == pytest.approx(want.distance,
                                                         abs=1e-9, rel=0)
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
        hull._membership(rand_q(rng, 2.5), pts, [], 1e-8)
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


_FRESH_IMPORT = """
import io, json, os, sys, sysconfig
from contextlib import redirect_stdout

def mapped():
    # the shared objects the process maps, where /proc shows them
    if not os.path.exists("/proc/self/maps"):
        return set()
    with open("/proc/self/maps") as f:
        return {line.split()[-1] for line in f if ".so" in line}

dynload = os.path.join(sysconfig.get_path("platstdlib"), "lib-dynload")
before = mapped()
import qlucas
out = {"loaded": sorted(p for p in mapped() - before
                        if not p.startswith(dynload)),
       "import": sorted(m for m in ("scipy", "numpy", "ctypes")
                        if m in sys.modules)}
from qlucas.cli import main
quadratic = "[[0,0,1,0],[0,1,0,0],[0.5,0,0,0]]"
for argv in (["verify"], ["analyze"], ["bound"], ["factor", "--slice", "i"],
             ["factor", "--slice", "j"], ["factor", "--slice", "k"]):
    with redirect_stdout(io.StringIO()):
        out[" ".join(argv)] = [main(argv + ["--coeffs", quadratic]),
                               "numpy" in sys.modules]
print(json.dumps(out))
"""


def test_import_leaves_scipy_out():
    """In a fresh interpreter `import qlucas` imports neither scipy nor
    numpy nor ctypes and maps no shared library beyond the standard
    library's own extension modules; verify, analyze, bound and factor
    on the slices i, j and k then run on the README quadratic without
    importing numpy."""
    src = str(Path(qlucas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": [], "import": [],
        "verify": [0, False], "analyze": [0, False], "bound": [0, False],
        "factor --slice i": [0, False], "factor --slice j": [0, False],
        "factor --slice k": [0, False]}


# ---------------------------------------------------------------------------
# the exact 4-d kernel against the plain GJK loop it replaced


def ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def ref_orthogonalize(v, basis):
    v0, v1, v2, v3 = v
    coef = [0.0] * len(basis)
    for _ in range(2):
        for i, (u0, u1, u2, u3) in enumerate(basis):
            c = u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3
            coef[i] += c
            v0, v1, v2, v3 = v0 - c * u0, v1 - c * u1, v2 - c * u2, v3 - c * u3
    return (v0, v1, v2, v3), coef


def ref_affine_min(verts):
    base = b0, b1, b2, b3 = verts[0]
    diffs = [(v0 - b0, v1 - b1, v2 - b2, v3 - b3)
             for v0, v1, v2, v3 in verts[1:]]
    tol = 4.0 * ULP * math.sqrt(max(map(ref_dot, diffs, diffs), default=0.0))
    basis, rcols, kept = [], [], []
    for j, d in enumerate(diffs):
        v, coef = ref_orthogonalize(d, basis)
        r = math.sqrt(ref_dot(v, v))
        if r > tol:
            basis.append((v[0] / r, v[1] / r, v[2] / r, v[3] / r))
            rcols.append(coef + [r])
            kept.append(j)
    mu = [0.0] * len(diffs)
    for i in reversed(range(len(kept))):
        s = sum([rcols[k][i] * mu[kept[k]] for k in range(i + 1, len(kept))])
        mu[kept[i]] = (-ref_dot(basis[i], base) - s) / rcols[i][i]
    return [1.0 - sum(mu)] + mu, basis


def ref_nearest_face(verts, lam):
    keep = list(range(len(verts)))
    while True:
        mu, basis = ref_affine_min([verts[i] for i in keep])
        if min(mu) > 0.0:
            return keep, mu, basis
        t, drop = min((l / (l - m) if l > m else 0.0, i)
                      for i, (l, m) in enumerate(zip(lam, mu)) if m <= 0.0)
        lam = [l + t * (m - l) for l, m in zip(lam, mu)]
        alive = [i for i, l in enumerate(lam) if l > 0.0 and i != drop]
        tot = sum([lam[i] for i in alive])
        keep, lam = [keep[i] for i in alive], [lam[i] / tot for i in alive]


def ref_sphere_support(s, d):
    nv = math.sqrt(d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
    if nv == 0.0:
        return s.representative(I)
    return s.representative(Quaternion(0.0, -d[1] / nv, -d[2] / nv,
                                       -d[3] / nv))


def ref_membership(q, points, spheres, eps_hull, supports=None):
    """hull._membership as it was before the Newton finish and the
    carried factorization: the plain GJK loop on Quaternions, counting
    its support evaluations in supports[0]."""
    supports = [0] if supports is None else supports
    eps = eps_hull * (1.0 + q.norm())
    scale = 1.0 + max([q.norm()] + [p.norm() for p in points]
                      + [math.hypot(s.x, s.y) for s in spheres])
    gap = TAU_GAP_REL * scale

    def shifted(p):
        return (p.w - q.w, p.x - q.x, p.y - q.y, p.z - q.z)

    rel = [shifted(p) for p in points]

    def support(d):
        supports[0] += 1
        best = None
        if rel:
            i = min(range(len(rel)), key=lambda k: ref_dot(rel[k], d))
            best = (ref_dot(rel[i], d), rel[i], points[i])
        for s in spheres:
            p = ref_sphere_support(s, d)
            t = shifted(p)
            val = ref_dot(d, t)
            if best is None or val < best[0]:
                best = (val, t, p)
        return best[1], best[2]

    starts = [(rel[i], points[i]) for i in range(len(rel))]
    for s in spheres:
        p = ref_sphere_support(s, (0.0, -q.x, -q.y, -q.z))
        starts.append((shifted(p), p))
    start = min(starts, key=lambda st: ref_dot(st[0], st[0]))
    verts, origs = [start[0]], [start[1]]
    weights = [1.0]
    x = verts[0]
    nn = ref_dot(x, x)
    lower = -math.inf
    for _ in range(hull._MAX_ITER):
        upper = math.sqrt(nn)
        if upper <= eps:
            cert = HullCertificate(tuple(origs), tuple(weights), 0.0)
            slack = (cert.combination() - q).norm()
            if slack <= eps:
                return dataclasses.replace(cert, slack=slack)
        w, orig = support(x)
        if upper > 0.0:
            lower = max(lower, ref_dot(x, w) / upper)
        if lower > eps and upper - lower <= gap:
            return Outside(upper)
        if len(verts) == 5:
            break
        cand = verts + [w]
        keep, lam, basis = ref_nearest_face(cand, weights + [0.0])
        face = [cand[i] for i in keep]
        x_new = [sum([l * v[c] for l, v in zip(lam, face)]) for c in range(4)]
        if len(keep) == 4:
            k = min(range(4), key=lambda c: sum(u[c] * u[c] for u in basis))
            normal, _ = ref_orthogonalize([float(c == k) for c in range(4)],
                                          basis)
            h = ref_dot(normal, face[0]) / ref_dot(normal, normal)
            x_new = [h * a for a in normal]
        nn_new = ref_dot(x_new, x_new)
        if not nn_new < nn:
            break
        verts, weights, x, nn = face, lam, x_new, nn_new
        origs = [(origs + [orig])[i] for i in keep]
    if lower > eps:
        return Outside(upper)
    raise NumericalBreakdown(
        "hull membership undecided: the collar lies within the distance "
        "bracket", lower=lower, upper=upper, collar=eps, gap=gap)


def problem_scale(q, points, spheres):
    return 1.0 + max([q.norm()] + [p.norm() for p in points]
                     + [math.hypot(s.x, s.y) for s in spheres])


def seeded_hull_queries(seed, count):
    """count (query, points, spheres) of 0-3 points and 1-3 spheres, with
    queries inside, near and outside the hull."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        points = [rand_q(rng, 3.0) for _ in range(rng.randint(0, 3))]
        spheres = [TwoSphere(rng.uniform(-3, 3), rng.uniform(0.2, 3))
                   for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            # a convex combination of zeros, moved off by up to 1
            members = list(points)
            for s in spheres:
                u = rand_q(rng, 1.0)
                u = Quaternion(0.0, u.x, u.y, u.z)
                members.append(Quaternion(s.x) + (s.y / u.norm()) * u)
            w = [rng.random() for _ in members]
            q = Quaternion()
            for wk, pk in zip(w, members):
                q = q + (wk / sum(w)) * pk
            q = q + rng.choice([0.0, 1e-9, 1e-3, 1.0]) * rand_q(rng, 1.0)
        else:
            q = rand_q(rng, 5.0)
        out.append((q, points, spheres))
    return out


def verdict(f, *args, **kw):
    try:
        return f(*args, **kw)
    except NumericalBreakdown as err:
        return ("breakdown", err.info)


def test_kernel_matches_the_plain_gjk_loop():
    outside = inside = 0
    queries = seeded_hull_queries(101, 400) + own_hull_queries(105, 40)
    for q, points, spheres in queries:
        for eps_hull in (1e-8, 1e-6):
            want = verdict(ref_membership, q, points, spheres, eps_hull)
            got = verdict(hull._membership, q, points, spheres, eps_hull)
            assert type(got) is type(want)
            if isinstance(want, Outside):
                outside += 1
                gap = TAU_GAP_REL * problem_scale(q, points, spheres)
                assert abs(got.distance - want.distance) <= gap
            else:
                inside += isinstance(want, HullCertificate)
                assert repr(got) == repr(want)
    assert outside >= 200 and inside >= 200


def own_hull_queries(seed, count):
    """(query, points, spheres) for the critical points of count products
    of 1-3 linear factors and one zero sphere, as in the own-hull
    benchmark."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x, y = rng.uniform(-3, 3), rng.uniform(0.5, 4)
        p = QPoly([x * x + y * y, -2.0 * x, 1.0])
        for _ in range(rng.randint(1, 3)):
            p = p * QPoly([-rand_q(rng, 3.0), Quaternion(1.0)])
        zs, crit = zero_set(p), zero_set(p.derivative())
        points = [z.point for z in zs.isolated]
        spheres = [s.sphere for s in zs.spheres]
        out += [(z.point, points, spheres) for z in crit.isolated]
        out += [(Quaternion(s.sphere.x, s.sphere.y), points, spheres)
                for s in crit.spheres]
    return out


def test_newton_finish_halves_the_support_evaluations():
    calls = [0]
    support = hull._support

    def counted(*args):
        calls[0] += 1
        return support(*args)

    ref_counts, counts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_support", counted)
        for q, points, spheres in own_hull_queries(104, 150):
            ref = [0]
            want = verdict(ref_membership, q, points, spheres, 1e-8, ref)
            if not isinstance(want, Outside):
                continue
            calls[0] = 0
            got = hull._membership(q, points, spheres, 1e-8)
            assert isinstance(got, Outside)
            ref_counts.append(ref[0])
            counts.append(calls[0])
    assert len(counts) >= 40
    assert statistics.median(counts) <= statistics.median(ref_counts) / 2


def test_carried_factorization_is_bit_identical():
    rng = random.Random(103)
    orthogonalize = hull._orthogonalize
    calls = [0]

    def counted(v, basis):
        calls[0] += 1
        return orthogonalize(v, basis)

    reused = refactored = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hull, "_orthogonalize", counted)
        for trial in range(400):
            kind = trial % 4
            scale = 10.0 ** rng.uniform(-150, 133 if kind == 3 else 150)
            verts = [tuple(scale * rng.uniform(-1, 1) for _ in range(4))
                     for _ in range(rng.randint(2, 5))]
            if kind == 1:       # a vertex repeated
                verts.append(rng.choice(verts))
            elif kind == 2:     # a difference parallel to an earlier one
                a, b = verts[0], rng.choice(verts[1:])
                t = rng.uniform(-2, 2)
                verts.append(tuple(ai + t * (bi - ai)
                                   for ai, bi in zip(a, b)))
            elif kind == 3:     # a last difference 1e17 times the others
                verts.append(tuple(1e17 * scale * rng.uniform(-1, 1)
                                   for _ in range(4)))
            carry = hull._factor(verts[:1])
            for k in range(2, len(verts) + 1):
                fresh = hull._factor(verts[:k])
                calls[0] = 0
                step = hull._factor(verts[:k], carry)
                assert repr(step) == repr(fresh)
                if k > 2:
                    # one new difference orthogonalized, or all of them
                    reused += calls[0] == 1
                    refactored += calls[0] == k - 1
                carry = step
    assert reused >= 300 and refactored >= 50


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
    assert out.distance == pytest.approx(0.5, abs=1e-9, rel=0)


def test_slice_membership_with_spheres():
    # zeros: sphere (0, 1); its hull is the unit ball of the imaginary
    # subspace, meeting each slice in the segment between the traces
    zs = make_zero_set([1.0, 0.0, 1.0])
    inside = Quaternion(0, 0.4, 0, 0)
    assert_sound(hull_membership_slice(inside, zs, 1e-9), inside, 1.5e-9)
    rot = Quaternion(0, 0, 0.3, 0.3)
    assert isinstance(hull_membership_slice(rot, zs, 1e-9), HullCertificate)
    out = hull_membership_slice(Quaternion(0, 1.2, 0, 0), zs, 1e-9)
    assert out.distance == pytest.approx(0.2, abs=1e-6, rel=0)
    # nonzero real part leaves the imaginary ball
    off = hull_membership_slice(Quaternion(0.3, 0.4, 0, 0), zs, 1e-9)
    assert isinstance(off, Outside)
    assert off.distance == pytest.approx(0.3, abs=1e-9, rel=0)


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
    assert out.distance == pytest.approx(1.0, abs=1e-9, rel=0)
    member = zs.isolated[0].point
    assert_sound(hull_membership_slice(member, zs, 1e-9), member, 1e-8)


def test_a_barely_nonreal_point_takes_the_4d_route():
    # 1 + 1e-11 i is not real, so the planar route, which would read it
    # as the real point 1 and put q = 1 inside, must not be taken
    zs = points_and_spheres([Quaternion(1.0, 1e-11)], [])
    assert not zs.is_points_and_spheres()
    out = hull_membership_slice(Quaternion(1.0), zs, 1e-14)
    assert isinstance(out, Outside)
    assert out.distance == pytest.approx(1e-11, abs=0, rel=1e-9)
    # -0.0 imaginary parts are real
    assert points_and_spheres([Quaternion(1.0, -0.0, 0.0, -0.0)],
                              []).is_points_and_spheres()


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
            dense = hull._membership(q, pts4, [],
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
    assert od["distance"] == pytest.approx(1.0, abs=1e-9, rel=0)
