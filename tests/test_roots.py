import cmath
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas import roots as roots_mod
from qlucas.quaternion import (
    I, J, K, Quaternion, TwoSphere, is_unit_imaginary, random_unit_imaginary,
)
from qlucas.qpoly import QPoly, sphere_values, star_mul
from qlucas.roots import (
    NumericalBreakdown, classify_sphere, complex_roots, critical_points,
    zero_set,
)


def poly_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def as_multiset(clusters):
    return sorted((round(c.center.real, 6), round(c.center.imag, 6),
                   c.multiplicity) for c in clusters)


def test_simple_real_roots_are_exact():
    cl = complex_roots([6.0, -5.0, 1.0])
    assert as_multiset(cl) == [(2.0, 0.0, 1), (3.0, 0.0, 1)]
    for c in cl:
        assert c.center.imag == 0.0
        assert c.residual <= 1e-12


def test_multiple_roots_recover_full_multiplicity():
    cases = [
        ([1.0], [(2.0, 3)]),                     # (z-2)^3
        ([1.0], [(2.0, 4)]),                     # (z-2)^4
        ([1.0], [(-1.0, 2), (2.0, 3)]),
    ]
    for _, layout in cases:
        roots = []
        for r, m in layout:
            roots += [r] * m
        cl = complex_roots(np.real(poly_from_roots(roots)))
        got = sorted((c.center.real, c.multiplicity) for c in cl)
        want = sorted(layout)
        assert len(got) == len(want)
        for (gz, gm), (wz, wm) in zip(got, want):
            assert gm == wm
            assert abs(gz - wz) <= 1e-8 * (1 + abs(wz))


def test_conjugate_pair_double_root():
    # (z^2 + 1)^2
    cl = complex_roots([1.0, 0.0, 2.0, 0.0, 1.0])
    cs = sorted(((c.center, c.multiplicity) for c in cl),
                key=lambda t: t[0].imag)
    assert len(cs) == 2
    (z1, m1), (z2, m2) = cs
    assert m1 == 2 and m2 == 2
    # exact mirror pairing for real input
    assert z1 == z2.conjugate()
    assert abs(z2 - 1j) <= 1e-9


def test_nearby_but_distinct_roots_stay_separate():
    cl = complex_roots(np.real(poly_from_roots([1.0, 1.0, 1.01])))
    got = sorted((c.multiplicity, round(c.center.real, 4)) for c in cl)
    assert got == [(1, 1.01), (2, 1.0)]


def test_cluster_floor_merges_indistinguishable_roots():
    # separation 1e-7 sits below the clustering resolution
    cl = complex_roots(np.real(poly_from_roots([1.0, 1.0 + 1e-7])))
    assert len(cl) == 1
    assert cl[0].multiplicity == 2


def test_well_separated_roots_never_merge():
    rng = random.Random(17)
    for _ in range(30):
        roots = []
        while len(roots) < 5:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.3 for w in roots):
                roots.append(z)
        cl = complex_roots(poly_from_roots(roots))
        assert sorted(c.multiplicity for c in cl) == [1] * 5
        got = sorted((c.center.real, c.center.imag) for c in cl)
        want = sorted((z.real, z.imag) for z in roots)
        for g, w in zip(got, want):
            assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 1e-7


def test_real_input_roots_are_conjugate_closed():
    rng = random.Random(23)
    for _ in range(60):
        deg = rng.randint(2, 9)
        coeffs = [rng.uniform(-3, 3) for _ in range(deg + 1)]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        cl = complex_roots(coeffs)
        assert sum(c.multiplicity for c in cl) == deg
        centers = {}
        for c in cl:
            centers[(c.center.real, c.center.imag)] = c.multiplicity
        for (re, im), m in centers.items():
            assert centers.get((re, -im)) == m


def test_residuals_and_counts():
    rng = random.Random(29)
    for _ in range(30):
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(rng.randint(1, 6))]
        coeffs = poly_from_roots(roots)
        cl = complex_roots(coeffs)
        assert sum(c.multiplicity for c in cl) == len(roots)
        for c in cl:
            assert isinstance(c.center, complex)
            assert c.residual <= 1e-8


def test_newton_stops_at_the_rounding_noise(monkeypatch):
    # quadratic convergence from 1e-6 away reaches the noise in a few
    # steps; the loop must end there rather than run on to max_iter
    calls = []
    horner = roots_mod.horner

    def counted(coeffs, z):
        calls.append(z)
        return horner(coeffs, z)

    monkeypatch.setattr(roots_mod, "horner", counted)
    rng = random.Random(31)
    for _ in range(100):
        roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for _ in range(6)]
        derivs = roots_mod._derivs(poly_from_roots(roots))
        calls.clear()
        z = roots_mod._newton(derivs, 0, roots[0] + 1e-6)
        assert abs(z - roots[0]) <= 1e-12 * (1.0 + abs(roots[0]))
        assert len(calls) <= 16      # two evaluations per step


# real polynomials from their roots: (root, multiplicity) for real roots,
# and (x, y, multiplicity) for the pairs x +- iy, some of them far from
# the axis and some within 1e-4 of it
real_roots = st.lists(st.tuples(st.floats(-3, 3), st.integers(1, 3)),
                      max_size=3)
pairs = st.lists(st.tuples(st.floats(-3, 3),
                           st.one_of(st.floats(0.2, 3), st.floats(1e-7, 1e-4)),
                           st.integers(1, 2)), max_size=3)


@settings(max_examples=150, deadline=None)
@given(reals=real_roots, conj=pairs)
def test_real_input_closes_under_exact_conjugation(reals, conj):
    roots = []
    for x, m in reals:
        roots += [x] * m
    for x, y, m in conj:
        roots += [complex(x, y), complex(x, -y)] * m
    if not roots:
        roots = [1.0]
    try:
        cl = complex_roots(np.real(poly_from_roots(roots)))
    except NumericalBreakdown:
        return
    found = Counter((c.center, c.multiplicity, c.residual) for c in cl)
    mirrored = Counter((c.center.conjugate(), c.multiplicity, c.residual)
                       for c in cl)
    assert found == mirrored
    for c in cl:
        # a center is on the axis exactly, or clearly off it
        assert (c.center.imag == 0.0
                or abs(c.center.imag) > 1e-12 * (1.0 + abs(c.center)))


@pytest.mark.parametrize("r,k", [(1, 0), (0, 1), (2, 1), (3, 2), (1, 4)])
def test_real_input_polishes_once_per_conjugate_pair(monkeypatch, r, k):
    # well separated simple roots: no cluster merges, so Newton runs only
    # to polish, once per real root and once per conjugate pair
    roots = [-2.5, 0.5, 2.0][:r]
    for x, y in [(1.0, 2.0), (-1.0, 1.0), (2.5, 0.5), (-2.0, 3.0)][:k]:
        roots += [complex(x, y), complex(x, -y)]
    calls = []
    newton = roots_mod._newton

    def counted(*args, **kwargs):
        calls.append(args)
        return newton(*args, **kwargs)

    monkeypatch.setattr(roots_mod, "_newton", counted)
    cl = complex_roots(np.real(poly_from_roots(roots)))
    assert sorted(c.multiplicity for c in cl) == [1] * (r + 2 * k)
    assert len(calls) == r + k


def components_all_pairs(items, radius_rel):
    """_components before its early stop: every pair is tested."""
    n = len(items)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            zi, zj = items[i][0], items[j][0]
            if abs(zi - zj) <= radius_rel * (1.0 + max(abs(zi), abs(zj))):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(items[i])
    return [groups[k] for k in sorted(groups)]


radii = st.sampled_from([2e-2, 2e-3, 2e-4, 2e-5, 1e-6, 0.3, 0.9, 1.0, 2.0])
unit_offsets = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))


@st.composite
def clustered(draw):
    """A few centers with points scattered about each at the scale of
    the radius, so that many pairs sit near the edge threshold."""
    r = draw(radii)
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        c = complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
        for dx, dy in draw(st.lists(unit_offsets, min_size=1, max_size=5)):
            pts.append(c + complex(dx, dy) * r * (1.0 + abs(c)))
    return r, pts


@st.composite
def wide_moduli(draw):
    """Points whose moduli span 16 decades."""
    r = draw(radii)
    polar = st.tuples(st.floats(-8, 8), st.floats(-4, 4))
    pts = [cmath.rect(10.0 ** e, t)
           for e, t in draw(st.lists(polar, max_size=12))]
    return r, pts


@st.composite
def threshold_chains(draw):
    """Points going right along the positive axis, each gap within 1e-6
    of r (1 + x) / (1 - r), the largest gap an edge can span."""
    r = draw(radii.filter(lambda v: v < 1.0))
    x = draw(st.floats(0, 1e3))
    pts = [complex(x, 0.0)]
    for f in draw(st.lists(st.floats(1 - 1e-6, 1 + 1e-6), max_size=6)):
        x += r * (1.0 + x) / (1.0 - r) * f
        pts.append(complex(x, 0.0))
    return r, pts


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(clustered(), wide_moduli(), threshold_chains()))
def test_components_early_stop_keeps_every_edge(case):
    r, pts = case
    items = sorted(([z, i] for i, z in enumerate(pts)),
                   key=lambda it: (it[0].real, it[0].imag))
    assert roots_mod._components(items, r) == components_all_pairs(items, r)


def test_degenerate_inputs_raise():
    with pytest.raises(ValueError):
        complex_roots([])
    with pytest.raises(ValueError):
        complex_roots([0.0, 0.0])
    with pytest.raises(ValueError):
        complex_roots([3.0])


def test_classify_sphere_spherical_vs_isolated():
    # q^2 + 1 vanishes on the whole sphere (0, 1)
    p = QPoly([1.0, 0.0, 1.0])
    kind, pt = classify_sphere(p, TwoSphere(0.0, 1.0))
    assert kind == "spherical" and pt is None

    # (q - i) * (q - j) kills only one point of that sphere
    p = QPoly([-I, Quaternion(1)]) * QPoly([-J, Quaternion(1)])
    kind, pt = classify_sphere(p, TwoSphere(0.0, 1.0))
    assert kind == "isolated"
    assert pt.isclose(I, 1e-10)

    kind, pt = classify_sphere(p, TwoSphere(4.0, 1.0))
    assert kind == "not_a_zero" and pt is None


def power_sum(p, q):
    """P(q) from its definition: iterated powers q^n, a_n on the right."""
    acc = Quaternion()
    power = Quaternion(1.0)
    for a in p.coeffs:
        acc = acc + power * a
        power = power * q
    return acc


def random_factored(rng, deg, r=2.0):
    acc = QPoly([1.0])
    for _ in range(deg):
        a = Quaternion(*(rng.uniform(-r, r) for _ in range(4)))
        acc = acc * QPoly([-a, Quaternion(1)])
    return acc


def test_sphere_residual_is_the_maximum_over_the_sphere():
    rng = random.Random(61)
    for _ in range(40):
        p = random_factored(rng, rng.randint(1, 5))
        s = TwoSphere(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        worst = roots_mod._sphere_residual(p, s)
        scale = p.eval_scale(math.hypot(s.x, s.y))
        # the residual is attained at I = -Im(B A^c) / |Im(B A^c)|
        a, b = sphere_values(p, s.x, s.y)
        v = b * a.conjugate()
        n = v.im_norm()
        top = Quaternion(0.0, -v.x / n, -v.y / n, -v.z / n)
        at_top = power_sum(p, s.representative(top)).norm() / scale
        assert abs(at_top - worst) <= 1e-12 * worst
        for _ in range(200):
            q = s.representative(random_unit_imaginary(rng))
            assert power_sum(p, q).norm() / scale <= worst * (1 + 1e-12)


def classify_by_two_evaluations(p, s, tau_zero=1e-8, tau_unit=1e-10):
    """classify_sphere from P(x + iy) and P(x - iy), as first written:
    a = (P(x+iy) + P(x-iy)) / 2 and b = i (P(x-iy) - P(x+iy)) / 2."""
    va = power_sum(p, Quaternion(s.x, s.y))
    vb = power_sum(p, Quaternion(s.x, -s.y))
    a = (va + vb) / 2.0
    b = (I * (vb - va)) / 2.0
    scale = p.eval_scale(math.hypot(s.x, s.y))
    if a.norm() <= tau_zero * scale and b.norm() <= tau_zero * scale:
        return ("spherical", None)
    if b.norm() > tau_zero * scale:
        k = -(a * b.inverse())
        if is_unit_imaginary(k, tau_unit):
            return ("isolated", s.representative(k))
    return ("not_a_zero", None)


def test_classify_sphere_agrees_with_two_evaluations():
    ring = QPoly([1.0, 0.0, 1.0])
    pair = QPoly([-I, Quaternion(1)]) * QPoly([-J, Quaternion(1)])
    cases = [(ring, TwoSphere(0.0, 1.0)), (pair, TwoSphere(0.0, 1.0)),
             (pair, TwoSphere(4.0, 1.0))]
    rng = random.Random(67)
    for _ in range(40):
        p = random_factored(rng, rng.randint(2, 5))
        for poly in (p, p.derivative(), p * p.conjugate() * p):
            for cl in complex_roots(poly.symmetrize().real_coeffs()):
                if cl.center.imag > 0:
                    cases.append((poly, TwoSphere(cl.center.real,
                                                  cl.center.imag)))
    kinds = set()
    for poly, s in cases:
        kind, pt = classify_sphere(poly, s)
        want, want_pt = classify_by_two_evaluations(poly, s)
        assert kind == want
        if pt is not None:
            assert pt.isclose(want_pt, 1e-9 * (1.0 + pt.norm()))
        kinds.add(kind)
    assert kinds == {"spherical", "isolated", "not_a_zero"}


def test_zero_set_quadratic_with_point_zero():
    p = QPoly([J, I, Quaternion(0.5)])
    zs = zero_set(p)
    assert not zs.spheres
    assert len(zs.isolated) == 1
    z = zs.isolated[0]
    assert z.multiplicity == 2
    assert z.point.isclose(-I - K, 1e-9)
    assert zs.zero_count() == 2
    assert abs(zs.max_modulus() - math.sqrt(2)) <= 1e-9


def test_zero_set_real_polynomial_routes():
    zs = zero_set(QPoly([-1.0, 0.0, 1.0]))
    pts = sorted(z.point.w for z in zs.isolated)
    assert len(zs.spheres) == 0
    assert pts == pytest.approx([-1.0, 1.0], abs=1e-12)

    zs = zero_set(QPoly([2.0, 2.0, 1.0]))
    assert not zs.isolated
    assert len(zs.spheres) == 1
    s = zs.spheres[0].sphere
    assert (s.x, s.y) == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert zs.spheres[0].multiplicity == 1


def test_zero_set_real_matches_generic_route():
    rng = random.Random(41)
    for _ in range(25):
        deg = rng.randint(2, 6)
        coeffs = [rng.uniform(-3, 3) for _ in range(deg)] + [1.0]
        p = QPoly(coeffs)
        direct = zero_set(p)
        # push the same polynomial through the quaternionic route
        sym = zero_set(p.symmetrize())
        assert direct.zero_count() * 2 == sym.zero_count()
        for z in direct.isolated:
            assert any(abs(z.point.w - w.point.w) <= 1e-7
                       for w in sym.isolated)
        for s in direct.spheres:
            assert any(abs(s.sphere.x - t.sphere.x) <= 1e-7
                       and abs(s.sphere.y - t.sphere.y) <= 1e-7
                       for t in sym.spheres)


def test_zero_set_spherical_multiplicity():
    # (q^2 + 1)^2 carries the unit sphere twice
    p = QPoly([1.0, 0.0, 2.0, 0.0, 1.0])
    zs = zero_set(p)
    assert len(zs.spheres) == 1
    assert zs.spheres[0].multiplicity == 2
    assert zs.is_points_and_spheres()
    assert len(zs.points(samples_per_sphere=10)) == 10


def test_zero_set_factored_counting_invariant():
    rng = random.Random(59)
    for _ in range(20):
        deg = rng.randint(2, 5)
        acc = QPoly([1.0])
        for _ in range(deg):
            a = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
            acc = acc * QPoly([-a, Quaternion(1)])
        zs = zero_set(acc)
        assert zs.zero_count() == deg
        for z in zs.isolated:
            scale = acc.eval_scale(z.point.norm())
            assert acc.evaluate(z.point).norm() <= 1e-6 * scale


def test_zero_set_rejects_constants():
    with pytest.raises(ValueError):
        zero_set(QPoly([J]))
    with pytest.raises(ValueError):
        zero_set(QPoly())


def test_zero_set_json_is_serializable():
    p = QPoly([J, I, Quaternion(0.5)])
    d = zero_set(p).to_json_dict()
    blob = json.dumps(d)
    back = json.loads(blob)
    assert back["isolated"][0]["mult"] == 2
    assert len(back["isolated"][0]["q"]) == 4


def test_critical_points_basics():
    p = QPoly([J, I, Quaternion(0.5)])
    cp = critical_points(p)
    assert len(cp.isolated) == 1
    assert cp.isolated[0].point.isclose(-I, 1e-10)

    lin = QPoly([J, Quaternion(1)])
    assert critical_points(lin).is_empty()
