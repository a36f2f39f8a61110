import cmath
import ctypes
import json
import math
import random
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas import roots as roots_mod
from qlucas.quaternion import (
    I, J, K, Quaternion, TwoSphere, is_unit_imaginary, random_unit_imaginary,
)
from qlucas.qpoly import QPoly, horner, trim_rel
from qlucas.roots import NumericalBreakdown, critical_points, zero_set


def poly_from_roots(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def real_from_roots(roots):
    """The float coefficients of the monic polynomial with these roots,
    each non-real one with its conjugate."""
    return np.real(poly_from_roots(roots)).tolist()


def with_conjugates(roots):
    return roots + [z.conjugate() for z in roots]


@dataclass(frozen=True)
class RootCluster:
    """One cluster of the full root list, printed as the golden file
    records it."""
    center: complex
    multiplicity: int
    residual: float


def mirrored(upper):
    """All clusters of a real polynomial from those on the closed upper
    half-plane, sorted by _order: each off-axis one with its conjugate.
    The sort is stable, so the list is the one that sorting every
    cluster in the order polishing found them gives."""
    out = []
    for cl in upper:
        out.append(cl)
        z, m, res = cl
        if z.imag:
            out.append((z.conjugate(), m, res))
    return sorted(out, key=roots_mod._order)


def all_roots(coeffs):
    """Every root cluster as a RootCluster, sorted by _order: those of
    _root_clusters, mirrored."""
    found = roots_mod._root_clusters(coeffs)
    return [RootCluster(*cl) for cl in mirrored(found)]


def upper_centers(coeffs):
    """The centers of _root_clusters above the real axis."""
    return [z for z, _, _ in roots_mod._root_clusters(coeffs) if z.imag > 0]


def sphere_values(p, x, y):
    """(A, B) with P(x + I y) = A + I B, from _sphere_parts."""
    v = roots_mod._sphere_parts(p.parts, x, y)
    return Quaternion(*v[:4]), Quaternion(*v[4:])


def classify(p, s, tau_zero=1e-8):
    """_classify on the sphere s, y > 0, as zero_set calls it."""
    parts = roots_mod._sphere_parts(p.parts, s.x, s.y)
    return roots_mod._classify(p, s.x, s.y, parts, tau_zero)


def as_multiset(clusters):
    return sorted((round(c.center.real, 6), round(c.center.imag, 6),
                   c.multiplicity) for c in clusters)


def test_simple_real_roots_are_exact():
    cl = all_roots([6.0, -5.0, 1.0])
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
        cl = all_roots(real_from_roots(roots))
        got = sorted((c.center.real, c.multiplicity) for c in cl)
        want = sorted(layout)
        assert len(got) == len(want)
        for (gz, gm), (wz, wm) in zip(got, want):
            assert gm == wm
            assert abs(gz - wz) <= 1e-8 * (1 + abs(wz))


def test_conjugate_pair_double_root():
    # (z^2 + 1)^2
    cl = all_roots([1.0, 0.0, 2.0, 0.0, 1.0])
    cs = sorted(((c.center, c.multiplicity) for c in cl),
                key=lambda t: t[0].imag)
    assert len(cs) == 2
    (z1, m1), (z2, m2) = cs
    assert m1 == 2 and m2 == 2
    # exact mirror pairing for real input
    assert z1 == z2.conjugate()
    assert abs(z2 - 1j) <= 1e-9


def test_nearby_but_distinct_roots_stay_separate():
    cl = all_roots(real_from_roots([1.0, 1.0, 1.01]))
    got = sorted((c.multiplicity, round(c.center.real, 4)) for c in cl)
    assert got == [(1, 1.01), (2, 1.0)]


def test_cluster_floor_merges_indistinguishable_roots():
    # separation 1e-7 sits below the clustering resolution
    cl = all_roots(real_from_roots([1.0, 1.0 + 1e-7]))
    assert len(cl) == 1
    assert cl[0].multiplicity == 2


def test_well_separated_roots_never_merge():
    rng = random.Random(17)
    for _ in range(30):
        roots = []
        while len(roots) < 10:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if all(abs(z - w) > 0.3 for w in roots + [z.conjugate()]):
                roots += [z, z.conjugate()]
        cl = all_roots(real_from_roots(roots))
        assert sorted(c.multiplicity for c in cl) == [1] * 10
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
        cl = all_roots(coeffs)
        assert sum(c.multiplicity for c in cl) == deg
        centers = {}
        for c in cl:
            centers[(c.center.real, c.center.imag)] = c.multiplicity
        for (re, im), m in centers.items():
            assert centers.get((re, -im)) == m


def test_residuals_and_counts():
    rng = random.Random(29)
    for _ in range(30):
        roots = with_conjugates([complex(rng.uniform(-2, 2),
                                         rng.uniform(-2, 2))
                                 for _ in range(rng.randint(1, 6))])
        cl = all_roots(real_from_roots(roots))
        assert sum(c.multiplicity for c in cl) == len(roots)
        for c in cl:
            assert isinstance(c.center, complex)
            assert c.residual <= 1e-8


def test_newton_stops_at_the_rounding_noise():
    # quadratic convergence from 1e-6 away reaches the noise in a few
    # steps; the loop must end there rather than run on to max_iter
    steps = []

    class Start(complex):
        """A start point whose Newton updates z - step are counted; the
        closing z - z0 subtracts a Start and is not a step."""

        def __sub__(self, other):
            if not isinstance(other, Start):
                steps.append(other)
            return Start(complex(self) - other)

    rng = random.Random(31)
    for _ in range(100):
        roots = with_conjugates([complex(rng.uniform(-3, 3),
                                         rng.uniform(-3, 3))
                                 for _ in range(6)])
        derivs = roots_mod._derivs(real_from_roots(roots))
        steps.clear()
        z = complex(roots_mod._newton(derivs, 0, Start(roots[0] + 1e-6)))
        assert 1 <= len(steps) <= 8
        assert abs(z - roots[0]) <= 1e-12 * (1.0 + abs(roots[0]))


def newton_two_horner_passes(derivs, order, z0):
    """_newton with d and d' evaluated by two horner calls per step: the
    reference that the fused pass must match bit for bit."""
    d, dp = derivs[order], derivs[order + 1]
    z = z0
    last = math.inf
    for _ in range(80):
        fp = horner(dp, z)
        if fp == 0:
            break
        step = horner(d, z) / fp
        if abs(step) >= last:
            break
        z = z - step
        if abs(step) <= 2.0 ** -52 * abs(z):
            break
        last = abs(step)
    if not (abs(z - z0) <= 0.1 * (1.0 + abs(z0))):
        return z0
    return z


def test_fused_newton_pass_matches_two_horner_passes():
    rng = random.Random(37)
    for _ in range(200):
        roots = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                 for _ in range(rng.randint(1, 8))]
        roots = (with_conjugates(roots) if rng.random() < 0.5
                 else [r.real for r in roots])
        coeffs = real_from_roots(roots)
        derivs = roots_mod._derivs(coeffs)
        for order in range(len(coeffs) - 1):
            z0 = roots[0] + complex(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3))
            want = newton_two_horner_passes(derivs, order, z0)
            assert repr(roots_mod._newton(derivs, order, z0)) == repr(want)


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
        cl = all_roots(real_from_roots(roots))
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
    cl = all_roots(real_from_roots(roots))
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


coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
nonzero = coef.filter(lambda v: abs(v) >= 1e-3)


@st.composite
def companion_inputs(draw):
    """Ascending real coefficients, nonzero leading term, with zero, one
    or more zero constant terms (zero roots)."""
    body = draw(st.lists(coef, min_size=0, max_size=15))
    return [0.0] * draw(st.integers(0, 3)) + body + [draw(nonzero)]


@settings(max_examples=300, deadline=None)
@given(c=companion_inputs())
def test_companion_roots_are_np_roots_bit_for_bit(c):
    """Both routes: the bundled dgeev, and numpy's gufunc when the
    library lookup finds none."""
    want = repr([complex(z) for z in np.roots(c[::-1])])
    assert repr(roots_mod._eigen_roots(c)) == want
    with mock.patch.object(roots_mod, "_bundled_dgeev", lambda: None):
        assert repr(roots_mod._eigen_roots(c)) == want


def test_degenerate_inputs_raise():
    for c in ([], [0.0, 0.0], [3.0]):
        with pytest.raises(ValueError):
            roots_mod._root_clusters(c)


def test_classify_sphere_spherical_vs_isolated():
    # q^2 + 1 vanishes on the whole sphere (0, 1)
    p = QPoly([1.0, 0.0, 1.0])
    kind, pt = classify(p, TwoSphere(0.0, 1.0))
    assert kind == "spherical" and pt is None

    # (q - i) * (q - j) kills only one point of that sphere
    p = QPoly([-I, Quaternion(1)]) * QPoly([-J, Quaternion(1)])
    kind, pt = classify(p, TwoSphere(0.0, 1.0))
    assert kind == "isolated"
    assert pt.isclose(I, 1e-10)

    kind, pt = classify(p, TwoSphere(4.0, 1.0))
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
        worst = roots_mod._sphere_residual(p, s.x, s.y)
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
    """_classify from P(x + iy) and P(x - iy), as first written:
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
            for z in upper_centers(poly.symmetrize().real_coeffs()):
                cases.append((poly, TwoSphere(z.real, z.imag)))
    kinds = set()
    for poly, s in cases:
        kind, pt = classify(poly, s)
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
    assert pts == pytest.approx([-1.0, 1.0], abs=1e-12, rel=0)

    zs = zero_set(QPoly([2.0, 2.0, 1.0]))
    assert not zs.isolated
    assert len(zs.spheres) == 1
    s = zs.spheres[0].sphere
    assert (s.x, s.y) == pytest.approx((-1.0, 1.0), abs=1e-12, rel=0)
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


def test_root_finding_calls_no_numpy_root_wrapper(monkeypatch):
    from qlucas.factorization import fejer_riesz_factor
    from qlucas.gauss_lucas import verify_gauss_lucas, verify_real_case

    def refuse(*_, **__):
        raise AssertionError("numpy root wrapper called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    rng = random.Random(71)
    p = random_factored(rng, 4)
    real = QPoly([2.0, -1.0, 0.5, 3.0, 1.0])
    roots_mod._root_clusters([6.0, -5.0, 1.0])
    zero_set(p)
    zero_set(real)
    verify_real_case(real)
    verify_gauss_lucas(p)
    fejer_riesz_factor([4.0, 0.0, 5.0, 0.0, 1.0])


def test_eigen_roots_keeps_the_wrapper_checks(monkeypatch):
    """Both checks of np.linalg.eigvals, with its messages, raised as a
    NumericalBreakdown on both routes: numpy's gufunc, the route of
    every list when the library lookup finds nothing (a stand-in gives
    the NaN output that reports non-convergence), and the bundled dgeev
    (a stand-in that wraps the real routine sets INFO > 0)."""
    dgeev = roots_mod._bundled_dgeev()

    def nan_output(a, signature):
        return np.full(len(a), complex(math.nan, math.nan))

    def info_positive(*args):
        dgeev(*args)
        ctypes.c_int64.from_address(args[-1]).value = 1   # INFO

    cases = [[6.0, -5.0, 1.0], [2.0, 0.5, -3.0, 1.0]]
    routes = [(None, "_lapack_eigvals", nan_output)]
    if dgeev is not None:
        routes.append((dgeev, "_bundled_dgeev", info_positive))
    for found, name, unconverged in routes:
        with monkeypatch.context() as m:
            m.setattr(roots_mod, "_bundled_dgeev", lambda: found)
            for c in ([1.0, math.inf, 1.0], [1.0, math.nan, 2.0],
                      [1.0, 1e300, 1e-300]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NumericalBreakdown,
                                       match="Array must not contain infs"):
                        roots_mod._eigen_roots(c)
            for c in cases:
                roots_mod._eigen_roots(c)   # builds the workspaces
            m.setattr(roots_mod, name, lambda: unconverged)
            for c in cases:
                with pytest.raises(NumericalBreakdown,
                                   match="Eigenvalues did not converge"):
                    roots_mod._eigen_roots(c)
    # the workspace the stand-in wrote INFO into still serves
    assert (repr(roots_mod._eigen_roots([6.0, -5.0, 1.0]))
            == repr([complex(z) for z in np.roots([1.0, -5.0, 6.0])]))


_UNCONVERGED = """
import ctypes, json, sys
from qlucas import roots
from qlucas.gauss_lucas import run_verification_campaign
from qlucas.qpoly import QPoly
from qlucas.quaternion import I, J

dgeev = roots._bundled_dgeev()
if dgeev is None:
    print("null")
    sys.exit()


def info_positive(*args):
    dgeev(*args)
    ctypes.c_int64.from_address(args[-1]).value = 1   # INFO


roots._bundled_dgeev = lambda: info_positive
try:
    roots.zero_set(QPoly([J, I, 0.5]))
except roots.NumericalBreakdown as ex:
    raised = [str(ex), ex.info]
report = run_verification_campaign(1, 3)
print(json.dumps({"zero_set": raised, "breakdowns": report["breakdowns"],
                  "numpy": "numpy" in sys.modules}))
"""


def test_lapack_failure_is_a_breakdown_without_numpy():
    """An eigenvalue search that does not converge on the bundled dgeev
    (a stand-in that wraps the real routine sets INFO > 0) is a
    NumericalBreakdown, which a campaign lists under its breakdowns, and
    raising it imports no numpy: a fresh interpreter, where nothing else
    has imported it."""
    proc = subprocess.run([sys.executable, "-c", _UNCONVERGED],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got is None:
        pytest.skip("numpy bundles no dgeev")
    reason = "Eigenvalues did not converge"
    assert got["zero_set"] == [reason, {}]
    assert [(b["trial"], b["reason"]) for b in got["breakdowns"]] == [
        (t, reason) for t in range(3)]
    assert got["numpy"] is False


def test_eigen_roots_threads_keep_their_own_buffers():
    """The bundled dgeev runs without the interpreter lock, on buffers
    that each thread owns: threads that root polynomials of the same
    orders at once get the single-threaded bits."""
    rng = random.Random(29)
    polys = [[rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 9))]
             + [1.0] for _ in range(60)]
    want = [repr(roots_mod._eigen_roots(c)) for c in polys]
    got = {}

    def work(k):
        got[k] = [[repr(roots_mod._eigen_roots(c)) for c in polys]
                  for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(runs == [want] * 20 for runs in got.values())
    assert len(got) == 6


@st.composite
def scaled_real_polys(draw):
    """Real coefficients in [-3, 3] with the roots scaled by r."""
    deg = draw(st.integers(1, 12))
    r = 10.0 ** draw(st.floats(-2, 3))
    body = draw(st.lists(st.floats(-3, 3), min_size=deg, max_size=deg))
    lead = draw(st.floats(0.1, 3)) * draw(st.sampled_from([-1.0, 1.0]))
    c = body + [lead]
    return QPoly([a * r ** (deg - n) for n, a in enumerate(c)])


@settings(max_examples=150, deadline=None)
@given(p=scaled_real_polys())
def test_real_zero_set_residuals_are_sphere_residuals(p):
    # the relative trim can leave a constant (ValueError), and root
    # finding can break down; either way there are no residuals
    try:
        zs = zero_set(p)
    except (NumericalBreakdown, ValueError):
        return
    pairs = [(z.residual, TwoSphere(z.point.w, 0.0)) for z in zs.isolated]
    pairs += [(s.residual, s.sphere) for s in zs.spheres]
    for res, s in pairs:
        want = roots_mod._sphere_residual(p, s.x, s.y)
        assert abs(res - want) <= max(1e-14 * max(res, want), 1e-30)


def test_nearly_real_zero_set_residuals_see_the_imaginary_parts():
    # imaginary parts of 1e-13 make p quaternionic, so zero_set roots
    # P^s, and the residuals are those of p, not of its real part
    p = QPoly([2.0, Quaternion(-1.0, 3e-13, 0.0, -2e-13), 0.5, 1.0])
    assert not p.is_real()
    zs = zero_set(p)
    pairs = [(z.residual, TwoSphere(z.point.w, 0.0)) for z in zs.isolated]
    pairs += [(s.residual, s.sphere) for s in zs.spheres]
    assert len(pairs) == 2
    for res, s in pairs:
        assert res == roots_mod._sphere_residual(p, s.x, s.y)


def test_tiny_nearly_real_p_has_its_true_zero():
    # the imaginary parts are the whole of p at -1, the root of its real
    # part: p = (q + 1) 1e-13 + 3e-13 j has the one zero -1 - 3j, and
    # p' = 1e-13 none
    p = QPoly([Quaternion(1e-13, 0.0, 3e-13, 0.0), 1e-13])
    assert not p.is_real()
    zs = zero_set(p)
    assert zs.spheres == () and len(zs.isolated) == 1
    z = zs.isolated[0]
    assert z.multiplicity == 1
    assert (z.point - Quaternion(-1.0, 0.0, -3.0, 0.0)).norm() <= 1e-12
    cp = critical_points(p)
    assert cp.isolated == () and cp.spheres == ()


def test_real_zero_set_checks_the_residuals_against_tau_zero():
    # the cluster residuals pass TAU_ROOT, and a tighter tau_zero must
    # still reject them, as on the quaternionic route
    p = QPoly([2.0, -3.0, 1.1, 0.7])
    zs = zero_set(p)
    res = [z.residual for z in zs.isolated] + [s.residual for s in zs.spheres]
    assert len(res) == 2 and 0.0 < min(res)
    assert zero_set(p, tau_zero=max(res)) == zs
    with pytest.raises(NumericalBreakdown,
                       match="root of the real part is not a zero of p") as ex:
        zero_set(p, tau_zero=1e-30)
    assert ex.value.info["residual"] in res


def test_root_kernel_receives_float_lists_only(monkeypatch, capsys):
    # P^s, a real p and the slice polynomial Q of fejer_riesz_factor all
    # reach _root_clusters as lists of Python floats
    from qlucas import factorization
    from qlucas.cli import main
    from qlucas.gauss_lucas import (
        random_real_poly, run_verification_campaign, verify_real_case,
    )

    calls = Counter()

    def guarded(module):
        kernel = module._root_clusters

        def root_clusters(coeffs):
            assert all(type(a) is float for a in coeffs), coeffs
            calls[module.__name__] += 1
            return kernel(coeffs)

        monkeypatch.setattr(module, "_root_clusters", root_clusters)

    guarded(roots_mod)
    guarded(factorization)
    readme = json.loads((Path(__file__).parent / "data"
                         / "readme_examples.json").read_text())
    for case in readme:
        assert main(list(case["argv"])) == case["exit"]
    capsys.readouterr()
    assert calls["qlucas.factorization"] == sum(
        case["argv"][0] == "factor" for case in readme) >= 2
    rep = run_verification_campaign(seed=42, trials=50, kind="factored")
    assert rep["verified"] + len(rep["failures"]) >= 45
    rng = random.Random(1305)
    for _ in range(20):
        verify_real_case(random_real_poly(rng))
    assert calls["qlucas.roots"] >= 200


def test_zero_set_evaluates_each_candidate_sphere_once(monkeypatch):
    # the float evaluation of (A, B) at each candidate (x, y); the point
    # residual of an isolated zero is taken elsewhere, at its own sphere
    calls = []
    parts = roots_mod._sphere_parts

    def counted(p_parts, x, y):
        calls.append((x, y))
        return parts(p_parts, x, y)

    monkeypatch.setattr(roots_mod, "_sphere_parts", counted)
    # q^2 - 2x q + x^2 + y^2 vanishes on the sphere [x + Iy]
    ring = QPoly([5.0, -2.0, 1.0])
    ring2 = QPoly([0.8125, 1.0, 1.0])
    lin = QPoly([-(I + 0.5 * J + 0.3), Quaternion(1)])
    for p in (ring * lin, ring * ring2 * lin, ring * lin * lin):
        calls.clear()
        zs = zero_set(p)
        candidates = upper_centers(p.symmetrize().real_coeffs())
        assert zs.spheres
        assert len(calls) == len(candidates)


coefficient_lists = st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0]),
                             min_size=1, max_size=21)


def eager_derivs(coeffs):
    """All derivatives down to the constant, built up front."""
    out = [coeffs]
    while len(out[-1]) > 1:
        out.append([n * c for n, c in enumerate(out[-1]) if n >= 1])
    return out


@settings(max_examples=200, deadline=None)
@given(c=coefficient_lists, first=st.integers(0, 25))
def test_lazy_derivatives_equal_the_eager_list(c, first):
    # the first order asked for is built on its own, at any order up to
    # the degree
    want = eager_derivs(c)
    lazy = roots_mod._derivs(c)
    first %= len(want)
    assert repr(lazy[first]) == repr(want[first])
    assert repr([lazy[j] for j in range(len(want))]) == repr(want)


def test_simple_roots_build_only_the_first_derivative(monkeypatch):
    made = []

    class Spy(roots_mod._derivs):
        def __init__(self, coeffs):
            super().__init__(coeffs)
            made.append(self)

    monkeypatch.setattr(roots_mod, "_derivs", Spy)
    for roots in ([1.0, -2.0, 3 + 1j, 3 - 1j, 0.5],
                  with_conjugates([2j, 1 - 1j]) + [1.0, -3.0]):
        made.clear()
        out = roots_mod._root_clusters(real_from_roots(roots))
        assert all(m == 1 for _, m, _ in out)
        assert len(made) == 1 and len(made[0]._built) <= 2


# ---------------------------------------------------------------------------
# golden pin of _root_clusters
#
# tests/data/complex_roots_golden.json holds, for a seeded corpus of root
# finding inputs, the repr of each full root list (all_roots) or the
# exception that _root_clusters raised. The inputs are stored with the
# results, so the pin does not move when the code that built them does.
# A deliberate change of the results is recorded by running
# `PYTHONPATH=src python tests/test_roots.py`, which rebuilds the corpus
# and writes the file again.

GOLDEN_ROOTS = (Path(__file__).parent / "data"
                / "complex_roots_golden.json")


def _golden_outcome(coeffs) -> str:
    try:
        return repr(all_roots(coeffs))
    except (NumericalBreakdown, ValueError) as ex:
        return f"{type(ex).__name__}: {ex}"


def _ball_factor(rng, r):
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        if sum(x * x for x in v) <= 1.0:
            return QPoly([-Quaternion(*(r * x for x in v)), Quaternion(1)])


def _product(factors):
    acc = QPoly([1.0])
    for f in factors:
        acc = acc * f
    return acc


def _symmetrizations(p):
    """The root finding inputs of verify_gauss_lucas on p: P^s, (P')^s."""
    return [p.symmetrize().real_coeffs(),
            p.derivative().symmetrize().real_coeffs()]


def golden_corpus() -> list:
    """Seeded inputs: the symmetrizations of factored draws of degree 2-16
    at radii 0.01, 5 and 1e3 and of products with a sphere factor (double
    pairs), real draws and their derivatives, pairs within 1e-7 to 1e-4
    of the axis, roots of multiplicity 2-4, zero constant terms,
    coefficients spread over 24 decades, an input that trims to a
    constant and one whose roots are all 0."""
    out = []
    rng = random.Random(1101)
    for deg in range(2, 17):
        for r in (0.01, 5.0, 1e3):
            for _ in range(2 if deg <= 8 else 1):
                p = _product([_ball_factor(rng, r) for _ in range(deg)])
                out += _symmetrizations(p)
    rng = random.Random(1102)
    for n in range(45):
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0)
        ring = QPoly([x * x + y * y, -2.0 * x, 1.0])
        lin = [_ball_factor(rng, 5.0) for _ in range(1 + n % 3)]
        out += _symmetrizations(_product(lin + [ring]))
    rng = random.Random(1103)
    for _ in range(100):
        deg = rng.randint(2, 12)
        c = [rng.uniform(-3.0, 3.0) for _ in range(deg + 1)]
        if abs(c[-1]) < 0.1:
            c[-1] = 1.0
        out += [c, [n * a for n, a in enumerate(c) if n >= 1]]
    rng = random.Random(1104)
    for _ in range(80):
        roots = []
        for _ in range(rng.randint(1, 3)):
            x = rng.uniform(-3.0, 3.0)
            y = 10.0 ** rng.uniform(-7.0, -4.0)
            roots += [complex(x, y), complex(x, -y)] * rng.randint(1, 2)
        roots += [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(0, 3))]
        scale = 10.0 ** rng.choice([-2, 0, 3])
        out.append([float(a) for a in
                    np.real(poly_from_roots([z * scale for z in roots]))])
    rng = random.Random(1105)
    for _ in range(80):
        roots = []
        for _ in range(rng.randint(1, 3)):
            m = rng.randint(2, 4)
            if rng.random() < 0.5:
                roots += [rng.uniform(-3.0, 3.0)] * m
            else:
                x, y = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)
                roots += [complex(x, y), complex(x, -y)] * m
        roots += [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(0, 2))]
        out.append([float(a) for a in np.real(poly_from_roots(roots))])
    rng = random.Random(1106)
    for _ in range(40):
        deg = rng.randint(1, 8)
        c = [rng.uniform(-3.0, 3.0) for _ in range(deg)] + [1.0]
        out.append([0.0] * rng.randint(1, 4) + c)
    rng = random.Random(1108)
    for _ in range(30):
        out.append([rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-12, 12)
                    for _ in range(rng.randint(2, 24))])
    return out + [[1.0, 1e-13], [0.0, 0.0, 2.0]]


def write_golden_roots() -> int:
    corpus = golden_corpus()
    data = [{"coeffs": c, "roots": _golden_outcome(c)} for c in corpus]
    GOLDEN_ROOTS.write_text(json.dumps(data, indent=0) + "\n")
    return len(data)


def test_complex_roots_match_the_golden_pin():
    cases = json.loads(GOLDEN_ROOTS.read_text())
    assert len(cases) > 500
    for n, case in enumerate(cases):
        assert _golden_outcome(case["coeffs"]) == case["roots"], n


# ---------------------------------------------------------------------------
# the float sphere kernels against the Quaternion arithmetic they replace


def classify_by_quaternions(p, s, tau_zero=1e-8):
    """_classify as written on Quaternion values: (a, b) from
    sphere_values, K = -(a * b.inverse()) and s.representative(K)."""
    a, b = sphere_values(p, s.x, s.y)
    scale = p.eval_scale(math.hypot(s.x, s.y))
    if a.norm() <= tau_zero * scale and b.norm() <= tau_zero * scale:
        return ("spherical", None)
    if b.norm() > tau_zero * scale:
        k = -(a * b.inverse())
        if is_unit_imaginary(k):
            return ("isolated", s.representative(k))
    return ("not_a_zero", None)


def evaluate_by_quaternions(p, q):
    """P(q) = A + I B with (A, B) = sphere_values(p, Re q, |Im q|)."""
    y = q.im_norm()
    a, b = sphere_values(p, q.w, y)
    if y == 0.0:
        return a
    return a + Quaternion(0.0, q.x / y, q.y / y, q.z / y) * b


def float_classification_cases():
    """(p, sphere) pairs: the candidate spheres of seeded factored
    polynomials, their derivatives and products (spherical, isolated),
    shifted spheres (not_a_zero), K of modulus 1 +- TAU_UNIT on linear
    factors, and polynomials scaled to parts near 1e-150, 1e-170 and
    1e200, where norms take the hypot branch."""
    rng = random.Random(1301)
    cases = []
    for _ in range(30):
        p = random_factored(rng, rng.randint(2, 5))
        for poly in (p, p.derivative(), p * p.conjugate() * p):
            for z in upper_centers(poly.symmetrize().real_coeffs()):
                s = TwoSphere(z.real, z.imag)
                cases.append((poly, s))
                cases.append((poly, TwoSphere(s.x + 0.5, s.y)))
    for _ in range(60):
        # P(q) = (q - alpha) c: K = (alpha - x) / y = t u
        x, y = rng.uniform(-3, 3), rng.uniform(0.1, 3)
        u = random_unit_imaginary(rng)
        t = 1.0 + rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]) * 1e-10
        alpha = Quaternion(x) + (t * y) * u
        c = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
        for size in (1.0, 1e-150, 1e-170, 1e200):
            lin = QPoly([-alpha * (size * c), size * c])
            cases.append((lin, TwoSphere(x, y)))
    for size in (1e-150, 1e-170, 1e200):
        for _ in range(10):
            p = random_factored(rng, rng.randint(2, 4))
            scaled = QPoly([size * a for a in p.coeffs])
            for z in upper_centers(p.symmetrize().real_coeffs()):
                cases.append((scaled, TwoSphere(z.real, z.imag)))
    return cases


def outcome(fn, *args):
    """repr of the result, or of the exception raised."""
    try:
        return repr(fn(*args))
    except (ValueError, ZeroDivisionError) as ex:
        return f"raises {type(ex).__name__}: {ex}"


def test_float_classification_is_the_quaternion_one_bit_for_bit():
    kinds = Counter()
    for p, s in float_classification_cases():
        want = outcome(classify_by_quaternions, p, s)
        parts = roots_mod._sphere_parts(p.parts, s.x, s.y)
        assert outcome(roots_mod._classify, p, s.x, s.y, parts, 1e-8) == want
        kinds[want.split(",")[0]] += 1
        if want.startswith("('isolated'"):
            pt = classify_by_quaternions(p, s)[1]
            res = (evaluate_by_quaternions(p, pt).norm()
                   / p.eval_scale(pt.norm()))
            assert repr(roots_mod._point_residual(p, pt)) == repr(res)
            assert repr(p.evaluate(pt)) == repr(evaluate_by_quaternions(p, pt))
        # the residual of a sphere, from the same eight floats
        a, b = sphere_values(p, s.x, s.y)
        cross = (b * a.conjugate()).im_norm()
        top = math.sqrt(a.norm2() + b.norm2() + 2.0 * cross)
        want_res = top / p.eval_scale(math.hypot(s.x, s.y))
        assert repr(roots_mod._sphere_residual(p, s.x, s.y)) == repr(want_res)
    # b.inverse() holds at parts near 1e-170 and 1e200 (_inverse_parts)
    assert kinds.keys() == {"('spherical'", "('isolated'", "('not_a_zero'"}
    assert min(kinds.values()) >= 10


def test_float_classification_sees_both_sides_of_the_unit_test():
    # |K| = 1 +- 1.5 TAU_UNIT falls outside, 1 +- 0.5 TAU_UNIT inside,
    # also where the norms of A and B take the hypot branch
    rng = random.Random(1302)
    for size in (1.0, 1e-150):
        for t, kind in ((1.0 - 1.5e-10, "not_a_zero"),
                        (1.0 - 0.5e-10, "isolated"),
                        (1.0 + 0.5e-10, "isolated"),
                        (1.0 + 1.5e-10, "not_a_zero")):
            x, y = rng.uniform(-3, 3), rng.uniform(0.1, 3)
            alpha = Quaternion(x) + (t * y) * random_unit_imaginary(rng)
            c = Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
            lin = QPoly([-alpha * (size * c), size * c])
            assert classify(lin, TwoSphere(x, y))[0] == kind


def seeded_real_inputs():
    """Real coefficient lists: random ones, products with repeated and
    nearby roots, and real roots of every multiplicity up to 3."""
    rng = random.Random(1303)
    out = []
    for _ in range(80):
        out.append([rng.uniform(-3, 3) for _ in range(rng.randint(2, 10))])
    for _ in range(80):
        roots = []
        for _ in range(rng.randint(1, 4)):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            roots += [z, z.conjugate()] * rng.randint(1, 2)
        for _ in range(rng.randint(0, 3)):
            roots += [complex(rng.uniform(-2, 2))] * rng.randint(1, 3)
        if rng.random() < 0.3:
            roots += [roots[0] + 1e-7, roots[0].conjugate() + 1e-7]
        out.append(np.real(poly_from_roots(roots)).tolist())
    return out


def test_upper_half_core_is_the_closed_upper_half_of_complex_roots(
        monkeypatch):
    # the full list is the mirror image of the closed upper half added to
    # it; a breakdown names the first failing cluster of that list
    lower_named = 0
    for c in seeded_real_inputs():
        try:
            upper = roots_mod._root_clusters(c)
        except NumericalBreakdown:
            continue
        full = mirrored(upper)
        assert repr([cl for cl in full if cl[0].imag >= 0]) == repr(upper)
        # a residual bound between the residuals
        levels = sorted({res for _, _, res in full})
        if len(levels) < 2:
            continue
        tau = levels[len(levels) // 2 - 1]
        z, m, res = next(cl for cl in full if cl[2] > tau)
        lower_named += z.imag < 0
        monkeypatch.setattr(roots_mod, "TAU_ROOT", tau)
        with pytest.raises(NumericalBreakdown) as ex:
            roots_mod._root_clusters(c)
        assert str(ex.value) == "root residual above tolerance"
        assert repr(ex.value.info) == repr(
            {"center": z, "multiplicity": m, "residual": res})
        monkeypatch.undo()
    assert lower_named >= 5


def test_components_match_union_find_on_seeded_items():
    rng = random.Random(1304)
    singles = linked = 0
    for _ in range(400):
        r = rng.choice([2e-2, 2e-3, 2e-4, 1e-6])
        pts = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
               for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 2)):
            z = rng.choice(pts)
            pts.append(z + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       * r * (1.0 + abs(z)))
        items = sorted(([z, i] for i, z in enumerate(pts)),
                       key=lambda it: (it[0].real, it[0].imag))
        got = roots_mod._components(items, r)
        assert got == components_all_pairs(items, r)
        if len(got) == len(items):
            singles += 1
        else:
            linked += 1
    assert singles >= 50 and linked >= 50


# the real-coefficient kernel on floats, against the complex-arithmetic
# kernel it replaced: _root_clusters on complex lists, with Horner's
# rule, Newton, validation, the ladder and the clustering of a real
# polynomial as they were written for it, kept as the reference


def reference_horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def reference_newton(derivs, order, z0):
    d = derivs[order]
    pairs, d0 = list(zip(d[:0:-1], derivs[order + 1][::-1])), d[0]
    z = z0
    last = math.inf
    for _ in range(roots_mod._NEWTON_STEPS):
        f = fp = 0j
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
        if size <= roots_mod.ULP * abs(z):
            break
        last = size
    if not (abs(z - z0) <= 0.1 * (1.0 + abs(z0))):
        return z0
    return z


def reference_validated(derivs, z, mu):
    for j in range(mu):
        dj = derivs[j]
        if (abs(reference_horner(dj, z))
                > roots_mod.TAU_VALIDATE * roots_mod.horner_scale(dj, abs(z))):
            return False
    return True


def reference_agglomerate(items, derivs, level):
    radii = roots_mod.CLUSTER_RADII
    if len(items) == 1 or level >= len(radii):
        return items
    out = []
    for comp in roots_mod._components(items, radii[level]):
        out += reference_merge(comp, derivs, level)
    return out


def reference_merge(comp, derivs, level):
    if len(comp) == 1:
        return [comp[0]]
    radius = roots_mod.CLUSTER_RADII[level]
    z0, m = roots_mod._centroid(comp)
    zp = reference_newton(derivs, m - 1, z0)
    if (abs(zp - z0) <= radius * (1.0 + abs(z0))
            and reference_validated(derivs, zp, m)):
        return [[zp, m]]
    return reference_agglomerate(comp, derivs, level + 1)


def reference_real_clusters(items, derivs, merge=reference_merge):
    on_axis, mirror_linked = roots_mod._on_axis, roots_mod._mirror_linked
    radius = roots_mod.CLUSTER_RADII[0]
    comps = roots_mod._components(items, radius)
    if len(comps) == len(items) and not any(
            it[0].imag and mirror_linked([it], radius) for it in items):
        return items
    out = []
    for comp in comps:
        if mirror_linked(comp, radius):
            closed = sorted(comp + [[z.conjugate(), m] for z, m in comp
                                    if z.imag > 0], key=roots_mod._order)
            out += [c for c in merge(closed, derivs, 0)
                    if c[0].imag > 0 or on_axis(c[0])]
            continue
        for z, m in merge(comp, derivs, 0):
            if on_axis(z):
                out.append([z, 2 * m])
            else:
                out.append([z if z.imag > 0 else z.conjugate(), m])
    return out


def reference_root_clusters(coeffs):
    order, on_axis = roots_mod._order, roots_mod._on_axis
    c = list(coeffs)
    if not all(map(cmath.isfinite, c)):
        n, a = next((n, a) for n, a in enumerate(c) if not cmath.isfinite(a))
        raise ValueError(f"coefficient {n} is not finite: {a!r}")
    c = trim_rel(c)
    if len(c) < 2:
        raise ValueError("root finding needs degree >= 1 after trimming")
    deg = len(c) - 1
    reals = [a + 0.0 for a in c]
    c = list(map(complex, reals))
    derivs = roots_mod._derivs(c)
    mags = [abs(a) for a in c]

    def residual(z):
        return (abs(reference_horner(c, z))
                / roots_mod._magnitude_scale(mags, 1.0 + abs(z)))

    found = []
    total = 0
    raw = roots_mod._one_per_pair(roots_mod._eigen_roots(reals))
    items = sorted(([z, 1] for z in raw), key=order)
    for z, m in reference_real_clusters(items, derivs):
        if on_axis(z):
            x = complex(reference_newton(derivs, m - 1, z).real, 0.0)
            found.append((x, m, residual(x)))
            total += m
            continue
        z = reference_newton(derivs, m - 1, z)
        total += 2 * m
        if on_axis(z):
            z = complex(z.real, 0.0)
            found.append((z, 2 * m, residual(z)))
            continue
        res = residual(z)
        found.append((z if z.imag > 0 else z.conjugate(), m, res))

    found.sort(key=order)
    if any([res > roots_mod.TAU_ROOT for _, _, res in found]):
        full = mirrored(found)
        z, m, res = next(cl for cl in full if cl[2] > roots_mod.TAU_ROOT)
        raise NumericalBreakdown(
            "root residual above tolerance",
            center=z, multiplicity=m, residual=res)
    if total != deg:
        raise NumericalBreakdown("multiplicities do not sum to the degree",
                                 degree=deg, found=total)
    return found


def outcome_of_roots(fn, coeffs):
    """repr of the result, or of the breakdown with its info."""
    try:
        return repr(fn(coeffs))
    except (NumericalBreakdown, ValueError) as ex:
        return repr((type(ex).__name__, str(ex), getattr(ex, "info", None)))


def kernel_cases():
    """seeded_real_inputs(), then real lists with zero constant terms
    (roots exactly at 0), with -0.0 coefficients, and with real roots of
    multiplicity 1 to 3 next to conjugate pairs."""
    rng = random.Random(1501)
    cases = list(seeded_real_inputs())
    for _ in range(60):
        c = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 8))]
        cases.append([0.0] * rng.randint(1, 3) + c)
    for _ in range(60):
        c = [rng.choice([-0.0, 0.0, rng.uniform(-3, 3)])
             for _ in range(rng.randint(2, 9))]
        c.append(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3))
        cases.append(c)
    for _ in range(120):
        roots = []
        for _ in range(rng.randint(1, 3)):
            roots += [complex(rng.uniform(-2, 2))] * rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            roots += [z, z.conjugate()]
        cases.append(real_from_roots(roots))
    return cases


def test_root_clusters_are_the_reference_bit_for_bit():
    results = at_zero = 0
    for c in kernel_cases():
        want = outcome_of_roots(reference_root_clusters, c)
        assert outcome_of_roots(roots_mod._root_clusters, c) == want
        results += want.startswith("[(")
        at_zero += "(0j, " in want
    assert results >= 400 and at_zero >= 50


def test_root_clusters_see_zero_roots_and_signed_zeros():
    # roots exactly at 0 come out as 0j, with the reference residuals
    for c in ([0.0, 0.0, 1.0, 2.0], [0.0, -0.0, 3.0, -1.0], [-0.0, 1.0, 1.0],
              [0.0, 0.0, 0.0, 1.0], [-0.0, 0.0, 1.0, 0.0, 1.0]):
        assert repr(roots_mod._root_clusters(c)) == repr(
            reference_root_clusters(c))
        assert any(z == 0 for z, _, _ in roots_mod._root_clusters(c))


def test_real_newton_is_the_complex_one():
    # from a real start in floats, from any other on float lists; every
    # order, so every pass length, down to a linear derivative
    rng = random.Random(1502)
    kinds = Counter()
    for _ in range(300):
        c = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 9))]
        derivs = roots_mod._derivs(c)
        complex_derivs = roots_mod._derivs(list(map(complex, c)))
        for z in roots_mod._eigen_roots(c):
            order = rng.randrange(len(c) - 1)
            for start in (z, complex(z.real, -0.0),
                          z * complex(1 + 1e-3, 1e-3)):
                got = roots_mod._newton(derivs, order, start)
                want = reference_newton(complex_derivs, order, start)
                if start.imag:
                    assert repr(got) == repr(want)
                    kinds["complex"] += 1
                    continue
                assert type(got) is float
                kinds["float"] += 1
                assert repr(complex(got, 0.0)) == repr(
                    complex(want.real, 0.0))
                assert repr(abs(horner(c, got))) == repr(
                    abs(reference_horner(complex_derivs[0], want)))
    assert min(kinds.values()) >= 300


def at_the_reach(left, reach):
    """The two floats x around left + reach with x - left at most reach
    and then above it."""
    x = left + reach
    while x - left > reach:
        x = math.nextafter(x, -math.inf)
    while math.nextafter(x, math.inf) - left <= reach:
        x = math.nextafter(x, math.inf)
    return x, math.nextafter(x, math.inf)


def separation_cases():
    """Sorted upper-half items whose neighbours sit at _reach times
    1 -+ 1e-12, and at the last float within _reach and the first beyond
    it, and non-real items at Im z = r (1 + |z|) / 2 and one float
    either side, where 2 Im z meets the radius."""
    rng = random.Random(1503)
    r = roots_mod.CLUSTER_RADII[0]
    for _ in range(400):
        z = complex(rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(0.5, 3)]))
        items = [[z, 1]]
        for _ in range(rng.randint(1, 6)):
            left = items[-1][0]
            reach = roots_mod._reach(left, r)
            x = rng.choice([left.real + reach * rng.choice(
                [1.0 - 1e-12, 1.0 + 1e-12, 0.5]),
                *at_the_reach(left.real, reach)])
            y = rng.choice([0.0, rng.uniform(0.5, 3)])
            items.append([complex(x, y), 1])
        if rng.random() < 0.5:
            k = rng.randrange(len(items))
            x = items[k][0].real
            y = r * (1.0 + abs(complex(x, 1e-3))) / 2.0
            for _ in range(3):   # settle y against |z| at the edge
                y = r * (1.0 + abs(complex(x, y))) / 2.0
            y = rng.choice([math.nextafter(y, 0.0), y,
                            math.nextafter(y, math.inf)])
            items[k] = [complex(x, y), 1]
        items.sort(key=roots_mod._order)
        yield items


def test_separation_scan_agrees_with_the_components(monkeypatch):
    # _agglomerate marks each component it gets, so both sides see the
    # same merges; only the decision to return the items at once is tested
    def marked(comp, derivs, level):
        return [[sum(z for z, _ in comp) / len(comp), len(comp)]]

    monkeypatch.setattr(roots_mod, "_agglomerate", marked)
    seen = Counter()
    for items in separation_cases():
        want = reference_real_clusters(items, None, marked)
        got = roots_mod._real_clusters(items, None)
        assert repr(got) == repr(want)
        seen["items" if want is items else "merged"] += 1
    assert seen["items"] >= 50 and seen["merged"] >= 50


def test_separated_real_inputs_build_no_components(monkeypatch):
    calls = Counter()
    components = roots_mod._components

    def counted(items, radius_rel):
        calls["components"] += 1
        return components(items, radius_rel)

    monkeypatch.setattr(roots_mod, "_components", counted)
    for roots in ([1.0, 2.0, 3.0], [-1.0, 1j, -1j, 2.0],
                  [0.5 + 2j, 0.5 - 2j, -3.0 + 1j, -3.0 - 1j]):
        found = roots_mod._root_clusters(real_from_roots(roots))
        assert sum(m for _, m, _ in found) + sum(
            m for z, m, _ in found if z.imag) == len(roots)
    assert calls["components"] == 0
    # a double root links, so it builds them
    roots_mod._root_clusters(real_from_roots([1.0, 1.0, 3.0]))
    assert calls["components"] >= 1


def test_classification_holds_at_both_ends_of_the_float_range():
    # P scaled by 2^600 or 2^-600 scales A and B exactly, and K = -A B^-1
    # is scale-free: the same kind and the same point, bit for bit
    seen = Counter()
    for p, s in float_classification_cases()[:400]:
        want = classify(p, s)
        for k in (600, -600):
            scaled = QPoly([Quaternion(*(math.ldexp(v, k) for v in c))
                            for c in zip(*p.parts)])
            assert repr(classify(scaled, s)) == repr(want)
        seen[want[0]] += 1
    assert seen["isolated"] >= 20 and seen["not_a_zero"] >= 20
    assert seen["spherical"] >= 10


# ---------------------------------------------------------------------------
# breakdown sites that no sampled input reaches: each is driven by one
# input, a tau_zero argument or a patched tolerance, and pins its message
# and its info


def test_root_residual_breakdown_names_the_first_failing_center(
        monkeypatch):
    c = [2.0, -3.0, 1.1, 0.7]
    z, m, res = roots_mod._root_clusters(c)[0]     # the real root
    assert z.imag == 0 and res > 0.0
    monkeypatch.setattr(roots_mod, "TAU_ROOT", 0.0)
    with pytest.raises(NumericalBreakdown) as ex:
        roots_mod._root_clusters(c)
    assert str(ex.value) == "root residual above tolerance"
    assert ex.value.info == {"center": z, "multiplicity": m, "residual": res}


def test_multiplicity_sum_breakdown_when_a_pair_is_snapped_once(
        monkeypatch):
    # an unbounded snap puts the pair +-i on the axis as one real root,
    # and an unbounded residual bound lets it pass: the count catches it
    monkeypatch.setattr(roots_mod, "TAU_IM_SNAP", math.inf)
    monkeypatch.setattr(roots_mod, "TAU_ROOT", math.inf)
    with pytest.raises(NumericalBreakdown) as ex:
        roots_mod._root_clusters([1.0, 0.0, 1.0])
    assert str(ex.value) == "multiplicities do not sum to the degree"
    assert ex.value.info == {"degree": 2, "found": 1}


def test_a_pair_polished_onto_the_axis_is_one_real_root(monkeypatch):
    # a polish that drops the imaginary part lands the pair +-i of 1 + z^2
    # on the axis, and an unbounded residual bound lets it pass: it is one
    # real root of multiplicity 2, not two simple ones at the same point
    newton = roots_mod._newton
    monkeypatch.setattr(roots_mod, "_newton", lambda derivs, order, z0:
                        complex(newton(derivs, order, z0).real, 0.0))
    monkeypatch.setattr(roots_mod, "TAU_ROOT", math.inf)
    [(z, m, res)] = roots_mod._root_clusters([1.0, 0.0, 1.0])
    assert z == 0 and m == 2 and res > 0.0
    zs = zero_set(QPoly([1.0, 0.0, 1.0]), tau_zero=math.inf)
    assert [(q.point.to_list(), q.multiplicity) for q in zs.isolated] == [
        ([0.0, 0.0, 0.0, 0.0], 2)]
    assert not zs.spheres


@pytest.mark.parametrize("raw", [[1 + 1j], [1 - 1j, 1 + 1j], [2.0, 1 + 1j,
                                                             1 + 2j]])
def test_conjugate_pairing_breakdown(raw):
    with pytest.raises(NumericalBreakdown) as ex:
        roots_mod._one_per_pair(raw)
    assert str(ex.value) == "conjugate pairing failed for a real polynomial"
    assert ex.value.info == {"root": next(z for z in raw if z.imag)}


def test_isolated_zero_residual_breakdown_at_tau_zero_0():
    p = QPoly([Quaternion(0.3, 1.2, -0.7, 0.4),
               Quaternion(-1.1, 0.2, 0.9, 0.5), Quaternion(1.0)])
    first = zero_set(p).isolated[0]
    assert first.residual > 0.0
    with pytest.raises(NumericalBreakdown) as ex:
        zero_set(p, tau_zero=0.0)
    assert str(ex.value) == "classified isolated zero fails its residual bound"
    assert ex.value.info == {"point": first.point.to_list(),
                             "residual": first.residual}


def test_zero_count_breakdown_when_the_symmetrization_loses_its_lead():
    # |a_2| = 1e-7 max |a_n| is kept by QPoly, but its square, the lead of
    # P^s, is within TAU_TRIM_REL of the largest P^s coefficient and is
    # trimmed: the zero near infinity is lost, and with it one count
    p = QPoly([J, 1.0, 1e-7 * K])
    assert p.degree == 2 and len(p.symmetrize().norms) == 3
    with pytest.raises(NumericalBreakdown) as ex:
        zero_set(p)
    assert str(ex.value) == \
        "zero multiplicities do not account for the degree"
    assert ex.value.info == {"degree": 2, "counted": 1}

if __name__ == "__main__":
    print(write_golden_roots(), "cases written to", GOLDEN_ROOTS)
