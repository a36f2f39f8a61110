"""Acceptance gate: one test per release criterion.

Each test states its tolerance inline. The campaign criteria run the
full advertised trial counts, so this file is the slow part of the
suite (roughly half a minute).
"""

import cmath
import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from qlucas.factorization import check_l_identity, fejer_riesz_factor
from qlucas.gauss_lucas import (
    modulus_lower_bound, random_factored_poly, random_quaternion_ball,
    random_real_poly, run_verification_campaign,
)
from qlucas.hull import HullCertificate, Outside, hull_membership_slice
from qlucas.qpoly import QPoly, pointwise_star_eval, restrict_to_slice, \
    star_mul
from qlucas.quaternion import I, J, K, Quaternion, random_unit_imaginary
from qlucas.roots import critical_points, zero_set


def test_criterion_1_quadratic_counterexample_regression():
    """P = q^2/2 + q i + j: point zero -i-k (mult 2), critical point -i
    outside the hull of Z_P at distance 1 +- 1e-9 but inside the hull of
    the symmetrization zeros (sphere (0, sqrt 2)) with slack <= 1e-9,
    symmetrization coefficients exact to 1e-12, all under 0.1 s."""
    p = QPoly([J, I, Quaternion(0.5)])

    def pipeline():
        zs = zero_set(p)
        crit = critical_points(p)
        sym = p.symmetrize()
        zsym = zero_set(sym)
        v = crit.isolated[0].point
        against_zp = hull_membership_slice(v, zs, 1e-9)
        against_sym = hull_membership_slice(v, zsym, 1e-9)
        return zs, crit, sym, zsym, against_zp, against_sym

    pipeline()                      # warm-up
    t0 = time.perf_counter()
    zs, crit, sym, zsym, against_zp, against_sym = pipeline()
    elapsed = time.perf_counter() - t0

    assert len(zs.isolated) == 1 and not zs.spheres
    assert zs.isolated[0].multiplicity == 2
    assert (zs.isolated[0].point - (-I - K)).norm() <= 1e-9

    assert len(crit.isolated) == 1
    assert (crit.isolated[0].point - (-I)).norm() <= 1e-9

    got = sym.real_coeffs()
    want = [1.0, 0.0, 1.0, 0.0, 0.25]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    assert not zsym.isolated and len(zsym.spheres) == 1
    s = zsym.spheres[0].sphere
    assert abs(s.x - 0.0) <= 1e-9
    assert abs(s.y - math.sqrt(2.0)) <= 1e-9

    assert isinstance(against_zp, Outside)
    assert abs(against_zp.distance - 1.0) <= 1e-9
    assert isinstance(against_sym, HullCertificate)
    assert against_sym.slack <= 1e-9

    assert elapsed < 0.1


def test_criterion_2_introductory_examples():
    """q^2 + 1 has exactly one spherical zero (0, 1); q^2 - q(i+j) + k
    has the isolated zero i with multiplicity 2 and derivative value
    i - j at i, of modulus sqrt 2 +- 1e-12."""
    zs = zero_set(QPoly([1.0, 0.0, 1.0]))
    assert not zs.isolated
    assert len(zs.spheres) == 1
    assert zs.spheres[0].multiplicity == 1
    assert abs(zs.spheres[0].sphere.x - 0.0) <= 1e-12
    assert abs(zs.spheres[0].sphere.y - 1.0) <= 1e-12

    p = QPoly([K, -(I + J), Quaternion(1)])
    zs = zero_set(p)
    assert not zs.spheres and len(zs.isolated) == 1
    assert zs.isolated[0].multiplicity == 2
    assert (zs.isolated[0].point - I).norm() <= 1e-9

    dv = p.derivative().evaluate(I)
    assert (dv - (I - J)).norm() <= 1e-12
    assert abs(dv.norm() - math.sqrt(2.0)) <= 1e-12


def _hamilton(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _symmetrization_coeffs(coeffs):
    """Ascending real coefficients of P * P^c for P = sum q^n a_n, the
    a_n given as [w, x, y, z]; the imaginary parts must cancel."""
    out = np.zeros((2 * len(coeffs) - 1, 4))
    for s, a in enumerate(coeffs):
        for k, (w, x, y, z) in enumerate(coeffs):
            out[s + k] += _hamilton(a, (w, -x, -y, -z))
    assert np.max(np.abs(out[:, 1:])) <= 1e-12 * np.max(np.abs(out[:, 0]))
    return out[:, 0]


def _planar_hull_distance(z, pts):
    """Distance from each z to conv(pts) in the plane.

    The distance from a point to a convex set is the largest value of
    <u, z> - max_p <u, p> over unit vectors u, and the maximizer is
    either the direction from a point of pts to z or a normal of a
    segment between two of them, so these candidates give it exactly
    (clipped at 0 inside)."""
    d = (pts[:, None] - pts[None, :]).ravel()
    d = d[d != 0]
    normals = 1j * d / np.abs(d)
    out = []
    for w in z:
        t = w - pts
        t = t[t != 0]
        dirs = np.conj(np.concatenate([normals, -normals, t / np.abs(t)]))
        support = np.max((dirs[:, None] * pts[None, :]).real, axis=1)
        out.append(max(0.0, float(np.max((dirs * w).real - support))))
    return np.array(out)


def test_criterion_3_factored_campaign_all_critical_points_inside():
    """1000 seeded factored polynomials (degree 2..6, |a_i| <= 5):
    breakdowns under 1%, under 60 s, and every verdict against the hull
    K of the zeros of P^s (collar 1e-6 (1 + |q|)) agrees with an
    independent planar oracle; each reported miss distance matches it
    to 1e-6 relative; degree-2 trials, where inclusion is a theorem,
    are all verified.

    The oracle: the orthogonal projection of H onto a slice C(I) maps
    the zero sphere [x + I y] of P^s onto the segment x +- I y, so K
    meets C(I) in the planar hull of the complex roots of P^s and a
    point of C(I) is as far from K as from that planar hull. Every
    critical point x + I y lies on the sphere of a root x + i y of
    (P')^s, and each such sphere holds one. Inclusion fails for
    degree >= 3, so the campaign reports misses."""
    t0 = time.perf_counter()
    rep = run_verification_campaign(seed=42, trials=1000, eps_hull=1e-6,
                                    kind="factored")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert len(rep["breakdowns"]) < 10
    broken = {b["trial"] for b in rep["breakdowns"]}
    fails = {f["trial"]: f for f in rep["failures"]}
    assert len(fails) == len(rep["failures"])
    assert not broken & fails.keys()
    assert rep["verified"] == 1000 - len(fails) - len(broken)

    wrong, quadratic_misses = [], []
    for idx in range(1000):
        p = random_factored_poly(random.Random(f"42:{idx}"))
        if p.degree == 2 and (idx in fails or idx in broken):
            quadratic_misses.append(idx)
        if idx in broken:
            continue
        a = [c.to_list() for c in p.coeffs]
        da = [[n * x for x in c] for n, c in enumerate(a)][1:]
        zeros = np.roots(_symmetrization_coeffs(a)[::-1])
        crit = np.roots(_symmetrization_coeffs(da)[::-1])
        dist = _planar_hull_distance(crit, zeros)
        collar = 1e-6 * (1.0 + np.abs(crit))
        band = 1e-2 * collar            # either verdict accepted in here
        if idx in fails:
            f = fails[idx]
            ok = (f["coeffs"] == a
                  and bool(np.any(dist > collar - band))
                  and abs(f["worst_distance"] - dist.max())
                  <= 1e-6 * dist.max())
        else:
            ok = bool(np.all(dist <= collar + band))
        if not ok:
            wrong.append(idx)
    assert not wrong, (
        f"{len(wrong)} campaign verdicts disagree with the planar oracle; "
        f"first at trial {wrong[0]}")
    assert not quadratic_misses, (
        f"degree-2 trials not verified: {quadratic_misses}")


def test_criterion_4_real_coefficient_campaign():
    """500 random real-coefficient polynomials (degree 2..8): every
    critical point inside the hull of the polynomial's own zeros."""
    rep = run_verification_campaign(seed=42, trials=500, eps_hull=1e-6,
                                    kind="real")
    assert rep["breakdowns"] == []
    assert rep["failures"] == []
    assert rep["verified"] == 500


def test_criterion_5_algebraic_identity_suite():
    """10^4 random (P, Q, q): product evaluation matches the pointwise
    star formula to 1e-10 scale; symmetrizations are real to 1e-12
    scale; the slice decomposition reproduces values to 1e-9 scale on
    20 random slices."""
    rng = random.Random(20260814)
    for _ in range(10_000):
        dp, dq = rng.randint(0, 4), rng.randint(0, 4)
        p = QPoly([random_quaternion_ball(rng, 2.0) for _ in range(dp + 1)])
        q = QPoly([random_quaternion_ball(rng, 2.0) for _ in range(dq + 1)])
        at = random_quaternion_ball(rng, 1.5)
        direct = star_mul(p, q).evaluate(at)
        formula = pointwise_star_eval(p, q, at)
        scale = 1.0 + p.eval_scale(at.norm()) * q.eval_scale(at.norm())
        assert (direct - formula).norm() <= 1e-10 * scale

        if not p.is_zero:
            ps = p.symmetrize()
            assert ps.is_real()

    for _ in range(20):
        unit = random_unit_imaginary(rng)
        for _ in range(25):
            deg = rng.randint(1, 5)
            p = QPoly([random_quaternion_ball(rng, 2.0)
                       for _ in range(deg + 1)])
            sp = restrict_to_slice(p, unit)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            got = sp.evaluate(z)
            want = p.evaluate(sp.embed(z))
            assert (got - want).norm() <= \
                1e-9 * (1.0 + p.eval_scale(abs(z)))


def _factorization_instances(n=200):
    rng = random.Random(6600)
    out = []
    while len(out) < n:
        d1, d2 = rng.randint(0, 6), rng.randint(0, 6)
        p1 = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(d1 + 1)])
        p2 = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(d2 + 1)])
        if abs(p1[-1]) < 0.2 or abs(p2[-1]) < 0.2:
            continue
        q = npp.polymul(p1, np.conj(p1))
        q2 = npp.polymul(p2, np.conj(p2))
        width = max(q.size, q2.size)
        w = np.zeros(width, dtype=complex)
        w[:q.size] += q
        w[:q2.size] += q2
        out.append((p1, p2, w.real, rng.random()))
    return out


def test_criterion_6a_factorization_residuals():
    """200 random (P1, P2) with degree <= 6 each: the half-degree
    factorization of Q = P1 conj-reflect(P1) + P2 conj-reflect(P2)
    reconstructs Q within 1e-8 (1 + max |Q coeff|)."""
    for p1, p2, q, _ in _factorization_instances():
        m = fejer_riesz_factor(q)
        assert m.residual <= 1e-8
        prod = m.product_coeffs()
        assert type(prod) is list and all(type(c) is float for c in prod)
        a = np.zeros(max(len(prod), q.size))
        b = np.zeros(a.size)
        a[:len(prod)] = prod
        b[:q.size] = q
        assert float(np.max(np.abs(a - b))) <= \
            1e-8 * (1.0 + float(np.max(np.abs(q))))


def _sub_padded(a, b):
    out = np.zeros(max(a.size, b.size), dtype=complex)
    out[:a.size] += a
    out[:b.size] -= b
    return out


def test_criterion_6b_derivative_identity_at_samples():
    """Same 200 instances, 100 samples each, rel_tol 1e-8: with
    L = P1' conj-reflect(P1) + P2' conj-reflect(P2) and
    N = M' conj-reflect(M), check_l_identity accepts
    z L(z) = z N(z) exactly when L and N agree coefficient by
    coefficient within 1e-8 (1 + max |Q coeff|). That identity is false
    in general (P1 = 1, P2 = z gives M = z - i, L = z, N = z + i); the
    one that holds, L + L^c = N + N^c = Q', is checked at the samples
    within 1e-8 relative."""
    misjudged = []
    for idx, (p1, p2, q, phase) in enumerate(_factorization_instances()):
        m = np.asarray(fejer_riesz_factor(q).m_coeffs)
        samples = [r * cmath.exp(2j * math.pi * (k / 25 + phase))
                   for r in (0.5, 0.9, 1.2, 1.6) for k in range(25)]
        lc = _sub_padded(npp.polymul(npp.polyder(p1), np.conj(p1)),
                         -npp.polymul(npp.polyder(p2), np.conj(p2)))
        nc = npp.polymul(npp.polyder(m), np.conj(m))
        gap = float(np.max(np.abs(_sub_padded(lc, nc))))
        holds = gap <= 1e-8 * (1.0 + float(np.max(np.abs(q))))
        if check_l_identity(p1, p2, m, samples, rel_tol=1e-8) != holds:
            misjudged.append(idx)

        dq = npp.polyder(q)
        for z in samples:
            lhs = npp.polyval(z, lc) + np.conj(npp.polyval(np.conj(z), lc))
            rhs = npp.polyval(z, nc) + np.conj(npp.polyval(np.conj(z), nc))
            base = max(1.0, abs(z))
            scale = 1.0 + sum(abs(c) * base ** n
                              for coeffs in (lc, nc)
                              for n, c in enumerate(coeffs))
            assert abs(lhs - rhs) <= 1e-8 * scale
            assert abs(lhs - npp.polyval(z, dq)) <= 1e-8 * scale
    assert not misjudged, (
        f"check_l_identity misjudges {len(misjudged)} of 200 instances; "
        f"first {misjudged[0]}")


def test_criterion_7_modulus_bound_suite():
    """500 random polynomials with nonzero symmetrization lead: the
    coefficient bound never exceeds the largest zero modulus of P or
    P conjugated by more than 1e-8; for P = q - a it equals |Re a| to
    1e-12."""
    rng = random.Random(77_000)
    checked = 0
    while checked < 500:
        if checked % 2:
            p = random_factored_poly(rng, (2, 5), 3.0)
        else:
            deg = rng.randint(1, 5)
            p = QPoly([random_quaternion_ball(rng, 2.5)
                       for _ in range(deg + 1)])
            if p.degree < 1 or p.coeffs[-1].norm() < 1e-3:
                continue
        observed = max(zero_set(p).max_modulus(),
                       zero_set(p.conjugate()).max_modulus())
        assert modulus_lower_bound(p) <= observed + 1e-8
        checked += 1

    for _ in range(100):
        a = random_quaternion_ball(rng, 4.0)
        p = QPoly([-a, Quaternion(1)])
        assert abs(modulus_lower_bound(p) - abs(a.w)) <= 1e-12


def test_criterion_8_cli_campaign_is_byte_deterministic():
    """verify --seed 42 --trials 100 --format json run twice from a
    fresh interpreter produces byte-identical output."""
    cmd = [sys.executable, "-m", "qlucas.cli", "verify", "--seed", "42",
           "--trials", "100", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode
    doc = json.loads(first.stdout)
    assert doc["seed"] == 42
    assert doc["trials"] == 100
