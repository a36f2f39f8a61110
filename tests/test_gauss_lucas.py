import itertools
import json
import math
import random

import pytest

from qlucas import gauss_lucas, hull
from qlucas.factorization import slice_symmetrization
from qlucas.gauss_lucas import (
    modulus_lower_bound, modulus_lower_bound_details, random_factored_poly,
    random_real_poly, run_verification_campaign, verify_gauss_lucas,
    verify_real_case,
)
from qlucas.hull import HullCertificate, Outside, hull_membership_slice
from qlucas.qpoly import QPoly, restrict_to_slice
from qlucas.quaternion import I, Quaternion, random_unit_imaginary
from qlucas.roots import NumericalBreakdown, zero_set

COUNTEREXAMPLE = QPoly([Quaternion(0, 0, 1, 0),
                        Quaternion(0, 1, 0, 0),
                        Quaternion(0.5, 0, 0, 0)])

# hand-certified violation instance: the derivative zero v lies outside
# the hull of the symmetrization zeros (|Im v| exceeds every sphere
# radius, and the imaginary norm is convex)
VIOLATOR = QPoly([
    Quaternion(2.021817371569556, -4.990013932160936,
               1.6532096251465427, -0.9809817996330215),
    Quaternion(-4.028666016672443, -2.026754514128138,
               1.6896429962780755, -0.15619795584506324),
    Quaternion(0.6593765399348785, 0.764830316690051,
               3.570836939888665, 1.6882895254084591),
    Quaternion(1.0, 0.0, 0.0, 0.0),
])
VIOLATING_CRITICAL = Quaternion(-0.42014198006293474, -0.3061444044760236,
                                -1.6081156243936594, -1.0825673362892358)


def test_verify_accepts_the_quadratic_with_point_zero():
    rep = verify_gauss_lucas(COUNTEREXAMPLE)
    assert rep.verified
    assert rep.degree == 2
    assert len(rep.checks) >= 1
    for c in rep.checks:
        assert c.inside
        assert c.certificate is not None
    blob = json.dumps(rep.to_json_dict())
    assert "verified" in blob


def test_verify_rejects_low_degree():
    with pytest.raises(ValueError):
        verify_gauss_lucas(QPoly([I, Quaternion(1)]))
    with pytest.raises(ValueError):
        verify_gauss_lucas(QPoly([Quaternion(2)]))
    with pytest.raises(ValueError):
        verify_gauss_lucas(QPoly())
    with pytest.raises(ValueError):
        verify_real_case(QPoly([1.0, 2.0]))


def test_verify_real_case_needs_real_coefficients():
    with pytest.raises(ValueError):
        verify_real_case(COUNTEREXAMPLE)
    # realness is read from the bits: no imaginary part is small enough
    with pytest.raises(ValueError):
        verify_real_case(QPoly([1.0, Quaternion(-2.0, 0.0, 1e-300, 0.0),
                                1.0]))


def test_violating_instance_is_reported_honestly():
    # sanity: the recorded point really is a critical point
    d = VIOLATOR.derivative()
    scale = d.eval_scale(VIOLATING_CRITICAL.norm())
    assert d.evaluate(VIOLATING_CRITICAL).norm() <= 1e-10 * scale

    rep = verify_gauss_lucas(VIOLATOR)
    assert not rep.verified
    bad = [c for c in rep.checks if c.violation is not None]
    assert bad
    assert any((c.point - VIOLATING_CRITICAL).norm() <= 1e-6 for c in bad)
    assert max(c.violation.distance for c in bad) > 1e-2
    d = rep.to_json_dict()
    assert d["verdict"] == "violated"
    assert any("violation" in c for c in d["critical_points"])


def test_violation_margin_exceeds_every_sphere_radius():
    # |Im q| is convex, so no point with larger imaginary norm than all
    # zero spheres can sit in their hull
    zs = zero_set(VIOLATOR.symmetrize())
    top = max(s.sphere.y for s in zs.spheres)
    assert VIOLATING_CRITICAL.im_norm() > top + 0.05


def test_verify_real_case_loop_always_passes():
    rng = random.Random(101)
    for _ in range(40):
        p = random_real_poly(rng)
        rep = verify_real_case(p)
        assert rep.verified
        rep2 = verify_gauss_lucas(p)
        assert rep2.verified


def test_real_zero_sets_embed_in_symmetrized_zero_sets():
    rng = random.Random(103)
    for _ in range(25):
        p = random_real_poly(rng, (2, 6))
        direct = zero_set(p)
        sym = zero_set(p.symmetrize())
        for z in direct.isolated:
            match = [w for w in sym.isolated
                     if abs(w.point.w - z.point.w) <= 1e-6]
            assert match and match[0].multiplicity == 2 * z.multiplicity
        for s in direct.spheres:
            match = [t for t in sym.spheres
                     if abs(t.sphere.x - s.sphere.x) <= 1e-6
                     and abs(t.sphere.y - s.sphere.y) <= 1e-6]
            assert match and match[0].multiplicity == 2 * s.multiplicity


def test_modulus_bound_linear_oracle():
    p = QPoly([Quaternion(-3.0, -4.0), Quaternion(1.0)])
    det = modulus_lower_bound_details(p)
    observed = zero_set(p).max_modulus()
    assert det["bound"] == pytest.approx(3.0, abs=1e-12, rel=0)
    assert det["sym_degree"] == 2
    assert observed == pytest.approx(5.0, abs=1e-9, rel=0)
    assert det["bound"] <= observed + 1e-8

    rng = random.Random(11)
    for _ in range(50):
        a = Quaternion(*(rng.uniform(-4, 4) for _ in range(4)))
        if a.norm() < 1e-3:
            continue
        p = QPoly([-a, Quaternion(1)])
        assert modulus_lower_bound(p) == pytest.approx(abs(a.w), abs=1e-12,
                                                       rel=0)


def test_modulus_bound_never_exceeds_largest_zero():
    rng = random.Random(13)
    for _ in range(60):
        p = random_factored_poly(rng, (2, 5), 3.0)
        observed = max(zero_set(p).max_modulus(),
                       zero_set(p.conjugate()).max_modulus())
        assert modulus_lower_bound(p) <= observed + 1e-8


def test_modulus_bound_finds_no_roots(monkeypatch):
    rng = random.Random(19)
    polys = [random_factored_poly(rng, (2, 5), 3.0) for _ in range(20)]
    want = [modulus_lower_bound_details(p)["bound"] for p in polys]

    def no_roots(*args, **kwargs):
        raise AssertionError("the coefficient bound called zero_set")

    monkeypatch.setattr(gauss_lucas, "zero_set", no_roots)
    assert [modulus_lower_bound(p) for p in polys] == want


def test_modulus_bound_quadratic_sphere():
    # q^2 + 1: symmetrization (q^2+1)^2, bound from the middle terms
    p = QPoly([1.0, 0.0, 1.0])
    det = modulus_lower_bound_details(p)
    assert zero_set(p).max_modulus() == pytest.approx(1.0, abs=1e-9, rel=0)
    assert det["bound"] <= 1.0 + 1e-12


def test_random_generators_respect_their_contracts():
    rng = random.Random(17)
    for _ in range(40):
        p = random_factored_poly(rng, (2, 6), 5.0)
        assert 2 <= p.degree <= 6
        assert (p.coeffs[-1] - Quaternion(1)).norm() <= 1e-12
        r = random_real_poly(rng, (2, 8))
        assert 2 <= r.degree <= 8
        assert r.is_real()
        assert abs(r.coeffs[-1].w) >= 0.1


def test_campaign_is_deterministic_and_structured():
    a = run_verification_campaign(seed=5, trials=25)
    b = run_verification_campaign(seed=5, trials=25)
    assert a == b
    assert a["trials"] == 25
    assert a["kind"] == "mixed"
    assert a["verified"] + len(a["failures"]) + len(a["breakdowns"]) == 25
    for f in a["failures"]:
        assert set(f) == {"trial", "kind", "coeffs", "worst_distance"}
        assert f["worst_distance"] > 0.0
    # prefix property: the first trials coincide
    c = run_verification_campaign(seed=5, trials=10)
    assert c["failures"] == [f for f in a["failures"] if f["trial"] < 10]


def test_campaign_real_kind_always_verifies():
    rep = run_verification_campaign(seed=7, trials=60, kind="real")
    assert rep["verified"] == 60
    assert rep["failures"] == []
    assert rep["breakdowns"] == []


def test_campaign_rejects_unknown_kind():
    with pytest.raises(ValueError):
        run_verification_campaign(seed=1, trials=5, kind="exotic")


def test_campaign_rejects_a_negative_size():
    with pytest.raises(ValueError, match="trials"):
        run_verification_campaign(seed=1, trials=-5)
    assert run_verification_campaign(seed=1, trials=0)["verified"] == 0


@pytest.mark.parametrize("bad", [math.nan, -1.0, -math.inf])
def test_nan_or_negative_settings_are_rejected(bad):
    # a campaign would record each ValueError as a degenerate draw, so
    # it checks its settings before the first trial
    with pytest.raises(ValueError, match="eps_hull"):
        verify_gauss_lucas(COUNTEREXAMPLE, eps_hull=bad)
    with pytest.raises(ValueError, match="tau_zero"):
        verify_gauss_lucas(COUNTEREXAMPLE, tau_zero=bad)
    with pytest.raises(ValueError, match="tau_zero"):
        zero_set(COUNTEREXAMPLE, bad)
    with pytest.raises(ValueError, match="eps_hull"):
        hull_membership_slice(I, zero_set(COUNTEREXAMPLE), bad)
    for setting in ("eps_hull", "tau_zero"):
        with pytest.raises(ValueError, match=setting):
            run_verification_campaign(seed=1, trials=3, **{setting: bad})


def test_a_zero_collar_is_a_valid_setting():
    # tau_zero=inf is taken in test_roots.py
    assert verify_gauss_lucas(COUNTEREXAMPLE, eps_hull=0.0).degree == 2


def test_symmetrization_overflow_is_a_breakdown():
    with pytest.raises(NumericalBreakdown) as ex:
        modulus_lower_bound_details(QPoly([1.0, 1e300]))
    assert str(ex.value) == ("symmetrization overflows or underflows the "
                             "float range")
    assert ex.value.info == {"degree": 1, "max_norm": 1e300}


@pytest.mark.parametrize("route", [
    QPoly.symmetrize,
    lambda p: slice_symmetrization(restrict_to_slice(p, I)),
    zero_set, verify_gauss_lucas, modulus_lower_bound_details,
], ids=["symmetrize", "slice_symmetrization", "zero_set",
        "verify_gauss_lucas", "modulus_lower_bound_details"])
@pytest.mark.parametrize("coeffs, info", [
    # P is not real, so zero_set forms P^s, and P' is, so verification
    # roots P' without it; P^s holds inf, NaN or only underflowed zeros
    ([Quaternion(0.0, 0.0, 1e200), 1e200, 1e200],
     {"degree": 2, "max_norm": 1e200}),
    ([Quaternion(1e200, 0.0, 1e200), 1e200, -1e200],
     {"degree": 2, "max_norm": math.hypot(1e200, 1e200)}),
    ([Quaternion(0.0, 0.0, 1e-170), 1e-170, 1e-170],
     {"degree": 2, "max_norm": 1e-170}),
], ids=["inf", "nan", "underflow"])
def test_every_route_to_the_symmetrization_breaks_down(route, coeffs, info):
    with pytest.raises(NumericalBreakdown) as ex:
        route(QPoly(coeffs))
    assert str(ex.value) == ("symmetrization overflows or underflows the "
                             "float range")
    assert ex.value.info == info


def test_the_zero_polynomial_symmetrizes_to_zero():
    assert QPoly().symmetrize().is_zero
    assert slice_symmetrization(restrict_to_slice(QPoly(), I)) == []


def seeded_verifications(count):
    """(input, report) for count factored and count real draws; draws
    that break down are left out."""
    rng = random.Random(211)
    out = []
    for _ in range(count):
        for draw, verify in ((random_factored_poly, verify_gauss_lucas),
                             (random_real_poly, verify_real_case)):
            p = draw(rng)
            rng.randrange(1000)     # unused; keeps the later draws fixed
            try:
                out.append((p, verify(p)))
            except NumericalBreakdown:
                pass
    return out


def test_each_verification_builds_one_planar_hull(monkeypatch):
    builds = []
    hull2d = hull._hull2d

    def counted(pts):
        builds.append(len(pts))
        return hull2d(pts)

    monkeypatch.setattr(hull, "_hull2d", counted)
    rng = random.Random(223)
    queries = 0
    for _ in range(20):
        for draw, verify in ((random_factored_poly, verify_gauss_lucas),
                             (random_real_poly, verify_real_case)):
            builds.clear()
            rep = verify(draw(rng))
            assert len(builds) == 1
            queries += len(rep.checks)
    assert queries > 80


def test_checks_match_fresh_hull_queries():
    reports = seeded_verifications(100)
    assert len(reports) >= 190
    for _, rep in reports:
        for c in rep.checks:
            fresh = hull_membership_slice(c.point, rep.zeros, rep.eps_hull)
            if isinstance(fresh, Outside):
                assert c.violation == fresh and c.certificate is None
            else:
                assert c.certificate == fresh and c.violation is None
            if c.certificate is not None:
                assert isinstance(c.certificate, HullCertificate)
                assert len(c.certificate.points) <= 3
                assert c.certificate.check(
                    c.point, rep.eps_hull * (1.0 + c.point.norm()))


def test_each_critical_sphere_is_checked_once_for_all_its_points():
    # q^3 + 3q has the critical sphere [I] (p' = 3(q^2 + 1)); the seeded
    # real draws add more. Every point of a critical sphere lies at one
    # distance from the rotation-invariant hull, so the single check at
    # x + iy must agree with fresh queries at x - iy, exactly, and at
    # random points of the sphere, up to the rounding of |Im q|.
    def distance(res):
        return res.distance if isinstance(res, Outside) else res.slack

    rng = random.Random(227)
    polys = [QPoly([0.0, 3.0, 0.0, 1.0])]
    polys += [random_real_poly(rng) for _ in range(40)]
    spheres = 0
    for p in polys:
        for rep in (verify_gauss_lucas(p), verify_real_case(p)):
            sphere_checks = [c for c in rep.checks if c.kind == "sphere"]
            assert len(sphere_checks) == len(rep.critical.spheres)
            for c, s in zip(sphere_checks, rep.critical.spheres):
                x, y = s.sphere
                assert c.point == Quaternion(x, y)
                res = c.certificate or c.violation
                mirror = hull_membership_slice(Quaternion(x, -y), rep.zeros,
                                               rep.eps_hull)
                assert type(mirror) is type(res)
                assert distance(mirror) == distance(res)
                for _ in range(8):
                    q = s.sphere.representative(random_unit_imaginary(rng))
                    fresh = hull_membership_slice(q, rep.zeros, rep.eps_hull)
                    assert type(fresh) is type(res)
                    assert distance(fresh) == pytest.approx(
                        distance(res), rel=1e-9, abs=1e-15 * (1.0 + y))
                    if c.inside:
                        assert fresh.check(
                            q, rep.eps_hull * (1.0 + q.norm()))
                spheres += 1
    assert spheres >= 40


def test_factored_verification_builds_no_polynomial_values(monkeypatch):
    # the sphere decisions run on floats: no QPoly.evaluate, and the one
    # P^s built as a QPoly is the hull polynomial of verify_gauss_lucas
    calls = {"evaluate": 0, "symmetrize": 0}
    for name in calls:
        original = getattr(QPoly, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(QPoly, name, counted)
    rng = random.Random(1305)
    checks = 0
    for _ in range(50):
        p = random_factored_poly(rng)
        before = dict(calls)
        rep = verify_gauss_lucas(p)
        assert calls["evaluate"] == before["evaluate"] == 0
        assert calls["symmetrize"] == before["symmetrize"] + 1
        checks += len(rep.checks)
    assert checks >= 50


def _grid_draws(d, r, n=50):
    # n draws of one (degree, radius) cell of the breakdown grid; radii
    # are floats, so the seed strings read "grid:12:5.0:0", not "grid:12:5:0"
    return [random_factored_poly(random.Random(f"grid:{d}:{r}:{t}"), (d, d), r)
            for t in range(n)]


def test_critical_breakdown_comes_before_the_symmetrization(monkeypatch):
    # every draw of the (8, 0.01) cell breaks down on its critical zero
    # set: verify raises that breakdown and never forms P^s
    calls = 0
    original = QPoly.symmetrize

    def counted(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(QPoly, "symmetrize", counted)
    for p in _grid_draws(8, 0.01):
        with pytest.raises(NumericalBreakdown) as want:
            zero_set(p.derivative())
        with pytest.raises(NumericalBreakdown) as got:
            verify_gauss_lucas(p)
        assert str(got.value) == str(want.value)
        assert got.value.info == want.value.info
    assert calls == 0


def test_real_case_roots_p_only_after_its_derivative(monkeypatch):
    seen = []

    def breaking(p, tau_zero):
        seen.append(p)
        raise NumericalBreakdown("critical zero set breaks down")

    monkeypatch.setattr(gauss_lucas, "zero_set", breaking)
    p = random_real_poly(random.Random(1401))
    with pytest.raises(NumericalBreakdown, match="critical zero set"):
        verify_real_case(p)
    assert seen == [p.derivative()]


# breakdowns of verify_gauss_lucas per cell of 50 draws, 182 in all. The
# bounds may only fall: lower one when a fix removes breakdowns, never
# raise one.
GRID_BREAKDOWN_BOUNDS = {(4, 1e3): 50, (8, 0.01): 50, (12, 5.0): 32,
                         (16, 5.0): 50, (6, 5.0): 0}
# reports per cell built on a truncated P^s: the relative trim dropped
# its lead, so the zero set lacks the zeros near infinity. Every report
# of cell (12, 5) is one. The bounds may only fall, as above.
GRID_TRUNCATED_BOUNDS = {(4, 1e3): 0, (8, 0.01): 0, (12, 5.0): 18,
                         (16, 5.0): 0, (6, 5.0): 0}


def test_breakdown_grid_stays_within_its_bounds():
    counts, truncated = {}, {}
    for (d, r) in GRID_BREAKDOWN_BOUNDS:
        counts[(d, r)] = truncated[(d, r)] = 0
        for p in _grid_draws(d, r):
            try:
                rep = verify_gauss_lucas(p)
            except NumericalBreakdown:
                counts[(d, r)] += 1
                continue
            if rep.zeros.source_degree < 2 * p.degree:
                truncated[(d, r)] += 1
    for cell, bound in GRID_BREAKDOWN_BOUNDS.items():
        assert counts[cell] <= bound, (cell, counts[cell])
    for cell, bound in GRID_TRUNCATED_BOUNDS.items():
        assert truncated[cell] <= bound, (cell, truncated[cell])


# ---------------------------------------------------------------------------
# exact scaling: P and 2^m P have the same zeros and critical points


def _scaled(p, m):
    return QPoly([Quaternion(*(math.ldexp(v, m) for v in c))
                  for c in zip(*p.parts)])


def _outcome(f, p):
    try:
        return repr(f(p))
    except NumericalBreakdown as ex:
        return repr((str(ex), ex.info))


def test_reports_are_identical_under_power_of_two_scaling():
    # 2^m P is exact while every squared part stays in the normal range,
    # where _norm4 takes sqrt, so |m| <= 200 for these draws
    cases = [(random_factored_poly(random.Random(f"42:{t}")),
              verify_gauss_lucas) for t in range(300)]
    cases += [(random_real_poly(random.Random(f"42:{t}")), verify_real_case)
              for t in range(100)]
    for p, verify in cases:
        def report(r):
            return verify(r, 1e-6)
        want = (_outcome(report, p), _outcome(zero_set, p))
        for m in (-200, -60, -30, 30, 60, 200):
            q = _scaled(p, m)
            assert (_outcome(report, q), _outcome(zero_set, q)) == want, m


# ---------------------------------------------------------------------------
# rotation: a rotation R of the imaginary 3-space is the automorphism
# q -> u q u^-1 of H for a unit u, so P_R, with R applied to every
# coefficient, has P_R(R q) = R P(q). Its zeros, critical points and
# hull distances are those of P moved by R.


def _signed_axis_rotations() -> list:
    """The 24 signed permutation matrices of determinant +1, as
    (perm, signs): axis k of the image is signs[k] times axis perm[k]."""
    out = []
    for perm in itertools.permutations(range(3)):
        parity = sum(perm[i] > perm[j]
                     for i in range(3) for j in range(i + 1, 3)) % 2
        for signs in itertools.product((1.0, -1.0), repeat=3):
            if (-1) ** parity * math.prod(signs) == 1:
                out.append((perm, signs))
    return out


def _rotated(q: Quaternion, perm, signs) -> Quaternion:
    v = (q.x, q.y, q.z)
    return Quaternion(q.w, *(s * v[k] for s, k in zip(signs, perm)))


def test_verdicts_and_distances_are_invariant_under_axis_rotations():
    rotations = _signed_axis_rotations()
    assert len(rotations) == 24 and len(set(rotations)) == 24
    pairs = 0
    for t in range(50):
        p = random_factored_poly(random.Random(f"42:{t}"))
        want = verify_gauss_lucas(p, 1e-6)
        for perm, signs in rotations:
            got = verify_gauss_lucas(
                QPoly([_rotated(c, perm, signs) for c in p.coeffs]), 1e-6)
            assert got.verified == want.verified
            assert len(got.checks) == len(want.checks)
            for c in want.checks:
                # a critical sphere is checked at x + iy, which R fixes
                at = (c.point if c.kind == "sphere"
                      else _rotated(c.point, perm, signs))
                match = min(got.checks, key=lambda g: (g.point - at).norm())
                assert (match.point - at).norm() <= 1e-9 * (1.0 + at.norm())
                assert (match.kind, match.inside) == (c.kind, c.inside)
                if not c.inside:
                    d, e = c.violation.distance, match.violation.distance
                    assert abs(d - e) <= 1e-9 * d
                pairs += 1
    assert pairs >= 3000
