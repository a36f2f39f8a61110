import json
import math
import random

import pytest

from qlucas import gauss_lucas, hull
from qlucas.gauss_lucas import (
    modulus_lower_bound, modulus_lower_bound_details, random_factored_poly,
    random_real_poly, run_verification_campaign, slice_equivalence_check,
    verify_gauss_lucas, verify_real_case,
)
from qlucas.hull import HullCertificate, Outside, hull_membership_slice
from qlucas.qpoly import QPoly
from qlucas.quaternion import I, J, K, Quaternion, imag_unit
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


def test_slice_equivalence_on_verified_instance():
    out = slice_equivalence_check(COUNTEREXAMPLE)
    assert out["reference_verified"] is True
    assert out["all_slices_inside"] is True
    assert out["consistent"] is True
    assert len(out["slices"]) == 5
    for s in out["slices"]:
        assert s["inside"] is True


def test_slice_equivalence_sees_the_violation_on_its_own_slice():
    axis = imag_unit(VIOLATING_CRITICAL)
    out = slice_equivalence_check(VIOLATOR, units=[axis, I, J])
    assert out["reference_verified"] is False
    flagged = out["slices"][0]
    assert flagged["critical_count"] >= 1
    assert flagged["inside"] is False
    assert flagged["worst_distance"] > 1e-2
    assert out["all_slices_inside"] is False
    assert out["consistent"] is True


def test_modulus_bound_linear_oracle():
    p = QPoly([Quaternion(-3.0, -4.0), Quaternion(1.0)])
    det = modulus_lower_bound_details(p)
    assert det["bound"] == pytest.approx(3.0, abs=1e-12)
    assert det["sym_degree"] == 2
    assert det["observed_max_modulus"] == pytest.approx(5.0, abs=1e-9)
    assert det["bound"] <= det["observed_max_modulus"] + 1e-8

    rng = random.Random(11)
    for _ in range(50):
        a = Quaternion(*(rng.uniform(-4, 4) for _ in range(4)))
        if a.norm() < 1e-3:
            continue
        p = QPoly([-a, Quaternion(1)])
        assert modulus_lower_bound(p) == pytest.approx(abs(a.w), abs=1e-12)


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
    assert det["observed_max_modulus"] == pytest.approx(1.0, abs=1e-9)
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


def seeded_verifications(count):
    """(input, report) for count factored and count real draws; draws
    that break down are left out."""
    rng = random.Random(211)
    out = []
    for _ in range(count):
        for draw, verify in ((random_factored_poly, verify_gauss_lucas),
                             (random_real_poly, verify_real_case)):
            p = draw(rng)
            try:
                out.append((p, verify(p, seed=rng.randrange(1000))))
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
