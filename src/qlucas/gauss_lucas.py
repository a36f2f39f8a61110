"""Verification that critical points lie in the convex hull of the zero
set of the symmetrization, plus randomized verification campaigns and
the coefficient-based lower bound on the largest zero modulus."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .hull import (
    HullCertificate,
    Outside,
    _planar,
    planar_points,
    slice_route,
)
from .qpoly import (QPoly, _symmetrized, horner, horner_scale,
                    restrict_to_slice, trim_rel)
from .quaternion import I as UNIT_I, J as UNIT_J, K as UNIT_K, Quaternion
from .roots import NumericalBreakdown, ZeroSet, _eigen_roots, zero_set
from .tolerances import (EPS_CAMPAIGN, EPS_HULL, TAU_SLICE_COMMON, TAU_ZERO,
                         _check_setting)

_SQ3 = 1.0 / math.sqrt(3.0)
_SQ2 = 1.0 / math.sqrt(2.0)
_DEFAULT_SLICE_UNITS = (
    UNIT_I,
    UNIT_J,
    UNIT_K,
    Quaternion(0.0, _SQ3, _SQ3, _SQ3),
    Quaternion(0.0, _SQ2, 0.0, -_SQ2),
)


@dataclass(frozen=True)
class CriticalPointCheck:
    point: Quaternion
    kind: str  # "isolated" or "sphere"
    certificate: Optional[HullCertificate]
    violation: Optional[Outside]

    @property
    def inside(self) -> bool:
        return self.certificate is not None

    def to_json_dict(self) -> dict:
        d = {"q": self.point.to_list(), "kind": self.kind}
        if self.certificate is not None:
            d["certificate"] = self.certificate.to_json_dict()
        else:
            d["violation"] = self.violation.to_json_dict()
        return d


@dataclass(frozen=True)
class GLReport:
    verified: bool
    degree: int
    zeros: ZeroSet
    critical: ZeroSet
    checks: tuple[CriticalPointCheck, ...]
    eps_hull: float
    tau_zero: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": "verified" if self.verified else "violated",
            "degree": self.degree,
            "tolerances": {"eps_hull": self.eps_hull,
                           "tau_zero": self.tau_zero},
            "zeros": self.zeros.to_json_dict(),
            "critical_points": [c.to_json_dict() for c in self.checks],
        }


def _verify(p: QPoly, hull_of: Callable[[QPoly], QPoly], eps_hull: float,
            tau_zero: float) -> GLReport:
    """Check every zero of p' against the hull of the zero set of
    hull_of(p), through one slice_route: one planar hull per zero set.

    The critical zero set is found first, and hull_of(p) is formed and
    rooted only once it is known: when both zero sets would break down,
    the breakdown of p' is the one raised, and no work is spent on the
    hull polynomial of an input that breaks down on p'."""
    if p.is_zero or p.degree < 2:
        raise ValueError("verification needs a polynomial of degree >= 2")
    crit = zero_set(p.derivative(), tau_zero)
    zeros = zero_set(hull_of(p), tau_zero)
    member = slice_route(zeros, eps_hull)
    queries = [(z.point, "isolated") for z in crit.isolated]
    queries += [(Quaternion(s.sphere.x, s.sphere.y), "sphere")
                for s in crit.spheres]
    checks = []
    for q, kind in queries:
        res = member(q)
        if isinstance(res, Outside):
            checks.append(CriticalPointCheck(q, kind, None, res))
        else:
            checks.append(CriticalPointCheck(q, kind, res, None))
    verified = all(c.inside for c in checks)
    return GLReport(verified, p.degree, zeros, crit, tuple(checks),
                    eps_hull, tau_zero)


def verify_gauss_lucas(p: QPoly, eps_hull: float = EPS_HULL,
                       tau_zero: float = TAU_ZERO) -> GLReport:
    """Check that every zero of p' lies in the convex hull of the zero
    set of the symmetrization p^s, within an eps_hull collar.

    Isolated critical zeros are checked directly. A critical sphere
    [x + Iy] is checked once, at x + iy: the zero set of p^s is closed
    under the rotations q -> u q u^-1, which fix every sphere and move
    its points onto each other, so its hull holds either the whole
    sphere or none of it, and every point of the sphere lies at the
    same distance from that hull.

    The inclusion holds for degree 2 but not in general, so
    verified=False, with the offending points and their distances, is
    an expected outcome in degree >= 3: random star products of linear
    factors miss the hull in roughly 40% of draws.

    The zero set of p' is found first; p^s is formed and rooted only
    after it succeeds. When both zero sets would break down, the
    NumericalBreakdown of p' is the one raised, and so the one whose
    message a campaign records among its breakdowns.
    """
    return _verify(p, QPoly.symmetrize, eps_hull, tau_zero)


def verify_real_case(p: QPoly, eps_hull: float = EPS_HULL,
                     tau_zero: float = TAU_ZERO) -> GLReport:
    """Variant for real-coefficient p: the hull is taken over the zero
    set of p itself, matching the classical statement. p is real when
    every imaginary part is exactly zero (QPoly.is_real); any other p,
    however nearly real, is a ValueError.

    As in verify_gauss_lucas, the zero set of p' is found first and p is
    rooted only after it succeeds. When both zero sets would break down,
    the NumericalBreakdown of p' is the one raised, and so the one whose
    message a campaign records among its breakdowns."""
    if not p.is_real():
        raise ValueError("verify_real_case needs real coefficients")
    return _verify(p, lambda q: q, eps_hull, tau_zero)


# ---------------------------------------------------------------------------
# slice-by-slice cross-check


def _slice_critical(sp) -> list[complex]:
    """Common roots of the two component derivatives on the slice."""
    d = sp.derivative()
    d1, d2 = trim_rel(d.p1), trim_rel(d.p2)
    primary, other = (d1, d2) if len(d1) >= len(d2) else (d2, d1)
    if len(primary) < 2:
        return []
    out = []
    for z in _eigen_roots(primary):
        if not other or (abs(horner(other, z))
                         <= TAU_SLICE_COMMON * horner_scale(other, abs(z))):
            out.append(z)
    out.sort(key=lambda w: (w.real, w.imag))
    return out


def slice_equivalence_check(p: QPoly, units=None,
                            eps_hull: float = EPS_HULL,
                            tau_zero: float = TAU_ZERO) -> dict:
    """Cross-check the verification slice by slice.

    On each sampled slice the critical points are the common roots of
    the derivatives of the two slice components, and the hull is the
    planar hull of the real zeros and the sphere trace points x +- iy.
    The per-slice verdicts must agree with verify_gauss_lucas.
    """
    if p.is_zero or p.degree < 2:
        raise ValueError("slice check needs a polynomial of degree >= 2")
    if units is None:
        units = _DEFAULT_SLICE_UNITS
    reference = verify_gauss_lucas(p, eps_hull, tau_zero)
    planar = _planar(planar_points(reference.zeros))
    slices = []
    all_inside = True
    for u in units:
        sp = restrict_to_slice(p, u)
        crits = _slice_critical(sp)
        inside = True
        worst = 0.0
        for z in crits:
            res = planar(z, eps_hull * (1.0 + abs(z)))
            if isinstance(res, Outside):
                inside = False
                worst = max(worst, res.distance)
        all_inside = all_inside and inside
        slices.append({"unit": u.to_list(), "critical_count": len(crits),
                       "inside": inside, "worst_distance": worst})
    return {
        "slices": slices,
        "all_slices_inside": all_inside,
        "reference_verified": reference.verified,
        "consistent": all_inside == reference.verified,
    }


# ---------------------------------------------------------------------------
# coefficient bound


def modulus_lower_bound_details(p: QPoly) -> dict:
    """Lower bound on the largest zero modulus from the coefficients of
    the symmetrization b_0 + ... + b_2m z^2m:

        max over 0 < n < 2m of (|b_{2m-n}| / (C(2m, n) |b_{2m}|))^(1/n)

    Returns the bound, the n attaining it and 2m; it finds no roots.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("bound needs a polynomial of degree >= 1")
    b = _symmetrized(p.parts)
    two_m = len(b) - 1
    lead = abs(b[-1])
    best, best_n = 0.0, 0
    for n in range(1, two_m):
        num = abs(b[two_m - n])
        if num == 0.0:
            continue
        val = (num / (math.comb(two_m, n) * lead)) ** (1.0 / n)
        if val > best:
            best, best_n = val, n
    return {"bound": best, "n": best_n, "sym_degree": two_m}


def modulus_lower_bound(p: QPoly) -> float:
    """The coefficient bound alone."""
    return modulus_lower_bound_details(p)["bound"]


# ---------------------------------------------------------------------------
# randomized campaigns


def random_quaternion_ball(rng: random.Random,
                           radius: float = 1.0) -> Quaternion:
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        if sum(x * x for x in v) <= 1.0:
            return Quaternion(*(radius * x for x in v))


def random_factored_poly(rng: random.Random, degree_range=(2, 6),
                         radius: float = 5.0) -> QPoly:
    """Star product of random linear factors (q - a_i), so the a_i are
    zeros by construction of the leftmost factor and the zero structure
    is generically rich."""
    deg = rng.randint(*degree_range)
    acc = QPoly([1.0])
    for _ in range(deg):
        a = random_quaternion_ball(rng, radius)
        acc = acc * QPoly([-a, Quaternion(1.0)])
    return acc


def random_real_poly(rng: random.Random, degree_range=(2, 8)) -> QPoly:
    deg = rng.randint(*degree_range)
    coeffs = [rng.uniform(-3.0, 3.0) for _ in range(deg)]
    lead = 0.0
    while abs(lead) < 0.1:
        lead = rng.uniform(-3.0, 3.0)
    coeffs.append(lead)
    return QPoly(coeffs)


def run_verification_campaign(seed: int, trials: int,
                              eps_hull: float = EPS_CAMPAIGN,
                              tau_zero: float = TAU_ZERO,
                              kind: str = "mixed") -> dict:
    """Run `trials` randomized verifications.

    kind selects the polynomial population: "factored" draws star
    products of random linear factors and checks against the hull of
    the symmetrization zeros, "real" draws real-coefficient polynomials
    and checks against the hull of their own zeros, "mixed" alternates
    randomly. Each trial draws its own generator from (seed, index), so
    the campaign is reproducible and insensitive to trial count changes.
    """
    if kind not in ("mixed", "factored", "real"):
        raise ValueError(f"unknown campaign kind {kind!r}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    # checked first: a trial that breaks down never reads eps_hull
    _check_setting("eps_hull", eps_hull)
    _check_setting("tau_zero", tau_zero)
    failures = []
    breakdowns = []
    for idx in range(trials):
        rng = random.Random(f"{seed}:{idx}")
        if kind == "mixed":
            factored = rng.random() < 0.7
        else:
            factored = kind == "factored"
        trial_kind = "factored" if factored else "real"
        try:
            if factored:
                p = random_factored_poly(rng)
                rep = verify_gauss_lucas(p, eps_hull, tau_zero)
            else:
                p = random_real_poly(rng)
                rep = verify_real_case(p, eps_hull, tau_zero)
            if not rep.verified:
                worst = max((c.violation.distance for c in rep.checks
                             if c.violation is not None), default=0.0)
                failures.append({
                    "trial": idx,
                    "kind": trial_kind,
                    "coeffs": [c.to_list() for c in p.coeffs],
                    "worst_distance": worst,
                })
        except NumericalBreakdown as ex:
            breakdowns.append({"trial": idx, "kind": trial_kind,
                               "reason": str(ex)})
    return {
        "seed": seed,
        "trials": trials,
        "kind": kind,
        "eps_hull": eps_hull,
        "tau_zero": tau_zero,
        "verified": trials - len(failures) - len(breakdowns),
        "failures": failures,
        "breakdowns": breakdowns,
    }
