"""Quaternionic polynomials: zero sets, convex hull certificates for
critical points, slice factorizations, and coefficient bounds."""

from .quaternion import (
    I,
    J,
    K,
    ONE,
    ZERO,
    Quaternion,
    TwoSphere,
    is_unit_imaginary,
    orthogonal_unit,
    random_unit_imaginary,
)
from .qpoly import (
    NumericalBreakdown,
    QPoly,
    SlicePoly,
    pointwise_star_eval,
    restrict_to_slice,
    star_mul,
)
from .roots import (
    IsolatedZero,
    SphereZero,
    ZeroSet,
    critical_points,
    zero_set,
)
from .hull import (
    HullCertificate,
    Outside,
    hull_membership_slice,
)
from .factorization import (
    MFactor,
    check_l_identity,
    fejer_riesz_factor,
    slice_symmetrization,
)
from .gauss_lucas import (
    CriticalPointCheck,
    GLReport,
    modulus_lower_bound,
    modulus_lower_bound_details,
    random_factored_poly,
    random_quaternion_ball,
    random_real_poly,
    run_verification_campaign,
    slice_equivalence_check,
    verify_gauss_lucas,
    verify_real_case,
)

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "TwoSphere", "I", "J", "K", "ONE", "ZERO",
    "is_unit_imaginary", "orthogonal_unit", "random_unit_imaginary",
    "QPoly", "SlicePoly", "star_mul", "pointwise_star_eval",
    "restrict_to_slice",
    "NumericalBreakdown", "IsolatedZero", "SphereZero", "ZeroSet",
    "zero_set", "critical_points",
    "HullCertificate", "Outside", "hull_membership_slice",
    "MFactor", "fejer_riesz_factor", "check_l_identity",
    "slice_symmetrization",
    "GLReport", "CriticalPointCheck", "verify_gauss_lucas",
    "verify_real_case", "slice_equivalence_check",
    "modulus_lower_bound", "modulus_lower_bound_details",
    "random_quaternion_ball", "random_factored_poly", "random_real_poly",
    "run_verification_campaign",
]
