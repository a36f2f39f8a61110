"""Every numeric tolerance of qlucas, one name per decision.

Plain constants, imported by name where they decide. A run can set two
decisions, the zero residual bound (tau_zero, `--tol-zero`) and the hull
collar (eps_hull, `--eps-hull`); TAU_ZERO, EPS_HULL and EPS_CAMPAIGN are
only their defaults, and _check_setting rejects a NaN or negative
setting where it enters. Iteration caps stay with their loops.
"""


def _check_setting(name: str, value: float) -> None:
    """ValueError unless value >= 0; 0 and inf are valid settings."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be a number >= 0, got {value!r}")


# the spacing of doubles at 1, sys.float_info.epsilon
ULP = 2.0 ** -52

# ---------------------------------------------------------------------------
# quaternions and slices

# q is unit imaginary when |Re q| and ||q| - 1| are both within this
TAU_UNIT = 1e-10
# orthogonal_unit accepts any direction normalized in double precision
TAU_UNIT_INPUT = 1e-6
# default distance of Quaternion.isclose
TAU_CLOSE = 1e-12
# orthogonal_unit skips an axis whose cosine with I is within this of 1,
# where Gram-Schmidt would cancel
TAU_PARALLEL = 1e-6
# random_unit_imaginary redraws a Gaussian vector shorter than this
TAU_DRAW = 1e-6

# ---------------------------------------------------------------------------
# polynomials

# trailing coefficients of norm at most this times the largest are trimmed
TAU_TRIM_REL = 1e-12
# sqrt(w^2 + x^2 + y^2 + z^2) is a norm correct to rounding when the sum
# of squares is finite and at least this; below it the squares lose
# digits to underflow, and math.hypot takes over
NORM_SQ_MIN = 2.0 ** -968
# pointwise_star_eval takes P(at) as zero within this times
# 1 + sum |a_n| |at|^n: the formula branches on an exact zero that
# floating point cannot decide absolutely
TAU_STAR_ZERO = 1e-10

# ---------------------------------------------------------------------------
# roots and zero sets

# Companion-matrix eigenvalues of an exact m-fold root scatter like
# eps^(1/m): ~1e-8 for doubles, ~6e-6 for triples and ~2e-4 for
# quadruples. Merging is therefore attempted down a ladder of radii and
# accepted only when the merged interpretation is backward-stable: all
# derivatives below the hypothesized multiplicity must vanish at the
# polished center within TAU_VALIDATE of their magnitude bound. Roots
# that no radius merges stay distinct. Two simple roots pass the test
# only within about 2e-6 (1 + |z|) of each other, where the double root
# is as good an answer to the rounded polynomial. The ladder runs on the
# closed upper half-plane only (roots._real_clusters): a component there
# that links to its own mirror at the first radius, |u - conj v| within
# it for some u, v, runs it conjugate-closed.
CLUSTER_RADII = (2e-2, 2e-3, 2e-4, 2e-5)
TAU_VALIDATE = 1e-12
# the early stop of the single-linkage scan is widened by this relative
# amount against rounding in its bound
TAU_REACH = 1e-9
# a root center within this times 1 + |z| of the real axis is put on it
TAU_IM_SNAP = 1e-12
# residual bound of a root cluster center
TAU_ROOT = 1e-8
# default residual bound of a zero of P (tau_zero, --tol-zero)
TAU_ZERO = 1e-8

# ---------------------------------------------------------------------------
# hull membership

# default hull collar of a single query (eps_hull, --eps-hull)
EPS_HULL = 1e-8
# default hull collar of a randomized campaign
EPS_CAMPAIGN = 1e-6
# a 4-d Outside distance is exact to TAU_GAP_REL times the scale of the
# problem, 1 plus the largest modulus among the query and the zero set
TAU_GAP_REL = 1e-10
# HullCertificate.check: no weight below -TAU_WEIGHT, and a weight sum
# within TAU_WEIGHT_SUM of 1
TAU_WEIGHT = 1e-15
TAU_WEIGHT_SUM = 1e-9
# a fan triangle holds z when its barycentric coordinates are within
# this of [0, 1]
TAU_FAN = 1e-9

# ---------------------------------------------------------------------------
# factorization and slices

# residual bound of the Fejer-Riesz product M conj(M(conj z)) against Q
TAU_FACTOR = 1e-8
# default relative tolerance of the sampled identity in check_l_identity
TAU_L_IDENTITY = 1e-8
