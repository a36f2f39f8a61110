"""The census of silent wrong answers against ground truth.

The zeros of P = (q - a_1) * ... * (q - a_d) lie exactly on the spheres
[a_i], so factored draws grade zero_set with no oracle. Each radius r
takes 200 draws of degree 2 to 8 with factors random_quaternion_ball(rng,
r). A zero set is right when its multiplicities sum to d and its spheres
and the [a_i] match both ways within 1e-6 r; a NumericalBreakdown or
ValueError is a breakdown; any other zero set is a silent wrong answer.
Per radius, the right count may only rise and the silent-wrong count may
only fall from the table below.
"""

import math
import random

import pytest

from qlucas import NumericalBreakdown, QPoly, Quaternion, zero_set
from qlucas.gauss_lucas import random_quaternion_ball

DRAWS = 200
MATCH_REL = 1e-6

# r: (right, breakdown, silent wrong) of the census when it was added
TABLE = {
    1e-8: (0, 0, 200),
    1e-4: (2, 194, 4),
    1e-2: (46, 152, 2),
    1.0: (200, 0, 0),
    1e2: (55, 145, 0),
    1e4: (0, 200, 0),
    1e8: (0, 200, 0),
}


def sphere(q: Quaternion) -> tuple:
    """(real part, modulus of the imaginary part): the sphere [q]."""
    return q.w, math.sqrt(q.x * q.x + q.y * q.y + q.z * q.z)


def grade(r: float, t: int) -> str:
    rng = random.Random(f"silent:{r}:{t}")
    d = rng.randint(2, 8)
    p = QPoly([1.0])
    want = []
    for _ in range(d):
        a = random_quaternion_ball(rng, r)
        want.append(sphere(a))
        p = p * QPoly([-a, Quaternion(1.0)])
    try:
        zs = zero_set(p)
    except (NumericalBreakdown, ValueError):
        return "breakdown"
    got = [sphere(z.point) for z in zs.isolated]
    got += [(s.sphere.x, s.sphere.y) for s in zs.spheres]

    def near(u, v):
        return math.hypot(u[0] - v[0], u[1] - v[1]) <= MATCH_REL * r

    if (zs.zero_count() == d
            and all(any(near(g, w) for w in want) for g in got)
            and all(any(near(g, w) for g in got) for w in want)):
        return "right"
    return "silent wrong"


@pytest.mark.parametrize("r", sorted(TABLE))
def test_census_never_loses_a_right_answer(r):
    counts = [grade(r, t) for t in range(DRAWS)]
    right, _, wrong = TABLE[r]
    assert counts.count("right") >= right
    assert counts.count("silent wrong") <= wrong
