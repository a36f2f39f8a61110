"""The degree-2 census: the one degree where the paper's statement holds.

Every monic quadratic is P = (q - a) * (q - b) = q^2 - q (a + b) + a b,
with the one critical point (a + b) / 2. The points a and b are zeros of
P^s = (q - a)^s (q - b)^s, so that midpoint lies in K(P^s), and
verify_gauss_lucas must report every quadratic as verified. Each radius r
takes 200 draws with a and b from random_quaternion_ball(rng, r); in the
odd-numbered draws the imaginary part of b is a positive multiple of that
of a, so both lie in one slice. A draw is right when the report is
verified and its one critical point lies within 1e-9 (|a| + |b|) of
(a + b) / 2; a NumericalBreakdown or ValueError is a breakdown; any other
report is wrong. Per radius, the right count may only rise and the wrong
count may only fall from the table below.
"""

import math
import random

import pytest

from qlucas import NumericalBreakdown, QPoly, Quaternion, verify_gauss_lucas
from qlucas.gauss_lucas import random_quaternion_ball

DRAWS = 200
MATCH_REL = 1e-9

# r: (right, breakdown, wrong) of the census when it was added. Every
# wrong count is a contradiction of the degree-2 theorem: at 1e-8 each
# critical point lies far from the midpoint, at 1e-4 and 1e4 each wrong
# report is violated; at 1e8 QPoly trims the monic lead, and the
# quadratic reads as linear, a ValueError.
TABLE = {
    1e-8: (0, 0, 200),
    1e-4: (175, 0, 25),
    1e-2: (200, 0, 0),
    1.0: (200, 0, 0),
    1e2: (200, 0, 0),
    1e4: (22, 0, 178),
    1e8: (0, 200, 0),
}


def draw(r: float, t: int) -> tuple:
    """The two zeros a, b of draw t at radius r."""
    rng = random.Random(f"degree2:{r}:{t}")
    a = random_quaternion_ball(rng, r)
    b = random_quaternion_ball(rng, r)
    if t % 2:
        ia = math.sqrt(a.x * a.x + a.y * a.y + a.z * a.z)
        ib = math.sqrt(b.x * b.x + b.y * b.y + b.z * b.z)
        if ia > 0.0:
            s = ib / ia
            b = Quaternion(b.w, s * a.x, s * a.y, s * a.z)
    return a, b


def grade(r: float, t: int) -> str:
    a, b = draw(r, t)
    p = QPoly([-a, Quaternion(1.0)]) * QPoly([-b, Quaternion(1.0)])
    try:
        rep = verify_gauss_lucas(p)
    except (NumericalBreakdown, ValueError):
        return "breakdown"
    mid = (a + b) * 0.5
    crit = [c.point for c in rep.checks]
    if (rep.verified and len(crit) == 1
            and (crit[0] - mid).norm() <= MATCH_REL * (a.norm() + b.norm())):
        return "right"
    return "wrong"


@pytest.mark.parametrize("r", sorted(TABLE))
def test_degree2_census_never_loses_a_right_answer(r):
    counts = [grade(r, t) for t in range(DRAWS)]
    right, _, wrong = TABLE[r]
    assert counts.count("right") >= right
    assert counts.count("wrong") <= wrong
