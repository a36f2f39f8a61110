"""Seeded input populations for the benchmark.

Every input is a plain coefficient list, constant term first, built with
the benchmark's own random generator and its own quaternion convolution.
Nothing here imports qlucas: the program under test receives only the
lists.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("factored", "real", "own-hull", "scale-grid")

# scale-grid cells: every (degree, radius) pair, visited round-robin
GRID_DEGREES = (4, 8, 12, 16)
GRID_RADII = (0.01, 5.0, 1e3)
GRID_CELLS = tuple((d, r) for d in GRID_DEGREES for r in GRID_RADII)


def qmul(a, b):
    """Hamilton product of two (w, x, y, z) tuples."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def qconv(p, q):
    """Star product of two right-coefficient polynomials: coefficient n
    is the sum of a_s b_k over s + k = n."""
    out = [(0.0, 0.0, 0.0, 0.0)] * (len(p) + len(q) - 1)
    for s, a in enumerate(p):
        for k, b in enumerate(q):
            c = qmul(a, b)
            o = out[s + k]
            out[s + k] = (o[0] + c[0], o[1] + c[1], o[2] + c[2], o[3] + c[3])
    return out


def _ball(rng: random.Random, radius: float):
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        if sum(x * x for x in v) <= 1.0:
            return tuple(radius * x for x in v)


def _factored(rng: random.Random, degree: int, radius: float):
    acc = [(1.0, 0.0, 0.0, 0.0)]
    for _ in range(degree):
        a = _ball(rng, radius)
        acc = qconv(acc, [(-a[0], -a[1], -a[2], -a[3]), (1.0, 0.0, 0.0, 0.0)])
    return [list(c) for c in acc]


def _real(rng: random.Random):
    deg = rng.randint(2, 8)
    coeffs = [rng.uniform(-3.0, 3.0) for _ in range(deg)]
    lead = 0.0
    while abs(lead) < 0.1:
        lead = rng.uniform(-3.0, 3.0)
    return coeffs + [lead]


def _own_hull(rng: random.Random, factors: int):
    # one sphere [x + I y]: q^2 - 2x q + x^2 + y^2 is real, so it commutes
    # with the linear factors and Z(P) contains the whole sphere
    x = rng.uniform(-3.0, 3.0)
    y = rng.uniform(0.5, 4.0)
    sphere = [(x * x + y * y, 0.0, 0.0, 0.0), (-2.0 * x, 0.0, 0.0, 0.0),
              (1.0, 0.0, 0.0, 0.0)]
    lin = _factored(rng, factors, 5.0)
    return [list(c) for c in qconv([tuple(c) for c in lin], sphere)]


def generate(workload: str, seed: int, count: int) -> list:
    """The first `count` inputs of a workload for a seed. Equal arguments
    give equal lists."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for idx in range(count):
        if workload == "factored":
            out.append(_factored(rng, rng.randint(2, 6), 5.0))
        elif workload == "real":
            out.append(_real(rng))
        elif workload == "own-hull":
            # 1, 2, 3 linear factors in turn: the cost of an operation
            # grows with the number of critical points, so a fixed mix
            # keeps short runs comparable
            out.append(_own_hull(rng, 1 + idx % 3))
        else:
            deg, radius = GRID_CELLS[idx % len(GRID_CELLS)]
            out.append(_factored(rng, deg, radius))
    return out

