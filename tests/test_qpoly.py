import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas.quaternion import I, J, K, Quaternion, random_unit_imaginary
from qlucas.qpoly import (
    QPoly, SlicePoly, characteristic_poly, left_divide_linear,
    pointwise_star_eval, restrict_to_slice, sphere_values, star_mul,
)


def rand_q(rng, r=2.0):
    return Quaternion(*(rng.uniform(-r, r) for _ in range(4)))


def rand_poly(rng, max_deg=5, r=2.0):
    deg = rng.randint(0, max_deg)
    coeffs = [rand_q(rng, r) for _ in range(deg + 1)]
    if coeffs[-1].norm() < 1e-3:
        coeffs[-1] = coeffs[-1] + Quaternion(1.0)
    return QPoly(coeffs)


def test_construction_trims_trailing_zeros():
    p = QPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert len(p.coeffs) == 2
    assert QPoly([0, 0]).is_zero
    assert QPoly().is_zero
    assert QPoly().degree == -1


@pytest.mark.parametrize("coeffs, degree", [
    ([1e-170] * 3, 2),      # the squares underflow
    ([1e200, 1.0], 0),      # they overflow; 1.0 falls under the trim
    ([1.0, 1e200], 1),
])
def test_norms_hold_at_both_ends_of_the_float_range(coeffs, degree):
    p = QPoly(coeffs)
    assert p.degree == degree
    assert p.norms == tuple(coeffs[:degree + 1])


def test_evaluation_uses_left_powers():
    # q^2 a with a = j at q = i + k: (i+k)^2 = -2
    p = QPoly([0, 0, J])
    q = I + K
    assert p.evaluate(q).isclose(Quaternion(0, 0, -2, 0), 1e-12)
    # constants evaluate to themselves
    assert QPoly([K]).evaluate(q) == K


def power_sum(p, q):
    """P(q) from its definition: iterated powers q^n, a_n on the right."""
    acc = Quaternion()
    power = Quaternion(1.0)
    for a in p.coeffs:
        acc = acc + power * a
        power = power * q
    return acc


coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                  allow_infinity=False)
quat4 = st.tuples(coord, coord, coord, coord)
tiny = st.floats(min_value=-5e-13, max_value=5e-13, allow_nan=False)
queries = st.one_of(
    quat4,
    st.tuples(coord, st.just(0.0), st.just(0.0), st.just(0.0)),
    st.tuples(coord, tiny, tiny, tiny))      # |Im q| <= 1e-12


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(quat4, min_size=1, max_size=9), at=queries)
def test_evaluate_matches_iterated_powers(coeffs, at):
    p = QPoly([Quaternion(*c) for c in coeffs])
    q = Quaternion(*at)
    got = p.evaluate(q)
    assert (got - power_sum(p, q)).norm() <= 1e-13 * p.eval_scale(q.norm())


def test_arithmetic_matches_termwise_definition():
    rng = random.Random(100)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        at = rand_q(rng, 1.5)
        ev = (p + q).evaluate(at)
        assert (ev - p.evaluate(at) - q.evaluate(at)).norm() <= \
            1e-11 * (1.0 + ev.norm())
        ev = (p - q).evaluate(at)
        assert (ev - p.evaluate(at) + q.evaluate(at)).norm() <= \
            1e-11 * (1.0 + ev.norm())
        s = rng.uniform(-2, 2)
        assert (s * p).evaluate(at).isclose(p.evaluate(at) * s, 1e-9)


def test_star_product_of_linear_factors():
    a, b = Quaternion(1, 2, 0, -1), Quaternion(0, 1, 3, 0)
    p = QPoly([-a, Quaternion(1)])
    q = QPoly([-b, Quaternion(1)])
    prod = star_mul(p, q)
    # q^2 - q(a + b) + a b, coefficients on the right
    assert prod.coeffs[2] == Quaternion(1)
    assert prod.coeffs[1] == -(a + b)
    assert prod.coeffs[0] == a * b
    assert prod == p * q


def test_star_product_famous_noncommuting_square():
    p = QPoly([-I, Quaternion(1)]) * QPoly([-J, Quaternion(1)])
    assert p.coeffs[0] == K
    assert p.coeffs[1] == -(I + J)
    # the pointwise product of the factors is NOT p at j
    lhs = (J - I) * (J - J)
    assert lhs == Quaternion()
    assert p.evaluate(J).norm() > 1.9


def test_star_is_associative_and_real_coeffs_commute():
    rng = random.Random(4)
    for _ in range(40):
        a, b, c = rand_poly(rng, 3), rand_poly(rng, 3), rand_poly(rng, 3)
        lhs = star_mul(star_mul(a, b), c)
        rhs = star_mul(a, star_mul(b, c))
        assert all((x - y).norm() <= 1e-10 * (1 + x.norm())
                   for x, y in zip(lhs.coeffs, rhs.coeffs))
        r = QPoly([rng.uniform(-2, 2) for _ in range(3)])
        lhs, rhs = star_mul(r, a), star_mul(a, r)
        assert all((x - y).norm() <= 1e-12 * (1 + x.norm())
                   for x, y in zip(lhs.coeffs, rhs.coeffs))


def test_pointwise_star_eval_matches_product_evaluation():
    rng = random.Random(2024)
    for _ in range(300):
        p, q = rand_poly(rng, 4), rand_poly(rng, 4)
        at = rand_q(rng, 1.5)
        direct = star_mul(p, q).evaluate(at)
        formula = pointwise_star_eval(p, q, at)
        scale = p.eval_scale(at.norm()) * q.eval_scale(at.norm()) + 1.0
        assert (direct - formula).norm() <= 1e-12 * scale


def test_pointwise_star_eval_zero_branch():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_q(rng, 2.0)
        p = QPoly([-a, Quaternion(1)])
        q = rand_poly(rng, 4)
        # left factor vanishes at a, so the star product does too
        assert pointwise_star_eval(p, q, a).norm() <= 1e-12
        scale = 1.0 + star_mul(p, q).eval_scale(a.norm())
        assert star_mul(p, q).evaluate(a).norm() <= 1e-10 * scale


def test_conjugate_and_symmetrize():
    p = QPoly([J, I, Quaternion(0.5)])
    pc = p.conjugate()
    assert pc.coeffs[0] == -J
    assert pc.coeffs[1] == -I
    assert pc.coeffs[2] == Quaternion(0.5)
    ps = p.symmetrize()
    assert ps.is_real()
    assert ps.degree == 4
    want = [1.0, 0.0, 1.0, 0.0, 0.25]
    got = ps.real_coeffs()
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_symmetrize_is_real_with_positive_leading_term():
    rng = random.Random(31)
    for _ in range(100):
        p = rand_poly(rng)
        ps = p.symmetrize()
        scale = 1.0 + p.max_coeff_norm() ** 2
        assert ps.max_imag_norm() <= 1e-12 * scale
        assert ps.degree == 2 * p.degree
        lead = ps.coeffs[-1].w
        assert abs(lead - p.coeffs[-1].norm2()) <= 1e-12 * scale


def test_derivative_coefficients():
    p = QPoly([K, J, I, Quaternion(2)])
    d = p.derivative()
    assert d.coeffs[0] == J
    assert d.coeffs[1] == 2 * I
    assert d.coeffs[2] == Quaternion(6)
    assert QPoly([J]).derivative().is_zero


def test_left_divide_linear_remainder_is_evaluation():
    rng = random.Random(55)
    for _ in range(100):
        p = rand_poly(rng, 5)
        if p.degree < 1:
            continue
        alpha = rand_q(rng, 1.5)
        quot, rem = left_divide_linear(p, alpha)
        assert quot.degree == p.degree - 1
        recon = star_mul(QPoly([-alpha, Quaternion(1)]), quot) + QPoly([rem])
        assert all((x - y).norm() <= 1e-10 * (1 + p.max_coeff_norm())
                   for x, y in zip(recon.coeffs, p.coeffs))
        assert (rem - p.evaluate(alpha)).norm() <= \
            1e-10 * (1.0 + p.eval_scale(alpha.norm()))
    with pytest.raises(ValueError):
        left_divide_linear(QPoly(), I)


def test_characteristic_poly_vanishes_exactly_on_its_sphere():
    rng = random.Random(8)
    from qlucas.quaternion import TwoSphere
    s = TwoSphere(1.25, 2.5)
    ch = characteristic_poly(s)
    assert ch.is_real()
    for q in (s.representative(random_unit_imaginary(rng))
              for _ in range(12)):
        assert ch.evaluate(q).norm() <= 1e-12 * ch.eval_scale(q.norm())
    off = Quaternion(1.25, 2.5 + 1e-3, 0, 0)
    assert ch.evaluate(off).norm() > 1e-6


def test_restrict_to_slice_reconstructs_values():
    rng = random.Random(77)
    for _ in range(100):
        p = rand_poly(rng, 5)
        unit = random_unit_imaginary(rng)
        sp = restrict_to_slice(p, unit)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        at = sp.embed(z)
        got = sp.evaluate(z)
        want = p.evaluate(at)
        assert (got - want).norm() <= 1e-11 * (1.0 + p.eval_scale(abs(z)))


def test_slice_derivative_commutes_with_restriction():
    rng = random.Random(78)
    for _ in range(50):
        p = rand_poly(rng, 5)
        unit = random_unit_imaginary(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = restrict_to_slice(p, unit).derivative().evaluate(z)
        b = restrict_to_slice(p.derivative(), unit).evaluate(z)
        assert (a - b).norm() <= 1e-10 * (1.0 + p.eval_scale(abs(z)))


def test_slice_components_are_complex_polynomials():
    p = QPoly([J, I, Quaternion(0.5)])
    sp = restrict_to_slice(p, I)
    assert sp.p1 == (0j, 1j, 0.5 + 0j)
    assert sp.p2 == (1 + 0j, 0j, 0j)
    assert isinstance(sp, SlicePoly)


def test_is_real_and_real_coeffs():
    assert QPoly([1.0, -2.0, 3.0]).is_real()
    assert not QPoly([I, Quaternion(1)]).is_real()
    assert QPoly([1.0, 1e-15 * 1j, 2.0]).is_real()


def test_json_roundtrip():
    p = QPoly([J, I, Quaternion(0.5, 1, 2, 3)])
    blob = json.dumps(p.to_json_dict())
    back = QPoly.from_json_dict(json.loads(blob))
    assert back == p


def test_eval_scale_dominates_value():
    rng = random.Random(90)
    for _ in range(50):
        p = rand_poly(rng)
        q = rand_q(rng, 3.0)
        assert p.evaluate(q).norm() <= p.eval_scale(q.norm()) + 1e-12


radius = st.floats(min_value=1e-2, max_value=1e3)
unit_coeff = st.tuples(*[st.floats(min_value=-1.0, max_value=1.0,
                                   allow_nan=False)] * 4)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(unit_coeff, min_size=1, max_size=17), r=radius)
def test_symmetrize_is_the_real_part_of_the_star_product(coeffs, r):
    p = QPoly([Quaternion(*(r * v for v in c)) for c in coeffs])
    full = star_mul(p, p.conjugate())
    ps = p.symmetrize()
    assert repr(ps.real_coeffs()) == repr(full.real_coeffs())
    assert all(repr(v) == "0.0" for part in ps.parts[1:] for v in part)


def test_kernels_perform_no_hamilton_product(monkeypatch):
    rng = random.Random(12)
    polys = [rand_poly(rng, 6) for _ in range(20)]

    def refuse(*_):
        raise AssertionError("Hamilton product in a polynomial kernel")

    monkeypatch.setattr(Quaternion, "__mul__", refuse)
    monkeypatch.setattr(Quaternion, "__rmul__", refuse)
    for p in polys:
        p.symmetrize()
        p.derivative()
        p.conjugate()
        star_mul(p, p)
        sphere_values(p, 0.3, 1.7)
        p.eval_scale(2.5)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("part", range(4))
def test_non_finite_coefficient_is_a_value_error(bad, part):
    # unchecked, the trim threshold 1e-12 * inf drops every coefficient
    parts = [0.5, -0.25, 1.0, 0.0]
    parts[part] = bad
    with pytest.raises(ValueError, match="coefficient 1 is not finite"):
        QPoly([Quaternion(1.0), Quaternion(*parts), Quaternion(1.0)])
    if part == 0:
        with pytest.raises(ValueError, match="coefficient 1 is not finite"):
            QPoly([1.0, bad, 1.0])
