import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas import qpoly as qpoly_mod
from qlucas.cli import _poly_from_obj
from qlucas.quaternion import (
    I, J, K, Quaternion, _norm4, random_unit_imaginary,
)
from qlucas.qpoly import (
    NumericalBreakdown, QPoly, SlicePoly, _sphere_parts, pointwise_star_eval,
    restrict_to_slice, star_mul,
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
        assert ps.is_real()
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
    assert not QPoly([1.0, 1e-15 * 1j, 2.0]).is_real()


def test_is_real_takes_exact_zeros_without_norms(monkeypatch):
    # real exactly when no imaginary part is nonzero, at any size, with
    # no imaginary norm taken
    rng = random.Random(61)
    polys = []
    for _ in range(300):
        size = rng.choice([0.0, -0.0, 1e-300, 1e-14, 1e-12, 1e-11, 1.0])
        polys.append(QPoly([
            Quaternion(rng.uniform(-3, 3),
                       *(size * rng.choice([0, 1]) * rng.uniform(-1, 1)
                         for _ in range(3)))
            for _ in range(rng.randint(1, 8))]))
    want = [all(c.x == c.y == c.z == 0.0 for c in p.coeffs) for p in polys]
    assert any(want) and not all(want)
    signed_zeros = QPoly([Quaternion(1.0, -0.0, 0.0, -0.0), Quaternion(2.0)])

    def refuse(*_):
        raise AssertionError("is_real took an imaginary norm")

    monkeypatch.setattr(qpoly_mod, "_norm4", refuse)
    assert [p.is_real() for p in polys] == want
    assert signed_zeros.is_real()


def test_json_roundtrip():
    # the CLI reads the {"coeffs": [[w, x, y, z], ...]} format
    p = QPoly([J, I, Quaternion(0.5, 1, 2, 3)])
    blob = json.dumps({"coeffs": [c.to_list() for c in p.coeffs]})
    back = _poly_from_obj(json.loads(blob))
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
    if p.is_zero or any(full.real_coeffs()):
        ps = p.symmetrize()
    else:
        # every square underflowed: P^s has left the float range
        with pytest.raises(NumericalBreakdown, match="underflows"):
            p.symmetrize()
        return
    assert repr(ps.real_coeffs()) == repr(full.real_coeffs())
    assert all(repr(v) == "0.0" for part in ps.parts[1:] for v in part)


def test_symmetrize_norms_are_the_magnitudes():
    # sqrt(c * c) == |c| in binary floating point, and math.hypot gives
    # |c| beyond the range of the square, so the norms of the real P^s
    # are the magnitudes of its coefficients
    rng = random.Random(1307)
    for _ in range(2000):
        c = rng.uniform(-1.0, 1.0) * 2.0 ** rng.randint(-1074, 1023)
        assert QPoly([c]).norms in ((abs(c),), ())
    for size in (1e-170, 1e-100, 1.0, 1e100, 1e150):
        for _ in range(20):
            p = QPoly([size * rand_q(rng) for _ in range(rng.randint(1, 6))])
            if size == 1e-170:
                # every square is below the subnormal range
                with pytest.raises(NumericalBreakdown,
                                   match="overflows or underflows"):
                    p.symmetrize()
                continue
            ps = p.symmetrize()
            assert repr(ps.norms) == repr(QPoly(ps.real_coeffs()).norms)


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
        _sphere_parts(p.parts, 0.3, 1.7)
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


def test_real_coefficients_build_no_quaternion(monkeypatch):
    # floats, ints, bools and -0.0 give the parts and norms of the same
    # values passed as Quaternions, and the norms are those of _norm4
    rng = random.Random(1505)
    cases = [[-0.0, 1.0], [0.0, -0.0, 2], [True, False, -3], [1e-170] * 3,
             [1e200, -1e200, 3.5], [5e-324, 1.0]]
    for _ in range(300):
        cases.append([rng.choice([
            rng.uniform(-3, 3), rng.randint(-5, 5), rng.random() < 0.5,
            -0.0, rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1023)])
            for _ in range(rng.randint(1, 8))])
    for c in cases:
        want = QPoly([Quaternion(v) for v in c])
        norms = [_norm4(v, 0.0, 0.0, 0.0) for v in want.parts[0]]
        monkeypatch.setattr(Quaternion, "__init__", None)
        p = QPoly(c)
        monkeypatch.undo()
        assert repr(p.parts) == repr(want.parts)
        assert repr(p.norms) == repr(want.norms) == repr(
            tuple(norms[:len(want.norms)]))
        d = p.derivative()
        assert repr(d.norms) == repr(tuple(
            _norm4(*v) for v in zip(*d.parts)))
    # numpy scalars and complex values give Python float parts
    c = [np.float64(1.5), np.complex128(2.0 - 1.0j), 1j, np.float64(-0.0)]
    want = QPoly([Quaternion(1.5), Quaternion(2.0, -1.0), Quaternion(0, 1),
                  Quaternion(-0.0)])
    assert repr(QPoly(c).parts) == repr(want.parts)
    assert repr(QPoly(c).norms) == repr(want.norms)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 complex(1.0, math.inf),
                                 complex(math.nan, 0.0)])
def test_non_finite_real_or_complex_coefficient_message(bad):
    with pytest.raises(ValueError) as ex:
        QPoly([1.0, 2, bad])
    assert str(ex.value) == f"coefficient 2 is not finite: {bad!r}"


def test_integer_beyond_the_float_range_overflows():
    with pytest.raises(OverflowError, match="int too large"):
        QPoly([1, 10 ** 400])
    with pytest.raises(TypeError, match="is not a quaternion or real"):
        QPoly([1.0, "2"])
