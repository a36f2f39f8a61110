import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlucas.qpoly import QPoly
from qlucas.tolerances import NORM_SQ_MIN
from qlucas.quaternion import (
    I, J, K, ONE, Quaternion, TwoSphere, is_unit_imaginary, orthogonal_unit,
    random_unit_imaginary,
)

finite = st.floats(min_value=-20.0, max_value=20.0,
                   allow_nan=False, allow_infinity=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_basis_multiplication_table():
    assert I * I == Quaternion(-1)
    assert J * J == Quaternion(-1)
    assert K * K == Quaternion(-1)
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * J * K == Quaternion(-1)


def test_scalar_and_complex_coercion():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == Quaternion(2, 4, 6, 8)
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert q - 1.5 == Quaternion(-0.5, 2, 3, 4)
    # complex lands in the C(i) slice
    assert q * complex(0, 1) == q * I
    assert Quaternion(3, -4) / 2 == Quaternion(1.5, -2)


def test_list_roundtrip_and_repr():
    q = Quaternion(0.5, -1.0, 2.0, -3.5)
    assert Quaternion(*q.to_list()) == q
    assert "Quaternion" in repr(q)


@given(quats, quats)
def test_norm_is_multiplicative(p, q):
    assert abs((p * q).norm() - p.norm() * q.norm()) <= \
        1e-10 * (1.0 + p.norm() * q.norm())


@given(quats, quats, quats)
def test_multiplication_associates(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    assert (lhs - rhs).norm() <= 1e-9 * (1.0 + lhs.norm() + rhs.norm())


@given(quats, quats)
def test_conjugate_reverses_products(p, q):
    lhs = (p * q).conjugate()
    rhs = q.conjugate() * p.conjugate()
    assert (lhs - rhs).norm() <= 1e-10 * (1.0 + lhs.norm())


@given(quats)
def test_conjugate_product_is_norm_squared(q):
    n2 = q * q.conjugate()
    assert abs(n2.w - q.norm2()) <= 1e-9 * (1.0 + q.norm2())
    assert n2.im_norm() <= 1e-9 * (1.0 + q.norm2())


def test_inverse_and_quotients():
    rng = random.Random(71)
    for _ in range(200):
        q = Quaternion(*(rng.uniform(-5, 5) for _ in range(4)))
        if q.norm() < 1e-3:
            continue
        assert (q * q.inverse() - ONE).norm() <= 1e-12
        assert (q.inverse() * q - ONE).norm() <= 1e-12
        p = Quaternion(*(rng.uniform(-5, 5) for _ in range(4)))
        # right quotient: solve x q = p
        x = p * q.inverse()
        assert (x * q - p).norm() <= 1e-10 * (1.0 + p.norm())


def test_inverse_of_zero_raises():
    with pytest.raises(ValueError):
        Quaternion().inverse()
    with pytest.raises(ValueError, match="zero quaternion has no inverse"):
        Quaternion(-0.0, 0.0, -0.0, 0.0).inverse()


def test_inverse_holds_at_both_ends_of_the_float_range():
    # the squared norm overflows at parts near 1e155 and underflows below
    # about 1e-162; scaling by a power of two is exact, so the inverse of
    # q 2^k is that of q times 2^-k, bit for bit
    rng = random.Random(72)
    for _ in range(200):
        q = Quaternion(*(rng.uniform(-5, 5) for _ in range(4)))
        inv = q.inverse()
        assert NORM_SQ_MIN <= q.norm2() < math.inf
        for k in (540, 700, 1000, -540, -700, -900):
            big = Quaternion(*(math.ldexp(v, k) for v in q.to_list()))
            assert not NORM_SQ_MIN <= big.norm2() < math.inf
            want = [math.ldexp(v, -k) for v in inv.to_list()]
            assert big.inverse().to_list() == want


def test_isclose_and_finiteness():
    q = Quaternion(1, 2, 3, 4)
    assert q.isclose(Quaternion(1, 2, 3, 4 + 1e-14))
    assert not q.isclose(Quaternion(1, 2, 3, 4.1))
    assert q.is_finite()
    assert not Quaternion(float("nan")).is_finite()


@pytest.mark.parametrize("t", [1e200, 1e-170])
def test_norms_hold_at_both_ends_of_the_float_range(t):
    # the sums of squares overflow to inf and underflow to 0 here
    q = Quaternion(0.0, t, t, 0.0)
    assert q.norm() == pytest.approx(math.sqrt(2.0) * t, rel=1e-15)
    assert q.im_norm() == pytest.approx(math.sqrt(2.0) * t, rel=1e-15)
    assert Quaternion(t, t, t, t).norm() == pytest.approx(2.0 * t, rel=1e-15)
    # P(q) = q splits q by im_norm
    value = QPoly([0.0, 1.0]).evaluate(q)
    for got, want in zip(value.to_list(), q.to_list()):
        assert got == pytest.approx(want, rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(q=quats)
def test_norms_inside_the_range_are_the_root_of_the_sum(q):
    # bit for bit what the norms were before the range guard
    s = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    v = q.x * q.x + q.y * q.y + q.z * q.z
    if s >= NORM_SQ_MIN:
        assert q.norm() == math.sqrt(s)
    if v >= NORM_SQ_MIN:
        assert q.im_norm() == math.sqrt(v)


def test_two_sphere_representative_and_sampling():
    s = TwoSphere(1.5, 2.0)
    rep = s.representative(J)
    assert rep == Quaternion(1.5, 0, 2.0, 0)
    assert (rep.w, rep.im_norm()) == s
    # a degenerate sphere is the single real point x
    pt = TwoSphere(0.75, 0.0)
    assert pt.representative(K) == Quaternion(0.75)


def test_orthogonal_unit_builds_frames():
    rng = random.Random(12)
    units = [I, J, K] + [random_unit_imaginary(rng) for _ in range(50)]
    for u in units:
        v = orthogonal_unit(u)
        assert is_unit_imaginary(v)
        dot = u.x * v.x + u.y * v.y + u.z * v.z
        assert abs(dot) <= 1e-12
        # u v is the third frame axis
        w = u * v
        assert is_unit_imaginary(w)
        assert abs(u.x * w.x + u.y * w.y + u.z * w.z) <= 1e-12
        # deterministic
        assert orthogonal_unit(u) == v


def test_random_unit_imaginary_is_seeded():
    a = [random_unit_imaginary(random.Random(5)) for _ in range(3)]
    b = [random_unit_imaginary(random.Random(5)) for _ in range(3)]
    assert a == b
    for u in a:
        assert is_unit_imaginary(u)
        assert abs(u.norm() - 1.0) <= 1e-12


@settings(max_examples=60)
@given(quats)
def test_imaginary_part_norm(q):
    assert math.isclose(q.im_norm() ** 2 + q.w ** 2, q.norm2(),
                        rel_tol=1e-9, abs_tol=1e-9)
