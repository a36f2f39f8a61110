import cmath
import math
import random
from itertools import zip_longest

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from qlucas import factorization
from qlucas.factorization import (
    MFactor, check_l_identity, fejer_riesz_factor, slice_symmetrization,
)
from qlucas.qpoly import QPoly, horner, restrict_to_slice
from qlucas.quaternion import I, J, Quaternion, random_unit_imaginary
from qlucas.roots import NumericalBreakdown, _root_clusters


def hermitian_square(p1, p2=()):
    """Coefficients of P1 conj-reflect(P1) + P2 conj-reflect(P2)."""
    p1 = np.asarray(p1, dtype=complex)
    out = npp.polymul(p1, np.conj(p1))
    if len(p2):
        p2 = np.asarray(p2, dtype=complex)
        q2 = npp.polymul(p2, np.conj(p2))
        width = max(out.size, q2.size)
        w = np.zeros(width, dtype=complex)
        w[:out.size] += out
        w[:q2.size] += q2
        out = w
    assert float(np.max(np.abs(out.imag))) <= 1e-12 * np.max(np.abs(out))
    return out.real


def sample_ring(rng, n):
    return [rng.uniform(0.4, 1.6) * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(n)]


def test_known_quartic_factors_exactly():
    m = fejer_riesz_factor([1.0, 0.0, 1.0, 0.0, 0.25])
    assert m.degree == 2
    want = np.array([-1.0, -1j * np.sqrt(2.0), 0.5])
    assert np.max(np.abs(np.asarray(m.m_coeffs) - want)) <= 1e-9
    assert m.residual <= 1e-12
    back = m.product_coeffs()
    assert np.max(np.abs(back - np.array([1, 0, 1, 0, 0.25]))) <= 1e-9


def test_factor_of_constant_and_pure_square():
    m = fejer_riesz_factor([4.0])
    assert m.m_coeffs == (2 + 0j,)
    m = fejer_riesz_factor([0.0, 0.0, 1.0])    # z^2
    assert m.degree == 1
    assert abs(m.m_coeffs[0]) <= 1e-12
    assert abs(m.m_coeffs[1] - 1.0) <= 1e-12


def test_factor_roots_live_in_the_closed_upper_half_plane():
    rng = random.Random(19)
    for _ in range(60):
        deg1, deg2 = rng.randint(0, 4), rng.randint(0, 4)
        p1 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(deg1 + 1)]
        p2 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(deg2 + 1)]
        q = hermitian_square(p1, p2)
        if abs(q[-1]) < 1e-8:
            continue
        m = fejer_riesz_factor(q)
        assert m.residual <= 1e-8
        if m.degree >= 1:
            for z in np.roots(m.m_coeffs[::-1]):
                assert z.imag >= -1e-7


def test_factor_product_reconstructs_input():
    rng = random.Random(20)
    for _ in range(50):
        deg = rng.randint(0, 6)
        p1 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(deg + 1)]
        q = hermitian_square(p1)
        if abs(q[-1]) < 1e-8:
            continue
        m = fejer_riesz_factor(q)
        diff = m.product_coeffs() - q
        assert np.max(np.abs(diff)) <= 1e-8 * (1.0 + np.max(np.abs(q)))


def test_factor_rejects_impossible_inputs():
    with pytest.raises(NumericalBreakdown):
        fejer_riesz_factor([0.0, 1.0])            # odd degree
    with pytest.raises(NumericalBreakdown):
        fejer_riesz_factor([1.0, 0.0, -1.0])      # negative at infinity
    with pytest.raises(NumericalBreakdown):
        fejer_riesz_factor([0.0, -1.0, 0.0, 0.0, 1.0])  # sign change at 0
    with pytest.raises(NumericalBreakdown):
        fejer_riesz_factor([-3.0])
    with pytest.raises(ValueError):
        fejer_riesz_factor([1j, 0.0, 1.0])
    with pytest.raises(ValueError):
        fejer_riesz_factor([0.0])


@pytest.mark.parametrize("q, n, bad", [
    ([1.0, math.inf, 1.0], 1, math.inf), ([math.inf], 0, math.inf),
    ([4.0, 0.0, math.inf], 2, math.inf), ([1.0, math.nan, 1.0], 1, math.nan),
    ([1.0, 0.0, -math.inf], 2, -math.inf),
])
def test_factor_rejects_a_non_finite_coefficient(q, n, bad):
    # the relative trim drops every entry below an infinite largest one,
    # and the empty list read as the odd degree -1
    with pytest.raises(ValueError) as ex:
        fejer_riesz_factor(q)
    assert str(ex.value) == f"coefficient {n} is not finite: {bad!r}"


def test_product_residual_breakdown(monkeypatch):
    q = [1.0, 0.0, 1.0, 0.0, 0.25]
    residual = fejer_riesz_factor(q).residual
    assert residual > 0.0
    monkeypatch.setattr(factorization, "TAU_FACTOR", 0.0)
    with pytest.raises(NumericalBreakdown) as ex:
        fejer_riesz_factor(q)
    assert str(ex.value) == "reconstructed product does not match the input"
    assert ex.value.info == {"residual": residual}


def test_factor_reads_realness_from_the_bits():
    # an imaginary part far below any relative tolerance is still not real
    with pytest.raises(ValueError):
        fejer_riesz_factor([1.0, 1e-300j, 1.0])
    # -0.0 is zero: the same factor as the real list
    assert repr(fejer_riesz_factor([1.0, complex(0.0, -0.0), 1.0])) == \
        repr(fejer_riesz_factor([1.0, 0.0, 1.0]))


def test_mfactor_helpers():
    m = MFactor((1 + 1j, 2j), 0.0)
    assert m.degree == 1
    assert m.reflected_coeffs() == (1 - 1j, -2j)
    assert m(0.5) == (1 + 1j) + 0.5 * 2j


def test_derivative_identity_holds_for_single_component():
    # P2 = 0 and P1 with strictly upper-half roots: M is a unimodular
    # multiple of P1 and the identity is exact
    rng = random.Random(47)
    for _ in range(25):
        roots = [complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
                 for _ in range(rng.randint(1, 4))]
        lead = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lead) < 0.2:
            lead = 1.0 + 1j
        p1 = npp.polyfromroots(roots) * lead
        q = hermitian_square(p1)
        m = fejer_riesz_factor(q)
        assert check_l_identity(p1, [0j], m.m_coeffs, sample_ring(rng, 100))


def test_derivative_identity_fails_for_genuine_two_component_input():
    p = QPoly([J, I, Quaternion(0.5)])
    sp = restrict_to_slice(p, I)
    q = slice_symmetrization(sp)
    m = fejer_riesz_factor(q)
    rng = random.Random(3)
    assert not check_l_identity(sp.p1, sp.p2, m.m_coeffs,
                                sample_ring(rng, 100))


def test_slice_symmetrization_matches_full_symmetrization():
    rng = random.Random(61)
    for _ in range(40):
        deg = rng.randint(1, 5)
        coeffs = [Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
                  for _ in range(deg + 1)]
        p = QPoly(coeffs)
        if p.degree < 1:
            continue
        unit = random_unit_imaginary(rng)
        sp = restrict_to_slice(p, unit)
        got = slice_symmetrization(sp)
        assert type(got) is list and all(type(c) is float for c in got)
        want_poly = restrict_to_slice(p.symmetrize(), unit)
        assert max(map(abs, want_poly.p2), default=0.0) <= \
            1e-10 * (1.0 + p.max_coeff_norm() ** 2)
        gap = max(abs(a - b) for a, b in
                  zip_longest(got, want_poly.p1, fillvalue=0.0))
        assert gap <= 1e-9 * (1.0 + p.max_coeff_norm() ** 2)


def test_factored_then_checked_end_to_end():
    rng = random.Random(62)
    for _ in range(20):
        deg = rng.randint(1, 4)
        coeffs = [Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
                  for _ in range(deg + 1)]
        p = QPoly(coeffs)
        if p.degree < 1:
            continue
        sp = restrict_to_slice(p, I)
        q = slice_symmetrization(sp)
        if abs(q[-1]) < 1e-10:
            continue
        m = fejer_riesz_factor(q)
        assert m.residual <= 1e-8
        # the factorization itself is sound even when the sampled
        # derivative identity is not
        prod = m.product_coeffs()
        assert type(prod) is list and all(type(c) is float for c in prod)
        gap = max(abs(a - b) for a, b in zip_longest(prod, q, fillvalue=0.0))
        assert gap <= 1e-8 * (1.0 + max(map(abs, q)))


# ---------------------------------------------------------------------------
# the list kernels against the numpy formulas they replace


def numpy_slice_symmetrization(sp):
    width, parts = 1, []
    for p in (np.asarray(sp.p1, dtype=complex),
              np.asarray(sp.p2, dtype=complex)):
        if p.size and np.any(p):
            parts.append(npp.polymul(p, np.conj(p)))
            width = max(width, parts[-1].size)
    out = np.zeros(width, dtype=complex)
    for prod in parts:
        out[:prod.size] += prod
    return out.real


def numpy_m_coeffs(q):
    q = np.asarray(q, dtype=float)
    roots = []
    for z, m, _ in _root_clusters(q.tolist()):
        if z.imag > 0:
            roots += [z] * m
        elif z.imag == 0:
            roots += [z] * (m // 2)
    return npp.polyfromroots(roots).astype(complex) * np.sqrt(q[-1])


def numpy_l_identity(p1, p2, m, zs, rel_tol=1e-8):
    p1, p2, m = (np.asarray(list(a), dtype=complex) for a in (p1, p2, m))
    d1, d2, dm = (npp.polyder(a) if a.size > 1 else np.zeros(1, complex)
                  for a in (p1, p2, m))

    def mag(coeffs, r):
        return float(sum(abs(c) * max(1.0, r) ** n
                         for n, c in enumerate(coeffs)))

    for z in zs:
        lhs = z * (horner(d1, z) * horner(np.conj(p1), z)
                   + horner(d2, z) * horner(np.conj(p2), z))
        rhs = z * horner(dm, z) * horner(np.conj(m), z)
        r = abs(z)
        scale = 1.0 + r * (mag(d1, r) * mag(p1, r) + mag(d2, r) * mag(p2, r)
                           + mag(dm, r) * mag(m, r))
        if abs(lhs - rhs) > rel_tol * scale:
            return False
    return True


def test_list_kernels_match_the_numpy_formulas():
    rng = random.Random(83)
    factored, verdicts = 0, set()
    for k in range(200):
        deg = rng.randint(1, 6)
        parts = 1 if k % 5 == 0 else 4      # real P: P2 = 0 on every slice
        coeffs = [Quaternion(*(rng.uniform(-2, 2) for _ in range(parts)))
                  for _ in range(deg + 1)]
        sp = restrict_to_slice(QPoly(coeffs), random_unit_imaginary(rng))
        got = slice_symmetrization(sp)
        want = numpy_slice_symmetrization(sp)
        assert type(got) is list and len(got) == want.size
        assert all(type(c) is float for c in got)
        assert np.max(np.abs(np.array(got) - want)) <= \
            1e-13 * np.max(np.abs(want))
        try:
            m = fejer_riesz_factor(got)
        except NumericalBreakdown:
            continue
        factored += 1
        ref = numpy_m_coeffs(got)
        assert isinstance(m.m_coeffs, tuple) and len(m.m_coeffs) == ref.size
        assert np.max(np.abs(np.asarray(m.m_coeffs) - ref)) <= \
            1e-12 * (1.0 + np.max(np.abs(ref)))
        prod = m.product_coeffs()
        assert type(prod) is list and all(type(c) is float for c in prod)
        zs = sample_ring(rng, 8)
        holds = check_l_identity(sp.p1, sp.p2, m.m_coeffs, zs)
        assert holds == numpy_l_identity(sp.p1, sp.p2, m.m_coeffs, zs)
        verdicts.add(holds)
    assert factored >= 190 and verdicts == {True, False}


def test_factor_takes_an_ndarray_as_its_list():
    rng = random.Random(97)
    for _ in range(40):
        coeffs = [Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))
                  for _ in range(rng.randint(1, 5))]
        q = slice_symmetrization(
            restrict_to_slice(QPoly(coeffs), random_unit_imaginary(rng)))
        assert type(q) is list
        # an outside caller may pass the list as an ndarray
        arr = np.asarray(q)
        try:
            want = fejer_riesz_factor(q)
        except NumericalBreakdown as err:
            with pytest.raises(NumericalBreakdown) as got:
                fejer_riesz_factor(arr)
            assert repr(got.value.info) == repr(err.info)
            continue
        assert repr(fejer_riesz_factor(arr)) == repr(want)
        # complex and integer arrays convert as their entries do
        assert repr(fejer_riesz_factor(arr.astype(complex))) == repr(want)
    assert repr(fejer_riesz_factor(np.array([4, 0, 1]))) == \
        repr(fejer_riesz_factor([4.0, 0.0, 1.0]))


def fejer_riesz_from_the_full_list(q):
    """fejer_riesz_factor's product with M's roots read from the full
    root list, the closed upper half of _root_clusters with the mirror
    image of each pair; q is real, trimmed, of even degree with a
    positive leading coefficient."""
    upper = _root_clusters(q)
    full = sorted(upper + [(z.conjugate(), m, r) for z, m, r in upper
                           if z.imag], key=lambda cl: (cl[0].real, cl[0].imag))
    roots_m = []
    for z, m, _ in full:
        if z.imag > 0:
            roots_m.extend([z] * m)
        elif z.imag == 0:
            if m % 2:
                raise NumericalBreakdown(
                    "odd real root multiplicity, polynomial changes sign",
                    root=z.real, multiplicity=m)
            roots_m.extend([z] * (m // 2))
    m = [complex(math.sqrt(q[-1]))]
    for r in roots_m:
        m = factorization._mul(m, [-r, 1.0])
    prod = factorization._mul(m, [c.conjugate() for c in m])
    diff = [a - b for a, b in zip_longest(prod, q, fillvalue=0.0)]
    residual = max(map(abs, diff)) / (1.0 + max(map(abs, q)))
    return MFactor(tuple(m), residual)


def test_factor_reads_the_upper_half_plane_as_the_full_list_did():
    rng = random.Random(1506)
    for _ in range(200):
        roots = []
        for _ in range(rng.randint(0, 2)):
            roots += [complex(rng.uniform(-2, 2))] * 2
        for _ in range(rng.randint(1 if not roots else 0, 2)):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
            roots += [z, z.conjugate()] * rng.choice([1, 2])
        q = (rng.uniform(0.5, 2) * np.real(npp.polyfromroots(roots))).tolist()
        assert repr(fejer_riesz_factor(q)) == repr(
            fejer_riesz_from_the_full_list(q))
