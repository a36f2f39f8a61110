"""Self-tests of the benchmark: input generation, the oracle and the
tracer. Run with

    python3 -m pytest -q benchmark/selftest.py
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import layers
import oracle
import run
import workloads

ql = run.load_program()


def _reports(workload, seed, count):
    for coeffs in workloads.generate(workload, seed, count):
        try:
            yield coeffs, run.OPERATIONS[workload](ql, coeffs)
        except (ql.NumericalBreakdown, ValueError):
            continue


def _violated_report():
    for coeffs, rep in _reports("factored", 5, 60):
        if not rep.verified and any(c.certificate for c in rep.checks):
            return coeffs, rep
    raise AssertionError("no violated report with a certificate in 60 draws")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = json.dumps(workloads.generate(workload, 7, 40)).encode()
    b = json.dumps(workloads.generate(workload, 7, 40)).encode()
    c = json.dumps(workloads.generate(workload, 8, 40)).encode()
    assert a == b
    assert a != c


def test_pool_prefix_does_not_depend_on_pool_size():
    assert (workloads.generate("own-hull", 3, 6)
            == workloads.generate("own-hull", 3, 12)[:6])


def test_generated_polynomials_have_the_stated_shape():
    degrees = {len(c) - 1 for c in workloads.generate("factored", 1, 200)}
    assert degrees == {2, 3, 4, 5, 6}
    degrees = [len(c) - 1 for c in workloads.generate("own-hull", 1, 6)]
    assert degrees == [3, 4, 5, 3, 4, 5]
    for idx, coeffs in enumerate(workloads.generate("scale-grid", 1, 24)):
        assert len(coeffs) - 1 == workloads.GRID_CELLS[idx % 12][0]
    for coeffs in workloads.generate("real", 1, 200):
        assert 2 <= len(coeffs) - 1 <= 8 and abs(coeffs[-1]) >= 0.1


def test_star_product_of_factors_vanishes_at_the_leftmost_root():
    # (q - a) * R(q) vanishes at q = a
    a = (0.3, -1.2, 0.5, 2.0)
    rest = [(1.5, 0.2, -0.7, 0.1), (1.0, 0.0, 0.0, 0.0)]
    p = workloads.qconv([tuple(-v for v in a), (1.0, 0.0, 0.0, 0.0)], rest)
    assert oracle.Poly(p).residual(a) < 1e-15


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_oracle_accepts_the_programs_answers(workload):
    count = 2 if workload == "own-hull" else 12
    checked = 0
    for coeffs, out in _reports(workload, 4, count):
        if workload == "scale-grid" and len(coeffs) > 9:
            continue  # degree 12 and up: the seed commit answers some wrongly
        assert run.check(workload, out, coeffs) == []
        checked += 1
    assert checked


def test_hull_distance_on_known_configurations():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert oracle.hull_distance(square, (0.5, 0.5)) == 0.0
    assert oracle.hull_distance(square, (2.0, 0.5)) == pytest.approx(1.0)
    assert oracle.hull_distance(square, (2.0, 2.0)) == pytest.approx(
        math.sqrt(2.0))
    simplex = np.eye(4)
    assert oracle.hull_distance(simplex, (0.25,) * 4) == pytest.approx(
        0.0, abs=1e-12)
    assert oracle.hull_distance(simplex, (0.0,) * 4) == pytest.approx(0.5)
    sphere = oracle.sphere_samples(1.0, 2.0)
    assert oracle.hull_distance(sphere, (1.0, 0.0, 0.0, 0.0)) == 0.0
    assert oracle.hull_distance(sphere, (4.0, 0.0, 0.0, 0.0)) == \
        pytest.approx(3.0)


def test_oracle_rejects_a_corrupted_certificate():
    coeffs, rep = _violated_report()
    assert oracle.check_report(rep, coeffs, real_case=False) == []
    idx = next(i for i, c in enumerate(rep.checks) if c.certificate)
    cert = rep.checks[idx].certificate
    shifted = dataclasses.replace(cert, weights=tuple(
        reversed(cert.weights)) if len(set(cert.weights)) > 1 else tuple(
        w * 0.9 for w in cert.weights))
    moved = dataclasses.replace(cert, points=tuple(
        p + ql.Quaternion(0.0, 0.1) for p in cert.points))
    for bad in (shifted, moved):
        checks = list(rep.checks)
        checks[idx] = dataclasses.replace(checks[idx], certificate=bad)
        forged = dataclasses.replace(rep, checks=tuple(checks))
        assert oracle.check_report(forged, coeffs, real_case=False)


def test_oracle_rejects_flipped_verdicts():
    coeffs, rep = _violated_report()
    flipped = dataclasses.replace(rep, verified=True)
    assert oracle.check_report(flipped, coeffs, real_case=False)
    # an inside point declared Outside
    idx = next(i for i, c in enumerate(rep.checks) if c.certificate)
    checks = list(rep.checks)
    checks[idx] = dataclasses.replace(
        checks[idx], certificate=None, violation=ql.Outside(0.5))
    forged = dataclasses.replace(rep, checks=tuple(checks))
    assert oracle.check_report(forged, coeffs, real_case=False)
    # a real-coefficient report must verify
    real_coeffs, real_rep = next(_reports("real", 2, 5))
    assert oracle.check_report(real_rep, real_coeffs, real_case=True) == []
    forged = dataclasses.replace(real_rep, verified=False)
    assert oracle.check_report(forged, real_coeffs, real_case=True)


def test_oracle_rejects_a_wrong_outside_in_four_dimensions():
    coeffs, out = next(_reports("own-hull", 6, 3))
    assert oracle.check_own_hull(out, coeffs, run.EPS_OWN_HULL,
                                 run.L_SAMPLES, run.L_REL_TOL) == []
    zero = out["zeros"].isolated[0].point
    centre = out["zeros"].spheres[0].sphere
    # the midpoint of an isolated zero and the sphere centre is inside
    query = oracle.quat(0.5 * zero + 0.5 * ql.Quaternion(centre.x))
    forged = dict(out, hull=[(query, ql.Outside(0.1))])
    assert oracle.check_own_hull(forged, coeffs, run.EPS_OWN_HULL,
                                 run.L_SAMPLES, run.L_REL_TOL)


def _bindings():
    """Every name bound in the qlucas modules and the traced classes."""
    out = {}
    for mod in layers.qlucas_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for cls in (ql.QPoly, ql.Quaternion):
        for name, value in vars(cls).items():
            out[(cls.__name__, name)] = value
    return out


def test_traced_run_restores_every_patched_name():
    before = _bindings()
    pool = workloads.generate("own-hull", 1, 3)
    plain, traced, metrics, _ = run.per_layer(ql, "own-hull", pool[:2],
                                              pool, 0.2)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert metrics["quaternion.hamilton_products"]["value"] > 0
    assert metrics["kernel.lsq_linear.calls"]["value"] > 0


def test_attempted_and_failed_depend_on_the_inputs_alone():
    # scale-grid breaks down on some of these; a longer loop repeats the
    # inputs but judges each one once, by the same outcome every time
    inputs = workloads.generate("scale-grid", 1, 12)
    short = run.run_loop(ql, "scale-grid", inputs, 1e-6)
    long = run.run_loop(ql, "scale-grid", inputs, 1.0)
    assert len(short.times) == 12 < len(long.times)
    assert short.attempted == long.attempted == 12
    assert short.outcomes == long.outcomes
    assert 0 < short.failed < 12
    assert long.unstable == 0


def test_tracer_wraps_every_importer_and_times_nest():
    import qlucas.cli
    import qlucas.gauss_lucas
    original = qlucas.roots.zero_set
    tracer = layers.Tracer()
    tracer.attach()
    try:
        wrapped = qlucas.roots.zero_set
        assert wrapped.__wrapped__ is original
        assert qlucas.gauss_lucas.zero_set is wrapped
        assert qlucas.cli.zero_set is wrapped
        assert ql.zero_set is wrapped
        for coeffs in workloads.generate("factored", 2, 5):
            run.op_verify(ql, coeffs)
    finally:
        tracer.detach()
    assert tracer.calls["roots.zero_set"] == 10
    assert tracer.calls["kernel.np_roots"] == tracer.calls[
        "roots.complex_roots"]
    assert sum(tracer.self_time.values()) == pytest.approx(
        tracer.top_level, rel=1e-9)
