"""End-to-end and per-layer benchmark of qlucas.

    python3 benchmark/run.py --workload factored --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. See benchmark/README.md.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import cmath  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPS_CAMPAIGN = 1e-6   # the `qlucas verify` campaign collar
EPS_OWN_HULL = 1e-8   # the library default for a single query
L_SAMPLES = tuple(r * cmath.exp(2j * math.pi * k / 8)
                  for r in (0.7, 1.3) for k in range(8))
L_REL_TOL = 1e-8
SLICE_UNITS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

# fresh interpreters timed for setup_s. Interpreter start-up drifts by a
# third within minutes on a shared host, far more than the reference
# computation below, so each one is paired with a baseline interpreter
# that does the same kind of work (it loads the program's numeric
# dependencies but not the program) and is scaled by BASELINE_NOMINAL
# over that baseline's time. BASELINE_NOMINAL is the baseline's typical
# CPU time on the 2-core x86-64 host the benchmark was tuned on. The
# median of the scaled pairs is reported. A program that stops importing
# scipy still shows the gain in full: the baseline keeps importing it.
SETUP_REPEATS = 3
BASELINE_CODE = "import numpy, scipy.optimize"
BASELINE_NOMINAL = 0.8
IMPORTTIME_REPEATS = 3
SETUP_CODE = """
import sys
from qlucas.cli import main
sys.exit(main(["verify", "--coeffs", "[[0,0,1,0],[0,1,0,0],[0.5,0,0,0]]",
               "--format", "json"]))
"""
# distinct inputs per second of --seconds. A run takes each of them once,
# in order, which fills about three quarters of its budget at the seed
# commit on a 2-core x86-64 host (all of it on own-hull, whose few costly
# operations need every input they can get to keep p99 steady), then goes
# round them again for the rest. `attempted` and `failed` count the
# distinct inputs, so they depend on the seed and --seconds alone. A
# traced run measures half as many inputs, twice.
DISTINCT_PER_S = {"factored": 200, "real": 500, "own-hull": 4,
                  "scale-grid": 45}
# inputs of the untimed counting pass of a traced run, from the start of
# the pool
COUNT_OPS = {"factored": 40, "real": 40, "own-hull": 3, "scale-grid": 24}
WARMUP_OPS = 2
# operations are timed in CPU time of this single-threaded process, which
# on a shared host excludes time spent waiting for other tenants; a loop
# also ends after WALL_LIMIT times its budget in wall time
CLOCK = layers.CLOCK
WALL_LIMIT = 1.6
# Times are then scaled to a nominal machine speed. The speed of a shared
# host drifts by a third within minutes, in CPU time too, and a short
# fixed computation slows down with it. It runs every REF_EVERY seconds
# of operation time; each operation is scaled by REF_NOMINAL over the
# median of the REF_WINDOW samples on either side of it. REF_NOMINAL is
# the reference's typical CPU time on the 2-core x86-64 host the
# benchmark was tuned on, so the scaled figures read as times there.
REF_EVERY = 0.02
REF_WINDOW = 5
REF_NOMINAL = 2.5e-4


def load_program():
    """Import qlucas from this checkout's src, and only from there."""
    if not (SRC / "qlucas" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}/qlucas")
    sys.path.insert(0, str(SRC))
    import qlucas
    if Path(qlucas.__file__).resolve().parent != SRC / "qlucas":
        raise SystemExit(f"benchmark: imported qlucas from {qlucas.__file__}"
                         f", not from {SRC}")
    return qlucas


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# one operation per workload


def poly_from(ql, coeffs):
    return ql.QPoly([ql.Quaternion(*c) if isinstance(c, list) else c
                     for c in coeffs])


def op_verify(ql, coeffs):
    return ql.verify_gauss_lucas(poly_from(ql, coeffs), eps_hull=EPS_CAMPAIGN)


def op_real(ql, coeffs):
    return ql.verify_real_case(poly_from(ql, coeffs), eps_hull=EPS_CAMPAIGN)


def op_own_hull(ql, coeffs):
    p = poly_from(ql, coeffs)
    zs = ql.zero_set(p)
    crit = ql.critical_points(p)
    queries = [z.point for z in crit.isolated]
    queries += [ql.Quaternion(s.sphere.x, s.sphere.y) for s in crit.spheres]
    hull = [(oracle.quat(q), ql.hull_membership_slice(q, zs, EPS_OWN_HULL))
            for q in queries]
    bound = ql.modulus_lower_bound(p)
    factor = []
    for unit in SLICE_UNITS:
        sp = ql.restrict_to_slice(p, ql.Quaternion(0.0, *unit))
        q_coeffs = ql.slice_symmetrization(sp)
        fac = ql.fejer_riesz_factor(q_coeffs)
        identity = ql.check_l_identity(sp.p1, sp.p2, fac.m_coeffs, L_SAMPLES,
                                       L_REL_TOL)
        factor.append((unit, (sp, q_coeffs, fac, identity)))
    return {"zeros": zs, "critical": crit, "hull": hull, "bound": bound,
            "factor": factor}


OPERATIONS = {"factored": op_verify, "real": op_real,
              "own-hull": op_own_hull, "scale-grid": op_verify}


def check(workload: str, out, coeffs) -> list:
    if workload == "own-hull":
        return oracle.check_own_hull(out, coeffs, EPS_OWN_HULL, L_SAMPLES,
                                     L_REL_TOL)
    return oracle.check_report(out, coeffs, real_case=workload == "real")


# ---------------------------------------------------------------------------
# measurement


class Loop:
    """Outcome of one closed loop: the CPU time of every execution and
    whether it completed, the outcome of every distinct input, and
    reference-loop samples taken along the way.

    `attempted` and `failed` count distinct inputs, each judged by its
    first execution, so for a given seed and `--seconds` they do not
    depend on the speed of the host."""

    def __init__(self):
        self.times = []
        self.completed_runs = 0
        self.measured = 0.0
        self.refs = []
        self.outcomes = []
        self.rejected = []
        self.unstable = 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o != "ok")

    @property
    def reasons(self) -> Counter:
        return Counter(o for o in self.outcomes if o != "ok")

    def normalized(self) -> list:
        """Execution times scaled to the nominal reference speed, each by
        the median of the reference samples around it."""
        marks = [i for i, _ in self.refs]
        out = []
        for k, dt in enumerate(self.times):
            p = bisect.bisect_right(marks, k)
            near = [t for _, t in self.refs[max(0, p - REF_WINDOW):
                                            p + REF_WINDOW]]
            out.append(dt * REF_NOMINAL / statistics.median(near))
        return out


def reference_seconds() -> float:
    """CPU time of a fixed pure-Python computation in the style of the
    program's kernels: star products of two fixed degree-7
    polynomials."""
    t0 = CLOCK()
    for _ in range(5):
        workloads.qconv(_REF_POLY, _REF_POLY)
    return CLOCK() - t0


_REF_POLY = [(0.5 * k, -0.25 * k, 1.0, 1.0 - 0.125 * k) for k in range(8)]


def execute(ql, workload: str, coeffs):
    """One operation, timed, then judged outside the timed part: "ok",
    "oracle_rejected", a breakdown metric name, or "crash"."""
    out = None
    outcome = "ok"
    t0 = CLOCK()
    try:
        out = OPERATIONS[workload](ql, coeffs)
    except (ql.NumericalBreakdown, ValueError) as exc:
        outcome = layers.breakdown_metric(exc)
    except Exception:
        outcome = "crash"
    dt = CLOCK() - t0
    problems = []
    if outcome == "crash":
        traceback.print_exc(file=sys.stderr)
    elif out is not None:
        problems = check(workload, out, coeffs)
        if problems:
            outcome = "oracle_rejected"
    return dt, outcome, problems


def run_loop(ql, workload: str, inputs: list, seconds: float) -> Loop:
    """Every input once, in order, then round after round over the same
    inputs until the operations have taken `seconds` of CPU time. The
    oracle and the reference samples run between operations, outside the
    measured time. A repeated input must give the outcome of its first
    execution."""
    loop = Loop()
    loop.refs.append((0, reference_seconds()))
    next_ref = REF_EVERY
    deadline = time.monotonic() + WALL_LIMIT * seconds
    k = 0
    while k < len(inputs) or (loop.measured < seconds
                              and time.monotonic() < deadline):
        coeffs = inputs[k % len(inputs)]
        dt, outcome, problems = execute(ql, workload, coeffs)
        loop.times.append(dt)
        loop.measured += dt
        loop.completed_runs += outcome == "ok"
        if k < len(inputs):
            loop.outcomes.append(outcome)
            if problems:
                loop.rejected.append({"input": coeffs,
                                      "problems": problems[:5]})
        elif outcome != loop.outcomes[k % len(inputs)]:
            loop.unstable += 1
        k += 1
        if loop.measured >= next_ref:
            loop.refs.append((len(loop.times), reference_seconds()))
            next_ref = loop.measured + REF_EVERY
    return loop


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_cpu_seconds(args: list) -> tuple:
    """CPU time of one fresh interpreter, and its completed process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime), proc


def setup_seconds() -> tuple:
    """CPU times of fresh interpreters that import qlucas and verify the
    README quadratic through the CLI, as every `qlucas` call does, each
    followed by a baseline interpreter that imports numpy and
    scipy.optimize."""
    times, baselines = [], []
    for _ in range(SETUP_REPEATS):
        dt, proc = child_cpu_seconds(["-c", SETUP_CODE])
        times.append(dt)
        if proc.returncode != 0 or \
                json.loads(proc.stdout)["verdict"] != "verified":
            raise SystemExit("benchmark: the setup verification did not "
                             f"verify: {proc.stderr.strip()[-500:]}")
        dt, proc = child_cpu_seconds(["-c", BASELINE_CODE])
        if proc.returncode != 0:
            raise SystemExit("benchmark: the baseline import failed: "
                             f"{proc.stderr.strip()[-500:]}")
        baselines.append(dt)
    return times, baselines


def import_times_ms() -> dict:
    """Cumulative import time of qlucas and of scipy.optimize, from
    `-X importtime` (median of a few fresh interpreters)."""
    samples = {"qlucas": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import qlucas"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: import failed: {proc.stderr[-500:]}")
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                found[parts[2].strip()] = int(parts[1]) / 1000.0
        for name in samples:
            samples[name].append(found.get(name, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def environment(ql, workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlucas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "qlucas": ql.__version__, "commit": commit,
            "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "threads": os.environ["OMP_NUM_THREADS"]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ql, workload: str, inputs: list, seconds: float):
    loop = run_loop(ql, workload, inputs, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not loop.completed_runs:
        raise SystemExit("benchmark: no operation completed")
    setup, baselines = setup_seconds()
    scaled = [BASELINE_NOMINAL * t / b for t, b in zip(setup, baselines)]
    norm = loop.normalized()
    # latency over the first execution of each distinct input, so that
    # the number of rounds a run makes does not weight the inputs
    lat_ms = [1e3 * t for t in norm[:loop.attempted]]
    metrics = {
        "setup_s": metric(statistics.median(scaled), "s"),
        "ops_per_s": metric(loop.completed_runs / sum(norm), "1/s"),
        "latency_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "latency_ms_p99": metric(percentile(lat_ms, 99.0), "ms"),
        "success_rate": metric(1.0 - loop.failed / loop.attempted,
                               "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    raw_ms = [1e3 * t for t in loop.times[:loop.attempted]]
    detail = {"fail_rate": loop.failed / loop.attempted,
              "executions": len(loop.times),
              "unscaled": {"ops_per_s": loop.completed_runs / loop.measured,
                           "latency_ms_p50": statistics.median(raw_ms),
                           "latency_ms_p99": percentile(raw_ms, 99.0)},
              "reference_ms": 1e3 * statistics.median(
                  [t for _, t in loop.refs]),
              "samples_above_p99": sum(1 for x in lat_ms
                                       if x > metrics["latency_ms_p99"]
                                       ["value"]),
              "setup_s_unscaled": setup,
              "setup_baseline_s": baselines}
    return loop, metrics, detail


def per_layer(ql, workload: str, inputs: list, count_inputs: list,
              seconds: float):
    """Untimed counting pass, then an untraced and a traced loop over the
    same inputs, half the run each."""
    tracer = layers.Tracer()
    with layers.HamiltonCounter(ql.Quaternion) as ham:
        tracer.attach()
        try:
            for coeffs in count_inputs:
                try:
                    OPERATIONS[workload](ql, coeffs)
                except (ql.NumericalBreakdown, ValueError):
                    pass
        finally:
            tracer.detach()
    counted = {"quaternion.hamilton_products": ham.count,
               "qpoly.star_mul.coeff_products":
                   tracer.counts["qpoly.star_mul.coeff_products"]}

    plain = run_loop(ql, workload, inputs, seconds / 2.0)
    tracer = layers.Tracer()
    tracer.attach()
    try:
        traced = run_loop(ql, workload, inputs, seconds / 2.0)
    finally:
        tracer.detach()

    # both loops judge the same inputs; they must judge them alike
    traced.unstable += sum(a != b for a, b in zip(plain.outcomes,
                                                  traced.outcomes))
    n = len(traced.times)
    # span times per operation, scaled to the nominal reference speed
    ms = 1e3 * REF_NOMINAL / statistics.median(t for _, t in traced.refs) / n
    metrics = {}
    for name in layers.span_names():
        metrics[f"{name}.calls"] = metric(tracer.calls[name] / n, "1/op")
        metrics[f"{name}.total_ms"] = metric(tracer.total[name] * ms,
                                             "ms/op")
        if not name.startswith("kernel."):
            metrics[f"{name}.self_ms"] = metric(tracer.self_time[name] * ms,
                                                "ms/op")
    for outcome in layers.CLASSIFY_OUTCOMES:
        key = f"roots.classify_sphere.{outcome}"
        metrics[key] = metric(tracer.counts[key] / n, "1/op")
    key = "hull.hull_membership_slice.outside"
    metrics[key] = metric(tracer.counts[key] / n, "1/op")
    key = "hull.hull_membership_4d.points"
    calls_4d = tracer.calls["hull.hull_membership_4d"]
    metrics[key] = metric(tracer.counts[key] / calls_4d if calls_4d else 0.0,
                          "1/call")
    for name, value in counted.items():
        metrics[name] = metric(value, "count")
    for name in layers.BREAKDOWN_NAMES:
        metrics[name] = metric(plain.reasons[name] / plain.attempted,
                               "ratio")
    bench_self = traced.measured - tracer.top_level
    span_self = sum(tracer.self_time.values())
    metrics["bench.self_ms"] = metric(bench_self * ms, "ms/op")
    metrics["trace.accounted_share"] = metric(
        (span_self + bench_self) / traced.measured, "ratio")
    metrics["trace.overhead"] = metric(
        (sum(traced.normalized()) / n)
        / (sum(plain.normalized()) / len(plain.times)), "ratio")
    imports = import_times_ms()
    metrics["setup.qlucas_import_ms"] = metric(imports["qlucas"], "ms")
    metrics["setup.scipy_optimize_import_ms"] = metric(
        imports["scipy.optimize"], "ms")
    detail = {"count_ops": len(count_inputs), "traced_ops": n,
              "untraced_ops": len(plain.times)}
    return plain, traced, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    ql = load_program()
    distinct = max(1, round(DISTINCT_PER_S[args.workload] * args.seconds))
    if args.trace:
        distinct = max(1, distinct // 2)
    count_ops = COUNT_OPS[args.workload] if args.trace else 0
    pool = workloads.generate(args.workload, args.seed,
                              max(distinct, count_ops) + WARMUP_OPS)
    inputs = pool[:distinct]
    # lazy imports and first-call set-up inside the program, untimed, on
    # inputs that are not measured
    for coeffs in pool[-WARMUP_OPS:]:
        try:
            OPERATIONS[args.workload](ql, coeffs)
        except (ql.NumericalBreakdown, ValueError):
            pass

    if args.trace:
        loop, traced, metrics, detail = per_layer(
            ql, args.workload, inputs, pool[:count_ops], args.seconds)
        loop.unstable += traced.unstable
    else:
        loop, metrics, detail = end_to_end(ql, args.workload, inputs,
                                           args.seconds)
    crashed = loop.reasons["crash"]
    detail.update({"failures_by_reason": dict(sorted(loop.reasons.items())),
                   "unstable": loop.unstable,
                   "oracle_rejections": loop.rejected[:3]})
    print(json.dumps({"env": environment(ql, args.workload, args.seed),
                      "detail": detail}))
    # a rejected answer is a failed operation, counted in `failed` and in
    # success_rate; the run is incorrect only when an operation raises an
    # exception the program does not document, or when an input does not
    # give the same outcome every time it is run
    print(json.dumps({"correct": crashed == 0 and loop.unstable == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
