"""Per-layer spans and counters, attached to qlucas from outside.

`Tracer.attach` replaces each traced public function by a timing wrapper
under every name that refers to it in the qlucas modules (so `zero_set`
is wrapped in `roots`, `gauss_lucas`, `cli` and the package namespace),
and `Tracer.detach` puts every original object back. Nothing under
`src/` is edited. Self time is a span's duration minus the durations of
the spans nested directly inside it.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
import types
from collections import Counter

# spans are timed in process CPU time, the clock of the benchmark loop
CLOCK = time.process_time

# (module, attribute) of every traced function or method; a name the
# program no longer has is skipped and reports zero calls
FUNCTIONS = (
    ("gauss_lucas", "verify_gauss_lucas"),
    ("gauss_lucas", "verify_real_case"),
    ("gauss_lucas", "modulus_lower_bound"),
    ("gauss_lucas", "modulus_lower_bound_details"),
    ("roots", "zero_set"),
    ("roots", "critical_points"),
    ("roots", "complex_roots"),
    ("roots", "classify_sphere"),
    ("qpoly", "star_mul"),
    ("qpoly", "restrict_to_slice"),
    ("qpoly", "QPoly.evaluate"),
    ("qpoly", "QPoly.symmetrize"),
    ("qpoly", "QPoly.derivative"),
    ("hull", "hull_membership_slice"),
    ("hull", "hull_membership_4d"),
    ("factorization", "slice_symmetrization"),
    ("factorization", "fejer_riesz_factor"),
    ("factorization", "check_l_identity"),
)
# external kernels at layer edges: (span name, module, attribute)
KERNELS = (
    ("kernel.np_roots", "roots", "np.roots"),
    ("kernel.lsq_linear", "hull", "lsq_linear"),
)
CLASSIFY_OUTCOMES = ("spherical", "isolated", "not_a_zero")

# NumericalBreakdown messages raised at the seed commit, each with the
# metric that counts it; any other message is counted as breakdowns.other
BREAKDOWNS = {
    "root residual above tolerance": "roots.breakdowns.root_residual",
    "multiplicities do not sum to the degree":
        "roots.breakdowns.root_multiplicity_sum",
    "conjugate pairing failed for a real polynomial":
        "roots.breakdowns.conjugate_pairing",
    "symmetrization has a non-real coefficient residue":
        "roots.breakdowns.symmetrization_residue",
    "odd multiplicity at a real root of the symmetrization":
        "roots.breakdowns.odd_real_multiplicity",
    "real root of the symmetrization is not a zero":
        "roots.breakdowns.real_root_not_zero",
    "odd multiplicity at a spherical zero":
        "roots.breakdowns.odd_sphere_multiplicity",
    "classified isolated zero fails its residual bound":
        "roots.breakdowns.isolated_residual",
    "sphere of the symmetrization carries no zero of p":
        "roots.breakdowns.empty_sphere",
    "zero multiplicities do not account for the degree":
        "roots.breakdowns.zero_count",
    "reconstructed product does not match the input":
        "factorization.breakdowns.product_residual",
    "odd degree admits no half-degree factorization":
        "factorization.breakdowns.odd_degree",
    "negative leading coefficient, polynomial is negative at infinity":
        "factorization.breakdowns.negative_lead",
    "odd real root multiplicity, polynomial changes sign":
        "factorization.breakdowns.sign_change",
    "constant polynomial is not positive":
        "factorization.breakdowns.nonpositive_constant",
}
BREAKDOWN_NAMES = (sorted(BREAKDOWNS.values())
                   + ["breakdowns.value_error", "breakdowns.other"])


def breakdown_metric(exc: Exception) -> str:
    """Metric name counting a NumericalBreakdown or ValueError."""
    if isinstance(exc, ValueError):
        return "breakdowns.value_error"
    return BREAKDOWNS.get(str(exc), "breakdowns.other")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def span_names() -> list:
    return ([span_name(m, a) for m, a in FUNCTIONS]
            + [name for name, _, _ in KERNELS])


def qlucas_modules() -> list:
    pkg = sys.modules["qlucas"]
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"qlucas.{info.name}"))
    return mods


class _ModuleProxy(types.ModuleType):
    """Stands in for a module inside one importer, overriding a few
    attributes and forwarding every other lookup."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans (calls, total and self seconds) and event counters."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.top_level = 0.0
        self._child = []
        self._patches = []

    # -- spans ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            self._child.append(0.0)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = CLOCK() - t0
                child = self._child.pop()
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                if self._child:
                    self._child[-1] += dt
                else:
                    self.top_level += dt
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def attach(self) -> None:
        """Wrap every traced function under every name bound to it."""
        modules = qlucas_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module, attr in FUNCTIONS:
            owner = by_name.get(module)
            if "." in attr:
                cls_name, _, meth = attr.partition(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    fn = vars(cls)[meth]
                    self._set(cls, meth, self.wrap(span_name(module, attr),
                                                   fn, _OBSERVERS.get(attr)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(span_name(module, attr), fn,
                                _OBSERVERS.get(attr))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, name, wrapper)
        for name, module, attr in KERNELS:
            owner = by_name.get(module)
            if "." in attr:
                mod_attr, _, fn_attr = attr.partition(".")
                target = getattr(owner, mod_attr, None)
                fn = getattr(target, fn_attr, None)
                if fn is not None:
                    self._set(owner, mod_attr, _ModuleProxy(
                        target, **{fn_attr: self.wrap(name, fn)}))
            elif getattr(owner, attr, None) is not None:
                self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

    def detach(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _observe_classify(counts, args, kwargs, result):
    counts[f"roots.classify_sphere.{result[0]}"] += 1


def _observe_slice(counts, args, kwargs, result):
    if getattr(result, "weights", None) is None:
        counts["hull.hull_membership_slice.outside"] += 1


def _observe_4d(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["hull.hull_membership_4d.points"] += len(points)


def _observe_star_mul(counts, args, kwargs, result):
    counts["qpoly.star_mul.coeff_products"] += (len(args[0].coeffs)
                                                * len(args[1].coeffs))


_OBSERVERS = {
    "classify_sphere": _observe_classify,
    "hull_membership_slice": _observe_slice,
    "hull_membership_4d": _observe_4d,
    "star_mul": _observe_star_mul,
}


class HamiltonCounter:
    """Counts Quaternion.__mul__ calls, each one Hamilton product."""

    def __init__(self, quaternion_cls):
        self.cls = quaternion_cls
        self.count = 0
        self.original = None

    def __enter__(self):
        self.original = self.cls.__dict__["__mul__"]
        original = self.original

        def counted(a, b):
            self.count += 1
            return original(a, b)

        counted.__wrapped__ = original
        self.cls.__mul__ = counted
        return self

    def __exit__(self, *exc):
        self.cls.__mul__ = self.original
        return False
