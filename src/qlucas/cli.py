"""Command line interface.

Subcommands: analyze, verify, factor, bound. Exit codes: 0 success or
verified, 1 verification found a violation, 2 usage or input error,
3 numerical breakdown (for campaigns: breakdowns on more than 1% of
trials, taking precedence over 1)."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .factorization import check_l_identity, fejer_riesz_factor
from .gauss_lucas import (
    modulus_lower_bound_details,
    run_verification_campaign,
    verify_gauss_lucas,
)
from .qpoly import QPoly, _symmetrized, restrict_to_slice
from .quaternion import (I as UNIT_I, J as UNIT_J, K as UNIT_K, Quaternion,
                         imag_direction)
from .roots import NumericalBreakdown, critical_points, zero_set
from .tolerances import EPS_CAMPAIGN, EPS_HULL, TAU_ZERO, _check_setting


class CLIError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def fmt_q(q: Quaternion) -> str:
    return f"{q.w:.6g} + {q.x:.6g} i + {q.y:.6g} j + {q.z:.6g} k"


def _poly_from_obj(obj) -> QPoly:
    if isinstance(obj, dict):
        if "coeffs" not in obj:
            raise CLIError("polynomial object needs a 'coeffs' field")
        obj = obj["coeffs"]
    if not isinstance(obj, list) or not obj:
        raise CLIError("polynomial must be a nonempty coefficient list, "
                       "constant term first")
    coeffs = []
    for n, item in enumerate(obj):
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            item = [item]
        elif not (isinstance(item, list) and len(item) == 4
                  and all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in item)):
            raise CLIError("each coefficient must be a number or a "
                           "[w, x, y, z] list")
        try:
            coeffs.append(Quaternion(*item))
        except OverflowError:       # an integer beyond the float range
            raise CLIError(f"coefficient {n} is beyond the float range")
    p = QPoly(coeffs)
    if p.is_zero:
        raise CLIError("the zero polynomial cannot be analyzed")
    return p


def _load_poly(args) -> QPoly:
    if args.coeffs is not None:
        try:
            obj = json.loads(args.coeffs)
        except json.JSONDecodeError as ex:
            raise CLIError(f"--coeffs is not valid JSON: {ex}")
        return _poly_from_obj(obj)
    if args.input is not None:
        try:
            with open(args.input) as fh:
                obj = json.load(fh)
        except OSError as ex:
            raise CLIError(f"cannot read {args.input}: {ex}")
        except json.JSONDecodeError as ex:
            raise CLIError(f"{args.input} is not valid JSON: {ex}")
        return _poly_from_obj(obj)
    raise CLIError("no polynomial given; use --input FILE or --coeffs JSON")


def _parse_slice(text: str) -> Quaternion:
    named = {"i": UNIT_I, "j": UNIT_J, "k": UNIT_K}
    if text in named:
        return named[text]
    try:
        v = json.loads(text)
    except json.JSONDecodeError:
        raise CLIError("--slice must be i, j, k or a JSON [x, y, z] list")
    if (not isinstance(v, list) or len(v) != 3
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in v)):
        raise CLIError("--slice must be i, j, k or a JSON [x, y, z] list")
    try:
        u = Quaternion(0.0, *v)
        finite = u.is_finite()
    except OverflowError:           # an integer beyond the float range
        finite = False
    if not finite:
        raise CLIError("--slice direction must be finite")
    if not (u.x or u.y or u.z):
        raise CLIError("--slice direction must be nonzero")
    return imag_direction(u)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _zero_lines(zs, indent="  ") -> list[str]:
    lines = []
    for z in zs.isolated:
        lines.append(f"{indent}point  {fmt_q(z.point)}   mult {z.multiplicity}"
                     f"   residual {z.residual:.3g}")
    for s in zs.spheres:
        lines.append(f"{indent}sphere x={s.sphere.x:.6g} y={s.sphere.y:.6g}"
                     f"   mult {s.multiplicity}   residual {s.residual:.3g}")
    if not lines:
        lines.append(f"{indent}(none)")
    return lines


def _check_lines(checks) -> list[str]:
    lines = []
    for c in checks:
        if c.inside:
            lines.append(f"  inside   {fmt_q(c.point)}   "
                         f"slack {c.certificate.slack:.3g}")
        else:
            lines.append(f"  OUTSIDE  {fmt_q(c.point)}   "
                         f"distance {c.violation.distance:.3g}")
    return lines


def cmd_analyze(args) -> int:
    p = _load_poly(args)
    eps = args.eps_hull if args.eps_hull is not None else EPS_HULL
    _check_setting("eps_hull", eps)     # degree 1 runs no verification
    zs = zero_set(p, args.tol_zero)
    bound = modulus_lower_bound_details(p)
    bound["observed_max_modulus"] = zs.max_modulus()
    if p.degree >= 2:
        report = verify_gauss_lucas(p, eps, args.tol_zero)
        crit = report.critical
    else:
        report, crit = None, critical_points(p, args.tol_zero)
    if args.format == "json":
        out = {"degree": p.degree,
               "zeros": zs.to_json_dict(),
               "critical": crit.to_json_dict(),
               "bound": bound}
        if report is not None:
            out["verification"] = report.to_json_dict()
        _emit(_json_text(out), args)
        return 0
    lines = [f"degree {p.degree}"]
    lines.append(f"zeros (count with multiplicity {zs.zero_count()}):")
    lines.extend(_zero_lines(zs))
    lines.append("critical points:")
    lines.extend(_zero_lines(crit))
    if report is not None:
        lines.append("hull verdicts for critical points:")
        lines.extend(_check_lines(report.checks))
        lines.append(f"verdict: "
                     f"{'verified' if report.verified else 'violated'}")
    lines.append(f"modulus lower bound: {bound['bound']:.6g} "
                 f"(observed max {bound['observed_max_modulus']:.6g})")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_verify(args) -> int:
    have_poly = args.coeffs is not None or args.input is not None
    if have_poly:
        eps = args.eps_hull if args.eps_hull is not None else EPS_HULL
        p = _load_poly(args)
        rep = verify_gauss_lucas(p, eps, args.tol_zero)
        if args.format == "json":
            _emit(_json_text(rep.to_json_dict()), args)
        else:
            inside = sum(1 for c in rep.checks if c.inside)
            lines = [f"verdict: {'verified' if rep.verified else 'violated'}",
                     f"degree {rep.degree}  eps_hull {eps:.3g}  "
                     f"tau_zero {args.tol_zero:.3g}",
                     f"critical point checks: {inside} inside, "
                     f"{len(rep.checks) - inside} outside"]
            lines.extend(_check_lines(rep.checks))
            _emit("\n".join(lines) + "\n", args)
        return 0 if rep.verified else 1

    eps = args.eps_hull if args.eps_hull is not None else EPS_CAMPAIGN
    report = run_verification_campaign(args.seed, args.trials, eps,
                                       args.tol_zero)
    if args.format == "json":
        _emit(_json_text(report), args)
    else:
        lines = [f"campaign: seed {args.seed}  trials {report['trials']}  "
                 f"eps_hull {eps:.3g}",
                 f"verified {report['verified']}  "
                 f"failures {len(report['failures'])}  "
                 f"breakdowns {len(report['breakdowns'])}"]
        for f in report["failures"][:10]:
            lines.append(f"  failure on trial {f['trial']} ({f['kind']}), "
                         f"distance {f['worst_distance']:.3g}")
        for b in report["breakdowns"][:10]:
            lines.append(f"  breakdown on trial {b['trial']} ({b['kind']}): "
                         f"{b['reason']}")
        _emit("\n".join(lines) + "\n", args)
    if len(report["breakdowns"]) > 0.01 * report["trials"]:
        return 3
    if report["failures"]:
        return 1
    return 0


_L_SAMPLES = tuple(r * cmath.exp(2j * math.pi * k / 8)
                   for r in (0.7, 1.3) for k in range(8))


def cmd_factor(args) -> int:
    p = _load_poly(args)
    unit = _parse_slice(args.slice)
    sp = restrict_to_slice(p, unit)
    # P^s is the same on every slice; the slice gives P1 and P2 only
    q_coeffs = _symmetrized(p.parts)
    fac = fejer_riesz_factor(q_coeffs)
    identity = check_l_identity(sp.p1, sp.p2, fac.m_coeffs, _L_SAMPLES)
    if args.format == "json":
        _emit(_json_text({
            "slice": [unit.x, unit.y, unit.z],
            "q_coeffs": q_coeffs,
            "m_coeffs": [[c.real, c.imag] for c in fac.m_coeffs],
            "residual": fac.residual,
            "l_identity_sampled": identity,
        }), args)
        return 0
    lines = [f"slice direction ({unit.x:.6g}, {unit.y:.6g}, {unit.z:.6g})",
             "symmetrized coefficients: "
             + ", ".join(f"{c:.6g}" for c in q_coeffs),
             "factor M coefficients:"]
    for n, c in enumerate(fac.m_coeffs):
        lines.append(f"  z^{n}: {c.real:.6g} {c.imag:+.6g}i")
    lines.append(f"factor residual {fac.residual:.3g}")
    lines.append(f"sampled derivative identity: "
                 f"{'holds' if identity else 'fails'}")
    _emit("\n".join(lines) + "\n", args)
    return 0


def cmd_bound(args) -> int:
    p = _load_poly(args)
    zs = zero_set(p)
    det = modulus_lower_bound_details(p)
    det["observed_max_modulus"] = zs.max_modulus()
    if args.format == "json":
        _emit(_json_text(det), args)
        return 0
    lines = [f"lower bound on max zero modulus: {det['bound']:.6g}",
             f"achieved at coefficient offset n={det['n']} "
             f"(symmetrization degree {det['sym_degree']})",
             f"observed max zero modulus: "
             f"{det['observed_max_modulus']:.6g}"]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _add_io_flags(sub):
    g = sub.add_mutually_exclusive_group()
    g.add_argument("--input", metavar="FILE",
                   help="JSON file with the polynomial")
    g.add_argument("--coeffs", metavar="JSON",
                   help="inline JSON coefficient list, constant first")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", metavar="FILE",
                     help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlucas",
        description="Zero sets, hull certificates and factorizations for "
                    "quaternionic polynomials.")
    subs = parser.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="classify the zero set and the "
                                        "critical points")
    _add_io_flags(a)
    a.add_argument("--eps-hull", type=float, default=None)
    a.add_argument("--tol-zero", type=float, default=TAU_ZERO)
    a.set_defaults(func=cmd_analyze)

    v = subs.add_parser("verify", help="check critical points against the "
                                       "hull of the zeros; campaign mode "
                                       "without a polynomial")
    _add_io_flags(v)
    v.add_argument("--seed", type=int, default=0,
                   help="campaign seed; default 0")
    v.add_argument("--trials", type=int, default=100,
                   help="campaign size when no polynomial is given")
    v.add_argument("--eps-hull", type=float, default=None,
                   help=f"hull collar; default {EPS_HULL:g} single, "
                        f"{EPS_CAMPAIGN:g} campaign")
    v.add_argument("--tol-zero", type=float, default=TAU_ZERO)
    v.set_defaults(func=cmd_verify)

    f = subs.add_parser("factor", help="factor the slice symmetrization")
    _add_io_flags(f)
    f.add_argument("--slice", default="i",
                   help="slice direction: i, j, k or JSON [x, y, z]")
    f.set_defaults(func=cmd_factor)

    b = subs.add_parser("bound", help="coefficient lower bound on the "
                                      "largest zero modulus")
    _add_io_flags(b)
    b.set_defaults(func=cmd_bound)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code in (0, None) else 2
    try:
        return args.func(args)
    except CLIError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return ex.code
    except NumericalBreakdown as ex:
        print(f"numerical breakdown: {ex}", file=sys.stderr)
        return 3
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
