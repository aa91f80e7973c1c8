"""Command line driver.

Exit codes: 0 on success (and all checks passing), 1 when a verification
suite reports a failure or the engine hits a limit, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scalars import (DIVERGENT, UNDEFINED, RatFunc, gauss_str, rf_json,
                      rf_latex, rf_str)
from .ambient import AmbientElem, amb_json, amb_latex, amb_str, amb_theta, red
from .dra import (DraElem, TruncationError, apply_p, diamond, dra_json,
                  dra_latex, dra_str, dra_theta)
from .gwa import (BasePoly, GwaAlgebra, SkewAffineSigma, base_json, base_str,
                  reduction_gwa)
from .parser import ParseError, evaluate
from . import verify


def _render(value, fmt: str) -> str:
    if isinstance(value, DraElem):
        if fmt == "json":
            return json.dumps(dra_json(value))
        return dra_latex(value) if fmt == "latex" else dra_str(value)
    if isinstance(value, AmbientElem):
        if fmt == "json":
            return json.dumps(amb_json(value))
        return amb_latex(value) if fmt == "latex" else amb_str(value)
    if isinstance(value, RatFunc):
        if fmt == "json":
            return json.dumps(rf_json(value))
        return rf_latex(value) if fmt == "latex" else rf_str(value)
    if isinstance(value, BasePoly):
        if fmt == "json":
            return json.dumps(base_json(value))
        return base_str(value)
    raise TypeError(f"no renderer for {type(value).__name__}")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json", "latex"),
                   default="text", help="output format")


def load_ansatz(data: dict) -> GwaAlgebra:
    """Build a rank-two algebra from a config mapping with keys
    'shift' (two integer pairs), 'c' (two scalar expressions) and
    'g' (two rows of two scalar expressions)."""

    def scalar(src) -> RatFunc:
        if isinstance(src, (int, float)):
            return RatFunc.const(int(src))
        return evaluate(str(src), "scalar")

    shifts = data["shift"]
    cs = data["c"]
    rows = data["g"]
    sigmas = []
    for i in (1, 2):
        sigmas.append(SkewAffineSigma(
            2, i, tuple(shifts[i - 1]), scalar(cs[i - 1]),
            tuple(scalar(v) for v in rows[i - 1])))
    return GwaAlgebra(2, sigmas)


def _print_reports(reports, as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="drasp4",
        description="Exact computation in the rank-two symplectic "
                    "differential reduction algebra.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("--mode", choices=("ambient", "dra"), default="dra")
    p.add_argument("expr")
    _add_format(p)

    p = sub.add_parser("diamond", help="diamond product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)

    p = sub.add_parser("project",
                       help="apply the extremal projector, then reduce")
    p.add_argument("expr")
    _add_format(p)

    p = sub.add_parser("theta", help="the involutive anti-automorphism")
    p.add_argument("--mode", choices=("ambient", "dra"), default="dra")
    p.add_argument("expr")
    _add_format(p)

    p = sub.add_parser("sigma", help="apply a base-ring automorphism")
    p.add_argument("index", type=int, choices=(1, 2))
    p.add_argument("expr")
    p.add_argument("--ansatz", metavar="FILE",
                   help="JSON file with user-supplied skew-affine data")
    _add_format(p)

    p = sub.add_parser("limit", help="leading-form limit of a scalar")
    p.add_argument("expr")
    _add_format(p)

    p = sub.add_parser("verify", help="run exact identity suites")
    p.add_argument("--suite", choices=verify.SUITE_NAMES + ("all",),
                   default="all")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gwa-check",
                       help="verify the generalized Weyl algebra realization")
    p.add_argument("--maxdeg", type=int, default=3)
    p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, TruncationError) as exc:
        print(f"error: engine limit reached: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "nf":
        print(_render(evaluate(args.expr, args.mode), args.format))
        return 0
    if cmd == "diamond":
        u = evaluate(args.left, "dra")
        v = evaluate(args.right, "dra")
        print(_render(diamond(u, v), args.format))
        return 0
    if cmd == "project":
        u = evaluate(args.expr, "ambient")
        out = red(apply_p(red(u, "I")), "II")
        print(_render(DraElem.from_ambient(out), args.format))
        return 0
    if cmd == "theta":
        if args.mode == "dra":
            print(_render(dra_theta(evaluate(args.expr, "dra")), args.format))
        else:
            print(_render(amb_theta(evaluate(args.expr, "ambient")),
                          args.format))
        return 0
    if cmd == "sigma":
        if args.ansatz:
            with open(args.ansatz, encoding="utf-8") as fh:
                alg = load_ansatz(json.load(fh))
        else:
            alg = reduction_gwa()
        b = evaluate(args.expr, "base")
        print(_render(alg.sigma(args.index, b), args.format))
        return 0
    if cmd == "limit":
        f = evaluate(args.expr, "scalar")
        value = f.limit_inf()
        if value is DIVERGENT or value is UNDEFINED:
            text = value.name
        else:
            text = gauss_str(value)
        if args.format == "json":
            print(json.dumps({"limit": text}))
        else:
            print(text)
        return 0
    if cmd == "verify":
        if args.suite == "all":
            reports = verify.run_all()
        else:
            reports = [verify.run_suite(args.suite)]
        return _print_reports(reports, args.json)
    if cmd == "gwa-check":
        reports = [verify.sigma_commute_report(),
                   verify.gwa_iso_report(args.maxdeg),
                   verify.weyl_example_report(1),
                   verify.weyl_example_report(2)]
        return _print_reports(reports, args.json)
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
