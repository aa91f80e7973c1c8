"""Command line driver.

Exit codes: 0 on success (and all checks passing), 1 when a verification
suite reports a failure or the engine hits a limit, 2 on usage or parse
errors.

A command builds the argument parser of that command only; ``-h`` or a
usage error without a known command builds the parsers of all eight.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scalars import (DIVERGENT, UNDEFINED, RatFunc, gauss_str, rf_json,
                      rf_latex, rf_str)
from .ambient import AmbientElem, amb_json, amb_latex, amb_str, amb_theta, red
from .dra import (DraElem, TruncationError, dra_json, dra_latex, dra_str,
                  dra_theta)
from .gwa import (BasePoly, GwaAlgebra, SkewAffineSigma, base_json, base_str,
                  reduction_gwa)
from .parser import ParseError, bounded_diamond, evaluate
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


def _add_format(p: argparse.ArgumentParser,
                formats=("text", "json", "latex")) -> None:
    p.add_argument("--format", choices=formats, default="text",
                   help="output format")


# gwa-check takes about 0.5 s cold at --maxdeg 12 and 1.7-1.9 s at 16, and
# its realization report alone 6 s at 20 (2 vCPU, Python 3.11), so 16 is the
# largest degree it accepts.
MAX_GWA_DEG = 16


def _maxdeg(text: str) -> int:
    if not text.isdecimal() or int(text) > MAX_GWA_DEG:
        raise argparse.ArgumentTypeError(
            f"expected an integer 0 <= N <= {MAX_GWA_DEG}, got {text!r}")
    return int(text)


class AnsatzError(ValueError):
    """An --ansatz file that is not JSON of the documented shape."""


def load_ansatz(data) -> GwaAlgebra:
    """Build a rank-two algebra from a config mapping with exactly the keys
    'shift' (two pairs of integers), 'c' (two scalars) and 'g' (two rows
    of two scalars), each scalar a JSON integer or an expression string.
    Any other shape raises AnsatzError."""

    def pair(src, what: str) -> list:
        if not isinstance(src, list) or len(src) != 2:
            raise AnsatzError(f"ansatz {what} must be a list of two entries")
        return src

    def scalar(src) -> RatFunc:
        if isinstance(src, str):
            return evaluate(src, "scalar")
        if type(src) is int:
            return RatFunc.const(src)
        raise AnsatzError(f"ansatz scalar {json.dumps(src)} is neither an "
                          "integer nor an expression string")

    if not isinstance(data, dict) or set(data) != {"shift", "c", "g"}:
        raise AnsatzError("ansatz must be an object with the keys shift, c, g")
    sigmas = []
    for i, shift, c, row in zip((1, 2), pair(data["shift"], "shift"),
                                pair(data["c"], "c"), pair(data["g"], "g")):
        if any(type(s) is not int for s in pair(shift, f"shift {i}")):
            raise AnsatzError(f"ansatz shift {i} must be two integers")
        sigmas.append(SkewAffineSigma(
            2, i, tuple(shift), scalar(c),
            tuple(scalar(v) for v in pair(row, f"g row {i}"))))
    return GwaAlgebra(2, sigmas)


def _print_reports(reports, as_json: bool) -> int:
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for rep in reports:
            for line in rep.lines():
                print(line)
    return 0 if all(r.passed for r in reports) else 1


def _add_mode_expr(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("ambient", "dra"), default="dra")
    p.add_argument("expr")
    _add_format(p)


def _add_diamond(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")
    _add_format(p)


def _add_project(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr")
    _add_format(p)


def _add_sigma(p: argparse.ArgumentParser) -> None:
    p.add_argument("index", type=int, choices=(1, 2))
    p.add_argument("expr")
    p.add_argument("--ansatz", metavar="FILE",
                   help="JSON file with user-supplied skew-affine data")
    _add_format(p, ("text", "json"))


def _add_limit(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr")
    _add_format(p, ("text", "json"))


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=verify.SUITE_NAMES + ("all",),
                   default="all")
    p.add_argument("--json", action="store_true")


def _add_gwa_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--maxdeg", type=_maxdeg, default=3, metavar="N")
    p.add_argument("--json", action="store_true")


# Each command's help text and the function that adds its arguments, in
# the order of the usage line and of -h.
COMMANDS = {
    "nf": ("normal form of an expression", _add_mode_expr),
    "diamond": ("diamond product of two expressions", _add_diamond),
    "project": ("image in the reduction algebra (reduce modulo II)",
                _add_project),
    "theta": ("the involutive anti-automorphism", _add_mode_expr),
    "sigma": ("apply a base-ring automorphism", _add_sigma),
    "limit": ("leading-form limit of a scalar", _add_limit),
    "verify": ("run exact identity suites", _add_verify),
    "gwa-check": ("verify the generalized Weyl algebra realization",
                  _add_gwa_check),
}


def build_arg_parser(command=None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command when it is
    None.  With one command the subcommand metavar names all of them, so
    the top-level usage line reads as with every command; with every
    command it stays unset, as it also words the errors for a missing or
    unknown command."""
    ap = argparse.ArgumentParser(
        prog="drasp4",
        description="Exact computation in the rank-two symplectic "
                    "differential reduction algebra.")
    if command is None:
        sub = ap.add_subparsers(dest="command", required=True)
    else:
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        help_text, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_arg_parser(command).parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, AnsatzError) as exc:
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
        print(_render(bounded_diamond(u, v), args.format))
        return 0
    if cmd == "project":
        # red(P(red(u, I)), II) == red(u, II): P is 1 plus terms that start
        # with a lowering letter, and red(u, I) drops only raising terms
        u = evaluate(args.expr, "ambient")
        print(_render(DraElem.from_ambient(red(u, "II")), args.format))
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
                try:
                    data = json.load(fh)
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise AnsatzError(f"ansatz is not JSON: {exc}") from None
            alg = load_ansatz(data)
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
