import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

from drasp4 import cli, parser, verify
from drasp4.scalars import HA, HB, RF_ONE, RatFunc
from drasp4.ambient import AmbientElem
from drasp4.dra import D2_BAR, DraElem, X2_BAR, diamond, dra_str
from drasp4.parser import ParseError, evaluate, parse
from drasp4.verify import lemma32_rhs

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_shapes():
    assert parse("x1*x2")[0] == "mul"
    assert parse("(Ha+2)*x2")[0] == "mul"
    assert parse("x1 x2")[0] == "juxt"
    assert parse("-x1^2")[0] == "neg"
    assert parse("1/2")[0] == "div"


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse("x1 + * x2")
    assert err.value.pos == 6
    with pytest.raises(ParseError) as err:
        parse("(x1 + x2")
    assert "')'" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse("x1 ^ x2")
    assert "exponent" in str(err.value)
    with pytest.raises(ParseError):
        parse("x1 @ x2")


def test_eval_scalar_mode():
    f = evaluate("(Hb+2)/(Hb+1)", "scalar")
    assert f == (HB + 2) / (HB + 1)
    assert evaluate("i^2", "scalar") == RatFunc.const(-1)
    from fractions import Fraction
    assert evaluate("3/4", "scalar") == RatFunc.const(Fraction(3, 4))
    with pytest.raises(ParseError, match="unknown symbol"):
        evaluate("x1", "scalar")


def test_eval_ambient_examples():
    v = evaluate("Ea*x2", "ambient")
    expect = AmbientElem({(0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0): RF_ONE,
                          (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0): RF_ONE})
    assert v == expect
    assert evaluate("d2*x2", "ambient") == AmbientElem(
        {(0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0): RF_ONE})


def test_eval_dra_mode():
    assert evaluate("d2*x2", "dra") == lemma32_rhs()["d2*x2"]
    xhat2 = evaluate("(Ha+2)*x2", "dra")
    assert xhat2 == DraElem.gen("x2").scaled(HA + 2)
    with pytest.raises(ParseError, match="not available in dra mode"):
        evaluate("Ea*x2", "dra")
    with pytest.raises(ParseError, match="divisor must be a dynamical scalar"):
        evaluate("x1/x2", "dra")


def test_eval_base_mode():
    b = evaluate("t1*(Ha+1) - t2", "base")
    assert b.terms[(1, 0)] == HA + 1
    assert b.terms[(0, 1)] == -RF_ONE


def rand_dra(rng):
    monos = [(a, b, c, d) for a in range(3) for b in range(3)
             for c in range(3) for d in range(3) if a + b + c + d <= 3]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        num = HA * rng.randint(-1, 1) + HB * rng.randint(0, 1) + rng.randint(-2, 3)
        if not num:
            num = RF_ONE
        den = HA + rng.randint(1, 3)
        terms[rng.choice(monos)] = num / den if rng.random() < 0.5 else num
    return DraElem(terms)


def test_round_trip_dra_text():
    rng = random.Random(71)
    for _ in range(30):
        u = rand_dra(rng)
        assert evaluate(dra_str(u), "dra") == u
    v = diamond(D2_BAR, X2_BAR)
    assert evaluate(dra_str(v), "dra") == v


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_examples(capsys):
    code, out, _ = run_cli(capsys, "diamond", "x1", "x2")
    assert code == 0 and out.strip() == "((Ha+2)/(Ha+1)) x2 x1"
    code, out, _ = run_cli(capsys, "limit", "(Hb+2)/(Hb+1)")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "verify", "--suite", "presentation")
    lines = [l for l in out.strip().splitlines()]
    assert code == 0 and len(lines) == 14
    assert all(l.startswith("[PASS]") for l in lines)


def test_cli_golden_json(capsys):
    code, out, _ = run_cli(capsys, "diamond", "x1", "x2", "--format", "json")
    assert code == 0
    golden = json.loads((FIXTURES / "golden_diamond_x1_x2.json").read_text())
    assert json.loads(out) == golden

    code, out, _ = run_cli(capsys, "limit", "(Hb+2)/(Hb+1)", "--format", "json")
    golden = json.loads((FIXTURES / "golden_limit_f22.json").read_text())
    assert code == 0 and json.loads(out) == golden

    code, out, _ = run_cli(capsys, "verify", "--suite", "presentation", "--json")
    golden = json.loads((FIXTURES / "golden_verify_presentation.json").read_text())
    assert code == 0 and json.loads(out) == golden


def test_cli_nf_theta_project_sigma(capsys):
    code, out, _ = run_cli(capsys, "nf", "--mode", "ambient", "Ea*x2")
    assert code == 0 and out.strip() == "(1) x2 Ea + (1) x1"
    code, out, _ = run_cli(capsys, "theta", "x1")
    assert code == 0 and out.strip() == "(1) d1"
    code, out, _ = run_cli(capsys, "project", "d2 x2")
    assert code == 0 and out.strip() == "(1) d2 x2"
    code, out, _ = run_cli(capsys, "sigma", "2", "t1")
    assert code == 0 and out.strip() == "(1) t1"
    code, out, _ = run_cli(capsys, "nf", "x1", "--format", "latex")
    assert code == 0 and "x_1" in out


def test_cli_ambient_theta_and_limits_without_a_value(capsys):
    code, out, _ = run_cli(capsys, "theta", "--mode", "ambient", "Ea*x1*Fb")
    assert code == 0 and out == "(1) Fa d1 Eb\n"
    code, out, _ = run_cli(capsys, "limit", "Ha^2/(Ha+1)")
    assert code == 0 and out == "divergent\n"
    code, out, _ = run_cli(capsys, "limit", "Ha/Hb")
    assert code == 0 and out == "undefined\n"
    code, out, _ = run_cli(capsys, "limit", "Ha/Hb", "--format", "json")
    assert code == 0 and json.loads(out) == {"limit": "undefined"}


def test_cli_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "nf", "x1 + * x2")
    assert code == 2 and "offset" in err
    code, _, err = run_cli(capsys, "nf", "--mode", "dra", "Ea")
    assert code == 2 and "dra mode" in err


def test_cli_limits_fail_with_one_line(capsys, monkeypatch):
    deep = "(" * 2000 + "x1" + ")" * 2000
    code, _, err = run_cli(capsys, "nf", deep)
    assert code == 2 and "nested deeper" in err
    assert len(err.strip().splitlines()) == 1
    code, _, err = run_cli(capsys, "nf", "--", "-" * 2000 + "x1")
    assert code == 2 and "nested deeper" in err
    code, _, err = run_cli(capsys, "nf", "x1^100000000")
    assert code == 2 and "exponent larger than 1000" in err
    assert len(err.strip().splitlines()) == 1
    code, out, _ = run_cli(capsys, "nf", "x1^1000")
    assert code == 0 and out.strip() == "(1) x1^1000"
    code, out, _ = run_cli(capsys, "nf", "--mode", "ambient", "x1^40 d1^40")
    terms = out.strip().split(" + ")
    assert code == 0 and len(terms) == 41
    assert terms[0] == "(1) d1^40 x1^40"

    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "evaluate", too_deep)
        code, _, err = run_cli(capsys, "nf", "x1")
    assert code == 1 and err.startswith("error: engine limit reached")
    assert len(err.strip().splitlines()) == 1
    import drasp4
    from drasp4 import dra
    drasp4.clear_caches()
    monkeypatch.setattr(dra, "TRUNCATION_MARGIN", -6)
    code, _, err = run_cli(capsys, "diamond", "x1", "d1")
    assert code == 1 and "truncation bound" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_weyl_only_product_at_high_degree(capsys):
    # x1^n d1^n = sum_j (-1)^j C(n, j)^2 j! d1^(n-j) x1^(n-j); straightening
    # the joined word letter by letter did not finish in minutes at n = 160
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "nf", "x1^200 d1^200")
    elapsed = time.perf_counter() - start
    terms = out.strip().split(" + ")
    assert code == 0 and len(terms) == 201
    assert terms[0] == "(1) d1^200 x1^200"
    assert terms[1] == "(-40000) d1^199 x1^199"
    assert terms[-1] == f"({math.factorial(200)})"
    assert elapsed < 10.0, f"nf took {elapsed:.1f}s"


@pytest.mark.parametrize("argv", (
    ("diamond", "d1^7 d2^7", "x2^7 x1^8"),
    ("nf", "(d1^7 d2^7)*(x2^7 x1^8)"),
    ("diamond", "x1^40 x2^40", "d1^40 d2^40"),
))
def test_cli_refuses_diamond_products_past_the_degree_bound(capsys, argv):
    """A diamond product with deg u + deg v past the bound, from the
    diamond command or from '*' in dra mode, ends at once with exit 1."""
    assert parser.MAX_DIAMOND_DEGREE == 28
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 1 and out == ""
    assert err.startswith("error: diamond product of degree ")
    assert len(err.strip().splitlines()) == 1
    assert elapsed < 1.0, f"refusal took {elapsed:.1f}s"


def test_cli_computes_diamond_products_at_the_degree_bound(capsys):
    code, out, _ = run_cli(capsys, "diamond", "d1^7 d2^7", "x2^7 x1^7")
    assert code == 0 and out.strip().endswith(" + (1) d1^7 d2^7 x2^7 x1^7")
    assert run_cli(capsys, "nf", "(d1^7 d2^7)*(x2^7 x1^7)") == (0, out, "")


def test_cli_project_counts_lowering_letters(capsys):
    # project reduces modulo II, which drops every lowering power
    code, out, _ = run_cli(capsys, "project", "Fa^9")
    assert code == 0 and out.strip() == "0"


def test_cli_project_of_high_powers(capsys):
    # no projector series runs, so the degree of the input costs nothing
    code, out, _ = run_cli(capsys, "project", "d1^7")
    assert code == 0 and out.strip() == "(1) d1^7"
    code, out, _ = run_cli(capsys, "project", "d1^50 x1^50 + Fb*Eb*x2")
    assert code == 0 and out.strip() == "(1) d1^50 x1^50"


def test_long_flat_chains_evaluate(capsys):
    code, out, _ = run_cli(capsys, "nf", "+".join(["x1"] * 5000))
    assert code == 0 and out.strip() == "(5000) x1"
    code, out, _ = run_cli(capsys, "nf", " ".join(["x1"] * 3000))
    assert code == 0 and out.strip() == "(1) x1^3000"


def test_cli_ansatz_file(tmp_path, capsys):
    config = {
        "shift": [[-1, 0], [0, -1]],
        "c": ["-1", "-1"],
        "g": [["1", "0"], ["0", "1"]],
    }
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sigma", "1", "t1", "--ansatz", str(path))
    assert code == 0 and out.strip() == "(1) t1 + (-1)"
    bad = dict(config, g=[["1", "1"], ["0", "1"]], c=["Ha", "-1"])
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(capsys, "sigma", "1", "t1", "--ansatz", str(path))
    assert code == 1 and "commute" in err
    # scalars may also be JSON integers
    path.write_text(json.dumps(dict(config, c=[-1, "-1"], g=[[1, 0], [0, 1]])))
    code, out, _ = run_cli(capsys, "sigma", "1", "t1", "--ansatz", str(path))
    assert code == 0 and out.strip() == "(1) t1 + (-1)"
    # any other shape is one error line with the usage exit code, whether it
    # used to end in a traceback or in a silently truncated number
    malformed = [dict(config, shift=[[1], [0, 0]]), dict(config, c=[0]),
                 [config], dict(config, c=[1.5, 0]),
                 dict(config, shift=[[-1.0, 0], [0, -1]]),
                 dict(config, c=[True, 0]), dict(config, g=[["1", "0"], "01"]),
                 {k: v for k, v in config.items() if k != "g"},
                 dict(config, extra=1)]
    for data in malformed:
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "sigma", "1", "t1", "--ansatz",
                                 str(path))
        assert code == 2 and not out, data
        assert err.startswith("error: ansatz") and err.count("\n") == 1, data
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "sigma", "1", "t1", "--ansatz", str(path))
    assert code == 2 and err.startswith("error: ansatz is not JSON")


def test_cli_gwa_check(capsys):
    code, out, _ = run_cli(capsys, "gwa-check", "--maxdeg", "1")
    assert code == 0
    assert "[PASS] sigma.t2.t1coeff" in out
    assert "[PASS] rel.Y1X1" in out


def test_cli_usage_errors_exit_two(capsys):
    # --maxdeg -1 used to pass while checking no monomial, and sigma and
    # limit have no latex renderer, so they printed plain text with exit 0
    for argv, message in (
            (("gwa-check", "--maxdeg", "-1"), "--maxdeg: expected an integer"),
            (("gwa-check", "--maxdeg", "two"), "--maxdeg: expected an integer"),
            (("gwa-check", "--maxdeg", "17"), "--maxdeg: expected an integer"),
            (("sigma", "2", "--format", "latex", "t1^2"), "--format"),
            (("limit", "--format", "latex", "(Hb+2)/(2*Hb+1)"), "--format")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out, argv
        assert message in err.splitlines()[-1], argv
    code, out, _ = run_cli(capsys, "sigma", "2", "--format", "json", "t1^2")
    assert code == 0 and json.loads(out)
    code, out, _ = run_cli(capsys, "limit", "--format", "json",
                           "(Hb+2)/(2*Hb+1)")
    assert code == 0 and json.loads(out) == {"limit": "1/2"}


@pytest.mark.parametrize("report, message", [
    (lambda: verify.gwa_iso_report(-1), "maxdeg must be >= 0"),
    (lambda: verify.weyl_example_report(1, -1), "maxdeg must be >= 0"),
    (lambda: verify.suite_triangular(-1), "maxdeg must be >= 0"),
    (lambda: verify.projector_order_report(-1), "maxdeg must be >= 0"),
    (lambda: verify.weyl_example_report(0), "needs n = 1 or 2, got 0"),
    (lambda: verify.weyl_example_report(-1), "needs n = 1 or 2, got -1"),
    (lambda: verify.suite_domain_sample(count=0), "count must be >= 1"),
], ids=["gwa_iso", "weyl_example", "triangular", "projector_order",
        "weyl_example_n0", "weyl_example_negative_n", "domain_sample_count0"])
def test_reports_refuse_negative_maxdeg(report, message):
    # each used to return a passing report that checked nothing, or to
    # fail with an unrelated error
    with pytest.raises(ValueError, match=message):
        report()


def test_cli_verify_runs_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json")
    reports = json.loads(out)
    assert code == 0
    assert [r["suite"] for r in reports] == list(verify.SUITE_NAMES)
    assert all(r["passed"] for r in reports)


def test_report_add_records_the_residual():
    from drasp4.scalars import DIVERGENT, GR_ONE
    rep = verify.Report("demo")
    rep.add("demo.equal", HA + 1, HA + 1)
    rep.add("demo.diff", HA + 2, HA)
    # a diverging limit is a sentinel that cannot be subtracted from the
    # GaussRat it is compared with, as in suite_limit
    limit = (HA * HA / (HA + 1)).limit_inf()
    assert limit is DIVERGENT
    rep.add("demo.limit", limit, GR_ONE)
    assert not rep.passed
    assert rep.checks == [verify.Check("demo.equal", True),
                          verify.Check("demo.diff", False, "2"),
                          verify.Check("demo.limit", False, "divergent != 1")]


def test_failing_report_exits_one(capsys):
    from drasp4.verify import Check, Report
    broken = Report("demo", [Check("demo.id", False, "residual text")])
    assert cli._print_reports([broken], as_json=False) == 1
    out = capsys.readouterr().out
    assert "[FAIL] demo.id residual text" in out


# For each command: its help, a call missing a positional (or an option's
# value), a bad choice or --format, and a valid call with an extra
# argument; then the top-level help, no arguments and an unknown command.
PARITY_ARGV = [
    ("nf", "-h"), ("nf",), ("nf", "--mode", "weyl", "x1"),
    ("nf", "x1", "x2"),
    ("diamond", "-h"), ("diamond", "x1"),
    ("diamond", "x1", "x2", "--format", "tex"),
    ("diamond", "x1", "x2", "x1"),
    ("project", "-h"), ("project",), ("project", "x1", "--format", "tex"),
    ("project", "x1", "x2"),
    ("theta", "-h"), ("theta",), ("theta", "--mode", "weyl", "x1"),
    ("theta", "x1", "x2"),
    ("sigma", "-h"), ("sigma", "1"), ("sigma", "3", "t1"),
    ("sigma", "1", "t1", "t2"),
    ("limit", "-h"), ("limit",), ("limit", "Ha", "--format", "latex"),
    ("limit", "Ha", "Hb"),
    ("verify", "-h"), ("verify", "--suite"), ("verify", "--suite", "nope"),
    ("verify", "--json", "extra"),
    ("gwa-check", "-h"), ("gwa-check", "--maxdeg"),
    ("gwa-check", "--maxdeg", "99"), ("gwa-check", "--json", "extra"),
    ("-h",), (), ("bogus",),
]


def _outcome(capsys, argv):
    """The exit code (returned or raised) of cli.main, its stdout and its
    stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", PARITY_ARGV,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_one_command_parser_reads_as_the_full_one(capsys, monkeypatch, argv):
    """A command builds its own subparser only, and its help, its usage
    errors and its top-level errors read as with all eight built."""
    got = _outcome(capsys, argv)
    full = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda command=None: full())
    assert got == _outcome(capsys, argv)
    assert got[0] in (0, 2) and (got[1] or got[2])


def test_a_command_constructs_two_parsers(capsys, monkeypatch):
    count = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run_cli(capsys, "theta", "x1 d2")
    assert code == 0 and out and count == [2]
    count[0] = 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0 and count == [9]
    assert "gwa-check" in capsys.readouterr().out
    # without argv, main reads the command line of the interpreter
    monkeypatch.setattr(sys, "argv", ["drasp4", "diamond", "x1", "x2"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "((Ha+2)/(Ha+1)) x2 x1\n"
