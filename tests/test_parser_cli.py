import json
import random
from pathlib import Path

import pytest

from drasp4 import cli
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
    code, _, err = run_cli(capsys, "nf", "--mode", "ambient", "x1^60 d1^60")
    assert code == 1 and err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    from drasp4 import dra
    monkeypatch.setattr(dra, "truncation_margin", lambda: -6)
    code, _, err = run_cli(capsys, "project", "d1")
    assert code == 1 and "truncation bound" in err
    assert len(err.strip().splitlines()) == 1


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


def test_cli_gwa_check(capsys):
    code, out, _ = run_cli(capsys, "gwa-check", "--maxdeg", "1")
    assert code == 0
    assert "[PASS] sigma.t2.t1coeff" in out
    assert "[PASS] rel.Y1X1" in out


def test_failing_report_exits_one(capsys):
    from drasp4.verify import Check, Report
    broken = Report("demo", [Check("demo.id", False, "residual text")])
    assert cli._print_reports([broken], as_json=False) == 1
    out = capsys.readouterr().out
    assert "[FAIL] demo.id residual text" in out
