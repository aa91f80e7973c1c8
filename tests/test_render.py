"""Every text, LaTeX and JSON renderer on a fixed sample, byte for byte.

The fixture ``golden_render.json`` maps ``"<renderer>:<label>"`` to the
rendered string (JSON renderings as ``json.dumps`` of their result).  The
sample covers Gaussian coefficients with an inner sign, coefficients 1 and
-1, constants, zero, denominators, lowering powers of the generalized Weyl
algebras and base polynomials of rank 1 and 2.
"""

import json
from fractions import Fraction
from pathlib import Path

from drasp4.scalars import (GaussRat, Poly2, gauss_str, poly_json, poly_str,
                            rf_json, rf_latex, rf_str)
from drasp4.weyl import WeylElem, weyl_json, weyl_str
from drasp4.ambient import amb_json, amb_latex, amb_str
from drasp4.dra import dra_json, dra_latex, dra_str
from drasp4.gwa import (BasePoly, base_json, base_str, gwa_json, gwa_str,
                        reduction_gwa, weyl_gwa)
from drasp4.parser import evaluate

GOLDEN = Path(__file__).parent / "fixtures" / "golden_render.json"

SCALARS = ("0", "1", "-1", "3/4", "-i", "1+2*i", "1/3-2/5*i", "-Ha",
           "i*Ha*Hb", "(2/3)*Ha", "Ha^2-2*Hb+1", "(1+2*i)*Ha-i*Hb+3",
           "-(1-i)*Hb^2", "(Hb+2)/(Hb+1)", "-1/(Ha-2*Hb)",
           "(Ha^2*Hb-1)/((Ha+1)*(Ha-2*Hb+3))", "(i*Ha+1)/(2*Hb-3)",
           "((1+2*i)*Ha+2*i*Hb+2)^2/(Ha*Hb-4)")

AMBIENT = ("0", "1", "-1", "-i", "x1-x1", "Ea*x2", "-d1", "(1+2*i)*x1 d2",
           "(Ha+2)/(Hb+1)*Fa*Eb-i*x1+1", "(1+2*i)*Fb^2 Eb2a",
           "Fb Fba Fb2a Fa d1 d2 x2 x1 Ea Eb2a Eba Eb",
           "Fba^2 Eba^3/(Ha-1)-(1/2)*Fb2a")

DRA = ("0", "1", "-i", "d2*x2", "(Ha+2)*x2", "x1*d1", "-(1+2*i)*d1^2 x2",
       "x2 x1/(Ha+Hb)")

BASE2 = ("0", "t1", "-t2", "(1+2*i)*t1^2 t2-i*t2+3/(Hb-1)", "Ha*t1 t2-1",
         "-i")


def _weyl_sample():
    g = GaussRat
    return {
        "zero": WeylElem(),
        "one": WeylElem.const(1),
        "minus_one": WeylElem.const(-1),
        "gauss_const": WeylElem.const(g(1, 2)),
        "mixed": WeylElem({(1, 0, 0, 1): g(0, -1),
                           (2, 1, 3, 1): g(Fraction(2, 3)),
                           (0, 0, 1, 0): g(-1), (0, 1, 0, 0): g(1),
                           (0, 0, 0, 0): g(-1, 1)}),
        "signed": WeylElem({(1, 0, 0, 0): g(1, 2), (0, 0, 0, 1): g(-3),
                            (0, 0, 0, 0): g(0, 1)}),
    }


def _base1_sample():
    return {
        "zero": BasePoly(1),
        "t1": BasePoly.tvar(1, 1),
        "cubic": BasePoly(1, {(3,): evaluate("-1", "scalar"),
                              (1,): evaluate("(1+2*i)*Ha", "scalar"),
                              (0,): evaluate("1/(Hb+1)", "scalar")}),
    }


def _gwa_sample():
    red = reduction_gwa()
    w2, w1 = weyl_gwa(2), weyl_gwa(1)
    b = BasePoly.tvar(2, 1) * BasePoly.const(2, evaluate("Ha-i", "scalar"))
    return {
        "red_zero": red.zero(),
        "red_one": red.one(),
        "red_y1": red.y(1),
        "red_x1y2": red.x(1) * red.y(2),
        "red_y1sq_x2": red.y(1) * red.y(1) * red.x(2),
        "red_mixed": red.x(2) * red.y(2) * red.y(2) + red.base(b) * red.y(1)
        - red.scalar(evaluate("1+2*i", "scalar")),
        "red_x1y1": red.x(1) * red.y(1),
        "w2_x1y2": w2.x(1) * w2.y(2),
        "w2_y1x1": w2.y(1) * w2.x(1) - w2.scalar(-1),
        "w2_pow": (w2.y(1) * w2.y(2)) ** 2,
        "w1_y1x1": w1.y(1) ** 3 * w1.x(1),
        "w1_mixed": w1.x(1) ** 2 + w1.y(1) - w1.one(),
    }


def renderings() -> dict:
    out = {}

    def put(name, label, text):
        out[f"{name}:{label}"] = text

    for src in SCALARS:
        f = evaluate(src, "scalar")
        put("rf_str", src, rf_str(f))
        put("rf_latex", src, rf_latex(f))
        put("rf_json", src, json.dumps(rf_json(f)))
        put("poly_str", src, poly_str(f.num))
        put("poly_json", src, json.dumps(poly_json(f.num)))
        put("poly_str.den", src, poly_str(f.den))
        c = f.num.terms.get((0, 0))
        if c is not None:
            put("gauss_str", src, gauss_str(c))
    put("poly_str", "affine", poly_str(Poly2.affine(-1, 2, -3)))
    for label, u in _weyl_sample().items():
        put("weyl_str", label, weyl_str(u))
        put("weyl_json", label, json.dumps(weyl_json(u)))
    for src in AMBIENT:
        u = evaluate(src, "ambient")
        put("amb_str", src, amb_str(u))
        put("amb_latex", src, amb_latex(u))
        put("amb_json", src, json.dumps(amb_json(u)))
    for src in DRA:
        u = evaluate(src, "dra")
        put("dra_str", src, dra_str(u))
        put("dra_latex", src, dra_latex(u))
        put("dra_json", src, json.dumps(dra_json(u)))
    for src in BASE2:
        b = evaluate(src, "base")
        put("base_str", src, base_str(b))
        put("base_json", src, json.dumps(base_json(b)))
    for label, b in _base1_sample().items():
        put("base_str", f"rank1:{label}", base_str(b))
        put("base_json", f"rank1:{label}", json.dumps(base_json(b)))
    for label, u in _gwa_sample().items():
        put("gwa_str", label, gwa_str(u))
        put("gwa_json", label, json.dumps(gwa_json(u)))
    return out


def test_renderings_match_golden_fixture():
    golden = json.loads(GOLDEN.read_text())
    got = renderings()
    assert sorted(got) == sorted(golden)
    for key, text in golden.items():
        assert got[key] == text, key


def test_str_is_the_module_renderer():
    samples = [(_weyl_sample()["mixed"], weyl_str),
               (evaluate(AMBIENT[8], "ambient"), amb_str),
               (evaluate(DRA[6], "dra"), dra_str),
               (evaluate(SCALARS[-1], "scalar").num, poly_str)]
    alg = reduction_gwa()
    b = BasePoly(2, {(2, 1): evaluate("1+2*i", "scalar"),
                     (0, 0): evaluate("3/(Hb-1)", "scalar")})
    samples += [(b, base_str), (alg.y(1) * alg.base(b) * alg.x(2), gwa_str)]
    for u, render in samples:
        assert str(u) == render(u), render.__name__


def test_latex_braces_exponents_of_two_or_more_digits():
    """LaTeX sets ``^12`` as ``^1`` followed by a plain 2, so an exponent
    of two or more digits is braced, in the scalars and in the letters;
    one digit stays bare, as in the golden fixture."""
    assert rf_latex(evaluate("Ha^10*Hb^9+Hb^123", "scalar")) \
        == "H_{\\beta}^{123}+H_{\\alpha}^{10}*H_{\\beta}^9"
    assert rf_latex(evaluate("1/(Ha+2)^10", "scalar")).startswith(
        "\\frac{1}{H_{\\alpha}^{10}+20*H_{\\alpha}^9+")
    assert amb_latex(evaluate("Fa^11 x1^9 d2^12", "ambient")) \
        == "\\left(1\\right) F_{\\alpha}^{11} \\partial_2^{12} x_1^9"
    assert dra_latex(evaluate("1/(Ha^10+1)*x1", "dra")) \
        == "\\left(\\frac{1}{H_{\\alpha}^{10}+1}\\right) x_1"
    assert dra_latex(evaluate("x1^12", "dra")) == "\\left(1\\right) x_1^{12}"
