import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from drasp4.scalars import (DIVERGENT, GR_ONE, GR_ZERO, GaussRat, HA, HB,
                            P_ONE, Poly2, RF_ONE, RF_ZERO, RatFunc,
                            UNDEFINED, poly_gcd, rf_affine, rf_from_json,
                            rf_json, rf_str)

FIXTURES = Path(__file__).parent / "fixtures"
DERIVED = json.loads((FIXTURES / "derived_values.json").read_text())


def named_scalars():
    a = HA + 1
    b = HA + HB + 2
    c = HA + 2 * HB + 3
    d = HB + 1
    return a, b, c, d


def rand_rf(rng, depth=0):
    k = rng.randint(0, 5)
    if k == 0:
        return HA + rng.randint(-3, 3)
    if k == 1:
        return HB + rng.randint(-3, 3)
    if k == 2:
        return RatFunc.const(GaussRat(rng.randint(-4, 4), rng.randint(-2, 2)))
    if depth > 3:
        return HA * 2 + 1
    x = rand_rf(rng, depth + 1)
    y = rand_rf(rng, depth + 1)
    op = rng.randint(0, 3)
    if op == 0:
        return x + y
    if op == 1:
        return x - y
    if op == 2:
        return x * y
    return x / y if y else x


def test_gauss_rat_field_ops():
    x = GaussRat(Fraction(3, 4), Fraction(-1, 6))
    y = GaussRat(2, 5)
    assert (x * y) / y == x
    assert (x + y) - y == x
    assert x * x.inv() == GR_ONE
    assert GaussRat(1) / GaussRat(0, 1) == GaussRat(0, -1)
    with pytest.raises(ZeroDivisionError):
        GaussRat(0).inv()


def test_gauss_rat_normalization_and_hash():
    assert GaussRat(Fraction(2, 4)) == GaussRat(Fraction(1, 2))
    assert hash(GaussRat(3)) == hash(GaussRat(Fraction(6, 2)))
    assert GaussRat(0, 0).is_zero()
    # values equal to an int or Fraction hash like it, so they find its key
    assert GaussRat(1) == 1 and hash(GaussRat(1)) == hash(1)
    assert {1: 0}.get(GaussRat(1)) == 0
    half = Fraction(-3, 4)
    assert hash(GaussRat(half)) == hash(half)
    assert {half: 0}.get(GaussRat(half)) == 0
    assert RatFunc.const(1) == 1 and {1: 0}.get(RatFunc.const(1)) == 0
    assert hash(RatFunc.const(half)) == hash(half)
    assert hash(RF_ZERO) == hash(0)
    mixed = GaussRat(half, 2)
    assert hash(RatFunc.const(mixed)) == hash(mixed)


def test_binop_examples():
    # add
    assert RF_ONE + RF_ONE / (HA + 1) == (HA + 2) / (HA + 1)
    # div(f, f) = 1
    rng = random.Random(11)
    for _ in range(20):
        f = rand_rf(rng)
        if f:
            assert f / f == RF_ONE
    # f22 from the named scalars
    _, _, _, d = named_scalars()
    assert (d + 1) / d == (HB + 2) / (HB + 1)


def test_div_by_zero_message():
    with pytest.raises(ZeroDivisionError, match="zero divisor in scalar field"):
        RF_ONE / RF_ZERO


def test_field_axioms_random():
    rng = random.Random(2024)
    for _ in range(250):
        f, g, h = rand_rf(rng), rand_rf(rng), rand_rf(rng)
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == RF_ZERO
        if g:
            assert (f / g) * g == f


def test_canonical_form_unique():
    f = (HA + 1) * (HB + 2) / ((HA + 1) * (HA + 2))
    g = (HB + 2) / (HA + 2)
    assert f == g
    assert f.num == g.num and f.den == g.den
    assert hash(f) == hash(g)
    # denominator is monic in lex order
    assert f.den.lead_coeff() == GR_ONE


def test_shift_examples_and_inverse():
    f = -(RF_ONE / HA)
    assert f.shift(1, 0) == -(RF_ONE / (HA + 1))
    rng = random.Random(5)
    for _ in range(50):
        g = rand_rf(rng)
        assert g.shift(0, 0) == g
        assert g.shift(2, -3).shift(-2, 3) == g
    assert HB.shift(0, -1) == HB - 1


def test_shift_is_ring_homomorphism():
    rng = random.Random(6)
    for _ in range(60):
        f, g = rand_rf(rng), rand_rf(rng)
        assert (f * g).shift(1, -1) == f.shift(1, -1) * g.shift(1, -1)
        assert (f + g).shift(-2, 1) == f.shift(-2, 1) + g.shift(-2, 1)


def test_eval_examples():
    a, b, c, d = named_scalars()
    f11 = (a + 1) * (a - 1) * (b + 1) / (a * a * b)
    expect = GaussRat(Fraction(DERIVED["f11_at_1_1"]))
    assert f11.eval_at(1, 1) == expect
    assert RatFunc.const(7).eval_at(3, -2) == GaussRat(7)
    with pytest.raises(ZeroDivisionError, match="evaluation at pole"):
        (RF_ONE / HA).eval_at(0, 1)


def test_eval_multiplicative():
    rng = random.Random(7)
    pts = [(1, 1), (2, -3), (Fraction(1, 2), 5)]
    for _ in range(40):
        f, g = rand_rf(rng), rand_rf(rng)
        for pa, pb in pts:
            try:
                lhs = (f * g).eval_at(pa, pb)
                rhs = f.eval_at(pa, pb) * g.eval_at(pa, pb)
            except ZeroDivisionError:
                continue
            assert lhs == rhs


def test_limit_examples():
    a, b, c, d = named_scalars()
    f11 = (a + 1) * (a - 1) * (b + 1) / (a * a * b)
    f12 = -2 * (d + 1) / (a * c)
    assert f11.limit_inf() == GaussRat(Fraction(DERIVED["limit_f11"]))
    assert f12.limit_inf() == GR_ZERO
    assert RatFunc.const(GaussRat(5, 1)).limit_inf() == GaussRat(5, 1)
    assert (HA * HA / HB).limit_inf() is DIVERGENT
    assert (HA / HB).limit_inf() is UNDEFINED


def test_poly_gcd_cases():
    p = (HA + 1).num
    q = ((HA + 1) * (HB + 2)).num
    assert poly_gcd(p, q) == p
    coprime = poly_gcd((HA + 2).num, (HB + 1).num)
    assert coprime == P_ONE
    sq = ((HA + HB) * (HA + HB) * (HA + 1)).num
    assert poly_gcd(sq, ((HA + HB) * (HB - 1)).num) == (HA + HB).num


def test_text_and_json_round_trip():
    f = (HA + 2) / (HA + 1)
    assert rf_str(f) == "(Ha+2)/(Ha+1)"
    assert rf_str(HA + 2 * HB) == "Ha+2*Hb"
    rng = random.Random(9)
    for _ in range(30):
        g = rand_rf(rng)
        assert rf_from_json(json.loads(json.dumps(rf_json(g)))) == g
