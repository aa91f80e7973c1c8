import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from drasp4 import (POS_ROOTS, DraElem, clear_caches, diamond, h_form,
                    reduction_gwa, scalars, sp4, verify)
from drasp4.parser import evaluate
from drasp4.scalars import (DIVERGENT, GR_ONE, GR_ZERO, GaussRat, HA, HB,
                            P_ONE, Poly2, RF_ONE, RF_ZERO, RatFunc,
                            UNDEFINED, poly_gcd, rf_affine, rf_from_json,
                            rf_json, rf_str)

from kernel_reference import ref_divide_lines, ref_mul

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


GAUSS_SAMPLE = (GaussRat(Fraction(3, 4), Fraction(-1, 6)), GaussRat(0, 1),
                GR_ZERO, GR_ONE, GaussRat(Fraction(-2, 7)), GaussRat(5, -3),
                GaussRat(2 ** 65, Fraction(1, 3 ** 40)))


def assert_int_product(g, k):
    """g * k and k * g against the product of the Fraction parts."""
    want = GaussRat(g.re * k, g.im * k)
    for got in (g * k, k * g):
        assert (got.re, got.im) == (want.re, want.im)
        assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
        assert hash(got) == hash(want)


@pytest.mark.parametrize("k", (0, 1, -1, 7, -7, 2 ** 70, -2 ** 70))
def test_gauss_rat_times_int(k):
    for g in GAUSS_SAMPLE:
        assert_int_product(g, k)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=7),
       st.integers())
def test_gauss_rat_times_drawn_int(re, im, k):
    assert_int_product(GaussRat(re, im), k)


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


def test_poly_gcd_keeps_common_hb_content():
    content = HB * HB + 1
    p = (content * (HA * HA + HB)).num
    q = (content * (HA * HB + 3)).num
    assert poly_gcd(p, q) == content.num


def test_denominators_are_stored_as_coroot_lines():
    assert {(ca, cb) for ca, cb, _ in sp4.COROOT_FORM.values()} \
        == set(scalars.COROOT_DIRECTIONS)
    f = (HA + 2 * HB + 5) ** 2 / ((HA + 1) * (HB - 3) ** 2 * (HA + HB))
    assert f.lines == {((1, 0), 1): 1, ((0, 1), -3): 2, ((1, 1), 0): 1}
    assert f.res == P_ONE
    assert f.shift(2, -1).lines == {((1, 0), 3): 1, ((0, 1), -4): 2,
                                    ((1, 1), 1): 1}
    # the residual keeps only what does not split into such lines
    g = RatFunc(P_ONE, ((HA * HA + 1) * (HA + 10 ** 12) * (2 * HA + HB)).num)
    assert g.lines == {((1, 0), 10 ** 12): 1}
    assert g.res == ((HA * HA + 1) * (HA + HB / 2)).num
    assert g.den == ((HA * HA + 1) * (HA + 10 ** 12) * (HA + HB / 2)).num
    h = RatFunc((HA + HB + 1).num, ((HA + HB + 1) ** 12 * (HB - 2) ** 3).num)
    assert h.lines == {((1, 1), 1): 11, ((0, 1), -2): 3}
    assert h.num == P_ONE and h.res == P_ONE


SA, SB = sympy.symbols("Ha Hb")


def to_sympy(p: Poly2):
    return sum(((sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
                * SA ** ea * SB ** eb for (ea, eb), c in p.terms.items()),
               sympy.Integer(0))


def off_direction_factor(rng):
    """A scalar with a factor off the four coroot directions, and the same
    expression in sympy."""
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    k = rng.randint(0, 3)
    if k == 0:
        return HA * HB + c, SA * SB + c
    if k == 1:
        j = rng.choice((-2, -1, 1, 2))
        return HA * HA + j * HB + c, SA ** 2 + j * SB + c
    if k == 2:
        return 2 * HA + HB + c, 2 * SA + SB + c
    return HA - HB + c, SA - SB + c


def rand_rf_pair(rng, pool, depth=0):
    """A random scalar and the same expression built in sympy.  Leaves
    draw off-direction factors from a small pool, so that operands share
    them and gcds reach the residual remainder sequence."""
    if depth < 3 and rng.random() < 0.5:
        x, sx = rand_rf_pair(rng, pool, depth + 1)
        y, sy = rand_rf_pair(rng, pool, depth + 1)
        op = rng.randint(0, 3)
        if op == 0:
            return x + y, sx + sy
        if op == 1:
            return x - y, sx - sy
        if op == 2:
            return x * y, sx * sy
        return (x / y, sx / sy) if y else (x, sx)
    k = rng.randint(0, 4)
    c = rng.randint(-3, 3)
    if k == 0:
        return HA + c, SA + c
    if k == 1:
        return HB + c, SB + c
    if k == 2:
        re, im = rng.randint(-4, 4), rng.randint(-2, 2)
        return RatFunc.const(GaussRat(re, im)), sympy.Integer(re) + im * sympy.I
    p, sp = rng.choice(pool)
    return (p, sp) if k == 3 else (RF_ONE / p, 1 / sp)


@pytest.fixture
def gcd_calls(monkeypatch):
    """Empties the caches and records each call of the residual gcd."""
    clear_caches()
    calls = []
    residual_gcd = scalars._residual_gcd

    def counted(p, q):
        calls.append(1)
        return residual_gcd(p, q)

    monkeypatch.setattr(scalars, "_residual_gcd", counted)
    return calls


def residual_operand_cases(rng):
    """Sums, differences, products and quotients with a residual operand
    on the left, on the right, and on both sides with equal and with
    unequal residuals, also beside a constant factor, and the same
    expressions in sympy.  A shift in Hb keeps the residual Ha^2 + c of a
    residual fraction, a shift in Ha moves it."""
    f, sf = residual_fraction(rng)
    same = f.shift(0, 1), sf.subs(SB, SB + 1)
    other = f.shift(1, 0), sf.subs(SA, SA + 1)
    line = line_fraction(rng, line_pool(rng))
    const = constant_factor(rng, 2)
    out = []
    for (x, sx), (y, sy) in (((f, sf), line), (line, (f, sf)),
                             ((f, sf), same), ((f, sf), other),
                             (const, (f, sf)), ((f, sf), const)):
        out += [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy),
                (x / y, sx / sy)]
    return out


def test_residual_gcd_against_sympy(gcd_calls):
    rng = random.Random(4242)
    cases = []
    for _ in range(200):
        pool = [off_direction_factor(rng) for _ in range(2)]
        cases.append(rand_rf_pair(rng, pool))
    for f, reference in cases + residual_operand_cases(random.Random(4243)):
        num, den = to_sympy(f.num), to_sympy(f.den)
        assert sympy.cancel(num / den - reference, gaussian=True) == 0
        assert sympy.gcd(num, den, gaussian=True).is_number
        assert f.den.lead_coeff() == GR_ONE
    assert gcd_calls


# Parser input whose gcds run long remainder sequences in Ha; a primitive
# sequence took seconds on it, the subresultant one a fraction of that.
LONG_GCD_PAIR = (
    "(((((1+2*i)*Ha+2*i*Hb+2)^3/(Ha-3))+((Ha+2*Hb-3)*(Ha-2*Hb-1)))"
    "*(((Ha+4)^2-(Hb+3))-((Hb-4)/(Ha-2*Hb-2))))",
    "((((1/7)/(Ha*Hb-4)^3)/(Ha-1))+(((0+2*i)^3+(Ha+3)^3)"
    "+((1/5)*((2+1*i)*Ha+-1*i*Hb+0))))")


def test_long_remainder_sequence_against_sympy(gcd_calls):
    f, g = (evaluate(src, "scalar") for src in LONG_GCD_PAIR)
    sf, sg = (sympy.sympify(src.replace("^", "**"),
                            locals={"Ha": SA, "Hb": SB, "i": sympy.I})
              for src in LONG_GCD_PAIR)
    num, den = sympy.fraction(sympy.together(sf / sg))
    assert_cancelled(f / g, (RING.from_expr(sympy.expand(num)),
                             RING.from_expr(sympy.expand(den))))
    assert gcd_calls


def test_gcd_with_gaps_in_ha_against_sympy():
    """Remainders whose degree in Ha drops by more than one in a step: the
    subresultant divisions are exact only if every pseudo-remainder
    carries the full power of the leading coefficient."""
    rng = random.Random(1)
    # real coefficients: sympy's gcd over Q is far faster than over Q(i)
    ring = sympy.ring("Ha,Hb", sympy.QQ)[0]

    def to_qq(p: Poly2):
        assert all(not c.im for c in p.terms.values())
        return ring({e: sympy.QQ(c.re.numerator, c.re.denominator)
                     for e, c in p.terms.items()})

    def sparse_in_ha():
        f = RF_ZERO
        for d in rng.sample(range(5), 3):
            f = f + (HB * HB * rng.randint(0, 1) + HB * rng.randint(-2, 2)
                     + rng.randint(-2, 2)) * HA ** d
        return f

    checked = 0
    for _ in range(40):
        c = sparse_in_ha()
        p, q = (sparse_in_ha() * c for _ in range(2))
        if not p or not q or p.num.is_const() or q.num.is_const():
            continue
        g, ref = to_qq(poly_gcd(p.num, q.num)), to_qq(p.num).gcd(to_qq(q.num))
        assert g * ref.LC == ref * g.LC
        checked += 1
    assert checked > 30


def test_text_and_json_round_trip():
    f = (HA + 2) / (HA + 1)
    assert rf_str(f) == "(Ha+2)/(Ha+1)"
    assert rf_str(HA + 2 * HB) == "Ha+2*Hb"
    rng = random.Random(9)
    for _ in range(30):
        g = rand_rf(rng)
        assert rf_from_json(json.loads(json.dumps(rf_json(g)))) == g


def coroot_line(direction, k):
    """A shifted coroot form, and the same form in sympy."""
    ca, cb = direction
    return rf_affine(ca, cb, k), ca * SA + cb * SB + k


def line_pool(rng):
    """Three lines, two of them parallel: on each other they are constant,
    so sums of fractions over them can lose a shared line."""
    d1, d2 = rng.sample(scalars.COROOT_DIRECTIONS, 2)
    k1, k2 = rng.sample(range(-2, 3), 2)
    return [coroot_line(d1, k1), coroot_line(d1, k2),
            coroot_line(d2, rng.randint(-2, 2))]


def line_fraction(rng, pool):
    """A constant or a pool line plus a constant, over a product of one to
    three pool lines, and the same fraction in sympy."""
    c = rng.choice((-2, -1, 1, 2))
    num, snum = RatFunc.const(c), sympy.Integer(c)
    if rng.random() < 0.3:
        line, sline = rng.choice(pool)
        num, snum = line + c, sline + c
    for _ in range(rng.randint(1, 3)):
        line, sline = rng.choice(pool)
        num, snum = num / line, snum / sline
    return num, snum


def assert_lowest_terms(f, reference, res=P_ONE):
    """f equals the sympy expression, and its denominator has the degree
    of the one sympy's cancel leaves, so f is in lowest terms; res is the
    residual f should keep."""
    p, q = sympy.fraction(sympy.cancel(reference))
    num, den = to_sympy(f.num), to_sympy(f.den)
    assert sympy.Poly(num * q - den * p, SA, SB).is_zero
    assert sympy.Poly(den, SA, SB).total_degree() \
        == sympy.Poly(q, SA, SB).total_degree()
    assert f.res == res and f.den.lead_coeff() == GR_ONE


def test_line_cancellation_against_sympy():
    """Sums, differences and products of fractions over shared shifted
    coroot lines.  Each case also adds f back to h - f: that sum loses
    every line f has with another multiplicity than h."""
    rng = random.Random(707)
    cancelled = 0
    for _ in range(50):
        pool = line_pool(rng)
        (f, sf), (g, sg), (h, sh) = (line_fraction(rng, pool)
                                     for _ in range(3))
        d, sd = h - f, sh - sf
        for r, reference, x, y in ((f + g, sf + sg, f, g),
                                   (f - g, sf - sg, f, g),
                                   (d, sd, h, f),
                                   (d + f, sd + sf, d, f),
                                   (f * g, sf * sg, None, None)):
            assert_lowest_terms(r, reference)
            if x is None or not r:
                continue
            lcm = dict(x.lines)
            for key, m in y.lines.items():
                lcm[key] = max(m, lcm.get(key, 0))
            cancelled += r.lines != lcm
    # 37 of the 200 sums and differences lost a line both operands had
    assert cancelled == 37


def constant_factor(rng, kind):
    """A nonzero constant, real (kind 0), negative (1) or Gaussian over a
    denominator d > 1 (2), and the same constant in sympy."""
    re = rng.randint(1, 7) * (-1 if kind == 1 else rng.choice((-1, 1)))
    im = rng.choice((-3, -1, 1, 3)) if kind == 2 else 0
    d = rng.choice((2, 4)) if kind == 2 else rng.choice((1, 1, 5))
    c = RatFunc.const(GaussRat(Fraction(re, d), Fraction(im, d)))
    assert kind < 2 or c.num._d == d > 1
    return c, (sympy.Integer(re) + im * sympy.I) / d


def residual_fraction(rng):
    """A parser scalar whose denominator keeps a residual off the coroot
    lines, and the same fraction in sympy."""
    a, b, c, k = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(1, 4),
                  rng.randint(-2, 2))
    text = f"({a}*Ha+Hb+{b})/((Ha^2+{c})*(Hb+{k}))"
    f = evaluate(text, "scalar")
    assert f.res != P_ONE
    return f, sympy.sympify(text.replace("^", "**"),
                            locals={"Ha": SA, "Hb": SB})


def test_constant_factor_against_sympy():
    """c * f and f * c for a constant c scale f's numerator and keep its
    lines and residual, and the result is in lowest terms as it is."""
    rng = random.Random(1313)
    for n in range(60):
        c, sc = constant_factor(rng, n % 3)
        f, sf = (line_fraction(rng, line_pool(rng)) if n % 2
                 else residual_fraction(rng))
        for r in (c * f, f * c):
            assert r.lines == f.lines
            assert_lowest_terms(r, sc * sf, res=f.res)


def rand_poly(rng, size):
    """A Poly2 of size terms with Gaussian coefficients over a shared
    denominator."""
    d = rng.choice((1, 2, 3, 6))
    terms = {}
    while len(terms) < size:
        re, im = rng.randint(-9, 9), rng.randint(-4, 4)
        if re or im:
            terms[(rng.randint(0, 4), rng.randint(0, 3))] = GaussRat(
                Fraction(re, d), Fraction(im, d))
    return Poly2(terms)


def from_sympy(expr) -> Poly2:
    return Poly2({e: GaussRat(Fraction(str(sympy.re(c))),
                              Fraction(str(sympy.im(c))))
                  for e, c in sympy.Poly(expr, SA, SB).terms()})


def test_one_term_poly_product_against_sympy():
    """A one-term factor maps the other factor's terms directly; the
    product is expanded and stored in the canonical form."""
    rng = random.Random(2718)
    for _ in range(80):
        p, q = rand_poly(rng, 1), rand_poly(rng, rng.randint(2, 8))
        expected = from_sympy(sympy.expand(to_sympy(p) * to_sympy(q)))
        assert p * q == expected and q * p == expected
        assert p * p == from_sympy(sympy.expand(to_sympy(p) ** 2))


def test_constant_factor_probes_no_line(monkeypatch):
    f = RF_ONE / ((HA + 1) * (HB + 2) * (HA + HB + 3))
    assert len(f.lines) == 3
    probes = []
    divide_lines = scalars._divide_lines

    def counted(*args):
        probes.append(args)
        return divide_lines(*args)

    monkeypatch.setattr(scalars, "_divide_lines", counted)
    c = RatFunc.const(GaussRat(Fraction(-2, 3), 1))
    for r in (c * f, f * c, 3 * f, f * Fraction(1, 2)):
        assert r.lines == f.lines
    assert probes == []
    assert RF_ONE * f == f and f * RF_ONE == f
    assert c.shift(2, -1) is c and RF_ZERO.shift(1, 1) is RF_ZERO


def test_int_factor_agrees_with_its_constant():
    """An int scales the numerator without being made a constant: f * k,
    k * f and f * RatFunc.const(k) agree, over line-only scalars (some with
    a Gaussian numerator over a denominator > 1) and residual ones; a
    factor equal to 1 returns the other factor itself."""
    rng = random.Random(1717)
    for n in range(30):
        if n % 3 == 0:
            f = residual_fraction(rng)[0]
        else:
            f = line_fraction(rng, line_pool(rng))[0]
            if n % 3 == 2:
                f = f * constant_factor(rng, 2)[0]
        for k in range(-3, 4):
            c = RatFunc.const(k)
            assert f * k == k * f == f * c == c * f
            assert (f * k).lines == (f.lines if k else {})
            assert (f * k).res == (f.res if k else P_ONE)
        assert f * 1 is f and 1 * f is f
        assert f * RatFunc.const(1) is f and RatFunc.const(GR_ONE) * f is f
    assert RF_ZERO * 5 is RF_ZERO and HA * 0 is RF_ZERO


def wide_poly(rng, size, mag, real=True):
    """A Poly2 of size terms on exponents with gaps, signed coefficients
    up to mag in size over a denominator d that is often > 1, and
    imaginary parts unless real."""
    d = rng.choice((1, 3, 10))
    terms = {}
    while len(terms) < size:
        re = rng.randint(-mag, mag)
        im = 0 if real else rng.randint(-mag, mag)
        if re or im:
            terms[(rng.choice((0, 1, 2, 5, 9)), rng.choice((0, 2, 3, 8)))] = \
                GaussRat(Fraction(re, d), Fraction(im, d))
    return Poly2(terms)


def pair_product(p: Poly2, q: Poly2) -> Poly2:
    """p * q by the frozen dict kernel's loop over term pairs."""
    c, d = ref_mul((p._pairs(), p._d), (q._pairs(), q._d))
    return Poly2({e: GaussRat(Fraction(a, d), Fraction(b, d))
                  for e, (a, b) in c.items()})


def test_packed_product_matches_pair_loop():
    """Products of packed rows equal the pair loop, with coefficients that
    fit a 64-bit slot and ones that do not, real and Gaussian, over
    denominators that are often > 1."""
    rng = random.Random(6464)
    wide = 0
    for n in range(160):
        real = n % 4 != 3
        mag = (9, 2 ** 40, 2 ** 70, 2 ** 130)[rng.randrange(4)]
        p, q = (wide_poly(rng, rng.randint(2, 20), mag, real)
                for _ in range(2))
        expected = pair_product(p, q)
        assert p * q == expected and q * p == expected
        wide += (p * q)._s > 64
    assert wide > 30


@pytest.mark.parametrize("bits", (64, 128))
@pytest.mark.parametrize("sign", (1, -1))
def test_packed_slot_holds_the_sign_of_the_bound(bits, sign):
    """The bound B = sum|x1| * sum|x2| on a product coefficient is bits
    long, a whole number of words, and the constant coefficient x^2 is
    above B/2: the slot needs a word more than B for the sign."""
    x = (1 << (bits // 2)) - (1 << (bits // 4))
    p = Poly2({(0, 0): GaussRat(x),
               **{(i, 0): GaussRat((-1) ** i) for i in range(1, 10)}})
    q = Poly2({(0, 0): GaussRat(sign * x),
               **{(0, j): GaussRat(j % 3 - 1 or 1) for j in range(1, 10)}})
    assert ((x + 9) * (x + 9)).bit_length() == bits
    assert (p * q)._s == bits + 64
    assert p * q == pair_product(p, q)
    assert (p * q)._pairs()[(0, 0)] == (sign * x * x, 0)


def test_line_cancellation_per_direction():
    """A line of each coroot direction cancels where it divides the
    numerator: in a product across its two factors (Ha + k and
    Ha + Hb + k), or in a sum whose numerator it divides though neither
    summand's does (Hb + k and Ha + 2*Hb + k).  Each numerator is nonzero
    where u = +k meets the axis, so the axis test has to look at -k."""
    r, sr = HA + HB + 7, SA + SB + 7
    m, sm = coroot_line((0, 1), 5)
    n, sn = coroot_line((1, 1), -4)
    a, sa = HA * HB + 1, SA * SB + 1
    for direction, k, kind in (((1, 0), 3, "product"), ((0, 1), -2, "sum"),
                               ((1, 1), 1, "product"), ((1, 2), -3, "sum")):
        line, sline = coroot_line(direction, k)
        if kind == "product":
            f, g = line * r / m, (HA - 1) / (line * n)
            reference = sline * sr / sm * (SA - 1) / (sline * sn)
            result = f * g
        else:
            f, g = a / (line * m), (line * r - a) / (line * m)
            reference = sa / (sline * sm) + (sline * sr - sa) / (sline * sm)
            result = f + g
        key = (direction, k)
        assert key in (f.lines if kind == "sum" else g.lines), key
        assert key not in result.lines, key
        assert_lowest_terms(result, reference)


def test_line_test_tells_lines_through_one_axis_point_apart():
    """Ha + 2, Ha + Hb + 2 and Ha + 2*Hb + 2 all pass through (-2, 0).  The
    line that divides the numerator divides it once, the other two are
    rejected, each as in the dict kernel, and the product is in lowest
    terms."""
    f = (HA + HB + 2) * (HB + 7)
    g = RF_ONE / ((HA + 2) * (HA + HB + 2) * (HA + 2 * HB + 2))
    expected = (HB + 7) / ((HA + 2) * (HA + 2 * HB + 2))
    assert f * g == expected
    num = (f.num._pairs(), f.num._d)
    for key in g.lines:
        quot, found = scalars._divide_lines(f.num, [key], {key: 1})
        assert ((quot._pairs(), quot._d), found) == ref_divide_lines(
            num, [key], {key: 1})
        assert found == ({key: 1} if key == ((1, 1), 2) else {})
        assert quot == (expected.num if found else f.num)


# Gaussian values whose products can share a content: (1+i)(1-i) = 2.
GAUSS_PARTS = ((1, 1), (1, -1), (0, 2), (2, 1), (1, 2), (3, -1))
RING, RA, RB = sympy.ring("Ha,Hb", sympy.QQ_I)


def to_ring(p: Poly2):
    return RING({e: sympy.QQ_I(sympy.QQ(c.re.numerator, c.re.denominator),
                               sympy.QQ(c.im.numerator, c.im.denominator))
                 for e, c in p.terms.items()})


def ring_shift(pq, da, db):
    return tuple(x.compose([(RA, RA + da), (RB, RB + db)]) for x in pq)


def gaussian_leaf(rng):
    """A non-real Gaussian constant, or one times a coroot line or an
    affine form, and the same as a sympy fraction (num, den)."""
    (re, im), den = rng.choice(GAUSS_PARTS), rng.choice((1, 2, 5))
    z = GaussRat(Fraction(re, den), Fraction(im, den))
    sz = RING(sympy.QQ_I(sympy.QQ(re, den), sympy.QQ(im, den)))
    k = rng.randint(0, 2)
    if k == 0:
        return RatFunc.const(z), (sz, RING.one)
    if k == 1:
        (ca, cb), c = rng.choice(scalars.COROOT_DIRECTIONS), rng.randint(-2, 2)
        return rf_affine(ca, cb, c) * z, ((ca * RA + cb * RB + c) * sz,
                                          RING.one)
    (wa, wb), c = rng.choice(GAUSS_PARTS), rng.randint(-3, 3)
    sw = sympy.QQ_I(wa, wb)
    return (HA * z + HB * GaussRat(wa, wb) + c,
            (RA * sz + RB * sw + c, RING.one))


def gaussian_scalar(rng, depth=0):
    """Seeded sums, products, quotients and shifts of Gaussian leaves, and
    the same expression as a sympy fraction (num, den), not cancelled."""
    if depth > 2 or rng.random() < 0.3:
        return gaussian_leaf(rng)
    x, (p, q) = gaussian_scalar(rng, depth + 1)
    op = rng.randint(0, 3)
    if op == 3:
        da, db = rng.randint(-2, 2), rng.randint(-2, 2)
        return x.shift(da, db), ring_shift((p, q), da, db)
    y, (r, s) = gaussian_scalar(rng, depth + 1)
    if op == 0:
        return x + y, (p * s + r * q, q * s)
    if op == 1:
        return x * y, (p * r, q * s)
    return (x / y, (p * s, q * r)) if y else (x, (p, q))


def assert_cancelled(f, reference):
    """f equals the sympy fraction and has the denominator degree that
    sympy's cancel leaves, so it is in lowest terms over Q(i)."""
    p, q = reference[0].cancel(reference[1])
    num, den = to_ring(f.num), to_ring(f.den)
    assert num * q == den * p
    assert den.degrees() == q.degrees()
    assert f.den.lead_coeff() == GR_ONE


def test_gaussian_content_against_sympy():
    """Gaussian-integer numerators over one denominator stay in lowest
    terms when factors share a content, so that equal values built in
    different ways are equal and hash alike."""
    i = RatFunc.const(GaussRat(0, 1))
    shrinks = ((1 + i) * HA + 1 + i) * ((1 - i) * HB) / 2
    assert shrinks == (HA + 1) * HB and hash(shrinks) == hash((HA + 1) * HB)
    assert shrinks.num.terms == {(1, 1): GR_ONE, (0, 1): GR_ONE}
    rng = random.Random(1312)
    for _ in range(60):
        (a, sa), (b, sb), (c, sc) = (gaussian_scalar(rng) for _ in range(3))
        da, db = rng.randint(-2, 2), rng.randint(-2, 2)
        cases = [(a + b, (sa[0] * sb[1] + sb[0] * sa[1], sa[1] * sb[1])),
                 (a * b, (sa[0] * sb[0], sa[1] * sb[1])),
                 (a.shift(da, db), ring_shift(sa, da, db))]
        if b:
            cases.append((a / b, (sa[0] * sb[1], sa[1] * sb[0])))
            assert (a / b) * b == a
        for r, reference in cases:
            assert_cancelled(r, reference)
        left, right = (a * b) * c, a * (b * c)
        assert left == right and hash(left) == hash(right)
        assert_cancelled(left, (sa[0] * sb[0] * sc[0], sa[1] * sb[1] * sc[1]))


def test_line_only_arithmetic_takes_no_gcd(monkeypatch):
    """Values whose denominators are coroot lines only never reach the
    residual gcd: not in domain-sample products, not in diamond products
    with coefficients over shifted coroot forms, not in GWA products."""
    def refuse(p, q):
        raise AssertionError(f"gcd of {p} and {q}")

    clear_caches()
    monkeypatch.setattr(scalars, "poly_gcd", refuse)
    assert verify.suite_domain_sample(count=20).passed
    rng = random.Random(23)
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]

    def elem():
        return DraElem({m: rf_affine(rng.randint(-2, 2), rng.randint(-2, 2),
                                     rng.randint(1, 3))
                        / (h_form(rng.choice(POS_ROOTS)) + rng.randint(-3, 3))
                        for m in rng.sample(monos, rng.randint(1, 3))})

    for _ in range(3):
        assert diamond(elem(), elem())
    alg = reduction_gwa()
    u = alg.x(1) * alg.base(alg.t(2)) + alg.y(2)
    assert u * (alg.y(1) + alg.x(2)) * u


def test_shifting_a_line_only_scalar_shifts_only_its_numerator(monkeypatch):
    """A shift moves each line's constant and keeps the residual 1 as it
    is, so the numerator is the one polynomial it shifts."""
    f = (HA + 2 * HB + 1) / ((HA + 1) * (HB - 2) * (HA + HB + 3))
    want = (HA + 2 * HB - 2) / ((HA + 2) * (HB - 4) * (HA + HB + 2))
    assert f.res is P_ONE and len(f.lines) == 3
    calls = []
    shift = Poly2.shift

    def counted(p, da, db):
        calls.append(p)
        return shift(p, da, db)

    monkeypatch.setattr(Poly2, "shift", counted)
    got = f.shift(1, -2)
    assert calls == [f.num]
    assert got == want and got.res is P_ONE


def test_shifting_a_constant_numerator_reads_no_row(monkeypatch):
    """A constant numerator is its own shift: a scalar over lines with a
    constant numerator, such as a projector coefficient, shifts only its
    lines' constants, and no digit of a row is read or evaluated."""
    reads = []
    for name in ("_digits", "_ieval"):
        real = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda *args, real=real:
                            reads.append(args) or real(*args))
    c = Poly2.const(GaussRat(Fraction(-2, 3), 5))
    f = scalars.rf_over_lines(GaussRat(1, 2) / 6,
                              {((1, 0), 2): 1, ((1, 2), -1): 2})
    got = f.shift(2, -1)
    assert c.shift(1, -3) is c and got.num is f.num
    assert got.lines == {((1, 0), 4): 1, ((1, 2), -1): 2}
    assert reads == []
    assert scalars.P_HA.shift(1, 0) == scalars.P_HA + P_ONE and reads


def test_expand_builds_only_the_lines_it_multiplies_by(monkeypatch):
    keys = [((1, 0), 1), ((0, 1), -2), ((1, 2), 3), ((1, 1), 0)]
    lines = dict(zip(keys, (2, 1, 3, 1)))
    part = {keys[0]: 2, keys[2]: 1, keys[3]: 1}
    want = scalars._line(keys[1]) * scalars._line(keys[2]) ** 2
    built = []
    line = scalars._line

    def counted(key):
        built.append(key)
        return line(key)

    monkeypatch.setattr(scalars, "_line", counted)
    assert scalars._expand(lines, part) == want
    assert built == keys[1:3]
    built.clear()
    assert scalars._expand(lines, lines) is P_ONE and built == []
