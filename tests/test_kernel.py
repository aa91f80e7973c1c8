"""The packed scalar kernel against the frozen dict kernel.

``kernel_reference`` keeps the dict kernel that ``scalars.Poly2`` had
before its numerators were packed into rows of big integers.  Scalars of
the shapes the engine makes are built in both kernels, by the same sums,
products and shifts, and every intermediate value, every line division
and every quotient must agree.  Coefficients reach 2^40, 2^70 and 2^130,
so that values of several slot widths meet in one operation.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from drasp4 import scalars
from drasp4.scalars import (COROOT_DIRECTIONS, HA, HB, P_HA, P_HB, P_ONE,
                            RF_ZERO, GaussRat, Poly2, RatFunc, _line,
                            _rf, rf_over_lines, rf_sum)

from kernel_reference import (ref_add, ref_divide_lines, ref_line, ref_mul,
                              ref_poly, ref_rf_add, ref_shift)

LINE_KEYS = [(d, k) for d in COROOT_DIRECTIONS for k in range(-3, 4)]
BIG = (1, 2 ** 40, 2 ** 70, 2 ** 130)


def as_ref(p: Poly2) -> tuple:
    return p._pairs(), p._d


def from_ref(c: dict, d: int) -> Poly2:
    return Poly2({e: GaussRat(Fraction(a, d), Fraction(b, d))
                  for e, (a, b) in c.items()})


def both(c: dict, d: int) -> tuple:
    """A value in both kernels: (packed, reference)."""
    ref = ref_poly({e: xy for e, xy in c.items() if xy != (0, 0)}, d)
    return from_ref(*ref), ref


def agree(value: tuple) -> tuple:
    p, ref = value
    assert as_ref(p) == ref
    return value


# -- engine-shaped leaves --

PART = st.builds(lambda x, m: x * m, st.integers(-3, 3), st.sampled_from(BIG))
COEFF = st.tuples(PART, st.one_of(st.just(0), PART))
DENOM = st.sampled_from((1, 1, 2, 3, 6))


@st.composite
def affine(draw):
    """ca*Ha + cb*Hb + c0 with Gaussian parts over a denominator, often
    over a shifted coroot form's line, as numerators are."""
    ca, cb, c0 = (draw(COEFF) for _ in range(3))
    return both({(1, 0): ca, (0, 1): cb, (0, 0): c0}, draw(DENOM))


@st.composite
def line_product(draw):
    """A product of 1 to 20 coroot lines with multiplicities, times a
    Gaussian constant: the expanded denominators and cancelled numerators."""
    factors = draw(st.lists(st.tuples(st.sampled_from(LINE_KEYS),
                                      st.integers(1, 4)),
                            min_size=1, max_size=8))
    lines, total = {}, 0
    for key, m in factors:
        m = min(m, 20 - total)
        if m > 0:
            lines[key] = lines.get(key, 0) + m
            total += m
    value = both({(0, 0): draw(COEFF.filter(any))}, draw(DENOM))
    for key, m in lines.items():
        for _ in range(m):
            value = (value[0] * _line(key), ref_mul(value[1], ref_line(key)))
    return agree(value)


def combine(children):
    def node(op, x, y, da, db):
        (p, pr), (q, qr) = x, y
        if op == "add":
            return agree((p + q, ref_add(pr, qr)))
        if op == "sub":
            return agree((p - q, ref_add(pr, ref_mul(qr, ({(0, 0): (-1, 0)}, 1)))))
        if op == "mul":
            return agree((p * q, ref_mul(pr, qr)))
        return agree((p.shift(da, db), ref_shift(pr, da, db)))
    return st.builds(node, st.sampled_from(("add", "sub", "mul", "mul",
                                            "shift")),
                     children, children, st.integers(-3, 3),
                     st.integers(-3, 3))


SCALAR = st.recursive(st.one_of(affine(), line_product()), combine,
                      max_leaves=4)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(SCALAR, st.lists(st.tuples(st.sampled_from(LINE_KEYS),
                                  st.integers(1, 3)), max_size=4),
       st.lists(st.tuples(st.sampled_from(LINE_KEYS), st.integers(1, 4)),
                min_size=1, max_size=8))
def test_packed_kernel_matches_dict_kernel(value, factors, probes):
    """Sums, products, shifts and line divisions of engine-shaped scalars
    agree with the dict kernel, on values built in both: the value times
    some lines, probed with those lines and others."""
    p, ref = agree(value)
    assume(p)  # the engine divides no zero numerator
    for key, m in factors:
        for _ in range(m):
            p, ref = p * _line(key), ref_mul(ref, ref_line(key))
    agree((p, ref))
    limits = dict(factors)
    limits.update(probes)
    keys = list(limits)
    got, found = scalars._divide_lines(p, keys, limits)
    ref_got, ref_found = ref_divide_lines(ref, keys, limits)
    assert found == ref_found
    assert as_ref(got) == ref_got


@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("direction", COROOT_DIRECTIONS)
@pytest.mark.parametrize("scale", (1, 2 ** 70))
def test_line_division_per_direction_and_constant(direction, k, scale):
    """Each line u + cv*v + k divides what it divides and rejects the rest.
    The rejected numerators vanish at the line's points (u, v) = (-k, 0)
    and (-k - cv, 1) and, for a line Hb + k, at Ha = 1 and Ha = -1 too,
    where a division of the whole packed polynomial by X + k could not
    tell them from multiples when |k| <= 1."""
    key = (direction, k)
    ca, cb = direction
    line, affine = _line(key), Poly2.affine
    q = (affine(3, -2, 5) * affine(1, 4, -1) * Poly2.const(scale)
         + Poly2.const(7))
    trap = (P_HB * affine(0, 1, -1) if ca
            else P_HA * affine(1, 0, -1) * affine(1, 0, 1))
    cv = cb if ca else 0
    for u, v in ((-k, 0), (-k - cv, 1)):
        point = (u, v) if ca else (v, u)
        assert trap.eval_at(GaussRat(point[0]), GaussRat(point[1])) == 0
    cases = ((line * line * q, 2, q), (line * q + trap, 0, None),
             (line * line * (q * trap + line), 2, q * trap + line))
    for p, times, quotient in cases:
        got, found = scalars._divide_lines(p, [key], {key: 3})
        ref_got, ref_found = ref_divide_lines(as_ref(p), [key], {key: 3})
        assert found == ref_found == ({key: times} if times else {})
        assert as_ref(got) == ref_got
        if quotient is not None:
            assert got == quotient


# 0, the units, factors of the denominators 2, 3 and 6 that numerators
# have, and sizes that widen 64-bit slots to 128 bits or more
FACTOR = st.one_of(
    st.sampled_from((0, 1, -1, 2 ** 63, -(2 ** 64), 2 ** 70, -(2 ** 70))),
    st.builds(lambda k, f: k * f, st.integers(-2 ** 20, 2 ** 20),
              st.sampled_from((2, 3, 6))),
    st.integers(-2 ** 70, 2 ** 70))


def scaled_ref(ref: tuple, k: int) -> tuple:
    return ref_mul(ref, ({(0, 0): (k, 0)} if k else {}, 1))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.one_of(affine(), line_product()),
       st.one_of(st.none(), st.sampled_from(LINE_KEYS)), FACTOR)
def test_int_factor_matches_dict_kernel(value, key, k):
    """f * k and k * f scale the numerator's rows as the dict kernel's
    product by the constant k does, and keep the lines and residual."""
    p, ref = agree(value)
    f = RatFunc(p) if key is None else RatFunc(p, _line(key))
    ref = as_ref(f.num)
    for got in (f * k, k * f):
        assert as_ref(got.num) == scaled_ref(ref, k)
        if k and f:
            assert got.lines == f.lines and got.res is f.res
        else:
            assert got is RF_ZERO


def test_int_factor_widens_slots_only_when_the_exact_bound_needs_it(
        monkeypatch):
    """The loose bound a sum leaves is made exact before the slots widen:
    2*Hb, left by a sum that cancels 2^61*Ha, is weighted by 4 in 64-bit
    slots and by 2^62 in 128-bit ones by the one-term weighted sum, with
    no polynomial product.  A factor shared with the denominator of the
    coefficients cancels."""
    big = Poly2.affine(2 ** 61, 1, 0)
    p = big + Poly2.affine(-(2 ** 61), 1, 0)
    assert p._s == 64 and p._n > 2 ** 62
    f = RatFunc(p)
    monkeypatch.setattr(Poly2, "__mul__", None)
    for k, width in ((4, 64), (-(2 ** 62), 128), (3, 64)):
        got = scalars._poly_sum([(p, k)])
        assert got._s == width and as_ref(got) == scaled_ref(as_ref(p), k)
        assert (f * k).num == got
    monkeypatch.undo()
    assert p._n == 2
    sixth = Poly2({(1, 0): GaussRat(0, Fraction(2 ** 58, 6)),
                   (0, 1): GaussRat(Fraction(1, 6))})
    for k, width, d in ((6, 64, 1), (-3, 64, 2), (2 ** 40, 128, 3)):
        got = scalars._poly_sum([(sixth, k)])
        assert (got._s, got._d) == (width, d)
        assert as_ref(got) == scaled_ref(as_ref(sixth), k)
    assert (RatFunc(P_ONE) * 5).num == Poly2.const(5)


# -- n-ary sums of line-only scalars --

# lines in all four directions, two through one point of an axis
SUM_LINES = [((1, 0), 2), ((1, 0), -1), ((0, 1), 1), ((0, 1), -2),
             ((1, 1), 3), ((1, 2), -1)]
SMALL = range(-6, 7)
# the numerators ca*Ha + cb*Hb + c0 with Gaussian c0, the sets of up to
# three lines with multiplicities 1 and 2, and Gaussian scales over
# denominators up to 6; each is one draw, which keeps generation fast
NUMERATORS = [(ca, cb, GaussRat(x, y)) for ca in (0, 1, 2) for cb in (0, 1, 2)
              for x in SMALL for y in SMALL]
LINE_SETS = [dict(zip(keys, ms)) for size in range(4)
             for keys in itertools.combinations(SUM_LINES, size)
             for ms in itertools.product((1, 2), repeat=size)]
SCALES = [GaussRat(Fraction(x, d), Fraction(y, d)) for x in SMALL if x
          for y in SMALL for d in range(1, 7)]


def line_scalar(num, lines, scale):
    """(ca*Ha + cb*Hb + c0) * scale over the lines, in lowest terms: the
    product cancels a numerator that is one of the lines."""
    ca, cb, c0 = num
    p = Poly2({(1, 0): GaussRat(ca), (0, 1): GaussRat(cb), (0, 0): c0})
    return _rf(p or P_ONE, {}, P_ONE) * rf_over_lines(scale, lines)


LINE_SCALAR = st.builds(line_scalar, st.sampled_from(NUMERATORS),
                        st.sampled_from(LINE_SETS), st.sampled_from(SCALES))
# the int weights of a sum's terms: small ones, and ones that widen the
# 64-bit slots of the numerators
WEIGHT = st.sampled_from((-3, -2, -1, 1, 2, 3, 2 ** 62, -(2 ** 62)))


def as_rf_ref(f: RatFunc) -> tuple:
    assert f.res is P_ONE
    return as_ref(f.num), dict(f.lines)


def ref_sum(terms) -> tuple:
    """The pairwise sum of the dict kernel over (scalar, weight) pairs,
    from the first term on, each numerator scaled by its weight first."""
    total = ({}, 1), {}
    for f, k in terms:
        num, lines = as_rf_ref(f)
        total = ref_rf_add(total, (scaled_ref(num, k), lines))
    return total


def check_sum(terms) -> RatFunc:
    got = rf_sum(terms)
    assert as_rf_ref(got) == ref_sum(terms)
    return got


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(LINE_SCALAR, WEIGHT), min_size=2, max_size=20),
       st.one_of(st.none(), LINE_SCALAR))
def test_rf_sum_matches_pairwise_reference(terms, rest):
    """The weighted n-ary sum probes only the lines whose largest
    multiplicity two or more terms carry, and must still agree,
    structurally, with the pairwise sum of the weighted numerators that
    probes every line.  When ``rest`` is drawn, the last term, of weight
    1, is rest minus the sum of the others, so that most lines cancel."""
    if rest is not None:
        num, lines = ref_rf_add(as_rf_ref(rest), as_rf_ref(-rf_sum(terms)))
        if num[0]:
            terms = terms + [(_rf(from_ref(*num), lines, P_ONE), 1)]
    got = check_sum(terms)
    if rest is not None:
        assert got == rest


def test_rf_sum_seeded_cases():
    """Three situations the drawn sums may miss."""
    a, b, c = HA + 2, HB + 1, HA + HB
    # Ha + 2 is carried at its largest multiplicity 2 by the first two
    # terms, once by the third and not by the last, and one power cancels
    terms = [(1 / (a * a * b), 1), ((HA + 1) / (a * a * b), 1), (1 / a, 3),
             (HB / b, 1)]
    got = check_sum(terms)
    assert got == (3 * HB + 4) / (a * b) + HB / b
    assert got.lines == {((1, 0), 2): 1, ((0, 1), 1): 1}
    # terms over different lines whose sum is zero
    assert check_sum([(1 / a, 1), (1 / (HA + 3), -1),
                      (1 / (a * (HA + 3)), -1)]) is RF_ZERO
    assert check_sum([(HA / (b * c), 2), (HB / (b * c), 2),
                      (c / (b * c), -2)]) is RF_ZERO
    # a residual operand sends the whole sum through the constructor
    res = RatFunc(P_ONE, P_HA * P_HA + P_ONE)
    got = rf_sum([(res, 2), (1 / a, 1), (HA, 1), (res, -2)])
    assert got == 1 / a + HA and got.res is P_ONE
    want = RatFunc(Poly2.affine(1, 0, 2) + (P_HA * P_HA + P_ONE),
                   (P_HA * P_HA + P_ONE) * Poly2.affine(1, 0, 2))
    got = rf_sum([(res, 1), (1 / a, 1)])
    assert got == want and got.res == P_HA * P_HA + P_ONE
    assert got.lines == {((1, 0), 2): 1}
