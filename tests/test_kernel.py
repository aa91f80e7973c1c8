"""The packed scalar kernel against the frozen dict kernel.

``kernel_reference`` keeps the dict kernel that ``scalars.Poly2`` had
before its numerators were packed into rows of big integers.  Scalars of
the shapes the engine makes are built in both kernels, by the same sums,
products and shifts, and every intermediate value, every line division
and every quotient must agree.  Coefficients reach 2^40, 2^70 and 2^130,
so that values of several slot widths meet in one operation.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from drasp4 import scalars
from drasp4.scalars import (COROOT_DIRECTIONS, P_HA, P_HB, GaussRat, Poly2,
                            _line)

from kernel_reference import (ref_add, ref_divide_lines, ref_mul, ref_poly,
                              ref_shift)

LINE_KEYS = [(d, k) for d in COROOT_DIRECTIONS for k in range(-3, 4)]
BIG = (1, 2 ** 40, 2 ** 70, 2 ** 130)


def as_ref(p: Poly2) -> tuple:
    return p._pairs(), p._d


def from_ref(c: dict, d: int) -> Poly2:
    return Poly2({e: GaussRat(Fraction(a, d), Fraction(b, d))
                  for e, (a, b) in c.items()})


def line_ref(key) -> tuple:
    (ca, cb), k = key
    c = {e: (f, 0) for e, f in (((1, 0), ca), ((0, 1), cb), ((0, 0), k)) if f}
    return c, 1


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
            value = (value[0] * _line(key), ref_mul(value[1], line_ref(key)))
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
            p, ref = p * _line(key), ref_mul(ref, line_ref(key))
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
