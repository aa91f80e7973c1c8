"""Exact coefficient arithmetic: Gaussian rationals and dynamical scalars.

The dynamical scalars form the fraction field of polynomials in the two
Cartan coordinates, printed ``Ha`` and ``Hb``.  Every generator of the
ambient algebra commutes past a dynamical scalar at the cost of an integer
shift of the coordinates, so the whole engine reduces to exact arithmetic
in this field.  All values are immutable and hashable.

A scalar keeps its numerator expanded and its denominator factored.  The
engine's denominators are products of shifted coroot forms h + k, the
denominators of the extremal projector, and each such line is stored with
its multiplicity: a product adds multiplicities, a sum takes their maximum
and cancels a line only where the numerator vanishes on it, and a shift
moves each line's constant.  What does not split into such lines (only
parser or hand-built input has it) stays one residual polynomial, reduced
by a gcd in one place, the RatFunc constructor: a sum, product or inverse
with a residual operand is built there from expanded numerators and
denominators, and line-only values never take a gcd.  A polynomial keeps
Gaussian-integer coefficient pairs over one denominator, the way a
Gaussian rational keeps one number, so its ring operations run in plain
ints with one gcd pass per result.

A line test looks first at the numerator's restriction to an axis, p(Ha, 0)
or p(0, Hb), built once per cancellation: a line can divide the numerator
only if that restriction vanishes where the line meets the axis.  The
three lines with an Ha part and the same constant meet the axis in one
point, so the test then looks at a second point of the line, where the
other coordinate is 1, through the restriction there.  Synthetic
division runs only after both tests.

A constant factor scales the other factor's numerator and cancels
nothing: a nonzero constant divides by no line and changes no gcd, so the
product keeps the other factor's lines and residual as they are.  A
factor equal to 1 returns the other factor itself, and a plain int
scales the numerator's pairs without being built into a constant.  A
one-term polynomial factor maps the other factor's terms directly, since
their shifted keys cannot collide.  Products of larger real polynomials,
from PACK_PAIRS term pairs on, are packed into one big-integer product
(Kronecker substitution) and read back slot by slot; smaller ones keep
the loop over term pairs.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import comb, lcm
from math import gcd as _igcd
from operator import itemgetter

from .sparse import add_into, mono_text, power, signed_sum


class GaussRat:
    """A Gaussian rational stored as the normalized triple (a + b*i)/d
    with integer parts, d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d", "_hash")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return cls._raw(re, im, 1)
        fr = re if type(re) is Fraction else Fraction(re)
        fi = im if type(im) is Fraction else Fraction(im)
        d = lcm(fr.denominator, fi.denominator)
        return cls._raw(fr.numerator * (d // fr.denominator),
                        fi.numerator * (d // fi.denominator), d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussRat":
        """The normalized (a + b*i)/d for any integers a, b and d != 0."""
        self = object.__new__(cls)
        if d < 0:
            a, b, d = -a, -b, -d
        g = _igcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRat):
            return x
        if isinstance(x, int):
            return GaussRat._raw(x, 0, 1)
        if isinstance(x, Fraction):
            return GaussRat._raw(x.numerator, 0, x.denominator)
        return None

    def __bool__(self):
        return bool(self._a or self._b)

    def is_zero(self):
        return not (self._a or self._b)

    def __eq__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return (self._a == g._a and self._b == g._b and self._d == g._d)

    def __hash__(self):
        # equal to int and Fraction, so real values hash like them
        h = self._hash
        if h is None:
            a, b, d = self._a, self._b, self._d
            if b:
                h = hash((a, b, d))
            else:
                h = hash(a) if d == 1 else hash(Fraction(a, d))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        d1, d2 = self._d, g._d
        if d1 == d2:
            return GaussRat._raw(self._a + g._a, self._b + g._b, d1)
        return GaussRat._raw(self._a * d2 + g._a * d1,
                             self._b * d2 + g._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        d1, d2 = self._d, g._d
        if d1 == d2:
            return GaussRat._raw(self._a - g._a, self._b - g._b, d1)
        return GaussRat._raw(self._a * d2 - g._a * d1,
                             self._b * d2 - g._b * d1, d1 * d2)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g - self

    def __neg__(self):
        return GaussRat._raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, g._a, g._b
        return GaussRat._raw(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                             self._d * g._d)

    __rmul__ = __mul__

    def inv(self):
        n = self._a * self._a + self._b * self._b
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat._raw(self._d * self._a, -self._d * self._b, n)

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self * g.inv()

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g * self.inv()

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return gauss_str(self)


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def gauss_str(c: GaussRat) -> str:
    """Render a Gaussian rational, e.g. ``1``, ``-i``, ``2/3*i``, ``1+2*i``."""
    if not c.im:
        return str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{c.im}*i"
    im = c.im
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    tail = "i" if mag == 1 else f"{mag}*i"
    return f"{c.re}{sign}{tail}"


def gauss_json(c: GaussRat) -> list:
    return [str(c.re), str(c.im)]


# ---------------------------------------------------------------------------
# Sparse polynomials in the two Cartan coordinates.
# ---------------------------------------------------------------------------

class Poly2:
    """Sparse polynomial in the coordinates (Ha, Hb) over the Gaussian
    rationals, stored the way GaussRat stores one number: ``_c`` maps each
    exponent pair (ea, eb) to a nonzero Gaussian-integer pair (a, b), and
    the coefficient is (a + b*i)/d for the one denominator ``_d`` > 0, with
    gcd(all a, all b, d) = 1.  The form is unique, so structural equality
    is field equality.  Ring operations work in plain ints with one gcd
    pass per result; ``terms``, the map to GaussRat coefficients, is built
    on read.

    The leading term is taken in lex order on (ea, eb); canonical
    denominators are normalized to leading coefficient 1.
    """

    __slots__ = ("_c", "_d")

    def __new__(cls, terms=None):
        t = {e: c for e, c in (terms or {}).items() if c}
        d = lcm(*(c._d for c in t.values()))
        return _poly({e: (c._a * (d // c._d), c._b * (d // c._d))
                      for e, c in t.items()}, d)

    def __setattr__(self, name, value):
        raise AttributeError("Poly2 is immutable")

    @property
    def terms(self) -> dict:
        d = self._d
        return {e: GaussRat._raw(a, b, d) for e, (a, b) in self._c.items()}

    # -- constructors --

    @staticmethod
    def const(c) -> "Poly2":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        return _poly({(0, 0): (g._a, g._b)}, g._d) if g else P_ZERO

    @staticmethod
    def affine(ca, cb, c0) -> "Poly2":
        return Poly2({(1, 0): GaussRat(ca), (0, 1): GaussRat(cb),
                      (0, 0): GaussRat(c0)})

    # -- predicates --

    def __bool__(self):
        return bool(self._c)

    def is_zero(self):
        return not self._c

    def is_const(self):
        return not self._c or (len(self._c) == 1 and (0, 0) in self._c)

    def const_value(self) -> GaussRat:
        return GaussRat._raw(*self._c[(0, 0)], self._d) if self._c else GR_ZERO

    def total_degree(self) -> int:
        return max((ea + eb for ea, eb in self._c), default=-1)

    def __eq__(self, other):
        if type(other) is not Poly2:
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash((frozenset(self._c.items()), self._d))

    # -- ring operations --

    def __add__(self, other):
        d1, d2 = self._d, other._d
        g = _igcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        out = (dict(self._c) if f1 == 1
               else {e: (a * f1, b * f1) for e, (a, b) in self._c.items()})
        return _poly(_acc(out, ((e, a * f2, b * f2)
                                for e, (a, b) in other._c.items())), d1 * f1)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _poly({e: (-a, -b) for e, (a, b) in self._c.items()}, self._d)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        if len(other._c) == 1 or len(self._c) == 1:
            # a one-term factor maps terms directly: shifted keys stay
            # distinct and a product of nonzero Gaussian integers is nonzero
            p, q = (self, other) if len(other._c) == 1 else (other, self)
            ((a2, b2), (x2, y2)), = q._c.items()
            return _poly({(a1 + a2, b1 + b2): (x1 * x2 - y1 * y2,
                                               x1 * y2 + y1 * x2)
                          for (a1, b1), (x1, y1) in p._c.items()},
                         self._d * other._d)
        c1, c2 = self._c, other._c
        if (len(c1) * len(c2) >= PACK_PAIRS
                and not any(y for _, y in c1.values())
                and not any(y for _, y in c2.values())):
            return _poly(_packed_mul(c1, c2), self._d * other._d)
        return _poly(_pair_mul(c1, c2), self._d * other._d)

    def __pow__(self, n: int):
        return power(self, n, P_ONE)

    # -- leading data (lex on (ea, eb)) --

    def lead_coeff(self) -> GaussRat:
        return GaussRat._raw(*self._c[max(self._c)], self._d)

    def monic(self) -> "Poly2":
        if not self._c:
            return self
        lc = self.lead_coeff()
        return self if lc == GR_ONE else self * lc.inv()

    def leading_form(self) -> "Poly2":
        """Top total-degree homogeneous part."""
        d = self.total_degree()
        return _poly({e: c for e, c in self._c.items() if e[0] + e[1] == d},
                     self._d)

    def sorted_keys(self) -> list:
        """Keys by descending total degree, then descending key."""
        return sorted(self._c, key=lambda e: (e[0] + e[1], e), reverse=True)

    # -- substitution and evaluation --

    def shift(self, da: int, db: int) -> "Poly2":
        """Substitute Ha -> Ha + da, Hb -> Hb + db."""
        if da == 0 and db == 0:
            return self
        return _poly(_acc({}, self._shift_terms(da, db)), self._d)

    def _shift_terms(self, da: int, db: int):
        for (ea, eb), (x, y) in self._c.items():
            for ia in range(ea + 1):
                ka = comb(ea, ia) * da ** (ea - ia)
                if ka:
                    for ib in range(eb + 1):
                        k = ka * comb(eb, ib) * db ** (eb - ib)
                        if k:
                            yield (ia, ib), k * x, k * y

    def eval_at(self, pa: GaussRat, pb: GaussRat) -> GaussRat:
        return sum((c * power(pa, ea, GR_ONE) * power(pb, eb, GR_ONE)
                    for (ea, eb), c in self.terms.items()), GR_ZERO)

    # -- exact division --

    def divexact(self, g: "Poly2") -> "Poly2":
        """Exact quotient self / g; raises ArithmeticError on nonzero remainder."""
        if g.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divrem(self, g)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        return quot

    def __repr__(self):
        return f"Poly2({self.terms!r})"

    def __str__(self):
        return poly_str(self)


def _poly(c: dict, d: int) -> Poly2:
    """A Poly2 from nonzero integer pairs over d > 0: the one gcd pass that
    puts it in lowest terms."""
    g = _igcd(d, *(x for xy in c.values() for x in xy)) if d > 1 else 1
    if g > 1:
        c = {e: (a // g, b // g) for e, (a, b) in c.items()}
        d //= g
    p = object.__new__(Poly2)
    object.__setattr__(p, "_c", c)
    object.__setattr__(p, "_d", d)
    return p


def _acc(out: dict, items) -> dict:
    """Add nonzero (key, re, im) triples into out, a map of nonzero
    integer pairs, and return it; a key whose sum cancels is removed."""
    get = out.get
    for e, x, y in items:
        s = get(e)
        if s is None:
            out[e] = (x, y)
        else:
            s = (s[0] + x, s[1] + y)
            if s == (0, 0):
                del out[e]
            else:
                out[e] = s
    return out


def _pair_mul(c1: dict, c2: dict) -> dict:
    """The product of two pair maps, one term pair at a time."""
    return _acc({}, (((a1 + a2, b1 + b2), x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
                     for (a1, b1), (x1, y1) in c1.items()
                     for (a2, b2), (x2, y2) in c2.items()))


# A product of at least this many term pairs of real operands is packed
# into one integer product; on the products the engine makes, the pair
# loop was faster below it.
PACK_PAIRS = 50

# Slots of 8 bytes are read and written as one machine word each.
_WORDS = array("Q").itemsize == 8 and sys.byteorder == "little"
_first, _second = itemgetter(0), itemgetter(1)


def _packed_mul(c1: dict, c2: dict) -> dict:
    """The product of two pair maps with zero imaginary parts, by Kronecker
    substitution: the term (ea, eb) becomes the slot ea*w + eb of one
    integer, w the product's Hb degree plus 1, so no product term spills
    into another.  No product coefficient exceeds B = sum|x1| * sum|x2|
    in size, so a slot of 8*size bytes with 2^(8*size - 1) > B holds any
    of them with its sign; adding half a slot to every slot of the
    product makes each one non-negative, so the slots read back without
    borrows."""
    w = max(map(_second, c1)) + max(map(_second, c2)) + 1
    bound = (sum(map(abs, map(_first, c1.values())))
             * sum(map(abs, map(_first, c2.values()))))
    size = max(8, (bound.bit_length() + 8) // 8)
    slots = (max(c1)[0] + max(c2)[0] + 1) * w
    half = 1 << (8 * size - 1)
    prod = (_pack(c1, w, size) * _pack(c2, w, size)
            + int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little"))
    raw = prod.to_bytes(size * slots, "little")
    if size == 8 and _WORDS:
        vals = array("Q", raw)
    else:
        vals = [int.from_bytes(raw[i:i + size], "little")
                for i in range(0, len(raw), size)]
    return {divmod(i, w): (v - half, 0) for i, v in enumerate(vals)
            if v != half}


def _pack(c: dict, w: int, size: int) -> int:
    """The sum of x * 2^(8*size*(ea*w + eb)) over the terms of c, each |x|
    below 2^(8*size - 1): positive and negative parts fill the slots of
    one integer each."""
    n = (max(c)[0] + 1) * w
    if size == 8 and _WORDS:
        pos, neg = array("Q", bytes(8 * n)), array("Q", bytes(8 * n))
        for (ea, eb), (x, _) in c.items():
            if x > 0:
                pos[ea * w + eb] = x
            else:
                neg[ea * w + eb] = -x
    else:
        pos, neg = bytearray(size * n), bytearray(size * n)
        for (ea, eb), (x, _) in c.items():
            i = (ea * w + eb) * size
            if x > 0:
                pos[i:i + size] = x.to_bytes(size, "little")
            else:
                neg[i:i + size] = (-x).to_bytes(size, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _divrem(p: Poly2, g: Poly2) -> tuple:
    """Quotient and remainder of p by g: divide while g's leading term
    divides the leading term of what is left, in Gaussian-integer pairs
    with p * scale = quot * g + rem, scaling only when a quotient
    coefficient would not be integral."""
    ge = max(g._c)
    x, y = g._c[ge]
    n = x * x + y * y
    rem, quot, scale = dict(p._c), {}, 1
    while rem:
        le = max(rem)
        if le[0] < ge[0] or le[1] < ge[1]:
            break
        qe = (le[0] - ge[0], le[1] - ge[1])
        a, b = rem[le]
        # (a + b*i)/(x + y*i) = (a + b*i)(x - y*i)/n
        qa, qb = a * x + b * y, b * x - a * y
        f = n // _igcd(n, qa, qb)
        if f > 1:
            rem, quot = ({e: (u * f, v * f) for e, (u, v) in m.items()}
                         for m in (rem, quot))
            scale *= f
        qa, qb = qa * f // n, qb * f // n
        quot[qe] = (qa, qb)
        _acc(rem, (((e[0] + qe[0], e[1] + qe[1]),
                    qb * v - qa * u, -qa * v - qb * u)
                   for e, (u, v) in g._c.items()))
    return (_poly({e: (a * g._d, b * g._d) for e, (a, b) in quot.items()},
                  scale * p._d), _poly(rem, scale * p._d))


P_ZERO = Poly2()
P_ONE = Poly2({(0, 0): GR_ONE})
P_HA = Poly2({(1, 0): GR_ONE})
P_HB = Poly2({(0, 1): GR_ONE})

_VAR_NAMES = ("Ha", "Hb")


def poly_str(p: Poly2) -> str:
    terms = p.terms
    return signed_sum(((gauss_str(terms[e]), mono_text(e, _VAR_NAMES, "*"))
                       for e in p.sorted_keys()), "*")


def poly_json(p: Poly2) -> list:
    terms = p.terms
    return [[e[0], e[1], str(terms[e].re), str(terms[e].im)]
            for e in p.sorted_keys()]


def poly_from_json(rows) -> Poly2:
    terms = {}
    for ea, eb, re, im in rows:
        terms[(int(ea), int(eb))] = GaussRat(Fraction(re), Fraction(im))
    return Poly2(terms)


# ---------------------------------------------------------------------------
# Polynomial gcd.  RatFunc keeps the integer-shift coroot lines of its
# denominators factored (see below) and cancels them by a line test, so a
# gcd is taken only of what does not split into such lines, which only
# parser or hand-built input has.  It is a subresultant remainder
# sequence in Ha with contents in Hb over the Gaussian rationals.  Its
# divisions work in Poly2's Gaussian-integer pairs and scale a remainder
# only where a quotient coefficient would not be integral.
# ---------------------------------------------------------------------------

def _ugcd(u: Poly2, v: Poly2) -> Poly2:
    """Monic gcd of two polynomials in Hb alone, by Euclid's algorithm
    with monic divisors, which keeps the remainders' coefficients small."""
    while v:
        v = v.monic()
        u, v = v, _divrem(u, v)[1]
    return u.monic()


def _coeffs_in_a(p: Poly2) -> dict:
    """View p as a polynomial in Ha whose coefficients are Hb-polynomials."""
    out = {}
    for (ea, eb), xy in p._c.items():
        out.setdefault(ea, {})[(0, eb)] = xy
    return {k: _poly(row, p._d) for k, row in out.items()}


def _primitive(coeffs: dict) -> tuple:
    """Ha-coefficients divided by their content in Hb, and that content."""
    g = P_ZERO
    for poly in coeffs.values():
        g = _ugcd(g, poly)
        if g.is_const():
            return coeffs, P_ONE
    return {k: v.divexact(g) for k, v in coeffs.items()}, g


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of Ha-coefficient maps (coefficients in K[Hb]):
    the remainder of lc(b)^(deg a - deg b + 1) * a on division by b."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    steps = max(a) - db + 1
    while r and max(r) >= db:
        dr = max(r)
        neg_lr = -r[dr]
        # r <- lb*r - lr*Ha^(dr-db)*b
        r = add_into({k: v * lb for k, v in r.items() if k != dr},
                     ((k + dr - db, neg_lr * v) for k, v in b.items() if k != db))
        steps -= 1
    if steps and r:
        f = power(lb, steps, P_ONE)
        r = {k: v * f for k, v in r.items()}
    return r


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Monic gcd of two bivariate polynomials over the Gaussian rationals."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const():
        return P_ONE
    return _residual_gcd(p, q)


def _residual_gcd(p: Poly2, q: Poly2) -> Poly2:
    """gcd by the subresultant remainder sequence in Ha: the gcd of the two
    contents in Hb times the primitive part of the last nonzero remainder.

    Each pseudo-remainder is divided exactly by g * h^delta (Collins and
    Brown), which keeps the coefficients to the size of subresultants
    without a content gcd per step.
    """
    a, ca = _primitive(_coeffs_in_a(p))
    b, cb = _primitive(_coeffs_in_a(q))
    if max(a) < max(b):
        a, b = b, a
    g = h = P_ONE
    while True:
        delta = max(a) - max(b)
        r = _prem(a, b)
        if not r:
            break
        div = g * power(h, delta, P_ONE)
        a, b = b, {k: v.divexact(div) for k, v in r.items()}
        g = a[max(a)]
        if delta:
            h = power(g, delta, P_ONE).divexact(power(h, delta - 1, P_ONE))
    b, _ = _primitive(b)
    body = Poly2({(k, e[1]): c for k, v in b.items() for e, c in v.terms.items()})
    if not (ca.is_const() or cb.is_const()):
        body = body * _ugcd(ca, cb)
    return body.monic()


# ---------------------------------------------------------------------------
# Integer-shift coroot lines: the key ((ca, cb), k) is the monic form
# ca*Ha + cb*Hb + k, (ca, cb) the linear part of a shifted coroot form of
# sp4 (the extremal projector's denominators) and k any integer.
# ---------------------------------------------------------------------------

COROOT_DIRECTIONS = ((1, 0), (0, 1), (1, 1), (1, 2))


def _expand(lines: dict, part: dict) -> Poly2:
    """The product of the lines with their multiplicities, less those in
    part (a divisor of lines)."""
    out = P_ONE
    for key, m in lines.items():
        (ca, cb), k = key
        line = _poly({e: (f, 0) for e, f in (((1, 0), ca), ((0, 1), cb),
                                              ((0, 0), k)) if f}, 1)
        for _ in range(m - part.get(key, 0)):
            out = _times(out, line)
    return out


def _divide_out(p: Poly2, key, limit: int) -> tuple:
    """p divided by the line as often as it divides, at most limit times,
    and how often: p's integer pairs are divided synthetically in the
    line's variable u over the other, v, staying integral."""
    (ca, cb), k = key
    cv = cb if ca else 0  # the line is u + cv*v + k
    rows, n = {}, 0
    for e, xy in p._c.items():
        rows.setdefault(e[1 - ca], {})[e[ca]] = xy
    while n < limit:
        quot = _synthetic(rows, cv, k)
        if quot is None:
            break
        rows, n = quot, n + 1
    if not n:
        return p, 0
    return _poly({((u, v) if ca else (v, u)): xy for u, r in rows.items()
                  for v, xy in r.items() if xy != (0, 0)}, p._d), n


def _synthetic(rows: dict, cv: int, k: int):
    """Rows {u: {v: (re, im)}} over u + cv*v + k by synthetic division in
    u, or None if the remainder is not zero."""
    rows = {u: dict(r) for u, r in rows.items()}
    quot = {}
    for u in range(max(rows), 0, -1):
        q = quot[u - 1] = rows.pop(u, {})
        below = rows.setdefault(u - 1, {})
        for v, (x, y) in q.items():
            for w, f in ((v, k), (v + 1, cv)):
                if f:
                    a, b = below.get(w, (0, 0))
                    below[w] = (a - f * x, b - f * y)
    return None if any(x or y for x, y in rows.get(0, {}).values()) else quot


def _zero_at(terms, t: int) -> bool:
    """Whether the sum of (x + y*i) * t^e over the pairs (e, (x, y)) of
    terms is zero."""
    re = im = 0
    for e, (x, y) in terms:
        w = t ** e
        re += x * w
        im += y * w
    return not (re or im)


def _restriction(p: Poly2, ca: int, v: int) -> list:
    """p with the coordinate other than u set to v (0 or 1), as (exponent
    of u, pair) items; u is Ha if ca else Hb."""
    if not v:
        return [(e[1 - ca], xy) for e, xy in p._c.items() if not e[ca]]
    out = {}
    for e, (x, y) in p._c.items():
        s = out.get(e[1 - ca])
        out[e[1 - ca]] = (x, y) if s is None else (s[0] + x, s[1] + y)
    return list(out.items())


def _divide_lines(p: Poly2, keys, limits) -> tuple:
    """p divided by each line of keys as often as it divides, at most
    limits[key] times, and the lines that divided with how often.

    Write a line ca*Ha + cb*Hb + k as u + cv*v + k, u its first variable
    (Ha if ca, else Hb) and v the other.  It can divide p only if p
    vanishes at its points (u, v) = (-k, 0) and (-k - cv, 1).  The first
    test alone cannot tell apart the three lines with an Ha part and the
    same k, which all pass through (-k, 0).  p's restrictions to v = 0
    and v = 1 are built when a key first needs them, and again only after
    a line has divided p."""
    rest, found = {}, {}
    for key in keys:
        (ca, cb), k = key
        for v, u in ((0, -k), (1, -k - (cb if ca else 0))):
            r = rest.get((ca, v))
            if r is None:
                r = rest[ca, v] = _restriction(p, ca, v)
            if not _zero_at(r, u):
                break
        else:
            p, n = _divide_out(p, key, limits[key])
            if n:
                found[key] = n
                rest = {}
    return p, found


def _ieval(c: list, x: int) -> int:
    v = 0
    for k in reversed(c):
        v = v * x + k
    return v


def _crossings(c: list, pts: list) -> list:
    """pts and, between neighbours where c changes sign, the two integers
    around the crossing, found by bisection; c must be monotone between
    neighbours."""
    out = set(pts)
    for u, v in zip(pts, pts[1:]):
        su = _ieval(c, u)
        if su * _ieval(c, v) < 0:
            while v - u > 1:
                m = (u + v) // 2
                sm = _ieval(c, m)
                if sm == 0:
                    u = v = m
                elif (sm > 0) == (su > 0):
                    u = m
                else:
                    v = m
            out.update((u, v))
    return sorted(out)


def _int_roots(u: dict) -> list:
    """Candidate integer roots of a nonzero univariate polynomial given by
    Gaussian-integer pairs: those of its real part, or of its imaginary
    part if that is all.  They lie within the Cauchy bound; each derivative's
    sign changes, found from the next derivative's, cut that interval into
    pieces on which the one before is monotone, down to the polynomial."""
    part = 0 if any(x for x, _ in u.values()) else 1
    c = [0] * (max(u) + 1)
    for e, xy in u.items():
        c[e] = xy[part]
    while not c[-1]:
        c.pop()
    zero = [0] if not c[0] else []
    while not c[0]:
        c.pop(0)
    # a nonzero integer root also divides the constant term
    bound = min(abs(c[0]), 2 + max(map(abs, c[:-1]), default=0) // abs(c[-1]))
    ders = [c]
    while len(ders[-1]) > 2:
        d = ders[-1]
        ders.append([i * d[i] for i in range(1, len(d))])
    pts = [-bound, bound]
    for d in reversed(ders):
        pts = _crossings(d, pts)
    return zero + [x for x in pts if x and not _ieval(c, x)]


def _split_lines(p: Poly2) -> tuple:
    """The integer-shift coroot lines dividing p, with multiplicities, and
    the monic residual left when they are divided out."""
    lines = {}
    if p.is_const():
        return lines, P_ONE
    top = max(ea for ea, _ in p._c)
    p = _strip(p, [((0, 1), -r) for r in _int_roots(
        {eb: xy for (ea, eb), xy in p._c.items() if ea == top})], lines)
    # With no Hb + k factor left, p(Ha, 0) is not zero, and a line
    # Ha + cb*Hb + k dividing p gives it the root Ha = -k.
    p = _strip(p, [(d, -r) for r in _int_roots(
        {ea: xy for (ea, eb), xy in p._c.items() if eb == 0})
        for d in COROOT_DIRECTIONS if d[0]], lines)
    return lines, P_ONE if p.is_const() else p.monic()


def _strip(p: Poly2, keys, lines: dict) -> Poly2:
    limits = dict.fromkeys(keys, p.total_degree())
    p, found = _divide_lines(p, limits, limits)
    lines.update(found)
    return p


def _cancel(num: Poly2, lines: dict, keys) -> tuple:
    """Divide num by each line of keys as often as it divides num, up to
    its multiplicity in lines; returns num and the lines left over."""
    num, found = _divide_lines(num, keys, lines)
    if found:
        lines = {key: m - found.get(key, 0) for key, m in lines.items()
                 if m != found.get(key)}
    return num, lines


# ---------------------------------------------------------------------------
# Rational functions: the field of dynamical scalars.
# ---------------------------------------------------------------------------

class RatFunc:
    """Canonical rational function num/den in (Ha, Hb) over GaussRat.

    The denominator is stored factored: ``lines`` maps each integer-shift
    coroot line dividing it to its multiplicity, and ``res`` is the monic
    residual, which is 1 for every value the engine makes.  ``den`` is
    their product, expanded on first read.  The constructor is the one
    place that splits a denominator and takes the residual gcd: sums,
    products and inverses with a residual operand go through it, and
    those of line-only values work on the lines alone and take no gcd.

    Invariants: den has leading coefficient 1 in lex order, gcd(num, den)
    = 1, and the residual never holds an integer-shift coroot line.  Lines
    are irreducible, so the split of den into lines and residual is
    unique, and structural equality is field equality.
    """

    __slots__ = ("num", "lines", "res", "_den", "_hash")

    def __init__(self, num: Poly2, den: Poly2 = P_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero divisor in scalar field")
        lines, res = {}, P_ONE
        if num:
            lines, res = _split_lines(den)
            num, lines = _cancel(num * den.lead_coeff().inv(), lines, lines)
            if res is not P_ONE:
                g = poly_gcd(num, res)
                if not g.is_const():
                    num, res = num.divexact(g), res.divexact(g)
        _set(self, num, lines, res)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def const(c) -> "RatFunc":
        return _rf(Poly2.const(c), {}, P_ONE)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return RatFunc.const(x)
        return None

    @property
    def den(self) -> Poly2:
        d = self._den
        if d is None:
            d = _times(_expand(self.lines, {}), self.res)
            object.__setattr__(self, "_den", d)
        return d

    # -- predicates --

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return not self.lines and self.res is P_ONE and self.num.is_const()

    def const_value(self) -> GaussRat:
        if not self.is_const():
            raise ValueError("not a constant scalar")
        return self.num.const_value()

    def __eq__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self.num == g.num and self.lines == g.lines and self.res == g.res

    def __hash__(self):
        # a constant equals its GaussRat value, so it hashes like it
        h = self._hash
        if h is None:
            if self.is_const():
                h = hash(self.num.const_value())
            else:
                h = hash((self.num, frozenset(self.lines.items()), self.res))
            object.__setattr__(self, "_hash", h)
        return h

    # -- field operations --

    def _add_sub(self, g: "RatFunc", sign: int) -> "RatFunc":
        """Addition over the lcm of the denominators.  A line can cancel
        only where both operands have it with the same multiplicity, so
        the sum is tested on those lines alone.  An operand with a
        residual sends the sum through the constructor."""
        t1, t2 = self.num, (g.num if sign > 0 else -g.num)
        if self.res is not P_ONE or g.res is not P_ONE:
            return RatFunc(t1 * g.den + t2 * self.den, self.den * g.den)
        l1, l2 = self.lines, g.lines
        if l1 == l2:
            lines = common = l1
        else:
            lines = {**l1, **{key: max(m, l1.get(key, 0))
                              for key, m in l2.items()}}
            common = [key for key, m in l1.items() if l2.get(key) == m]
            t1 = _times(t1, _expand(lines, l1))
            t2 = _times(t2, _expand(lines, l2))
        t = t1 + t2
        if t.is_zero():
            return RF_ZERO
        return _rf(*_cancel(t, lines, common), P_ONE)

    def __add__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if not g.num:
            return self
        if not self.num:
            return g
        return self._add_sub(g, 1)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if not g.num:
            return self
        if not self.num:
            return -g
        return self._add_sub(g, -1)

    def __rsub__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g - self

    def __neg__(self):
        return _rf(-self.num, self.lines, self.res)

    def __mul__(self, other):
        if type(other) is int:
            # scales the numerator's pairs, builds no constant
            if not other or not self.num:
                return RF_ZERO
            if other == 1:
                return self
            n = self.num
            return _rf(_poly({e: (a * other, b * other)
                              for e, (a, b) in n._c.items()}, n._d),
                       self.lines, self.res)
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self.num.is_zero() or g.num.is_zero():
            return RF_ZERO
        # a factor equal to 1 gives the other factor itself, and a nonzero
        # constant cancels no line and changes no gcd
        c1, c2 = self.is_const(), g.is_const()
        if c2 and g.num == P_ONE:
            return self
        if c1:
            return g if self.num == P_ONE else _rf(
                _times(self.num, g.num), g.lines, g.res)
        if c2:
            return _rf(_times(self.num, g.num), self.lines, self.res)
        if self.res is not P_ONE or g.res is not P_ONE:
            return RatFunc(self.num * g.num, self.den * g.den)
        # cross-cancel; both inputs are reduced, so the result is too
        n1, l2 = _cancel(self.num, g.lines, g.lines)
        n2, l1 = _cancel(g.num, self.lines, self.lines)
        lines = dict(l1)
        for key, m in l2.items():
            lines[key] = lines.get(key, 0) + m
        return _rf(n1 * n2, lines, P_ONE)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self * g.inv()

    def __rtruediv__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return g * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, RF_ONE)

    # -- substitution, evaluation, asymptotics --

    def shift(self, da: int, db: int) -> "RatFunc":
        """Substitute Ha -> Ha + da, Hb -> Hb + db (a field automorphism);
        each line keeps its direction and moves its constant."""
        if (da == 0 and db == 0) or self.is_const():
            return self
        lines = {(d, k + d[0] * da + d[1] * db): m
                 for (d, k), m in self.lines.items()}
        return _rf(self.num.shift(da, db), lines, self.res.shift(da, db))

    def eval_at(self, pa, pb) -> GaussRat:
        pa = pa if isinstance(pa, GaussRat) else GaussRat(pa)
        pb = pb if isinstance(pb, GaussRat) else GaussRat(pb)
        d = self.den.eval_at(pa, pb)
        if not d:
            raise ZeroDivisionError("evaluation at pole")
        return self.num.eval_at(pa, pb) / d

    def limit_inf(self):
        """Limit as both coordinates grow, by total-degree leading forms.

        Returns a GaussRat when the leading forms are proportional at equal
        degree (or the numerator degree is smaller, giving 0), and the
        sentinels DIVERGENT / UNDEFINED otherwise.
        """
        if self.num.is_zero():
            return GR_ZERO
        dn, dd = self.num.total_degree(), self.den.total_degree()
        if dn < dd:
            return GR_ZERO
        if dn > dd:
            return DIVERGENT
        fn, fd = self.num.leading_form(), self.den.leading_form()
        ratio = fn.lead_coeff() / fd.lead_coeff()
        if fd * ratio == fn:
            return ratio
        return UNDEFINED

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return rf_str(self)


def _set(f: RatFunc, num: Poly2, lines: dict, res: Poly2) -> None:
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "lines", lines)
    object.__setattr__(f, "res", P_ONE if res.is_const() else res)
    object.__setattr__(f, "_den", None)
    object.__setattr__(f, "_hash", None)


def _rf(num: Poly2, lines: dict, res: Poly2) -> RatFunc:
    """A RatFunc from parts that already meet its invariants."""
    f = object.__new__(RatFunc)
    _set(f, num, lines, res)
    return f


def _times(p: Poly2, q: Poly2) -> Poly2:
    return p if q is P_ONE else q if p is P_ONE else p * q


class _LimitSentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


DIVERGENT = _LimitSentinel("divergent")
UNDEFINED = _LimitSentinel("undefined")

RF_ZERO = _rf(P_ZERO, {}, P_ONE)
RF_ONE = _rf(P_ONE, {}, P_ONE)
RF_I = _rf(Poly2.const(GR_I), {}, P_ONE)
HA = _rf(P_HA, {}, P_ONE)
HB = _rf(P_HB, {}, P_ONE)


def as_rf(c) -> RatFunc:
    """``c`` as a dynamical scalar: a RatFunc as it is, a number as a
    constant."""
    return c if isinstance(c, RatFunc) else RatFunc.const(c)


def rf_affine(ca, cb, c0) -> RatFunc:
    """The polynomial scalar ca*Ha + cb*Hb + c0."""
    return _rf(Poly2.affine(ca, cb, c0), {}, P_ONE)


def rf_str(f: RatFunc) -> str:
    if f.den == P_ONE:
        return poly_str(f.num)
    return f"({poly_str(f.num)})/({poly_str(f.den)})"


def rf_latex(f: RatFunc) -> str:
    num = poly_str(f.num).replace("Ha", "H_{\\alpha}").replace("Hb", "H_{\\beta}")
    if f.den.is_const():
        return num
    den = poly_str(f.den).replace("Ha", "H_{\\alpha}").replace("Hb", "H_{\\beta}")
    return f"\\frac{{{num}}}{{{den}}}"


def rf_json(f: RatFunc) -> dict:
    return {"num": poly_json(f.num), "den": poly_json(f.den)}


def rf_from_json(obj) -> RatFunc:
    return RatFunc(poly_from_json(obj["num"]), poly_from_json(obj["den"]))
