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
denominators, and line-only values never take a gcd.

A polynomial keeps Gaussian-integer coefficients over one denominator,
packed by Kronecker substitution into one int per Ha degree: the row of
Ha^ea is its Hb polynomial at X = 2^s, with signed digits, and the
imaginary parts of a non-real polynomial fill a second list of rows.  The
slot width s is a multiple of 64 above the bit length of a bound n on the
sum of the parts' sizes, so each digit is below 2^(s-1) in size and reads
back with its sign.  A product convolves rows, one big-integer product
per pair, under the product of the bounds; a sum adds rows.  Bounds left
loose by sums and quotients are made exact from the digits only when
they would widen the slots.  A plain int or a constant scales rows and
cancels no line.

A line divides the rows as they are: for Ha + cb*Hb + k, synthetically in
Ha with cb*Hb + k as the integer cb*X + k; for Hb + k, row by row by the
integer X + k.  Evaluation at X is a ring map, so a nonzero remainder
shows that the line does not divide.  A zero one is the value at X of
the remainder polynomial, whose parts are at most n * (|k| + cb + 1)^deg
in size for the degree deg in the line's variable; once that bound is
below 2^(s-1), the remainder is zero, and each quotient part fits its
slot.  Otherwise the bound is made exact and, if still
needed, the rows are widened and divided again.  The polynomial is never
divided as one integer: X^w = (-k)^w modulo X + k, so for |k| <= 1 its
rows would fold into one value and a zero remainder would prove nothing.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from math import lcm
from math import gcd as _igcd
from operator import mul

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
        return NotImplemented if g is None else self + -g

    def __rsub__(self, other):
        g = self._coerce(other)
        return NotImplemented if g is None else g - self

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
        return NotImplemented if g is None else self * g.inv()

    def __rtruediv__(self, other):
        g = self._coerce(other)
        return NotImplemented if g is None else g * self.inv()

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
# Polynomials in the two Cartan coordinates, stored as packed rows.
# ---------------------------------------------------------------------------

class Poly2:
    """Polynomial in (Ha, Hb) with coefficients (a + b*i)/d over one
    denominator ``_d`` > 0, gcd(all a, all b, d) = 1.  ``_r[ea]`` is the
    sum of a * 2^(s*eb) over the terms (ea, eb), s = ``_s``; ``_i`` holds
    the b parts so, or is empty; the top row is nonzero; ``_n`` bounds the
    sum of |a| + |b|.  Equal polynomials may differ in s, so equality and
    hashing then read the dict form, as ``terms`` does.  The leading term
    is taken in lex order on (ea, eb)."""

    __slots__ = ("_r", "_i", "_s", "_n", "_d")

    def __new__(cls, terms=None):
        t = {e: c for e, c in (terms or {}).items() if c}
        d = lcm(*(c._d for c in t.values()))
        return _from_pairs({e: (c._a * (d // c._d), c._b * (d // c._d))
                            for e, c in t.items()}, d)

    @property
    def terms(self) -> dict:
        d = self._d
        return {e: GaussRat._raw(a, b, d) for e, (a, b) in self._pairs().items()}

    def _pairs(self) -> dict:
        """The dict form: each exponent pair (ea, eb) to its nonzero
        Gaussian-integer pair (a, b)."""
        s, out = self._s, {}
        for ea, row in enumerate(self._r):
            for eb, x in enumerate(_digits(row, s)):
                if x:
                    out[ea, eb] = (x, 0)
        for ea, row in enumerate(self._i):
            for eb, y in enumerate(_digits(row, s)):
                if y:
                    out[ea, eb] = (out.get((ea, eb), (0, 0))[0], y)
        return out

    # -- constructors --

    @staticmethod
    def const(c) -> "Poly2":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        n = abs(g._a) + abs(g._b)
        return _mk((g._a,), (g._b,) if g._b else (), _width(n), n,
                   g._d) if n else P_ZERO

    @staticmethod
    def affine(ca, cb, c0) -> "Poly2":
        return Poly2({(1, 0): GaussRat(ca), (0, 1): GaussRat(cb),
                      (0, 0): GaussRat(c0)})

    # -- predicates --

    def __bool__(self):
        return bool(self._r)

    def is_zero(self):
        return not self._r

    def is_const(self):
        r, i, s = self._r, self._i, self._s
        return not r or (len(r) == 1 and r[0].bit_length() < s
                         and not (i and i[0].bit_length() >= s))

    def const_value(self) -> GaussRat:
        r, i = self._r, self._i
        return GaussRat._raw(r[0], i[0] if i else 0, self._d) if r else GR_ZERO

    def total_degree(self) -> int:
        s = self._s
        return max((ea + row.bit_length() // s for rows in (self._r, self._i)
                    for ea, row in enumerate(rows) if row), default=-1)

    def __eq__(self, other):
        if type(other) is not Poly2:
            return NotImplemented
        if self._s == other._s:
            return (self._r, self._i, self._d) == (other._r, other._i, other._d)
        return self._d == other._d and self._pairs() == other._pairs()

    def __hash__(self):
        return hash((frozenset(self._pairs().items()), self._d))

    # -- ring operations --

    def __add__(self, other):
        d1, d2 = self._d, other._d
        g = _igcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        s, n, (r1, i1), (r2, i2) = _align(
            self, other, lambda n1, n2: n1 * f1 + n2 * f2)
        return _reduced(_lin(r1, f1, r2, f2), _lin(i1, f1, i2, f2), s, n,
                        d1 * f1)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _mk([-x for x in self._r], [-y for y in self._i], self._s,
                   self._n, self._d)

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        s, n, (r1, i1), (r2, i2) = _align(self, other, mul)
        re, im = _conv(r1, r2), ()
        if i1 and i2:
            re = _lin(re, 1, _conv(i1, i2), -1)
            im = _lin(_conv(r1, i2), 1, _conv(i1, r2), 1)
        elif i1 or i2:
            im = _conv(r1, i2) if i2 else _conv(i1, r2)
        return _reduced(re, im, s, n, self._d * other._d)

    def __pow__(self, n: int):
        return power(self, n, P_ONE)

    # -- leading data (lex on (ea, eb)) --

    def lead_coeff(self) -> GaussRat:
        c = self._pairs()
        return GaussRat._raw(*c[max(c)], self._d)

    def monic(self) -> "Poly2":
        if not self._r:
            return self
        lc = self.lead_coeff()
        return self if lc == GR_ONE else self * lc.inv()

    def leading_form(self) -> "Poly2":
        """Top total-degree homogeneous part."""
        d = self.total_degree()
        return _from_pairs({e: c for e, c in self._pairs().items()
                            if e[0] + e[1] == d}, self._d)

    def sorted_keys(self) -> list:
        """Keys by descending total degree, then descending key."""
        return sorted(self._pairs(), key=lambda e: (e[0] + e[1], e),
                      reverse=True)

    # -- substitution and evaluation --

    def shift(self, da: int, db: int) -> "Poly2":
        """Substitute Ha -> Ha + da, Hb -> Hb + db: each row's digits taken
        at 2^s + db, s the width of the shifted bound, give the shifted
        row, and a Taylor shift of the rows in Ha follows."""
        if (da == 0 and db == 0) or not self._r:
            return self
        s = self._s
        rows = [[_digits(row, s) for row in part]
                for part in (self._r, self._i)]
        n = (sum(sum(map(abs, row)) for part in rows for row in part)
             * (abs(da) + 1) ** (len(self._r) - 1)
             * (abs(db) + 1) ** (max(map(len, rows[0] + rows[1])) - 1))
        s = _width(n)
        out = []
        for part in rows:
            part = [_ieval(row, (1 << s) + db) for row in part]
            for i in range(len(part) - 1 if da else 0):
                for j in range(len(part) - 2, i - 1, -1):
                    part[j] += da * part[j + 1]
            out.append(part)
        return _mk(*out, s, n, self._d)

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


def _mk(r, i, s: int, n: int, d: int) -> Poly2:
    """A Poly2 from rows that already meet its invariants."""
    p = object.__new__(Poly2)
    p._r, p._i, p._s, p._n, p._d = tuple(r), tuple(i), s, n, d
    return p


def _width(n: int) -> int:
    """The least multiple of 64 whose slots hold |x| <= n with its sign."""
    return (n.bit_length() // 64 + 1) * 64


def _digits(row: int, s: int):
    """The signed digits of a row, lowest first: 2^(s-1) added to every
    slot makes each non-negative, and flipping each slot's top bit then
    leaves its digit in two's complement."""
    if not row:
        return ()
    m = row.bit_length() // s + 1
    h = int.from_bytes((bytes(s // 8 - 1) + b"\x80") * m, "little")
    raw = ((row + h) ^ h).to_bytes(m * s // 8, "little")
    if s == 64:
        return struct.unpack(f"<{m}q", raw)
    w = s // 8
    return [int.from_bytes(raw[j:j + w], "little", signed=True)
            for j in range(0, len(raw), w)]


def _from_pairs(c: dict, d: int) -> Poly2:
    """A Poly2 from a map of nonzero integer pairs over d > 0, after the
    one gcd pass that puts it in lowest terms."""
    g = _igcd(d, *(x for xy in c.values() for x in xy)) if d > 1 else 1
    if g > 1:
        c = {e: (a // g, b // g) for e, (a, b) in c.items()}
        d //= g
    n = sum(abs(a) + abs(b) for a, b in c.values())
    s = _width(n)
    re = [0] * (max((ea for ea, _ in c), default=-1) + 1)
    im = list(re)
    for (ea, eb), (a, b) in c.items():
        re[ea] += a << (s * eb)
        im[ea] += b << (s * eb)
    return _mk(re, im if any(im) else (), s, n, d)


def _reduced(re: list, im, s: int, n: int, d: int) -> Poly2:
    """A Poly2 from rows at width s bounded by n over d > 0, trailing zero
    rows dropped, in lowest terms: a factor of all parts divides all rows,
    so the parts are read only when the rows and d have one."""
    if im:
        im = [*im, *[0] * (len(re) - len(im))]
    while re and not re[-1] and not (im and im[-1]):
        re.pop()
        if im:
            im.pop()
    if not any(im):
        im = ()
    g = _igcd(d, *re, *im) if d > 1 else 1
    if g > 1:
        g = _igcd(g, *(x for part in (re, im) for row in part
                       for x in _digits(row, s)))
        re, im = [x // g for x in re], [y // g for y in im]
        d, n = d // g, n // g
    return _mk(re, im, s, n, d)


def _norm(p: Poly2) -> int:
    """The sum of |a| + |b| over p's terms, which becomes p's bound."""
    s = p._s
    p._n = n = sum(sum(map(abs, _digits(row, s)))
                   for part in (p._r, p._i) for row in part)
    return n


def _rows_at(p: Poly2, s: int) -> tuple:
    """p's real and imaginary rows at slot width s, which holds them."""
    if p._s == s:
        return p._r, p._i
    return tuple([_ieval(_digits(row, p._s), 1 << s) for row in part]
                 for part in (p._r, p._i))


def _align(p: Poly2, q: Poly2, bound) -> tuple:
    """A slot width s for an operation on p and q whose parts are at most
    bound(p's bound, q's bound) in size, that bound, and the rows of p and
    q at s.  Sums and quotients leave bounds loose, so where they ask for
    wider slots than either operand has, they are first made exact."""
    sp, sq = p._s, q._s
    n = bound(p._n, q._n)
    s = _width(n)
    if s > sp and s > sq:
        n = bound(_norm(p), _norm(q))
        s = _width(n)
    if s <= sp == sq:
        return sp, n, (p._r, p._i), (q._r, q._i)
    s = max(s, min(sp, sq))
    return s, n, _rows_at(p, s), _rows_at(q, s)


def _lin(a, fa: int, b, fb: int) -> list:
    """The rows fa*a + fb*b; either may be empty."""
    if len(a) < len(b):
        a, fa, b, fb = b, fb, a, fa
    out = list(a) if fa == 1 else [x * fa for x in a]
    for j, y in enumerate(b):
        out[j] += y * fb
    return out


def _conv(a, b) -> list:
    """The product of two polynomials in Ha given by their rows."""
    if len(b) == 1:
        y = b[0]
        return [x * y for x in a]
    if len(a) == 1:
        x = a[0]
        return [x * y for y in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _divrem(p: Poly2, g: Poly2) -> tuple:
    """Quotient and remainder of p by g: divide while g's leading term
    divides the leading term of what is left, in Gaussian-integer pairs
    with p * scale = quot * g + rem, scaling only when a quotient
    coefficient would not be integral."""
    gc = g._pairs()
    ge = max(gc)
    x, y = gc[ge]
    n = x * x + y * y
    rem, quot, scale = p._pairs(), {}, 1
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
        for (ea, eb), (u, v) in gc.items():
            e = (ea + qe[0], eb + qe[1])
            a, b = rem.pop(e, (0, 0))
            a, b = a + qb * v - qa * u, b - qa * v - qb * u
            if a or b:
                rem[e] = (a, b)
    return (_from_pairs({e: (a * g._d, b * g._d) for e, (a, b) in quot.items()},
                        scale * p._d), _from_pairs(rem, scale * p._d))


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
    return Poly2({(int(ea), int(eb)): GaussRat(Fraction(re), Fraction(im))
                  for ea, eb, re, im in rows})


# ---------------------------------------------------------------------------
# Polynomial gcd, of residuals only: a subresultant remainder sequence in Ha
# with contents in Hb over the Gaussian rationals, on the dict form.
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
    for (ea, eb), xy in p._pairs().items():
        out.setdefault(ea, {})[(0, eb)] = xy
    return {k: _from_pairs(row, p._d) for k, row in out.items()}


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


def _line(key) -> Poly2:
    (ca, cb), k = key
    s = _width(n := ca + cb + abs(k))
    return _mk([k + (cb << s), 1] if ca else [k + (1 << s)], (), s, n, 1)


def _expand(lines: dict, part: dict) -> Poly2:
    """The product of the lines with their multiplicities, less those in
    part (a divisor of lines)."""
    out = P_ONE
    for key, m in lines.items():
        line = _line(key)
        for _ in range(m - part.get(key, 0)):
            out = _times(out, line)
    return out


def _synthetic(rows, c: int):
    """The quotient rows of a polynomial in Ha, given by its rows, over
    Ha + c by synthetic division, or None if the remainder is not zero."""
    quot = [rows[-1]]
    for row in rows[-2::-1]:
        quot.append(row - c * quot[-1])
    return None if quot.pop() else quot[::-1]


def _row_quotients(rows, x: int):
    """Each row over the integer x, or None if one leaves a remainder."""
    quot = []
    for row in rows:
        q, r = divmod(row, x)
        if r:
            return None
        quot.append(q)
    return quot


def _divide_out(p: Poly2, key, limit: int) -> tuple:
    """p divided by the line as often as it divides, at most limit times,
    and how often; see the module docstring."""
    (ca, cb), k = key
    grow = cb + abs(k) + 1 if ca else abs(k) + 1
    count = 0
    div = _synthetic if ca else _row_quotients
    while count < limit and p._r:
        re, im, s = p._r, p._i, p._s
        c = ((cb if ca else 1) << s) + k
        q = div(re, c)
        qi = div(im, c) if im and q is not None else ()
        if q is None or qi is None:
            break
        deg = (len(re) - 1 if ca
               else max(row.bit_length() for row in (*re, *im)) // s)
        if (p._n * grow ** deg).bit_length() >= s:
            # the remainder proves nothing yet: tighten, or widen the rows
            n = _norm(p) * grow ** deg
            if n.bit_length() >= s:
                p = _mk(*_rows_at(p, _width(n)), _width(n), p._n, p._d)
            continue
        p = _mk(q, qi, s, p._n * grow ** (deg - 1), p._d)
        count += 1
    return p, count


def _divide_lines(p: Poly2, keys, limits) -> tuple:
    """p divided by each line of keys as often as it divides, at most
    limits[key] times, and the lines that divided with how often.  A line
    Ha + cb*Hb + k is tried only where its remainder vanishes modulo X - 1,
    that is where p(-k - cb, 1) = 0, from residues taken once."""
    found, res = {}, None
    for key in keys:
        (ca, cb), k = key
        if ca:
            if res is None:
                m = (1 << p._s) - 1
                res = [[row % m for row in part] for part in (p._r, p._i)]
            if any(_ieval(part, -k - cb) % m for part in res):
                continue
        p, n = _divide_out(p, key, limits[key])
        if n:
            found[key] = n
            res = None
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
    top = len(p._r) - 1
    p = _strip(p, [((0, 1), -r) for r in _int_roots(
        {eb: xy for (ea, eb), xy in p._pairs().items() if ea == top})],
        lines)
    # With no Hb + k factor left, p(Ha, 0) is not zero, and a line
    # Ha + cb*Hb + k dividing p gives it the root Ha = -k.
    p = _strip(p, [(d, -r) for r in _int_roots(
        {ea: xy for (ea, eb), xy in p._pairs().items() if eb == 0})
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
        if not g.num:
            return self
        if not self.num:
            return g if sign > 0 else -g
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
        return NotImplemented if g is None else self._add_sub(g, 1)

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        return NotImplemented if g is None else self._add_sub(g, -1)

    def __rsub__(self, other):
        g = self._coerce(other)
        return NotImplemented if g is None else g - self

    def __neg__(self):
        return _rf(-self.num, self.lines, self.res)

    def __mul__(self, other):
        if type(other) is int:
            # scales the numerator's rows, builds no constant scalar
            if not other or not self.num:
                return RF_ZERO
            if other == 1:
                return self
            return _rf(self.num * Poly2.const(other), self.lines, self.res)
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
        return NotImplemented if g is None else self * g.inv()

    def __rtruediv__(self, other):
        g = self._coerce(other)
        return NotImplemented if g is None else g * self.inv()

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
