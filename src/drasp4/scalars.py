"""Exact coefficient arithmetic: Gaussian rationals and dynamical scalars.

The dynamical scalars form the fraction field of polynomials in the two
Cartan coordinates, printed ``Ha`` and ``Hb``.  Every generator of the
ambient algebra commutes past a dynamical scalar at the cost of an integer
shift of the coordinates, so the whole engine reduces to exact arithmetic
in this field.  All values are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from math import gcd as _igcd

from .sparse import SparseTerms, add_into, power


class GaussRat:
    """A Gaussian rational stored as the normalized triple (a + b*i)/d
    with integer parts, d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d", "_hash")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            fr = re if type(re) is Fraction else Fraction(re)
            fi = im if type(im) is Fraction else Fraction(im)
            d = fr.denominator * fi.denominator // _igcd(fr.denominator,
                                                         fi.denominator)
            a = fr.numerator * (d // fr.denominator)
            b = fi.numerator * (d // fi.denominator)
        g = _igcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussRat":
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


def _frac_str(q: Fraction) -> str:
    return str(q)


def gauss_str(c: GaussRat) -> str:
    """Render a Gaussian rational, e.g. ``1``, ``-i``, ``2/3*i``, ``1+2*i``."""
    if not c.im:
        return _frac_str(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_frac_str(c.im)}*i"
    im = c.im
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    tail = "i" if mag == 1 else f"{_frac_str(mag)}*i"
    return f"{_frac_str(c.re)}{sign}{tail}"


def gauss_json(c: GaussRat) -> list:
    return [_frac_str(c.re), _frac_str(c.im)]


# ---------------------------------------------------------------------------
# Sparse polynomials in the two Cartan coordinates.
# ---------------------------------------------------------------------------

class Poly2(SparseTerms):
    """Sparse polynomial in the coordinates (Ha, Hb) over GaussRat.

    Terms map exponent pairs to nonzero coefficients.  The leading term is
    taken in lex order on (ea, eb); canonical denominators are normalized
    to leading coefficient 1.
    """

    __slots__ = ()

    # -- constructors --

    @staticmethod
    def const(c) -> "Poly2":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        return Poly2({(0, 0): g}) if g else Poly2()

    @staticmethod
    def affine(ca, cb, c0) -> "Poly2":
        return Poly2({(1, 0): GaussRat(ca), (0, 1): GaussRat(cb),
                      (0, 0): GaussRat(c0)})

    # -- predicates --

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def const_value(self) -> GaussRat:
        if not self.terms:
            return GR_ZERO
        return self.terms[(0, 0)]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(ea + eb for ea, eb in self.terms)

    # -- ring operations --

    def __mul__(self, other):
        if isinstance(other, GaussRat):
            if not other:
                return P_ZERO
            return Poly2({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly2):
            return NotImplemented
        if not self.terms or not other.terms:
            return P_ZERO
        return Poly2(add_into({}, (((a1 + a2, b1 + b2), c1 * c2)
                                   for (a1, b1), c1 in self.terms.items()
                                   for (a2, b2), c2 in other.terms.items())))

    def __pow__(self, n: int):
        return power(self, n, P_ONE)

    def scaled(self, c: GaussRat) -> "Poly2":
        return self * c

    # -- leading data (lex on (ea, eb)) --

    def lead_exp(self):
        return max(self.terms)

    def lead_coeff(self) -> GaussRat:
        return self.terms[max(self.terms)]

    def monic(self) -> "Poly2":
        if not self.terms:
            return self
        lc = self.lead_coeff()
        if lc == GR_ONE:
            return self
        inv = lc.inv()
        return Poly2({e: c * inv for e, c in self.terms.items()})

    def leading_form(self) -> "Poly2":
        """Top total-degree homogeneous part."""
        d = self.total_degree()
        return Poly2({e: c for e, c in self.terms.items() if e[0] + e[1] == d})

    # -- substitution and evaluation --

    def shift(self, da: int, db: int) -> "Poly2":
        """Substitute Ha -> Ha + da, Hb -> Hb + db."""
        if da == 0 and db == 0:
            return self
        return Poly2(add_into({}, self._shift_terms(da, db)))

    def _shift_terms(self, da: int, db: int):
        for (ea, eb), c in self.terms.items():
            for ia in range(ea + 1):
                ka = comb(ea, ia) * da ** (ea - ia)
                if ka:
                    for ib in range(eb + 1):
                        k = ka * comb(eb, ib) * db ** (eb - ib)
                        if k:
                            yield (ia, ib), c * k

    def eval_at(self, pa: GaussRat, pb: GaussRat) -> GaussRat:
        total = GR_ZERO
        for (ea, eb), c in self.terms.items():
            v = c
            for _ in range(ea):
                v = v * pa
            for _ in range(eb):
                v = v * pb
            total = total + v
        return total

    # -- exact division --

    def divexact(self, g: "Poly2") -> "Poly2":
        """Exact quotient self / g; raises ArithmeticError on nonzero remainder."""
        if g.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if g.is_const():
            return self * g.const_value().inv()
        rem = dict(self.terms)
        ge = max(g.terms)
        gc = g.terms[ge]
        neg_gcinv = -gc.inv()
        quot = {}
        while rem:
            le = max(rem)
            if le[0] < ge[0] or le[1] < ge[1]:
                raise ArithmeticError("inexact polynomial division")
            qe = (le[0] - ge[0], le[1] - ge[1])
            neg_qc = rem[le] * neg_gcinv
            quot[qe] = -neg_qc
            add_into(rem, (((e[0] + qe[0], e[1] + qe[1]), neg_qc * c)
                           for e, c in g.terms.items()))
        return Poly2(quot)

    def __repr__(self):
        return f"Poly2({self.terms!r})"

    def __str__(self):
        return poly_str(self)


P_ZERO = Poly2()
P_ONE = Poly2({(0, 0): GR_ONE})
P_HA = Poly2({(1, 0): GR_ONE})
P_HB = Poly2({(0, 1): GR_ONE})

_VAR_NAMES = ("Ha", "Hb")


def _term_str(e, c: GaussRat) -> str:
    parts = []
    for k in (0, 1):
        if e[k] == 1:
            parts.append(_VAR_NAMES[k])
        elif e[k] > 1:
            parts.append(f"{_VAR_NAMES[k]}^{e[k]}")
    cs = gauss_str(c)
    if not parts:
        return cs if ("+" not in cs[1:]) and ("-" not in cs[1:]) else f"({cs})"
    if cs == "1":
        return "*".join(parts)
    if cs == "-1":
        return "-" + "*".join(parts)
    if ("+" in cs[1:]) or ("-" in cs[1:]):
        cs = f"({cs})"
    return cs + "*" + "*".join(parts)


def poly_str(p: Poly2) -> str:
    if not p.terms:
        return "0"
    keys = p.sorted_keys()
    out = _term_str(keys[0], p.terms[keys[0]])
    for e in keys[1:]:
        t = _term_str(e, p.terms[e])
        out += "+" + t if not t.startswith("-") else t
    return out


def poly_json(p: Poly2) -> list:
    rows = []
    for e in p.sorted_keys():
        c = p.terms[e]
        rows.append([e[0], e[1], _frac_str(c.re), _frac_str(c.im)])
    return rows


def poly_from_json(rows) -> Poly2:
    terms = {}
    for ea, eb, re, im in rows:
        terms[(int(ea), int(eb))] = GaussRat(Fraction(re), Fraction(im))
    return Poly2(terms)


# ---------------------------------------------------------------------------
# Polynomial gcd.  Factors along the four coroot pencils (the only ones the
# engine's denominators have) are split off direction by direction and
# matched by univariate Euclid; the residual left over, which only parser
# or hand-built input has, goes through a plain primitive remainder
# sequence in Ha with contents in Hb.  Coefficients live in the field of
# Gaussian rationals, so divisions of coefficients always succeed.
# ---------------------------------------------------------------------------

def _upoly(p: Poly2, var: int) -> dict:
    out = {}
    for e, c in p.terms.items():
        out[e[var]] = c
    return out


def _upoly_to_poly(u: dict, var: int) -> Poly2:
    if var == 0:
        return Poly2({(k, 0): c for k, c in u.items()})
    return Poly2({(0, k): c for k, c in u.items()})


def _umonic(u: dict) -> dict:
    if not u:
        return {}
    lc = u[max(u)].inv()
    return {k: c * lc for k, c in u.items()}


def _uclear(p: dict) -> dict:
    """Clear denominators: coefficient map to Gaussian-integer pairs."""
    scale = 1
    for c in p.values():
        d = c._d
        scale = scale * d // _igcd(scale, d)
    return {k: (c._a * (scale // c._d), c._b * (scale // c._d))
            for k, c in p.items()}


def _iprim(p: dict) -> dict:
    g = 0
    for x, y in p.values():
        g = _igcd(g, x, y)
        if g == 1:
            return p
    if g <= 1:
        return p
    return {k: (x // g, y // g) for k, (x, y) in p.items()}


def _ugcd(u: dict, v: dict) -> dict:
    """Monic gcd of univariate polynomials over the Gaussian rationals,
    computed as a primitive remainder sequence over Gaussian integers to
    avoid coefficient swell."""
    if not u:
        return _umonic(dict(v))
    if not v:
        return _umonic(dict(u))
    a = _iprim(_uclear(u))
    b = _iprim(_uclear(v))
    if max(a) < max(b):
        a, b = b, a
    while b:
        db = max(b)
        lb = b[db]
        r = a
        while r and max(r) >= db:
            dr = max(r)
            lr = r[dr]
            la, lb_i = lr
            ba, bb = lb
            new = {}
            for k, (x, y) in r.items():
                if k == dr:
                    continue
                new[k] = (x * ba - y * bb, x * bb + y * ba)
            for k, (x, y) in b.items():
                if k == db:
                    continue
                t = k + dr - db
                vx = x * la - y * lb_i
                vy = x * lb_i + y * la
                s = new.get(t)
                if s is None:
                    new[t] = (-vx, -vy)
                else:
                    sx, sy = s
                    sx -= vx
                    sy -= vy
                    if sx or sy:
                        new[t] = (sx, sy)
                    else:
                        del new[t]
            r = _iprim(new)
        a, b = b, r
    lead = a[max(a)]
    inv = GaussRat._raw(lead[0], lead[1], 1).inv()
    return {k: GaussRat._raw(x, y, 1) * inv for k, (x, y) in a.items()}


def _coeffs_in_a(p: Poly2) -> dict:
    """View p as a polynomial in Ha whose coefficients are Hb-polynomials."""
    out = {}
    for (ea, eb), c in p.terms.items():
        row = out.setdefault(ea, {})
        row[eb] = c
    return {k: Poly2({(0, e): c for e, c in row.items()}) for k, row in out.items()}


def _content_b(coeffs: dict) -> Poly2:
    g = {}
    for poly in coeffs.values():
        g = _ugcd(g, _upoly(poly, 1))
        if g and max(g) == 0:
            return P_ONE
    return _upoly_to_poly(g, 1) if g else P_ZERO


def _primitive(coeffs: dict) -> tuple:
    cont = _content_b(coeffs)
    if cont.is_const():
        return {k: v for k, v in coeffs.items()}, P_ONE
    return {k: v.divexact(cont) for k, v in coeffs.items()}, cont


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of Ha-coefficient maps (coefficients in K[Hb])."""
    db = max(b)
    lb = b[db]
    r = {k: v for k, v in a.items()}
    while r and max(r) >= db:
        dr = max(r)
        neg_lr = -r[dr]
        # r <- lb*r - lr*Ha^(dr-db)*b
        r = add_into({k: v * lb for k, v in r.items() if k != dr},
                     ((k + dr - db, neg_lr * v) for k, v in b.items() if k != db))
    return r


def _sub_va(p: Poly2, k: int) -> Poly2:
    """Substitute Ha -> Ha + k*Hb (a ring automorphism)."""
    if k == 0:
        return p
    return Poly2(add_into({}, (((i, eb + ea - i), c * (comb(ea, i) * k ** (ea - i)))
                               for (ea, eb), c in p.terms.items()
                               for i in range(ea + 1))))


def _content_in(p: Poly2, var: int) -> dict:
    """Monic gcd of the coefficient polynomials in one variable, i.e. the
    full single-variable factor part of p; a univariate exponent map."""
    rows = {}
    for (ea, eb), c in p.terms.items():
        if var == 0:
            rows.setdefault(eb, {})[ea] = c
        else:
            rows.setdefault(ea, {})[eb] = c
    g = {}
    for row in rows.values():
        g = _ugcd(g, row)
        if g and max(g) == 0:
            return g
    return g


# Denominators produced by the engine are products of integer translates
# of four fixed affine directions; splitting off the single-direction
# parts (cached per polynomial) keeps the remainder sequence away from
# them.  Direction None is the Hb-only part; an integer cb stands for the
# pencil Ha + cb*Hb + const.
_DIRECTIONS = (None, 0, 1, 2)


def _dir_content(p: Poly2, direction) -> dict:
    """Full single-direction factor part, univariate in the direction
    coordinate (monic exponent map)."""
    if direction is None:
        return _content_in(p, 1)
    pt = _sub_va(p, -direction) if direction else p
    return _content_in(pt, 0)


def _from_dir(u: dict, direction) -> Poly2:
    if direction is None:
        return _upoly_to_poly(u, 1)
    g = _upoly_to_poly(u, 0)
    return _sub_va(g, direction) if direction else g


@cache
def _dir_split(p: Poly2):
    """Split p into per-direction univariate parts and a residual free of
    directional linear factors; cached per polynomial."""
    parts = []
    rem = p
    for d in _DIRECTIONS:
        if rem.is_const():
            parts.append(None)
            continue
        c = _dir_content(rem, d)
        if c and max(c) > 0:
            parts.append(c)
            rem = rem.divexact(_from_dir(c, d))
        else:
            parts.append(None)
    return tuple(parts), rem


def _gcd_vs_split(t: Poly2, q: Poly2) -> Poly2:
    """gcd(t, q) where q's directional split is (or becomes) cached and t
    is a fresh polynomial not worth caching."""
    if t.is_const() or q.is_const():
        return P_ONE
    parts_q, res_q = _dir_split(q)
    g = P_ONE
    tt = t
    for d, cq in zip(_DIRECTIONS, parts_q):
        if cq is None or tt.is_const():
            continue
        ct = _dir_content(tt, d)
        if not ct or max(ct) == 0:
            continue
        u = _ugcd(ct, cq)
        if u and max(u) > 0:
            gd = _from_dir(u, d)
            g = g * gd
            tt = tt.divexact(gd)
    if not res_q.is_const() and not tt.is_const():
        g = g * _residual_gcd(tt, res_q)
    return g.monic()


def poly_gcd(p: Poly2, q: Poly2) -> Poly2:
    """Monic gcd of two bivariate polynomials over the Gaussian rationals."""
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    if p.is_const() or q.is_const():
        return P_ONE
    return _poly_gcd_impl(p, q)


@cache
def _poly_gcd_impl(p: Poly2, q: Poly2) -> Poly2:
    parts_p, res_p = _dir_split(p)
    parts_q, res_q = _dir_split(q)
    g = P_ONE
    for d, cp, cq in zip(_DIRECTIONS, parts_p, parts_q):
        if cp is None or cq is None:
            continue
        u = _ugcd(cp, cq)
        if u and max(u) > 0:
            g = g * _from_dir(u, d)
    if not res_p.is_const() and not res_q.is_const():
        g = g * _residual_gcd(res_p, res_q)
    return g.monic()


def _residual_gcd(p: Poly2, q: Poly2) -> Poly2:
    """gcd of polynomials with no directional linear factors: a primitive
    remainder sequence in Ha.

    Precondition: q is a residual of _dir_split, which has already divided
    out its Hb-only part, so the content of q in Hb is constant and the
    contents of p and q have gcd 1.
    """
    a, _ = _primitive(_coeffs_in_a(p))
    b, _ = _primitive(_coeffs_in_a(q))
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        if r:
            r, _ = _primitive(r)
        a, b = b, r
    body = Poly2({(k, e[1]): c for k, v in a.items() for e, c in v.terms.items()})
    return body.monic()


# ---------------------------------------------------------------------------
# Rational functions: the field of dynamical scalars.
# ---------------------------------------------------------------------------

class RatFunc:
    """Canonical rational function num/den in (Ha, Hb) over GaussRat.

    Invariants: den is nonzero with leading coefficient 1 in lex order,
    and gcd(num, den) = 1.  Structural equality is field equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: Poly2, den: Poly2 = P_ONE, _normalized=False):
        if not _normalized:
            num, den = _rf_normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly2.const(c), P_ONE, _normalized=True)

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return RatFunc.const(x)
        return None

    # -- predicates --

    def __bool__(self):
        return not self.num.is_zero()

    def is_zero(self):
        return self.num.is_zero()

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> GaussRat:
        if not self.is_const():
            raise ValueError("not a constant scalar")
        return self.num.const_value()

    def __eq__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        return self.num == g.num and self.den == g.den

    def __hash__(self):
        # a constant equals its GaussRat value, so it hashes like it
        h = self._hash
        if h is None:
            if self.is_const():
                h = hash(self.num.const_value())
            else:
                h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- field operations --

    def _add_sub(self, g: "RatFunc", sign: int) -> "RatFunc":
        """Reduced-fraction addition: the only gcds taken are of the two
        denominators and of the combined numerator against that gcd."""
        n2 = g.num if sign > 0 else -g.num
        if self.den == g.den:
            t = self.num + n2
            if t.is_zero():
                return RF_ZERO
            if self.den is P_ONE or self.den.is_const():
                return RatFunc(t, P_ONE, _normalized=True)
            h = _gcd_vs_split(t, self.den)
            if h.is_const():
                return RatFunc(t, self.den, _normalized=True)
            return RatFunc(t.divexact(h), self.den.divexact(h),
                           _normalized=True)
        if self.den is P_ONE or self.den.is_const():
            if g.den.is_const():
                return RatFunc(self.num + n2, P_ONE, _normalized=True)
            return RatFunc(self.num * g.den + n2, g.den, _normalized=True)
        if g.den.is_const():
            return RatFunc(self.num + n2 * self.den, self.den,
                           _normalized=True)
        g0 = poly_gcd(self.den, g.den)
        if g0.is_const():
            t = self.num * g.den + n2 * self.den
            if t.is_zero():
                return RF_ZERO
            return RatFunc(t, self.den * g.den, _normalized=True)
        a = self.den.divexact(g0)
        b = g.den.divexact(g0)
        t = self.num * b + n2 * a
        if t.is_zero():
            return RF_ZERO
        h = _gcd_vs_split(t, g0)
        if h.is_const():
            return RatFunc(t, self.den * b, _normalized=True)
        return RatFunc(t.divexact(h), self.den.divexact(h) * b,
                       _normalized=True)

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
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        g = self._coerce(other)
        if g is None:
            return NotImplemented
        if self is RF_ONE:
            return g
        if g is RF_ONE:
            return self
        if self.num.is_zero() or g.num.is_zero():
            return RF_ZERO
        n1, d1 = self.num, self.den
        n2, d2 = g.num, g.den
        # cross-cancel; both inputs are reduced, so the result is too
        if not (n1.is_const() or d2.is_const()):
            c1 = _gcd_vs_split(n1, d2)
            if not c1.is_const():
                n1 = n1.divexact(c1)
                d2 = d2.divexact(c1)
        if not (n2.is_const() or d1.is_const()):
            c2 = _gcd_vs_split(n2, d1)
            if not c2.is_const():
                n2 = n2.divexact(c2)
                d1 = d1.divexact(c2)
        num = n1 * n2
        den = d1 * d2
        if den.is_const():
            cv = den.const_value()
            if cv != GR_ONE:
                num = num * cv.inv()
            return RatFunc(num, P_ONE, _normalized=True)
        return RatFunc(num, den, _normalized=True)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("zero divisor in scalar field")
        num, den = self.den, self.num
        lc = den.lead_coeff()
        if lc != GR_ONE:
            s = lc.inv()
            num = num * s
            den = den * s
        return RatFunc(num, den, _normalized=True)

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
        """Substitute Ha -> Ha + da, Hb -> Hb + db (a field automorphism)."""
        if da == 0 and db == 0:
            return self
        return RatFunc(self.num.shift(da, db), self.den.shift(da, db),
                       _normalized=True)

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
        ratio = fn.terms[fn.lead_exp()] / fd.terms[fd.lead_exp()]
        if fd * ratio == fn:
            return ratio
        return UNDEFINED

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        return rf_str(self)


class _LimitSentinel:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name


DIVERGENT = _LimitSentinel("divergent")
UNDEFINED = _LimitSentinel("undefined")


def _rf_normalize(num: Poly2, den: Poly2) -> tuple:
    if den.is_zero():
        raise ZeroDivisionError("zero divisor in scalar field")
    if num.is_zero():
        return P_ZERO, P_ONE
    if den.is_const():
        return num * den.const_value().inv(), P_ONE
    if num == den:
        return P_ONE, P_ONE
    if not num.is_const():
        g = poly_gcd(num, den)
        if not g.is_const():
            num = num.divexact(g)
            den = den.divexact(g)
    if den.is_const():
        return num * den.const_value().inv(), P_ONE
    lc = den.lead_coeff()
    if lc != GR_ONE:
        inv = lc.inv()
        num = num * inv
        den = den * inv
    return num, den


RF_ZERO = RatFunc(P_ZERO, P_ONE, _normalized=True)
RF_ONE = RatFunc(P_ONE, P_ONE, _normalized=True)
RF_I = RatFunc(Poly2.const(GR_I), P_ONE, _normalized=True)
HA = RatFunc(P_HA, P_ONE, _normalized=True)
HB = RatFunc(P_HB, P_ONE, _normalized=True)


def rf_affine(ca, cb, c0) -> RatFunc:
    """The polynomial scalar ca*Ha + cb*Hb + c0."""
    return RatFunc(Poly2.affine(ca, cb, c0), P_ONE, _normalized=True)


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
