"""The sparse-term container shared by the algebra element types.

An element is a map from monomial keys to nonzero coefficients.  Keeping
zero coefficients out makes structural equality of the maps equality of
the elements, which is how every identity of the engine is checked.
Scalar polynomials (``scalars.Poly2``) keep the same rule on a map of
Gaussian-integer pairs over one denominator instead.

Every product of two elements expands through ``bilinear``, and every
linear map given on keys through ``linear``; ``bilinear`` sums each output
key once, through the n-ary sum of the dynamical scalars where a key is
reached more than once.  ``add_into`` is left to the sums of
``SparseTerms``, the pending words of the ambient straightening, the
pseudo-remainders of the residual gcd and the integer brackets of the
diamond leaf.  Every element type renders through the same three
helpers: a monomial word, and one of two sum formats over (coefficient
text, monomial text) pairs in ``sorted_keys()`` order.
"""

from __future__ import annotations


def add_into(out: dict, items) -> dict:
    """Add ``(key, coeff)`` pairs into ``out`` and return it.

    A key whose sum cancels is removed.  A coefficient that is itself zero
    is stored as given; element constructors filter those.
    """
    for k, c in items:
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def bilinear(u: dict, v: dict, basis, shift=None) -> dict:
    """The product of two term maps: the sum of c d' x over the terms c m
    of ``u``, d n of ``v`` and x k of the map ``basis(m, n)``.  A right
    coefficient passing the left key m becomes d' = ``d.shift(*shift(m))``,
    once per distinct shift; d' = d if no shift.  A key reached once keeps
    its term.  The terms of a key reached again are listed and summed once
    at the end, by the n-ary ``_nsum`` of their type where it has one (the
    dynamical scalars), else pairwise; a key whose sum cancels is dropped."""
    out, more, shifted = {}, {}, {}
    for m, c in u.items():
        right = v.items()
        if shift is not None:
            s = shift(m)
            right = shifted.get(s)
            if right is None:
                right = shifted[s] = [(n, d.shift(*s)) for n, d in v.items()]
        for n, d in right:
            cd = c * d
            for k, x in basis(m, n).items():
                if k not in out:
                    out[k] = cd * x
                elif k in more:
                    more[k].append(cd * x)
                else:
                    more[k] = [out[k], cd * x]
    for k, terms in more.items():
        nsum = getattr(type(terms[0]), "_nsum", None)
        total = nsum(terms) if nsum else sum(terms[1:], terms[0])
        if total:
            out[k] = total
        else:
            del out[k]
    return out


def linear(u: dict, image) -> dict:
    """The linear map given on keys: the sum, as ``bilinear`` sums, of
    c x k over the terms c m of ``u`` and x k of the map ``image(m)``."""
    return bilinear(u, {(): 1}, lambda m, _: image(m))


def power(x, n: int, one):
    """``x ** n`` by square-and-multiply, for an integer ``n >= 0``.  The
    product starts from the lowest power of x it needs, so ``one`` is
    returned only for ``n = 0`` and ``x ** 1`` is ``x`` itself."""
    if n < 0:
        raise ValueError("negative power")
    if not n:
        return one
    while not n & 1:
        x = x * x
        n >>= 1
    result = x
    while n > 1:
        n >>= 1
        x = x * x
        if n & 1:
            result = result * x
    return result


def _degree(m) -> int:
    """The degree of a key, the sum of its absolute exponents (generalized
    Weyl algebra monomials have signed ones)."""
    return sum(map(abs, m))


def _degree_key(m):
    return _degree(m), m


class SparseTerms:
    """Immutable, hashable map from monomial keys to nonzero coefficients.

    A subclass whose elements carry fields besides the map, such as a
    rank, names them in its ``__slots__`` and takes them before the map in
    its constructor.  They take part in ``_new`` (an element of the same
    kind from a new map), equality, sums, hashing and ``__repr__``.

    The scalar interface (``scaled``, ``is_scalar``, ``scalar_value``) is
    shared through two hooks of each subclass:

    - the unit key, the monomial of the scalars: a class attribute
      ``UNIT``, or a ``_unit()`` method where the key length depends on a
      field of the element;
    - ``_coeff(c)``, which coerces a scalar into a coefficient.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {} if terms is None else {k: c for k, c in terms.items() if c}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "_hash", None)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def _new(self, terms):
        return type(self)(*self._fields(), terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self._fields() == other._fields()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((frozenset(self.terms.items()), self._fields()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other._fields() != self._fields():
            raise ValueError("a sum of elements of other ranks or algebras")
        return self._new(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + -other if type(other) is type(self) else NotImplemented

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def sorted_keys(self) -> list:
        """Keys by descending degree, then descending key."""
        return sorted(self.terms, key=_degree_key, reverse=True)

    # -- the scalar interface --

    def _unit(self):
        return self.UNIT

    def scaled(self, c):
        """Left multiplication by a scalar."""
        f = self._coeff(c)
        return self._new({k: f * v for k, v in self.terms.items()})

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1
                                  and self._unit() in self.terms)

    def scalar_value(self):
        """The coefficient of the unit key; ValueError if another key has
        one."""
        if not self.is_scalar():
            raise ValueError("not a scalar")
        return self.terms.get(self._unit()) or self._coeff(0)

    def degree(self) -> int:
        """The largest degree of a key; -1 for zero."""
        return max(map(_degree, self.terms), default=-1)

    def __repr__(self):
        fields = "".join(f"{f!r}, " for f in self._fields())
        return f"{type(self).__name__}({fields}{self.terms!r})"


# -- rendering --

def mono_text(exps, names, sep: str) -> str:
    """The letters with a positive exponent, as ``name`` or ``name^k``,
    joined by ``sep``; ``""`` for the unit monomial."""
    return sep.join(n if k == 1 else f"{n}^{k}"
                    for n, k in zip(names, exps) if k > 0)


def signed_sum(pairs, sep: str) -> str:
    """Signed juxtaposition such as ``Ha^2-2*Hb+1`` or ``d1 x1-2*i x2-1``.

    A coefficient with an inner sign is parenthesized, ``1`` and ``-1``
    before a monomial are left out except for the sign, and ``sep`` joins
    a coefficient to its monomial.
    """
    out = ""
    for c, word in pairs:
        if "+" in c[1:] or "-" in c[1:]:
            c = f"({c})"
        if not word:
            t = c
        elif c == "1":
            t = word
        elif c == "-1":
            t = "-" + word
        else:
            t = c + sep + word
        out += t if not out or t[0] == "-" else "+" + t
    return out or "0"


def bracketed_sum(pairs, left: str, right: str) -> str:
    """Bracketed terms joined by `` + ``, such as ``(c) x2 x1 + (c) d1``."""
    return " + ".join(f"{left}{c}{right} {word}" if word
                      else f"{left}{c}{right}" for c, word in pairs) or "0"
