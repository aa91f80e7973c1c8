"""The sparse-term container shared by every element type.

An element is a map from monomial keys to nonzero coefficients.  Keeping
zero coefficients out makes structural equality of the maps equality of
the elements, which is how every identity of the engine is checked.
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


def power(x, n: int, one):
    """``x ** n`` by square-and-multiply, for an integer ``n >= 0``."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _degree_key(m):
    return sum(m), m


class SparseTerms:
    """Immutable, hashable map from monomial keys to nonzero coefficients.

    Subclasses whose elements carry more than the map override ``_new``,
    which builds an element of the same kind from a new map, and extend
    ``__eq__`` and ``__hash__`` with that field.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        t = {} if terms is None else {k: c for k, c in terms.items() if c}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "_hash", None)

    def _new(self, terms):
        return type(self)(terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        return self._new(add_into(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self._new(add_into(dict(self.terms),
                                  ((k, -c) for k, c in other.terms.items())))

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def sorted_keys(self) -> list:
        """Keys by descending total degree, then descending key."""
        return sorted(self.terms, key=_degree_key, reverse=True)
