"""The second Weyl algebra with exact Gaussian-rational coefficients.

Elements are kept in the fixed normal order d1^a d2^b x2^c x1^d; a monomial
is its exponent 4-tuple (a, b, c, d).  Products are straightened with the
closed-form reordering of x-powers past derivative powers, so the normal
form is computed in one pass per monomial pair.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

from .scalars import GR_ONE, GaussRat, gauss_json, gauss_str
from .sparse import SparseTerms, bilinear, mono_text, signed_sum

Mono = tuple  # (a, b, c, d) exponents of d1, d2, x2, x1

# The generators in normal order: the letter of each monomial exponent.
NAMES = ("d1", "d2", "x2", "x1")
GEN_MONO = {name: tuple(int(k == i) for k in range(4))
            for i, name in enumerate(NAMES)}


class WeylElem(SparseTerms):
    """A finite GaussRat-linear combination of normal-ordered monomials."""

    __slots__ = ()
    UNIT = (0, 0, 0, 0)

    @staticmethod
    def _coeff(c) -> GaussRat:
        return c if isinstance(c, GaussRat) else GaussRat(c)

    @staticmethod
    def gen(name: str) -> "WeylElem":
        return WeylElem({GEN_MONO[name]: GR_ONE})

    @staticmethod
    def const(c) -> "WeylElem":
        return WeylElem({WeylElem.UNIT: WeylElem._coeff(c)})

    def __mul__(self, other):
        if not isinstance(other, WeylElem):
            return NotImplemented
        return WeylElem(bilinear(self.terms, other.terms, _mono_mul))

    def bracket(self, other: "WeylElem") -> "WeylElem":
        return self * other - other * self

    def __str__(self):
        return weyl_str(self)


@cache
def _mono_mul(m1: Mono, m2: Mono) -> dict:
    """Integer-coefficient expansion of the product of two basis monomials.

    Only the pairs x1/d1 and x2/d2 interact; each contraction contributes
    binomial * factorial counting factors with alternating sign.
    """
    a, b, c, d = m1
    e, f, g, h = m2
    out = {}
    for j in range(min(d, e) + 1):
        kj = (-1) ** j * comb(d, j) * comb(e, j) * factorial(j)
        for k in range(min(c, f) + 1):
            kk = kj * (-1) ** k * comb(c, k) * comb(f, k) * factorial(k)
            m = (a + e - j, b + f - k, c + g - k, d + h - j)
            out[m] = out.get(m, 0) + kk
    return out


def vartheta(u: WeylElem) -> WeylElem:
    """The symplectic Fourier transform: x_i <-> d_i, an involutive
    anti-automorphism.  On normal-ordered monomials it reverses the
    exponent tuple, which is again normal-ordered."""
    return WeylElem({(m[3], m[2], m[1], m[0]): c for m, c in u.terms.items()})


W_ONE = WeylElem.const(1)
X1 = WeylElem.gen("x1")
X2 = WeylElem.gen("x2")
D1 = WeylElem.gen("d1")
D2 = WeylElem.gen("d2")


def weyl_str(u: WeylElem) -> str:
    return signed_sum(((gauss_str(u.terms[m]), mono_text(m, NAMES, " "))
                       for m in u.sorted_keys()), " ")


def weyl_json(u: WeylElem) -> list:
    rows = []
    for m in u.sorted_keys():
        rows.append(list(m) + gauss_json(u.terms[m]))
    return rows
