"""The second Weyl algebra with exact Gaussian-rational coefficients.

Elements are kept in the fixed normal order d1^a d2^b x2^c x1^d; a monomial
is its exponent 4-tuple (a, b, c, d).  Products are straightened with the
closed-form reordering of x-powers past derivative powers, so the normal
form is computed in one pass per monomial pair.
"""

from __future__ import annotations

from math import comb, factorial

from .scalars import GR_ONE, GaussRat, gauss_json, gauss_str
from .sparse import SparseTerms, add_into

Mono = tuple  # (a, b, c, d) exponents of d1, d2, x2, x1

_GEN_MONO = {
    "d1": (1, 0, 0, 0),
    "d2": (0, 1, 0, 0),
    "x2": (0, 0, 1, 0),
    "x1": (0, 0, 0, 1),
}


class WeylElem(SparseTerms):
    """A finite GaussRat-linear combination of normal-ordered monomials."""

    __slots__ = ()

    @staticmethod
    def gen(name: str) -> "WeylElem":
        return WeylElem({_GEN_MONO[name]: GR_ONE})

    @staticmethod
    def const(c) -> "WeylElem":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        return WeylElem({(0, 0, 0, 0): g})

    def scaled(self, c) -> "WeylElem":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        if not g:
            return WeylElem()
        return WeylElem({m: v * g for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (GaussRat, int)):
            return self.scaled(other)
        if not isinstance(other, WeylElem):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                add_into(out, ((m, c * k) for m, k in _mono_mul(m1, m2).items()))
        return WeylElem(out)

    def __rmul__(self, other):
        if isinstance(other, (GaussRat, int)):
            return self.scaled(other)
        return NotImplemented

    def bracket(self, other: "WeylElem") -> "WeylElem":
        return self * other - other * self

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __repr__(self):
        return f"WeylElem({self.terms!r})"

    def __str__(self):
        return weyl_str(self)


_MUL_CACHE: dict = {}


def _mono_mul(m1: Mono, m2: Mono) -> dict:
    """Integer-coefficient expansion of the product of two basis monomials.

    Only the pairs x1/d1 and x2/d2 interact; each contraction contributes
    binomial * factorial counting factors with alternating sign.
    """
    key = (m1, m2)
    hit = _MUL_CACHE.get(key)
    if hit is not None:
        return hit
    a, b, c, d = m1
    e, f, g, h = m2
    out = {}
    for j in range(min(d, e) + 1):
        kj = (-1) ** j * comb(d, j) * comb(e, j) * factorial(j)
        for k in range(min(c, f) + 1):
            kk = kj * (-1) ** k * comb(c, k) * comb(f, k) * factorial(k)
            m = (a + e - j, b + f - k, c + g - k, d + h - j)
            out[m] = out.get(m, 0) + kk
    _MUL_CACHE[key] = out
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


_NAMES = ("d1", "d2", "x2", "x1")
_LATEX = ("\\partial_1", "\\partial_2", "x_2", "x_1")


def mono_str(m: Mono, names=_NAMES, joiner=" ") -> str:
    parts = []
    for k in range(4):
        if m[k] == 1:
            parts.append(names[k])
        elif m[k] > 1:
            parts.append(f"{names[k]}^{m[k]}")
    return joiner.join(parts) if parts else "1"


def weyl_str(u: WeylElem) -> str:
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        c = gauss_str(u.terms[m])
        body = mono_str(m)
        if body == "1":
            chunk = c if ("+" not in c[1:] and "-" not in c[1:]) else f"({c})"
        elif c == "1":
            chunk = body
        elif c == "-1":
            chunk = "-" + body
        else:
            if "+" in c[1:] or "-" in c[1:]:
                c = f"({c})"
            chunk = f"{c} {body}"
        if chunks and not chunk.startswith("-"):
            chunks.append("+" + chunk)
        else:
            chunks.append(chunk)
    return "".join(chunks)


def weyl_latex(u: WeylElem) -> str:
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        c = gauss_str(u.terms[m])
        body = mono_str(m, _LATEX, " ")
        if body == "1":
            chunk = c
        elif c == "1":
            chunk = body
        elif c == "-1":
            chunk = "-" + body
        else:
            chunk = f"({c}) {body}"
        if chunks and not chunk.startswith("-"):
            chunks.append("+" + chunk)
        else:
            chunks.append(chunk)
    return "".join(chunks)


def weyl_json(u: WeylElem) -> list:
    rows = []
    for m in u.sorted_keys():
        rows.append(list(m) + gauss_json(u.terms[m]))
    return rows
