"""The reduction algebra: extremal projector, diamond product, and the
derived presentation data.

The projector acts on coset representatives (no raising block) as a
product of one factor per positive root, taken in convex order.  Each
factor is an exact finite sum because the iterated raising commutator of
any coset representative vanishes; only the full-commutator term of each
series order survives modulo the raising ideal.  The diamond product
projects only the four generators, which then act by Weyl commutators.
The oscillator image of each lowering letter is one monomial times a
Gaussian-rational scalar, so those scalars are folded into the cached
projected terms and the commutators run on integer coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from math import factorial

from .scalars import RF_ONE, RF_ZERO, HA, RatFunc, as_rf, rf_affine, rf_json
from .sparse import SparseTerms, add_into
from .weyl import GEN_MONO, NAMES, _mono_mul
from . import sp4
from .ambient import (LETTERS, AmbientElem, amb_latex, amb_str, amb_theta,
                      e_gen, f_gen, mono_weight, red)

TRUNCATION_MARGIN = 8


class TruncationError(RuntimeError):
    """Raised when a projector series fails to terminate within the bound,
    which would signal a breakdown of local finiteness (i.e. a bug)."""


def h_form(root: str) -> RatFunc:
    """The shifted coroot coordinate of a positive root as a scalar."""
    ca, cb, c0 = sp4.COROOT_FORM[root]
    return rf_affine(ca, cb, c0)


@cache
def projector_coeff(root: str, k: int) -> RatFunc:
    """Series coefficient: (-1)^k / (k! (H+2)(H+3)...(H+k+1))."""
    h = h_form(root)
    den = RatFunc.const(factorial(k))
    for j in range(2, k + 2):
        den = den * (h + j)
    return RatFunc.const((-1) ** k) / den


def apply_p_root(root: str, v: AmbientElem) -> AmbientElem:
    """One projector factor applied to a coset representative.

    Computes sum_k phi_k(H) F^k red(ad_E^k(v), I), stopping when the
    iterated commutator dies; raises TruncationError past the bound, which
    is the largest total degree of a monomial of v plus TRUNCATION_MARGIN.
    """
    bound = max(v.degree(), 0) + TRUNCATION_MARGIN
    e_letter, f_letter = e_gen(root), f_gen(root)
    out = AmbientElem()
    cur = red(v, "I")
    k = 0
    f_power = AmbientElem.scalar(1)
    while cur:
        if k > bound:
            raise TruncationError(
                f"projector truncation bound exceeded at order {k} for root {root}")
        term = (f_power * cur).scaled(projector_coeff(root, k))
        out = out + term
        # red(ad_E(cur), I) without the half it drops: cur has no raising
        # letter, so every term of cur E is normal-ordered and ends in E.
        cur = red(e_letter * cur, "I")
        k += 1
        f_power = f_power * f_letter
    return out


def apply_p(v: AmbientElem, order=sp4.CONVEX_ORDER) -> AmbientElem:
    """Full projector on a coset representative, factored over the positive
    roots; the first root in `order` acts first.

    The projector has weight zero, so it commutes with left scalars: v is
    expanded over its monomials, each projected once per process.
    """
    out = {}
    for m, c in v.terms.items():
        add_into(out, ((k, c * x)
                       for k, x in _apply_p(m, order).terms.items()))
    return AmbientElem(out)


@cache
def _apply_p(mono: tuple, order) -> AmbientElem:
    out = AmbientElem({mono: RF_ONE})
    for root in order:
        out = apply_p_root(root, out)
    return out


class DraElem(SparseTerms):
    """Element of the reduction algebra: a left combination, over the
    dynamical scalars, of normal-ordered Weyl monomials d1^a d2^b x2^c x1^d."""

    __slots__ = ()
    UNIT = (0, 0, 0, 0)
    _coeff = staticmethod(as_rf)

    @staticmethod
    def gen(name: str) -> "DraElem":
        if name not in GEN_MONO:
            raise KeyError(f"unknown reduction algebra generator: {name}")
        return DraElem({GEN_MONO[name]: RF_ONE})

    @staticmethod
    def scalar(c) -> "DraElem":
        return DraElem({DraElem.UNIT: as_rf(c)})

    @staticmethod
    def from_ambient(u: AmbientElem) -> "DraElem":
        out = {}
        for m, c in u.terms.items():
            if any(m[0:4]) or any(m[8:12]):
                raise ValueError("ambient element has raising or lowering part")
            out[m[4:8]] = c
        return DraElem(out)

    def to_ambient(self) -> AmbientElem:
        return AmbientElem({(0, 0, 0, 0) + m + (0, 0, 0, 0): c
                            for m, c in self.terms.items()})

    def rmul_scalar(self, c) -> "DraElem":
        return diamond(self, DraElem.scalar(c))

    def coeff(self, mono) -> RatFunc:
        return self.terms.get(tuple(mono), RF_ZERO)

    def __str__(self):
        return dra_str(self)


def _weyl_weight(m) -> tuple:
    return mono_weight((0, 0, 0, 0) + tuple(m) + (0, 0, 0, 0))


DRA_ONE = DraElem.scalar(1)
X1_BAR = DraElem.gen("x1")
X2_BAR = DraElem.gen("x2")
D1_BAR = DraElem.gen("d1")
D2_BAR = DraElem.gen("d2")


def diamond(u: DraElem, v: DraElem) -> DraElem:
    """The double-coset product red(u P(v), II), expanded bilinearly over
    the basis: a left scalar of v passes the monomial of u with a weight
    shift, as in AmbientElem.__mul__, and each basis pair is computed once."""
    out = {}
    for m, c in u.terms.items():
        wa, wb = _weyl_weight(m)
        for n, d in v.terms.items():
            cd = c * (d.shift(-wa, -wb) if wa or wb else d)
            add_into(out, ((k, cd * x)
                           for k, x in _basis_diamond(m, n).terms.items()))
    return DraElem(out)


# The generators in normal order, as elements and as unit monomials.
_GENS = tuple(DraElem.gen(name) for name in NAMES)
_UNITS = tuple(GEN_MONO[name] for name in NAMES)


def _split_letter(name: str) -> tuple:
    """The oscillator image of a lowering letter as its one Weyl monomial
    and the Gaussian-rational scalar of that monomial."""
    terms = sp4.osc(name).terms
    if len(terms) != 1:
        raise ValueError(f"the oscillator image of {name} is not one monomial")
    (mono, s), = terms.items()
    return mono, s


# The lowering letters in block order, each as (monomial, scalar).
_LOWERING = tuple(_split_letter(f) for f in LETTERS[:4])


@cache
def _leaf_terms(n: tuple, wt: tuple) -> tuple:
    """The terms c F_i1 ... F_ik w of the projected generator P(n), each as
    (the letters' monomials in block order, w, c times the letters'
    scalars and shifted by -wt).  A scalar factor commutes with brackets
    and a shift fixes it, so the leaf brackets integer combinations."""
    out = []
    p_n = _apply_p((0, 0, 0, 0) + n + (0, 0, 0, 0), sp4.CONVEX_ORDER)
    for k, c in p_n.terms.items():
        letters = ()
        for (f, s), e in zip(_LOWERING, k[:4]):
            letters += (f,) * e
            for _ in range(e):
                c = c * s
        out.append((letters, k[4:8], c.shift(-wt[0], -wt[1])))
    return tuple(out)


def _int_mul(x: dict, w: tuple) -> dict:
    """x w for an integer combination x of Weyl monomials."""
    out = {}
    for k, a in x.items():
        add_into(out, ((v, a * b) for v, b in _mono_mul(k, w).items()))
    return out


def _int_bracket(x: dict, f: tuple) -> dict:
    """[x, f] = x f - f x for an integer combination x of Weyl monomials."""
    out = _int_mul(x, f)
    for k, a in x.items():
        add_into(out, ((v, -a * b) for v, b in _mono_mul(f, k).items()))
    return out


@cache
def _basis_diamond(m: tuple, n: tuple) -> DraElem:
    """m <> n for two basis monomials with unit coefficients.

    For n of degree <= 1, a term c F_i1 ... F_ik w of the cached P(n),
    lowering letters in block order, adds c.shift(-wt m) [...[m, F_i1],
    ..., F_ik] w (oscillator brackets) to red(m P(n), II): m F = F m +
    [m, F], and red(., II) drops every term that starts with a lowering
    letter.  The brackets and the product by w run on integer
    combinations of monomials; _leaf_terms holds the scalars.  Any other
    n = w g^e, g its last letter in the order d1 d2 x2 x1, is peeled from
    the cached m <> w one letter at a time, with w_{j+1} = w_j g:

        m <> w_{j+1} = (m <> w_j) <> g - m <> (w_j <> g - w_{j+1}).

    This rests on associativity and on one premise: the leaf w_j <> g is
    w_{j+1} plus terms lower in weyl_word order, with coefficient 1 on
    w_{j+1}.  It has a lower term (d2 x2 traded for d1 x1) only when g is
    x2 and d2 divides w_j: then (a, b, c, 0) <> x2 has the lower term
    (a+1, b-1, c, 1).  Corrections nest once per such trade, so before the
    peel of an x2 run the right factors (a+t, b-t, h, 0) that nested
    corrections peel are computed, most trades t first: each then finds
    the corrections it takes already cached, and a cold product recurses
    a bounded depth whatever the lengths of the runs of n.
    """
    if sum(n) <= 1:
        out = {}
        for letters, w, c in _leaf_terms(n, _weyl_weight(m)):
            x = {m: 1}
            for f in letters:
                x = _int_bracket(x, f)
            add_into(out, ((v, c * b) for v, b in _int_mul(x, w).items()))
        return DraElem(out)
    left = DraElem({m: RF_ONE})
    i = max(k for k, e in enumerate(n) if e)
    w = n[:i] + (0,) * (4 - i)
    if i == 2:
        # warm the x2 runs that nested corrections peel, most trades first
        for t in range(min(w[1], n[2]), 0, -1):
            for h in range(1, n[2] - t + 1):
                _basis_diamond(m, (w[0] + t, w[1] - t, h, 0))
    out = _basis_diamond(m, w) if any(w) else left
    for _ in range(n[i]):
        step = _basis_diamond(w, _UNITS[i])
        w = tuple(a + b for a, b in zip(w, _UNITS[i]))
        out = diamond(out, _GENS[i])
        if len(step.terms) > 1:
            out = out - diamond(left, step - DraElem({w: RF_ONE}))
    return out


def diamond_commutator(u: DraElem, v: DraElem) -> DraElem:
    return diamond(u, v) - diamond(v, u)


def diamond_product(factors) -> DraElem:
    """The ordered product f1 <> f2 <> ... <> fn of an iterable of factors,
    as the left fold ((1 <> f1) <> f2) <> ... ."""
    out = DRA_ONE
    for f in factors:
        out = diamond(out, f)
    return out


def dra_theta(u: DraElem) -> DraElem:
    """The involutive anti-automorphism of the reduction algebra."""
    return DraElem.from_ambient(amb_theta(u.to_ambient()))


# ---------------------------------------------------------------------------
# Presentation data: the four named affine scalars, the relation
# coefficients, the normalized generators, and the twist coefficients of
# the automorphisms acting on the base of the generalized Weyl algebra.
# ---------------------------------------------------------------------------

class PresentationTable(namedtuple("PresentationTable",
                                   "a b c d f chat fhat")):
    """The four affine scalars a, b, c, d; f = ((f11, f12), (f21, f22));
    chat = (chat1, chat2); fhat = ((fhat11, fhat12), (fhat21, fhat22))."""

    __slots__ = ()


def presentation() -> PresentationTable:
    a = h_form(sp4.ALPHA) + 1
    b = h_form(sp4.BETA_2A) + 1
    c = h_form(sp4.BETA_A) + 1
    d = h_form(sp4.BETA) + 1
    f11 = (a + 1) * (a - 1) * (b + 1) / (a * a * b)
    f12 = -2 * (d + 1) / (a * c)
    f21 = (a * (d - 1) + c * (d + 1)) / (a * c * d)
    f22 = (d + 1) / d
    hba = h_form(sp4.BETA_A)
    chat1 = -HA * (hba + 1)
    chat2 = -(HA + 2) * (hba + 1)
    fhat = []
    for i, fi in ((1, (f11, f12)), (2, (f21, f22))):
        scale1 = (HA + i) * (hba + 1) / ((HA + 2) * (hba + 2))
        scale2 = (HA + i) * (hba + 1) / ((HA + 1) * (hba + 2))
        fhat.append((fi[0] * scale1, fi[1] * scale2))
    return PresentationTable(a=a, b=b, c=c, d=d,
                             f=((f11, f12), (f21, f22)),
                             chat=(chat1, chat2),
                             fhat=tuple(fhat))


class NormalizedGens(namedtuple("NormalizedGens", "x1 x2 d1 d2")):
    """The four normalized generators."""

    __slots__ = ()


def normalized_gens() -> NormalizedGens:
    """Scalar rescalings of the four generators clearing all cross
    commutators: x2 is scaled on the left, the derivatives on the right."""
    hba = h_form(sp4.BETA_A)
    return NormalizedGens(
        x1=X1_BAR,
        x2=X2_BAR.scaled(HA + 2),
        d1=D1_BAR.rmul_scalar((HA + 1) * (hba + 1)),
        d2=D2_BAR.rmul_scalar(hba + 1),
    )


# -- rendering --

def dra_str(u: DraElem) -> str:
    return amb_str(u.to_ambient())


def dra_latex(u: DraElem) -> str:
    return amb_latex(u.to_ambient())


def dra_json(u: DraElem) -> list:
    rows = []
    for m in u.sorted_keys():
        rows.append({"w": list(m), "coeff": rf_json(u.terms[m])})
    return rows


# -- the basis order used for triangularity statements --

def weyl_word(m) -> tuple:
    """A monomial as its ascending letter word in the generator order
    1 < d1 < d2 < x2 < x1; words compare lexicographically."""
    return (0,) * m[0] + (1,) * m[1] + (2,) * m[2] + (3,) * m[3]
