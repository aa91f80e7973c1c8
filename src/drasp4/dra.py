"""The reduction algebra: extremal projector, diamond product, and the
derived presentation data.

The projector acts on coset representatives (no raising block) as a
product of one factor per positive root, taken in convex order.  Each
factor is an exact finite sum because the iterated raising commutator of
any coset representative vanishes; only the full-commutator term of each
series order survives modulo the raising ideal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import factorial

from .scalars import RF_ONE, RF_ZERO, HA, RatFunc, rf_affine, rf_json, rf_str
from .sparse import SparseTerms
from .weyl import mono_str as weyl_mono_str
from . import sp4
from .ambient import (AmbientElem, ad_e, amb_latex, amb_theta, f_gen,
                      mono_weight, red)

DEFAULT_TRUNCATION_MARGIN = 8
_ENV_TRUNCATION = "DRASP4_MAX_PROJECTOR_K"


class TruncationError(RuntimeError):
    """Raised when a projector series fails to terminate within the bound,
    which would signal a breakdown of local finiteness (i.e. a bug)."""


def truncation_margin() -> int:
    raw = os.environ.get(_ENV_TRUNCATION)
    if raw is None:
        return DEFAULT_TRUNCATION_MARGIN
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_TRUNCATION} must be an integer") from None
    if value < DEFAULT_TRUNCATION_MARGIN:
        raise ValueError(
            f"{_ENV_TRUNCATION} must be at least {DEFAULT_TRUNCATION_MARGIN}")
    return value


def h_form(root: str) -> RatFunc:
    """The shifted coroot coordinate of a positive root as a scalar."""
    ca, cb, c0 = sp4.COROOT_FORM[root]
    return rf_affine(ca, cb, c0)


_PHI_CACHE: dict = {}


def projector_coeff(root: str, k: int) -> RatFunc:
    """Series coefficient: (-1)^k / (k! (H+2)(H+3)...(H+k+1))."""
    hit = _PHI_CACHE.get((root, k))
    if hit is not None:
        return hit
    h = h_form(root)
    den = RatFunc.const(factorial(k))
    for j in range(2, k + 2):
        den = den * (h + j)
    value = RatFunc.const((-1) ** k) / den
    _PHI_CACHE[(root, k)] = value
    return value


def apply_p_root(root: str, v: AmbientElem, margin: int | None = None) -> AmbientElem:
    """One projector factor applied to a coset representative.

    Computes sum_k phi_k(H) F^k red(ad_E^k(v), I), stopping when the
    iterated commutator dies; raises TruncationError past the bound.
    """
    if margin is None:
        margin = truncation_margin()
    bound = max(v.weyl_degree(), 0) + margin
    f_letter = f_gen(root)
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
        cur = red(ad_e(root, cur), "I")
        k += 1
        f_power = f_power * f_letter
    return out


_P_CACHE: dict = {}


def apply_p(v: AmbientElem, order=sp4.CONVEX_ORDER, margin: int | None = None) -> AmbientElem:
    """Full projector on a coset representative, factored over the positive
    roots; the first root in `order` acts first."""
    if margin is None:
        margin = truncation_margin()
    key = (v, order, margin)
    hit = _P_CACHE.get(key)
    if hit is not None:
        return hit
    out = v
    for root in order:
        out = apply_p_root(root, out, margin)
    _P_CACHE[key] = out
    return out


class DraElem(SparseTerms):
    """Element of the reduction algebra: a left combination, over the
    dynamical scalars, of normal-ordered Weyl monomials d1^a d2^b x2^c x1^d."""

    __slots__ = ()

    @staticmethod
    def gen(name: str) -> "DraElem":
        if name not in ("d1", "d2", "x2", "x1"):
            raise KeyError(f"unknown reduction algebra generator: {name}")
        mono = tuple(1 if g == name else 0 for g in ("d1", "d2", "x2", "x1"))
        return DraElem({mono: RF_ONE})

    @staticmethod
    def scalar(c) -> "DraElem":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        return DraElem({(0, 0, 0, 0): f}) if f else DraElem()

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

    def scaled(self, c) -> "DraElem":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        if not f:
            return DraElem()
        return DraElem({m: f * v for m, v in self.terms.items()})

    def rmul_scalar(self, c) -> "DraElem":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        out = {}
        for m, v in self.terms.items():
            wa, wb = _weyl_weight(m)
            g = v * f.shift(-wa, -wb)
            if g:
                out[m] = g
        return DraElem(out)

    def coeff(self, mono) -> RatFunc:
        return self.terms.get(tuple(mono), RF_ZERO)

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1
                                  and (0, 0, 0, 0) in self.terms)

    def scalar_value(self) -> RatFunc:
        if not self.terms:
            return RF_ZERO
        if not self.is_scalar():
            raise ValueError("not a dynamical scalar")
        return self.terms[(0, 0, 0, 0)]

    def weyl_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def __repr__(self):
        return f"DraElem({self.terms!r})"

    def __str__(self):
        return dra_str(self)


def _weyl_weight(m) -> tuple:
    return mono_weight((0, 0, 0, 0) + tuple(m) + (0, 0, 0, 0))


DRA_ONE = DraElem.scalar(1)
X1_BAR = DraElem.gen("x1")
X2_BAR = DraElem.gen("x2")
D1_BAR = DraElem.gen("d1")
D2_BAR = DraElem.gen("d2")


def diamond(u: DraElem, v: DraElem, margin: int | None = None) -> DraElem:
    """The double-coset product: multiply through the projector, then
    reduce away both coset ideals."""
    prod = u.to_ambient() * apply_p(v.to_ambient(), margin=margin)
    return DraElem.from_ambient(red(prod, "II"))


def diamond_commutator(u: DraElem, v: DraElem) -> DraElem:
    return diamond(u, v) - diamond(v, u)


def diamond_product(factors) -> DraElem:
    """The ordered product f1 <> f2 <> ... <> fn of an iterable of factors,
    as the left fold ((1 <> f1) <> f2) <> ... .

    Each step projects only the next factor, which apply_p caches, so a
    power of one generator projects it once; grouping the factors any
    other way would project the partial products instead.
    """
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

@dataclass(frozen=True)
class PresentationTable:
    a: RatFunc
    b: RatFunc
    c: RatFunc
    d: RatFunc
    f: tuple          # ((f11, f12), (f21, f22))
    chat: tuple       # (chat1, chat2)
    fhat: tuple       # ((fhat11, fhat12), (fhat21, fhat22))


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


@dataclass(frozen=True)
class NormalizedGens:
    x1: DraElem
    x2: DraElem
    d1: DraElem
    d2: DraElem


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
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        c = rf_str(u.terms[m])
        body = weyl_mono_str(m)
        if body == "1":
            chunks.append(f"({c})")
        else:
            chunks.append(f"({c}) {body}")
    return " + ".join(chunks)


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
