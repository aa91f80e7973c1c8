"""PBW normal forms in the localized ambient algebra.

Elements are left combinations, over the dynamical scalars, of ordered
monomials in twelve generators: the four lowering images, the four Weyl
generators, and the four raising images, in the fixed block order

    Fb Fba Fb2a Fa | d1 d2 x2 x1 | Ea Eb2a Eba Eb.

Multiplication straightens words by adjacent swaps.  Every commutator of
two generators is again a left combination of single generators plus a
scalar, and scalars pass through a generator at the cost of an integer
shift of the Cartan coordinates, so straightening terminates by the usual
(degree, inversion count) measure.  The whole commutator table is read off
the coordinates of brackets of images at import time (``sp4.coordinates``),
one bracket per unordered pair of letters.
Two monomials in the Weyl generators alone multiply by the closed-form
Weyl product instead.
"""

from __future__ import annotations

from functools import cache
from heapq import heappop, heappush
from operator import mul

from .scalars import (HA, HB, RF_ONE, RF_ZERO, RatFunc, as_rf, latex_powers,
                      rf_json, rf_latex, rf_str)
from .sparse import (SparseTerms, add_into, bilinear, bracketed_sum,
                     mono_text)
from . import sp4, weyl

LETTERS = (tuple(sp4.F_NAME[g] for g in sp4.CONVEX_ORDER) + weyl.NAMES
           + tuple(sp4.E_NAME[g] for g in sp4.CONVEX_ORDER_REV))
LETTER_INDEX = {name: i for i, name in enumerate(LETTERS)}
LETTER_WEIGHT = tuple(sp4.WEIGHT[name] for name in LETTERS)

ZERO_MONO = (0,) * 12

_SCALAR = {"Ha": HA, "Hb": HB, "1": RF_ONE}


def _letter_terms(x: dict) -> list:
    """Coordinates over ``sp4.SPAN`` as [(word, coeff)] entries.

    Letters stay generators; the Cartan coordinates and the constant land
    in the scalar ring as Ha, Hb and 1.
    """
    out = [((LETTER_INDEX[s],), RatFunc.const(c))
           for s, c in x.items() if s in LETTER_INDEX]
    scalar = sum((_SCALAR[s] * RatFunc.const(c)
                  for s, c in x.items() if s in _SCALAR), RF_ZERO)
    return out + [((), scalar)] if scalar else out


def _bracket_table() -> list:
    """[a, b] for every pair of letter indices.  Each unordered pair is
    bracketed once: [b, a] = -[a, b], and [a, a] = 0 stays empty."""
    table = [[[] for _ in LETTERS] for _ in LETTERS]
    for i, a in enumerate(LETTERS):
        for j in range(i + 1, len(LETTERS)):
            terms = _letter_terms(sp4.coordinates(
                sp4.IMAGE[a].bracket(sp4.IMAGE[LETTERS[j]])))
            table[i][j] = terms
            table[j][i] = [(w, -c) for w, c in terms]
    return table


BRACKET = _bracket_table()


def mono_word(mono) -> tuple:
    word = []
    for k in range(12):
        word.extend((k,) * mono[k])
    return tuple(word)


def word_mono(word) -> tuple:
    exps = [0] * 12
    for k in word:
        exps[k] += 1
    return tuple(exps)


def shift_rule(weights):
    """The rule m -> -wt(m), the shift of a scalar passing the monomial m
    leftwards, for monomials over letters of the given (Ha, Hb) weights."""
    wa, wb = zip(*weights)

    def shift(m) -> tuple:
        return -sum(map(mul, m, wa)), -sum(map(mul, m, wb))
    return shift


left_shift = shift_rule(LETTER_WEIGHT)


def mono_weight(mono) -> tuple:
    sa, sb = left_shift(mono)
    return -sa, -sb


@cache
def _norm_word(word: tuple) -> dict:
    """Normal form of a bare word as {monomial: coefficient}.

    Rewriting the first inversion of a word gives the swapped word, of
    equal length and lexicographically smaller, and shorter bracket words.
    So pending words are expanded from a heap in descending (length, word)
    order, each once, with its summed coefficient.
    """
    out = {}
    pending = {word: RF_ONE}
    heap = [(-len(word), tuple(-k for k in word))]
    while heap:
        w = tuple(-k for k in heappop(heap)[1])
        c = pending.pop(w, None)
        if c is None:  # its coefficient cancelled, or a repeated entry
            continue
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            out[word_mono(w)] = c
            continue
        head, tail = w[:i], w[i + 2:]
        s = left_shift(word_mono(head))
        rewrites = [(head + (w[i + 1], w[i]) + tail, c)] + [
            (head + ins + tail, c * cb.shift(*s))
            for ins, cb in BRACKET[w[i]][w[i + 1]]]
        for v, _ in rewrites:
            if v not in pending:
                heappush(heap, (-len(v), tuple(-k for k in v)))
        add_into(pending, rewrites)
    return out


def _mono_product(m1, m2) -> dict:
    """m1 m2, added when the joined word is ordered, by the Weyl closed form
    when both lie in the Weyl block, and straightened otherwise."""
    w1, w2 = mono_word(m1), mono_word(m2)
    if not w1 or not w2 or w1[-1] <= w2[0]:
        return {tuple(x + y for x, y in zip(m1, m2)): 1}
    if not any(m1[:4] + m1[8:] + m2[:4] + m2[8:]):
        return {(0,) * 4 + m + (0,) * 4: k
                for m, k in weyl._mono_mul(m1[4:8], m2[4:8]).items()}
    return _norm_word(w1 + w2)


class AmbientElem(SparseTerms):
    """Left combination of PBW monomials over the dynamical scalars."""

    __slots__ = ()
    UNIT = ZERO_MONO
    _coeff = staticmethod(as_rf)

    @staticmethod
    def gen(name: str) -> "AmbientElem":
        exps = [0] * 12
        exps[LETTER_INDEX[name]] = 1
        return AmbientElem({tuple(exps): RF_ONE})

    @staticmethod
    def scalar(c) -> "AmbientElem":
        return AmbientElem({ZERO_MONO: as_rf(c)})

    def rmul_scalar(self, c) -> "AmbientElem":
        """Right multiplication by a dynamical scalar (shifts per weight)."""
        return self * AmbientElem.scalar(c)

    def __mul__(self, other):
        if not isinstance(other, AmbientElem):
            return NotImplemented
        return AmbientElem(bilinear(self.terms, other.terms, _mono_product,
                                    left_shift))

    def __str__(self):
        return amb_str(self)


def red(u: AmbientElem, side: str) -> AmbientElem:
    """Project onto the basis span complementary to a coset ideal.

    side 'I' drops terms with a raising block, 'J' drops terms with a
    lowering block, 'II' drops both; each is idempotent by construction.
    """
    if side == "I":
        keep = lambda m: not any(m[8:12])
    elif side == "J":
        keep = lambda m: not any(m[0:4])
    elif side == "II":
        keep = lambda m: not any(m[0:4]) and not any(m[8:12])
    else:
        raise ValueError(f"unknown reduction side: {side}")
    return AmbientElem({m: c for m, c in u.terms.items() if keep(m)})


_E_ELEM = {g: AmbientElem.gen(sp4.E_NAME[g]) for g in sp4.POS_ROOTS}
_F_ELEM = {g: AmbientElem.gen(sp4.F_NAME[g]) for g in sp4.POS_ROOTS}


def e_gen(root: str) -> AmbientElem:
    return _E_ELEM[root]


def f_gen(root: str) -> AmbientElem:
    return _F_ELEM[root]


def ad_e(root: str, u: AmbientElem) -> AmbientElem:
    """Commutator with a raising image."""
    e = _E_ELEM[root]
    return e * u - u * e


def amb_theta(u: AmbientElem) -> AmbientElem:
    """The involutive anti-automorphism swapping x with d and raising with
    lowering images, fixing the Cartan coordinates.

    The canonical letter order is symmetric under the swap, so a reversed
    monomial is again canonical; only the coefficient picks up the weight
    shift from moving it back to the left.
    """
    return AmbientElem({m[::-1]: c.shift(*mono_weight(m))
                        for m, c in u.terms.items()})


# -- rendering --

_LATEX_LETTERS = ("F_{\\beta}", "F_{\\beta+\\alpha}", "F_{\\beta+2\\alpha}",
                  "F_{\\alpha}", "\\partial_1", "\\partial_2", "x_2", "x_1",
                  "E_{\\alpha}", "E_{\\beta+2\\alpha}", "E_{\\beta+\\alpha}",
                  "E_{\\beta}")


def amb_str(u: AmbientElem) -> str:
    return bracketed_sum(((rf_str(u.terms[m]), mono_text(m, LETTERS, " "))
                          for m in u.sorted_keys()), "(", ")")


def amb_latex(u: AmbientElem) -> str:
    return bracketed_sum(((rf_latex(u.terms[m]),
                           latex_powers(mono_text(m, _LATEX_LETTERS, " ")))
                          for m in u.sorted_keys()), "\\left(", "\\right)")


def amb_json(u: AmbientElem) -> list:
    rows = []
    for m in u.sorted_keys():
        rows.append({"f": list(m[0:4]), "w": list(m[4:8]), "e": list(m[8:12]),
                     "coeff": rf_json(u.terms[m])})
    return rows
