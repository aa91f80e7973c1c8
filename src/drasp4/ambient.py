"""PBW normal forms in the localized ambient algebra.

Elements are left combinations, over the dynamical scalars, of ordered
monomials in twelve generators: the four lowering images, the four Weyl
generators, and the four raising images, in the fixed block order

    Fb Fba Fb2a Fa | d1 d2 x2 x1 | Ea Eb2a Eba Eb.

Multiplication straightens words by adjacent swaps.  Every commutator of
two generators is again a left combination of single generators plus a
scalar, and scalars pass through a generator at the cost of an integer
shift of the Cartan coordinates, so straightening terminates by the usual
(degree, inversion count) measure.  The whole commutator table is derived
from the oscillator realization at import time.
"""

from __future__ import annotations

from .scalars import (HA, HB, RF_ONE, RF_ZERO, RatFunc, rf_json, rf_latex,
                      rf_str)
from .sparse import SparseTerms, add_into
from .weyl import WeylElem
from . import sp4

LETTERS = ("Fb", "Fba", "Fb2a", "Fa", "d1", "d2", "x2", "x1",
           "Ea", "Eb2a", "Eba", "Eb")
LETTER_INDEX = {name: i for i, name in enumerate(LETTERS)}
LETTER_WEIGHT = tuple(sp4.WEIGHT[name] for name in LETTERS)

_W_MONO_TO_LETTER = {
    (1, 0, 0, 0): LETTER_INDEX["d1"],
    (0, 1, 0, 0): LETTER_INDEX["d2"],
    (0, 0, 1, 0): LETTER_INDEX["x2"],
    (0, 0, 0, 1): LETTER_INDEX["x1"],
}

ZERO_MONO = (0,) * 12


def _linear_from_weyl(w: WeylElem) -> list:
    """Express a degree-one Weyl element as [(word, coeff)] entries."""
    out = []
    for m, c in w.terms.items():
        coeff = RatFunc.const(c)
        if m == (0, 0, 0, 0):
            out.append(((), coeff))
        else:
            out.append(((_W_MONO_TO_LETTER[m],), coeff))
    return out


def _linear_from_lie(x: sp4.LieElem) -> list:
    """Express the image of a Lie element as [(word, coeff)] entries.

    Cartan coordinates land in the scalar ring as the affine coordinates
    Ha and Hb; raising and lowering coordinates stay as generators.
    """
    out = []
    scalar = RF_ZERO
    if x.const:
        scalar = scalar + RatFunc.const(x.const)
    for sym, c in x.coords.items():
        if sym == "Ha":
            scalar = scalar + HA * RatFunc.const(c)
        elif sym == "Hb":
            scalar = scalar + HB * RatFunc.const(c)
        else:
            out.append(((LETTER_INDEX[sym],), RatFunc.const(c)))
    if scalar:
        out.append(((), scalar))
    return out


def _build_brackets():
    table = [[None] * 12 for _ in range(12)]
    basis = {name: sp4.LieElem.basis(name) for name in sp4.BASIS}
    for i, a in enumerate(LETTERS):
        for j, b in enumerate(LETTERS):
            if i == j:
                table[i][j] = []
                continue
            a_weyl = 4 <= i <= 7
            b_weyl = 4 <= j <= 7
            if a_weyl and b_weyl:
                br = WeylElem.gen(a).bracket(WeylElem.gen(b))
                table[i][j] = _linear_from_weyl(br)
            elif a_weyl or b_weyl:
                if a_weyl:
                    br = sp4.osc(b).bracket(WeylElem.gen(a)).scaled(-1)
                else:
                    br = sp4.osc(a).bracket(WeylElem.gen(b))
                table[i][j] = _linear_from_weyl(br)
            else:
                br = sp4.lie_bracket(basis[a], basis[b])
                table[i][j] = _linear_from_lie(br)
    return table


BRACKET = _build_brackets()


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


def mono_weight(mono) -> tuple:
    wa = wb = 0
    for k in range(12):
        e = mono[k]
        if e:
            la, lb = LETTER_WEIGHT[k]
            wa += e * la
            wb += e * lb
    return wa, wb


_NORM_CACHE: dict = {}


def _norm_word(word: tuple) -> dict:
    """Normal form of a bare word as {monomial: coefficient}."""
    hit = _NORM_CACHE.get(word)
    if hit is not None:
        return hit
    inv = -1
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            inv = i
            break
    if inv < 0:
        result = {word_mono(word): RF_ONE}
        _NORM_CACHE[word] = result
        return result
    i = inv
    out = dict(_norm_word(word[:i] + (word[i + 1], word[i]) + word[i + 2:]))
    entries = BRACKET[word[i]][word[i + 1]]
    if entries:
        wa = wb = 0
        for k in word[:i]:
            la, lb = LETTER_WEIGHT[k]
            wa += la
            wb += lb
        tail = word[i + 2:]
        head = word[:i]
        for ins, cb in entries:
            coeff = cb.shift(-wa, -wb) if (wa or wb) else cb
            add_into(out, ((m, coeff * c)
                           for m, c in _norm_word(head + ins + tail).items()))
    _NORM_CACHE[word] = out
    return out


class AmbientElem(SparseTerms):
    """Left combination of PBW monomials over the dynamical scalars."""

    __slots__ = ()

    @staticmethod
    def gen(name: str) -> "AmbientElem":
        exps = [0] * 12
        exps[LETTER_INDEX[name]] = 1
        return AmbientElem({tuple(exps): RF_ONE})

    @staticmethod
    def scalar(c) -> "AmbientElem":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        return AmbientElem({ZERO_MONO: f}) if f else AmbientElem()

    @staticmethod
    def from_weyl(w: WeylElem) -> "AmbientElem":
        out = {}
        for (a, b, c, d), coeff in w.terms.items():
            exps = (0, 0, 0, 0, a, b, c, d, 0, 0, 0, 0)
            out[exps] = RatFunc.const(coeff)
        return AmbientElem(out)

    def scaled(self, c) -> "AmbientElem":
        """Left multiplication by a dynamical scalar."""
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        if not f:
            return AmbientElem()
        return AmbientElem({m: f * v for m, v in self.terms.items()})

    def rmul_scalar(self, c) -> "AmbientElem":
        """Right multiplication by a dynamical scalar (shifts per weight)."""
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        out = {}
        for m, v in self.terms.items():
            wa, wb = mono_weight(m)
            g = v * f.shift(-wa, -wb)
            if g:
                out[m] = g
        return AmbientElem(out)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return self.rmul_scalar(other)
        if not isinstance(other, AmbientElem):
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            w1 = mono_word(m1)
            wa, wb = mono_weight(m1)
            for m2, c2 in other.terms.items():
                c = c1 * (c2.shift(-wa, -wb) if (wa or wb) else c2)
                if not c:
                    continue
                w2 = mono_word(m2)
                if not w1 or not w2 or w1[-1] <= w2[0]:
                    items = ((tuple(x + y for x, y in zip(m1, m2)), c),)
                else:
                    items = ((m, c * k) for m, k in _norm_word(w1 + w2).items())
                add_into(out, items)
        return AmbientElem(out)

    def __rmul__(self, other):
        if isinstance(other, RatFunc):
            return self.scaled(other)
        return NotImplemented

    # -- structure queries --

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1 and ZERO_MONO in self.terms)

    def scalar_value(self) -> RatFunc:
        if not self.terms:
            return RF_ZERO
        if not self.is_scalar():
            raise ValueError("not a dynamical scalar")
        return self.terms[ZERO_MONO]

    def weyl_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m[4:8]) for m in self.terms)

    def __repr__(self):
        return f"AmbientElem({self.terms!r})"

    def __str__(self):
        return amb_str(self)


A_ONE = AmbientElem.scalar(1)


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
    out = {}
    for m, c in u.terms.items():
        wa, wb = mono_weight(m)
        out[m[::-1]] = c.shift(wa, wb) if (wa or wb) else c
    return AmbientElem(out)


# -- rendering --

def amb_mono_str(m, names=LETTERS, joiner=" ") -> str:
    parts = []
    for k in range(12):
        if m[k] == 1:
            parts.append(names[k])
        elif m[k] > 1:
            parts.append(f"{names[k]}^{m[k]}")
    return joiner.join(parts) if parts else "1"


_LATEX_LETTERS = ("F_{\\beta}", "F_{\\beta+\\alpha}", "F_{\\beta+2\\alpha}",
                  "F_{\\alpha}", "\\partial_1", "\\partial_2", "x_2", "x_1",
                  "E_{\\alpha}", "E_{\\beta+2\\alpha}", "E_{\\beta+\\alpha}",
                  "E_{\\beta}")


def amb_str(u: AmbientElem) -> str:
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        c = rf_str(u.terms[m])
        body = amb_mono_str(m)
        if body == "1":
            chunks.append(f"({c})")
        else:
            chunks.append(f"({c}) {body}")
    return " + ".join(chunks)


def amb_latex(u: AmbientElem) -> str:
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        c = rf_latex(u.terms[m])
        body = amb_mono_str(m, _LATEX_LETTERS, " ")
        if body == "1":
            chunks.append(f"\\left({c}\\right)")
        else:
            chunks.append(f"\\left({c}\\right) {body}")
    return " + ".join(chunks)


def amb_json(u: AmbientElem) -> list:
    rows = []
    for m in u.sorted_keys():
        rows.append({"f": list(m[0:4]), "w": list(m[4:8]), "e": list(m[8:12]),
                     "coeff": rf_json(u.terms[m])})
    return rows
