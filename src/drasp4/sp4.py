"""Type C2 root data and the oscillator realization inside the Weyl algebra.

All structure constants are derived at import time by bracketing the
oscillator images and decomposing against the 10-dimensional image space
plus constants; nothing is transcribed by hand except the defining root
vectors of the two simple roots and the integer shifts of the coroots.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussRat, _split_lines
from .sparse import add_into
from .weyl import D2, NAMES, W_ONE, WeylElem, X1, X2, vartheta

ALPHA = "a"
BETA = "b"
BETA_A = "ba"
BETA_2A = "b2a"

POS_ROOTS = (ALPHA, BETA, BETA_A, BETA_2A)

# The two convex orderings of the positive roots.
CONVEX_ORDER = (BETA, BETA_A, BETA_2A, ALPHA)
CONVEX_ORDER_REV = tuple(reversed(CONVEX_ORDER))

# Fixed ordered basis; the middle pair is the Cartan part.
BASIS = ("Fb", "Fba", "Fb2a", "Fa", "Ha", "Hb", "Ea", "Eb2a", "Eba", "Eb")

E_NAME = {ALPHA: "Ea", BETA: "Eb", BETA_A: "Eba", BETA_2A: "Eb2a"}
F_NAME = {ALPHA: "Fa", BETA: "Fb", BETA_A: "Fba", BETA_2A: "Fb2a"}
ROOT_OF_E = {v: k for k, v in E_NAME.items()}
ROOT_OF_F = {v: k for k, v in F_NAME.items()}

# Integer shifts turning coroots into the projector-friendly coordinates.
COROOT_SHIFT = {ALPHA: 0, BETA: 0, BETA_A: 2, BETA_2A: 1}


def _build_osc() -> dict:
    e = {ALPHA: X1 * D2, BETA: (X2 * X2).scaled(GR_I * Fraction(1, 2))}
    e[BETA_A] = e[ALPHA].bracket(e[BETA])
    e[BETA_2A] = e[ALPHA].bracket(e[BETA_A]).scaled(Fraction(1, 2))
    f = {g: vartheta(e[g]) for g in POS_ROOTS}
    h = {g: e[g].bracket(f[g]) for g in POS_ROOTS}
    images = {}
    for g in POS_ROOTS:
        images[E_NAME[g]] = e[g]
        images[F_NAME[g]] = f[g]
    images["Ha"] = h[ALPHA]
    images["Hb"] = h[BETA]
    return images


OSC = _build_osc()


def osc(sym: str) -> WeylElem:
    """Oscillator image of a basis symbol (Ea, Fb2a, Ha, ...)."""
    try:
        return OSC[sym]
    except KeyError:
        raise KeyError(f"unknown basis symbol: {sym}") from None


class LieElem:
    """Exact coordinates over the fixed basis plus a scalar part.

    The scalar part records the constant that can split off when a Weyl
    algebra element is decomposed over the oscillator images.
    """

    __slots__ = ("coords", "const")

    def __init__(self, coords=None, const=GR_ZERO):
        cc = {} if coords is None else {k: v for k, v in coords.items() if v}
        object.__setattr__(self, "coords", cc)
        object.__setattr__(self, "const",
                           const if isinstance(const, GaussRat) else GaussRat(const))

    def __setattr__(self, name, value):
        raise AttributeError("LieElem is immutable")

    @staticmethod
    def basis(sym: str) -> "LieElem":
        if sym not in BASIS:
            raise KeyError(f"unknown basis symbol: {sym}")
        return LieElem({sym: GR_ONE})

    def __eq__(self, other):
        if not isinstance(other, LieElem):
            return NotImplemented
        return self.coords == other.coords and self.const == other.const

    def __hash__(self):
        return hash((frozenset(self.coords.items()), self.const))

    def __add__(self, other):
        return LieElem(add_into(dict(self.coords), other.coords.items()),
                       self.const + other.const)

    def __neg__(self):
        return LieElem({k: -v for k, v in self.coords.items()}, -self.const)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c) -> "LieElem":
        g = c if isinstance(c, GaussRat) else GaussRat(c)
        return LieElem({k: v * g for k, v in self.coords.items()}, self.const * g)

    def is_zero(self):
        return not self.coords and not self.const

    def to_weyl(self) -> WeylElem:
        out = WeylElem.const(self.const) if self.const else WeylElem()
        for k, v in self.coords.items():
            out = out + OSC[k].scaled(v)
        return out

    def __repr__(self):
        return f"LieElem({self.coords!r}, const={self.const!r})"


# ---------------------------------------------------------------------------
# Decomposition against the oscillator images: exact linear solve over the
# 11-dimensional span (10 images plus the constant monomial).
# ---------------------------------------------------------------------------

def _build_solver():
    symbols = list(BASIS) + ["1"]
    columns = [OSC[s] if s != "1" else W_ONE for s in symbols]
    monos = sorted({m for col in columns for m in col.terms})
    if len(monos) != len(symbols):
        raise RuntimeError("oscillator images do not span an 11-dim space")
    index = {m: i for i, m in enumerate(monos)}
    n = len(symbols)
    # Augmented matrix [M | I], rows indexed by monomials.
    mat = [[GR_ZERO] * (2 * n) for _ in range(n)]
    for j, col in enumerate(columns):
        for m, c in col.terms.items():
            mat[index[m]][j] = c
    for i in range(n):
        mat[i][n + i] = GR_ONE
    for col in range(n):
        piv = next(r for r in range(col, n) if mat[r][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = mat[col][col].inv()
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    inverse = [row[n:] for row in mat]
    return symbols, index, inverse


_SYMBOLS, _MONO_INDEX, _INV = _build_solver()


def decompose(w: WeylElem) -> LieElem:
    """Write w as a combination of oscillator images plus a constant.

    Raises ValueError when w lies outside that 11-dimensional span.
    """
    n = len(_SYMBOLS)
    vec = [GR_ZERO] * n
    for m, c in w.terms.items():
        i = _MONO_INDEX.get(m)
        if i is None:
            raise ValueError("not in sp(4) + C")
        vec[i] = c
    coords = {}
    const = GR_ZERO
    for j, sym in enumerate(_SYMBOLS):
        val = GR_ZERO
        for i in range(n):
            if vec[i]:
                val = val + _INV[j][i] * vec[i]
        if val:
            if sym == "1":
                const = val
            else:
                coords[sym] = val
    out = LieElem(coords, const)
    if out.to_weyl() != w:
        raise ValueError("not in sp(4) + C")
    return out


def lie_bracket(x: LieElem, y: LieElem) -> LieElem:
    """Bracket computed in the Weyl algebra and decomposed back."""
    return decompose(x.to_weyl().bracket(y.to_weyl()))


def tau(x: LieElem) -> LieElem:
    """Chevalley involution: the symplectic Fourier transform restricted
    to the image, swapping raising and lowering vectors."""
    return decompose(vartheta(x.to_weyl()))


def _build_weights() -> dict:
    ha, hb = OSC["Ha"], OSC["Hb"]

    def weight(img: WeylElem):
        out = []
        for h in (ha, hb):
            br = h.bracket(img)
            if br.is_zero():
                out.append(0)
                continue
            m = next(iter(img.terms))
            k = br.terms.get(m, GR_ZERO) / img.terms[m]
            if br != img.scaled(k) or k.im or k.re.denominator != 1:
                raise RuntimeError("non-diagonal weight action")
            out.append(int(k.re))
        return tuple(out)

    table = {}
    for name in NAMES:
        table[name] = weight(WeylElem.gen(name))
    for g in POS_ROOTS:
        table[E_NAME[g]] = weight(OSC[E_NAME[g]])
        table[F_NAME[g]] = tuple(-v for v in table[E_NAME[g]])
    return table


WEIGHT = _build_weights()

ROOT_WEIGHT = {g: WEIGHT[E_NAME[g]] for g in POS_ROOTS}


def _build_coroot_forms() -> dict:
    """Affine form (ca, cb, c0) of each shifted coroot coordinate.

    The linear part comes from decomposing the derived coroot over the two
    simple Cartan elements; the constant is the fixed integer shift.
    """
    out = {}
    for g in POS_ROOTS:
        e = decompose(OSC[E_NAME[g]])
        f = decompose(OSC[F_NAME[g]])
        h = lie_bracket(e, f)
        if h.const or set(h.coords) - {"Ha", "Hb"}:
            raise RuntimeError("coroot bracket left the Cartan part")
        ca = h.coords.get("Ha", GR_ZERO)
        cb = h.coords.get("Hb", GR_ZERO)
        if ca.im or cb.im or ca.re.denominator != 1 or cb.re.denominator != 1:
            raise RuntimeError("coroot coordinates must be integers")
        out[g] = (int(ca.re), int(cb.re), COROOT_SHIFT[g])
    return out


COROOT_FORM = _build_coroot_forms()


def sl2_triples() -> dict:
    """The derived triples (e, f, h') per positive root, as Weyl elements."""
    out = {}
    for g in POS_ROOTS:
        e = OSC[E_NAME[g]]
        f = OSC[F_NAME[g]]
        out[g] = (e, f, e.bracket(f))
    return out


def denominator_factors(den) -> list | None:
    """Diagnostic: factor a scalar denominator into shifted coroot forms.

    Returns a list of (root, n, multiplicity) with the product of the
    corresponding affine forms equal to the denominator up to a constant,
    or None if some factor is not of that shape.  The lines are those the
    scalar field splits off its denominators.
    """
    lines, rest = _split_lines(den)
    if not rest.is_const():
        return None
    return [(g, k - c0, m) for g, (ca, cb, c0) in COROOT_FORM.items()
            for (d, k), m in sorted(lines.items()) if d == (ca, cb)]
