"""Type C2 root data and the oscillator realization inside the Weyl algebra.

All structure constants are derived at import time by bracketing images
in the Weyl algebra and reading off coordinates over one basis of its
elements of degree <= 2: the ten oscillator images, the four generators
and 1.  Nothing is transcribed by hand except the defining root vectors
of the two simple roots and the integer shifts of the coroots.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussRat, _split_lines
from .sparse import SparseTerms, linear
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

# Integer shifts turning coroots into the projector-friendly coordinates.
COROOT_SHIFT = {ALPHA: 0, BETA: 0, BETA_A: 2, BETA_2A: 1}


# The ten oscillator images, the four Weyl generators and 1 are a basis of
# the Weyl elements of degree <= 2, so every bracket of two of them has
# unique coordinates over them; every structure constant is read off those.
SPAN = BASIS + NAMES + ("1",)


def _build_images() -> dict:
    e = {ALPHA: X1 * D2, BETA: (X2 * X2).scaled(GR_I * Fraction(1, 2))}
    e[BETA_A] = e[ALPHA].bracket(e[BETA])
    e[BETA_2A] = e[ALPHA].bracket(e[BETA_A]).scaled(Fraction(1, 2))
    images = {}
    for g in POS_ROOTS:
        images[E_NAME[g]] = e[g]
        images[F_NAME[g]] = vartheta(e[g])
    images["Ha"] = e[ALPHA].bracket(images["Fa"])
    images["Hb"] = e[BETA].bracket(images["Fb"])
    images.update((n, WeylElem.gen(n)) for n in NAMES)
    images["1"] = W_ONE
    return images


IMAGE = _build_images()


def osc(sym: str) -> WeylElem:
    """Oscillator image of a basis symbol (Ea, Fb2a, Ha, ...)."""
    if sym not in BASIS:
        raise KeyError(f"unknown basis symbol: {sym}")
    return IMAGE[sym]


class LieElem(SparseTerms):
    """Exact coordinates over the symbols of SPAN: the fixed basis, and
    the scalar part as the coefficient of the unit key "1".

    The scalar part records the constant that can split off when a Weyl
    algebra element is decomposed over the oscillator images.  Only the
    elimination rows of ``_invert_images`` hold coordinates on the four
    Weyl generators.
    """

    __slots__ = ()
    UNIT = "1"
    _coeff = staticmethod(WeylElem._coeff)

    @staticmethod
    def basis(sym: str) -> "LieElem":
        if sym not in BASIS:
            raise KeyError(f"unknown basis symbol: {sym}")
        return LieElem({sym: GR_ONE})

    @property
    def coords(self) -> dict:
        return {k: v for k, v in self.terms.items() if k != self.UNIT}

    @property
    def const(self) -> GaussRat:
        return self.terms.get(self.UNIT, GR_ZERO)

    def degree(self) -> int:
        """1 if a symbol other than "1" is present, 0 for a nonzero scalar,
        -1 for zero."""
        return -1 if not self.terms else 0 if self.is_scalar() else 1

    def sorted_keys(self) -> list:
        """The keys in SPAN order."""
        return sorted(self.terms, key=SPAN.index)

    def to_weyl(self) -> WeylElem:
        return WeylElem(linear(self.terms, lambda s: IMAGE[s].terms))


def _invert_images() -> dict:
    """The coordinates over SPAN of each monomial of degree <= 2.

    Gauss-Jordan elimination on rows (w, x), w the combination of images
    with coefficients x: once every w is a single monomial, its x are the
    coordinates of that monomial.
    """
    rows = [(IMAGE[s], LieElem({s: GR_ONE})) for s in SPAN]
    for i in range(len(rows)):
        w, x = rows[i]
        if w.is_zero():
            raise RuntimeError("the images are linearly dependent")
        m = max(w.terms)
        k = w.terms[m].inv()
        w, x = w.scaled(k), x.scaled(k)
        rows[i] = w, x
        for j, (v, y) in enumerate(rows):
            c = v.terms.get(m)
            if c and j != i:
                rows[j] = v - w.scaled(c), y - x.scaled(c)
    if any(len(w.terms) != 1 for w, _ in rows):
        raise RuntimeError("the images do not span the degree <= 2 monomials")
    return {next(iter(w.terms)): x.terms for w, x in rows}


_COORDS = _invert_images()


def coordinates(w: WeylElem) -> dict:
    """The coordinates {symbol of SPAN: coefficient} of w over IMAGE.

    Raises ValueError when w has a monomial of degree above 2.
    """
    if not _COORDS.keys() >= w.terms.keys():
        raise ValueError("degree above 2")
    return linear(w.terms, _COORDS.__getitem__)


def decompose(w: WeylElem) -> LieElem:
    """Write w as a combination of oscillator images plus a constant.

    Raises ValueError when w lies outside that span, that is when it has
    degree above 2 or a nonzero coordinate on a Weyl generator.
    """
    x = coordinates(w) if w.degree() <= 2 else None
    if x is None or any(n in x for n in NAMES):
        raise ValueError("not in sp(4) + C")
    return LieElem(x)


def lie_bracket(x: LieElem, y: LieElem) -> LieElem:
    """Bracket computed in the Weyl algebra and decomposed back."""
    return decompose(x.to_weyl().bracket(y.to_weyl()))


def tau(x: LieElem) -> LieElem:
    """Chevalley involution: the symplectic Fourier transform restricted
    to the image, swapping raising and lowering vectors."""
    return decompose(vartheta(x.to_weyl()))


def _integer(c: GaussRat) -> int:
    if c.im or c.re.denominator != 1:
        raise RuntimeError("structure constant is not an integer")
    return int(c.re)


def _weight(a: str) -> tuple:
    """The eigenvalues of ad Ha and ad Hb on the image of a letter."""
    out = []
    for h in ("Ha", "Hb"):
        x = coordinates(IMAGE[h].bracket(IMAGE[a]))
        if set(x) - {a}:
            raise RuntimeError("non-diagonal weight action")
        out.append(_integer(x.get(a, GR_ZERO)))
    return tuple(out)


WEIGHT = {a: _weight(a) for a in SPAN if a not in ("Ha", "Hb", "1")}

ROOT_WEIGHT = {g: WEIGHT[E_NAME[g]] for g in POS_ROOTS}


def _coroot_form(g: str) -> tuple:
    """Affine form (ca, cb, c0) of a shifted coroot coordinate: [E, F]
    over the two simple Cartan elements, plus the fixed integer shift."""
    x = coordinates(IMAGE[E_NAME[g]].bracket(IMAGE[F_NAME[g]]))
    if set(x) - {"Ha", "Hb"}:
        raise RuntimeError("coroot bracket left the Cartan part")
    return (_integer(x.get("Ha", GR_ZERO)), _integer(x.get("Hb", GR_ZERO)),
            COROOT_SHIFT[g])


COROOT_FORM = {g: _coroot_form(g) for g in POS_ROOTS}


def sl2_triples() -> dict:
    """The derived triples (e, f, h') per positive root, as Weyl elements."""
    out = {}
    for g in POS_ROOTS:
        e = IMAGE[E_NAME[g]]
        f = IMAGE[F_NAME[g]]
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
