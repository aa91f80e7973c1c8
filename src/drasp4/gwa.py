"""Generalized Weyl algebras over a polynomial base with skew-affine
automorphisms, and the realization map onto the reduction algebra.

The base ring is a polynomial ring in central elements t_1..t_n over the
dynamical scalars.  Each automorphism shifts the scalar coordinates by a
fixed integer vector, acts affinely on its own t generator and fixes the
others.  Elements are left combinations of signed-exponent monomials: a
positive exponent is a power of the raising generator of that index, a
negative one a power of the lowering generator; mixed products reduce
eagerly through the defining contractions.

A term product is a shift and a multiplication:

    (b1 Z^m1) (b2 Z^m2) = b1 sigma^m1(b2) prod_i c_i(m1_i, m2_i) Z^(m1 + m2)

where c_i(p, q), the contraction with Z_i^p Z_i^q = c_i(p, q) Z_i^(p+q),
is a product of images sigma_i^k(t_i) (and 1 when p and q do not have
opposite signs).  Two premises make sigma_i^k(t_i) the only image ever
needed: the automorphisms commute, and sigma_j fixes t_i for j != i.
The first is checked when an algebra is built (``_check_commuting``); the
second is the shape of a skew-affine automorphism.  Together they give,
for every exponent vector m with m_i = k,

    sigma^m(t_i) = sigma_i^k(prod_{j != i} sigma_j^m_j (t_i)) = sigma_i^k(t_i),

so sigma^m acts on t_i through the image for index i and exponent m_i
alone.  For the same reason the contraction c_i needs no twist when it
moves to the left past the generators of the other indices:
sigma_j(sigma_i^k(t_i)) = sigma_i^k(sigma_j(t_i)) = sigma_i^k(t_i).

So a product expands bilinearly over the terms f t^e Z^m of its factors
(``sparse.bilinear``), as the diamond does over its basis.  For scalars
f, g and base monomials t^e1, t^e2,

    (f t^e1 Z^m1) (g t^e2 Z^m2)
        = f g.shift(d) t^e1 B Z^(m1 + m2)

where d = sum_i m1_i * shift_i moves the scalars: the shift of passing a
left monomial m1 whose letter i weighs -shift_i, by the weight rule
``ambient.shift_rule`` that the ambient product shares, and

    B = sigma^m1(t^e2) prod_i c_i(m1_i, m2_i)

holds no scalar of either factor.  Since sigma^m1(t^e2) is the product of
sigma_i^m1_i(t_i)^e2_i, B is a product of affine images alone: e2_i
copies of sigma_i^m1_i(t_i) for each index, and the images of each
contraction.  It is built as one chain of these images, the pairs (i, k)
sorted, and each prefix of a chain is kept: a prefix is the one before it
times one affine factor, and chains that start alike share their
prefixes.  A one-pair chain is the image sigma_i^k(t_i) itself, so this
one memo holds every image.  A new B costs one product by an affine
polynomial for each prefix that no earlier chain reached, never a product
of two whole contractions.  The shifted map t^e1 B Z^(m1 + m2) is kept per
pair of basis terms, so a repeated pair is one lookup whatever the
coefficients.  Both memos depend on the algebra only; algebras compare and
hash by value, so each built-in instance has one set of entries however
often it is constructed.  sigma^m(b) is read off Z^m b = sigma^m(b) Z^m,
so sigma takes these chains too and the premises are used there alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, partial
from operator import add

from .ambient import shift_rule
from .scalars import HA, HB, RF_ONE, RF_ZERO, RatFunc, as_rf, rf_json, rf_str
from .sparse import (SparseTerms, bilinear, bracketed_sum, linear,
                     mono_text, power)
from .weyl import GEN_MONO, WeylElem, _mono_mul
from . import dra as _dra

# ---------------------------------------------------------------------------
# Base polynomials in t_1..t_n with dynamical-scalar coefficients.
# ---------------------------------------------------------------------------


def _check_keys(keys, rank: int) -> None:
    """ValueError unless every exponent vector in ``keys`` has ``rank``
    entries."""
    for k in keys:
        if len(k) != rank:
            raise ValueError(
                f"exponent vector {k} does not have {rank} entries")


def _check_rank(b: "BasePoly", rank: int) -> None:
    """ValueError unless the base polynomial ``b`` has rank ``rank``."""
    if b.rank != rank:
        raise ValueError(f"a base polynomial of rank {b.rank} where rank "
                         f"{rank} is expected")


def _unit_vec(rank: int, i: int, k: int = 1) -> tuple:
    """The exponent vector with k at the 1-based index i and 0 elsewhere."""
    if not 1 <= i <= rank:
        raise ValueError(f"index {i} is outside 1..{rank}")
    return tuple(k if j == i else 0 for j in range(1, rank + 1))


class BasePoly(SparseTerms):
    """Sparse polynomial in the central generators over RatFunc."""

    __slots__ = ("rank",)
    _coeff = staticmethod(as_rf)

    def __init__(self, rank: int, terms=None):
        object.__setattr__(self, "rank", rank)
        super().__init__(terms)
        _check_keys(self.terms, rank)

    def _unit(self):
        return (0,) * self.rank

    @staticmethod
    def const(rank: int, c) -> "BasePoly":
        return BasePoly(rank, {(0,) * rank: as_rf(c)})

    @staticmethod
    def tvar(rank: int, i: int) -> "BasePoly":
        return BasePoly(rank, {_unit_vec(rank, i): RF_ONE})

    def __mul__(self, other):
        if not isinstance(other, BasePoly):
            return NotImplemented
        _check_rank(other, self.rank)
        return BasePoly(self.rank, bilinear(
            self.terms, other.terms,
            lambda e1, e2: {tuple(map(add, e1, e2)): 1}))

    def __pow__(self, n: int):
        return power(self, n, BasePoly.const(self.rank, 1))

    def __str__(self):
        return base_str(self)


def base_str(b: BasePoly) -> str:
    names = [f"t{i}" for i in range(1, b.rank + 1)]
    return bracketed_sum(((rf_str(b.terms[e]), mono_text(e, names, " "))
                          for e in b.sorted_keys()), "(", ")")


def base_json(b: BasePoly) -> list:
    return [{"t": list(e), "coeff": rf_json(b.terms[e])}
            for e in b.sorted_keys()]


# ---------------------------------------------------------------------------
# Skew-affine automorphisms.
# ---------------------------------------------------------------------------


class SkewAffineSigma(namedtuple("SkewAffineSigma", "rank index shift c g")):
    """Automorphism with integer scalar shift and an affine action on its
    own central generator: t_i -> c + sum_j g_j t_j, fixing t_j for j != i.

    The diagonal coefficient g_i must be invertible so the map has an
    inverse of the same shape.  A record: two automorphisms are equal, and
    hash alike, when their fields are.
    """

    __slots__ = ()

    def __new__(cls, rank: int, index: int, shift, c: RatFunc, g):
        if not (1 <= index <= rank):
            raise ValueError("automorphism index out of range")
        if len(g) != rank:
            raise ValueError("affine row has wrong length")
        if g[index - 1].is_zero():
            raise ValueError("affine action is not invertible")
        shift = tuple(shift)
        if len(shift) != 2 or any(type(s) is not int for s in shift):
            raise ValueError("scalar shift must be a pair of integers")
        return super().__new__(cls, rank, index, shift, c, tuple(g))

    def t_image(self) -> BasePoly:
        terms = {(0,) * self.rank: self.c}
        for j, gj in enumerate(self.g, start=1):
            terms[_unit_vec(self.rank, j)] = gj
        return BasePoly(self.rank, terms)


# ---------------------------------------------------------------------------
# The algebra and its elements.
# ---------------------------------------------------------------------------


class GwaAlgebra:
    """A generalized Weyl algebra B(sigma, t) with B = R[t_1..t_n]; two are
    equal when their automorphisms are."""

    def __init__(self, rank: int, sigmas):
        if len(sigmas) != rank:
            raise ValueError("need one automorphism per index")
        for k, s in enumerate(sigmas, start=1):
            if (s.index, s.rank) != (k, rank):
                raise ValueError(
                    f"automorphism in slot {k} has index {s.index} and rank "
                    f"{s.rank}, not {k} and {rank}")
        self.rank = rank
        self.sigmas = tuple(sigmas)
        self._hash = hash((rank, self.sigmas))
        # sigma^m shifts the scalars as passing a left monomial m does, its
        # letter i weighing minus the shift of sigma_i
        self._scalar_shift = shift_rule(
            [(-s.shift[0], -s.shift[1]) for s in self.sigmas])
        self._check_inverses()
        self._check_commuting()

    def __eq__(self, other):
        if not isinstance(other, GwaAlgebra):
            return NotImplemented
        return self is other or (self.rank == other.rank
                                 and self.sigmas == other.sigmas)

    def __hash__(self):
        return self._hash

    def _check_inverses(self):
        for i in range(1, self.rank + 1):
            t = BasePoly.tvar(self.rank, i)
            up, down = _unit_vec(self.rank, i), _unit_vec(self.rank, i, -1)
            if (self._sigma(down, self._sigma(up, t)) != t
                    or self._sigma(up, self._sigma(down, t)) != t):
                raise ValueError(f"automorphism {i} has a wrong inverse")

    def _check_commuting(self):
        """The automorphisms commute, so sigma^m(t_i) is the cached
        sigma_i^m_i(t_i) (see the module docstring).  Each side applies
        one automorphism at a time, which needs neither premise."""
        # generators: the two scalar coordinates and every t variable
        gens = [BasePoly.const(self.rank, HA), BasePoly.const(self.rank, HB)]
        gens += [BasePoly.tvar(self.rank, i) for i in range(1, self.rank + 1)]
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                ei, ej = _unit_vec(self.rank, i), _unit_vec(self.rank, j)
                for b in gens:
                    if (self._sigma(ei, self._sigma(ej, b))
                            != self._sigma(ej, self._sigma(ei, b))):
                        raise ValueError(
                            f"automorphisms {i} and {j} do not commute")

    # -- element constructors --

    def zero(self) -> "GwaElem":
        return GwaElem(self, {})

    def base(self, b: BasePoly) -> "GwaElem":
        return GwaElem(self, {(0,) * self.rank: b} if b else {})

    def one(self) -> "GwaElem":
        return self.base(BasePoly.const(self.rank, 1))

    def scalar(self, c) -> "GwaElem":
        return self.base(BasePoly.const(self.rank, c))

    def t(self, i: int) -> BasePoly:
        return BasePoly.tvar(self.rank, i)

    def x(self, i: int) -> "GwaElem":
        return GwaElem(self, {_unit_vec(self.rank, i):
                              BasePoly.const(self.rank, 1)})

    def y(self, i: int) -> "GwaElem":
        return GwaElem(self, {_unit_vec(self.rank, i, -1):
                              BasePoly.const(self.rank, 1)})

    # -- automorphisms --

    def sigma(self, i: int, b: BasePoly) -> BasePoly:
        _check_rank(b, self.rank)
        return self._sigma(_unit_vec(self.rank, i), b)

    def sigma_pow(self, i: int, k: int, b: BasePoly) -> BasePoly:
        _check_rank(b, self.rank)
        return self._sigma(_unit_vec(self.rank, i, k), b)

    def sigma_vec(self, m, b: BasePoly) -> BasePoly:
        m = tuple(m)
        _check_keys((m,), self.rank)
        _check_rank(b, self.rank)
        return self._sigma(m, b)

    def _sigma(self, m: tuple, b: BasePoly) -> BasePoly:
        """sigma^m(b), the base coefficient of the product Z^m b =
        sigma^m(b) Z^m (see the module docstring)."""
        if not any(m):
            return b
        prod = GwaElem(self, {m: BasePoly.const(self.rank, 1)}) * self.base(b)
        return prod.terms.get(m, BasePoly(self.rank))


@cache
def _image_product(alg: GwaAlgebra, factors: tuple) -> BasePoly:
    """The product of the images sigma_i^k(t_i) over the pairs (i, k) in
    ``factors``: the product of all but the last, times the last image.
    A one-pair chain is the image itself: t_i for k = 0, one step of
    sigma_i or of its inverse for |k| = 1, and for longer k, with
    h = k // 2, sigma_i^h(sigma_i^(k-h)(t_i)), so the depth is logarithmic
    in |k|."""
    if not factors:
        return BasePoly.const(alg.rank, 1)
    if len(factors) > 1:
        return _image_product(alg, factors[:-1]) * _image_product(
            alg, factors[-1:])
    (i, k), = factors
    s = alg.sigmas[i - 1]
    if k == 0:
        return BasePoly.tvar(alg.rank, i)
    if k == 1:
        return s.t_image()
    if k == -1:
        # sigma_i(t_i) = c + sum_j g_j t_j solved for t_i, with the scalars
        # of the data moved back by the shift
        d = (-s.shift[0], -s.shift[1])
        inv = s.g[i - 1].shift(*d).inv()
        terms = {(0,) * alg.rank: -s.c.shift(*d) * inv}
        for j, gj in enumerate(s.g, start=1):
            terms[_unit_vec(alg.rank, j)] = (
                inv if j == i else -gj.shift(*d) * inv)
        return BasePoly(alg.rank, terms)
    h = k // 2
    return alg._sigma(_unit_vec(alg.rank, i, h),
                      _image_product(alg, ((i, k - h),)))


@cache
def _term_basis(alg: GwaAlgebra, k1: tuple, k2: tuple) -> dict:
    """t^e1 B Z^(m1 + m2) over the pairs (m, e), for the basis terms
    k1 = (m1, e1) and k2 = (m2, e2): B is the chain of images
    sigma_i^k(t_i) made of e2_i copies of (i, m1_i) and the pairs (i, k)
    of each contraction.  X_i^p Y_i^-q contracts over the top r values
    k <= p, and Y_i^-p X_i^q over the r values k > p, r = min(|p|, |q|).
    The prefixes of the sorted chain are read in increasing length, so
    each is built from the one before, and a cold chain recurses one level
    whatever its length."""
    (m1, e1), (m2, e2) = k1, k2
    factors = [(i, k) for i, (n, k) in enumerate(zip(e2, m1), start=1)
               for _ in range(n)]
    for i, (p, q) in enumerate(zip(m1, m2), start=1):
        if p * q < 0:
            r = min(abs(p), abs(q))
            ks = range(p - r + 1, p + 1) if p > 0 else range(p + 1, p + r + 1)
            factors += [(i, k) for k in ks]
    factors = tuple(sorted(factors))
    for n in range(1, len(factors)):
        _image_product(alg, factors[:n])
    m = tuple(map(add, m1, m2))
    return {(m, tuple(map(add, e1, e))): v
            for e, v in _image_product(alg, factors).terms.items()}


class GwaElem(SparseTerms):
    """Left combination of signed-exponent monomials over the base ring."""

    __slots__ = ("alg",)

    def __init__(self, alg: GwaAlgebra, terms=None):
        object.__setattr__(self, "alg", alg)
        super().__init__(terms)
        _check_keys(self.terms, alg.rank)
        for b in self.terms.values():
            _check_rank(b, alg.rank)

    def _unit(self):
        return (0,) * self.alg.rank

    def _coeff(self, b) -> BasePoly:
        return b if isinstance(b, BasePoly) else BasePoly.const(self.alg.rank, b)

    def __mul__(self, other):
        if not isinstance(other, GwaElem):
            return NotImplemented
        if self.alg != other.alg:
            raise ValueError("elements of different algebras")
        alg = self.alg
        u, v = ({(m, e): f for m, b in w.terms.items()
                 for e, f in b.terms.items()} for w in (self, other))
        out = {}
        for (m, e), f in bilinear(u, v, partial(_term_basis, alg),
                                  lambda k: alg._scalar_shift(k[0])).items():
            out.setdefault(m, {})[e] = f
        return GwaElem(alg, {m: BasePoly(alg.rank, t) for m, t in out.items()})

    def __pow__(self, n: int):
        return power(self, n, self.alg.one())

    def __str__(self):
        return gwa_str(self)


def gwa_str(u: GwaElem) -> str:
    """Positive exponents as powers of X_i, negative ones of Y_i."""
    return bracketed_sum(
        ((base_str(u.terms[m]),
          mono_text(map(abs, m), [f"X{i}" if k > 0 else f"Y{i}"
                                  for i, k in enumerate(m, start=1)], " "))
         for m in u.sorted_keys()), "[", "]")


def gwa_json(u: GwaElem) -> list:
    return [{"m": list(m), "coeff": base_json(u.terms[m])}
            for m in u.sorted_keys()]


# ---------------------------------------------------------------------------
# The two built-in instances.
# ---------------------------------------------------------------------------


def reduction_gwa() -> GwaAlgebra:
    """The rank-two skew-affine instance realizing the reduction algebra."""
    table = _dra.presentation()
    c1, c2 = table.chat
    (g11, g12), (g21, g22) = table.fhat
    s1 = SkewAffineSigma(2, 1, (-1, 0), c1, (g11, g12))
    s2 = SkewAffineSigma(2, 2, (1, -1), c2, (g21, g22))
    return GwaAlgebra(2, (s1, s2))


def weyl_gwa(n: int) -> GwaAlgebra:
    """The classical example: base C[u_1..u_n], each automorphism cutting
    its own variable by one; isomorphic to the n-th Weyl algebra."""
    sigmas = []
    for i in range(1, n + 1):
        g = [RF_ZERO] * n
        g[i - 1] = RF_ONE
        sigmas.append(SkewAffineSigma(n, i, (0, 0), RatFunc.const(-1), g))
    return GwaAlgebra(n, sigmas)


# ---------------------------------------------------------------------------
# Realization map onto the reduction algebra (rank-two instance).
# ---------------------------------------------------------------------------


class GwaRealization:
    """Maps the rank-two instance into the reduction algebra:
    X_i to the normalized raising generator, Y_i to the normalized
    lowering one, t_i to the product Y_i X_i."""

    def __init__(self):
        self.alg = reduction_gwa()
        gens = _dra.normalized_gens()
        self.x_hat = (gens.x1, gens.x2)
        self.d_hat = (gens.d1, gens.d2)

    def base_image(self, b: BasePoly) -> "_dra.DraElem":
        return _dra.DraElem(linear(b.terms,
                                   lambda e: _t_monomial_image(e).terms))

    def monomial_image(self, m) -> "_dra.DraElem":
        """Lowering factors first, then raising ones, each in index order."""
        return _dra.diamond_product(
            [y for y, k in zip(self.d_hat, m) for _ in range(-k)]
            + [x for x, k in zip(self.x_hat, m) for _ in range(k)])

    def phi(self, u: GwaElem) -> "_dra.DraElem":
        """One diamond per exponent m: base_image(b) <> the image of Z^m."""
        return _dra.DraElem(linear(
            dict.fromkeys(u.terms, 1),
            lambda m: _dra.diamond(self.base_image(u.terms[m]),
                                   self.monomial_image(m)).terms))


@cache
def _t_monomial_image(e: tuple) -> "_dra.DraElem":
    """Image of the base monomial t_1^e_1 t_2^e_2: the ordered diamond
    product of the t images, t_i to the normalized d_i <> x_i.  The left
    fold is the cached image of e less its last factor t_i, times d_i and
    then x_i, which by associativity is that image times d_i <> x_i."""
    if not any(e):
        return _dra.DRA_ONE
    i = max(j for j, k in enumerate(e) if k)
    rest = tuple(k - 1 if j == i else k for j, k in enumerate(e))
    gens = _dra.normalized_gens()
    return _dra.diamond(_dra.diamond(_t_monomial_image(rest),
                                     (gens.d1, gens.d2)[i]),
                        (gens.x1, gens.x2)[i])


# ---------------------------------------------------------------------------
# The classical-example comparison map into the Weyl algebra.
# ---------------------------------------------------------------------------


def weyl_gwa_image(u: GwaElem) -> WeylElem:
    """Image of an element of the classical instance in the Weyl algebra:
    X_i to x_i, Y_i to d_i, u_i to d_i x_i (rank at most two)."""
    if u.alg.rank > 2:
        raise ValueError("comparison map implemented for rank <= 2")
    terms = {(m, e): cf for m, b in u.terms.items()
             for e, cf in b.terms.items()}
    if not all(cf.is_const() for cf in terms.values()):
        raise ValueError("coefficient is not constant")
    # the constant scalars are scaled by the integers of the images, and
    # read as Gaussian rationals once per output term
    return WeylElem({w: f.const_value() for w, f in
                     linear(terms, lambda k: _weyl_mono_image(*k)).items()})


# The Weyl monomials x_i, d_i and d_i x_i (normal-ordered as it stands)
# of the indices 1 and 2.
_X = (GEN_MONO["x1"], GEN_MONO["x2"])
_D = (GEN_MONO["d1"], GEN_MONO["d2"])
_DX = tuple(tuple(map(add, d, x)) for d, x in zip(_D, _X))


@cache
def _weyl_mono_image(m: tuple, e: tuple) -> dict:
    """Image of u^e Z^m as an integer combination of Weyl monomials: the
    factors (d_i x_i)^e_i, then the words x_i^m_i or d_i^-m_i, each in
    index order.  The letters of different indices commute, so the word of
    m is one monomial, and the image of (m, e) is the cached image of
    (0, e) times it.  The image of (0, e) is that of e less one factor of
    its last index i, times d_i x_i; the shorter prefixes of e are read in
    increasing length first, so a cold image recurses one level whatever
    its degree."""
    zero = (0,) * len(m)
    if any(m):
        word = WeylElem.UNIT
        for i, k in enumerate(m):
            letter = _X[i] if k > 0 else _D[i]
            word = tuple(w + abs(k) * x for w, x in zip(word, letter))
        return bilinear(_weyl_mono_image(zero, e), {word: 1}, _mono_mul)
    if not any(e):
        return {WeylElem.UNIT: 1}
    chain = [i for i, k in enumerate(e) for _ in range(k)]
    rest = zero
    for i in chain[:-1]:
        rest = rest[:i] + (rest[i] + 1,) + rest[i + 1:]
        _weyl_mono_image(zero, rest)
    return bilinear(_weyl_mono_image(zero, rest), {_DX[chain[-1]]: 1},
                    _mono_mul)


# The memos of this module, for ``drasp4.cache_info`` and
# ``drasp4.clear_caches``.
_MEMOS = (_image_product, _term_basis, _t_monomial_image, _weyl_mono_image)
