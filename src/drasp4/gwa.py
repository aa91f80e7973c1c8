"""Generalized Weyl algebras over a polynomial base with skew-affine
automorphisms, and the realization map onto the reduction algebra.

The base ring is a polynomial ring in central elements t_1..t_n over the
dynamical scalars.  Each automorphism shifts the scalar coordinates by a
fixed integer vector, acts affinely on its own t generator and fixes the
others.  Elements are left combinations of signed-exponent monomials: a
positive exponent is a power of the raising generator of that index, a
negative one a power of the lowering generator; mixed products reduce
eagerly through the defining contractions.
"""

from __future__ import annotations

from functools import cache

from .scalars import RF_ONE, RF_ZERO, RatFunc, rf_json, rf_str
from .sparse import SparseTerms, add_into, power
from .weyl import WeylElem
from . import dra as _dra

# ---------------------------------------------------------------------------
# Base polynomials in t_1..t_n with dynamical-scalar coefficients.
# ---------------------------------------------------------------------------


class BasePoly(SparseTerms):
    """Sparse polynomial in the central generators over RatFunc."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms=None):
        object.__setattr__(self, "rank", rank)
        super().__init__(terms)

    def _new(self, terms):
        return BasePoly(self.rank, terms)

    @staticmethod
    def const(rank: int, c) -> "BasePoly":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        return BasePoly(rank, {(0,) * rank: f}) if f else BasePoly(rank)

    @staticmethod
    def tvar(rank: int, i: int) -> "BasePoly":
        e = [0] * rank
        e[i - 1] = 1
        return BasePoly(rank, {tuple(e): RF_ONE})

    def is_scalar(self):
        return not self.terms or (len(self.terms) == 1
                                  and (0,) * self.rank in self.terms)

    def scalar_value(self) -> RatFunc:
        if not self.terms:
            return RF_ZERO
        if not self.is_scalar():
            raise ValueError("not a dynamical scalar")
        return self.terms[(0,) * self.rank]

    def __eq__(self, other):
        eq = SparseTerms.__eq__(self, other)
        return eq if eq is NotImplemented else eq and self.rank == other.rank

    def __hash__(self):
        return hash((self.rank, SparseTerms.__hash__(self)))

    def scaled(self, c) -> "BasePoly":
        f = c if isinstance(c, RatFunc) else RatFunc.const(c)
        if not f:
            return BasePoly(self.rank)
        return BasePoly(self.rank, {e: f * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return self.scaled(other)
        if not isinstance(other, BasePoly):
            return NotImplemented
        return BasePoly(self.rank, add_into(
            {}, ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                 for e1, c1 in self.terms.items()
                 for e2, c2 in other.terms.items())))

    def __rmul__(self, other):
        if isinstance(other, RatFunc):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n, BasePoly.const(self.rank, 1))

    def __repr__(self):
        return f"BasePoly({self.rank}, {self.terms!r})"

    def __str__(self):
        return base_str(self)


def base_str(b: BasePoly) -> str:
    if not b.terms:
        return "0"
    chunks = []
    for e in b.sorted_keys():
        parts = []
        for k, p in enumerate(e):
            if p == 1:
                parts.append(f"t{k + 1}")
            elif p > 1:
                parts.append(f"t{k + 1}^{p}")
        body = " ".join(parts)
        c = rf_str(b.terms[e])
        chunks.append(f"({c}) {body}" if body else f"({c})")
    return " + ".join(chunks)


def base_json(b: BasePoly) -> list:
    return [{"t": list(e), "coeff": rf_json(b.terms[e])}
            for e in b.sorted_keys()]


# ---------------------------------------------------------------------------
# Skew-affine automorphisms.
# ---------------------------------------------------------------------------


class SkewAffineSigma:
    """Automorphism with integer scalar shift and an affine action on its
    own central generator: t_i -> c + sum_j g_j t_j, fixing t_j for j != i.

    The diagonal coefficient g_i must be invertible so the map has an
    inverse of the same shape.
    """

    __slots__ = ("rank", "index", "shift", "c", "g")

    def __init__(self, rank: int, index: int, shift, c: RatFunc, g):
        if not (1 <= index <= rank):
            raise ValueError("automorphism index out of range")
        if len(g) != rank:
            raise ValueError("affine row has wrong length")
        if g[index - 1].is_zero():
            raise ValueError("affine action is not invertible")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "shift", (int(shift[0]), int(shift[1])))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "g", tuple(g))

    def __setattr__(self, name, value):
        raise AttributeError("SkewAffineSigma is immutable")

    def on_scalar_inv(self, f: RatFunc) -> RatFunc:
        return f.shift(-self.shift[0], -self.shift[1])

    def t_image(self) -> BasePoly:
        terms = {(0,) * self.rank: self.c}
        for j, gj in enumerate(self.g):
            e = [0] * self.rank
            e[j] = 1
            terms[tuple(e)] = gj
        return BasePoly(self.rank, terms)

    def t_image_inv(self) -> BasePoly:
        gi = self.on_scalar_inv(self.g[self.index - 1])
        inv = gi.inv()
        terms = {(0,) * self.rank: -self.on_scalar_inv(self.c) * inv}
        for j in range(self.rank):
            e = [0] * self.rank
            e[j] = 1
            if j == self.index - 1:
                terms[tuple(e)] = inv
            else:
                gj = self.on_scalar_inv(self.g[j])
                if gj:
                    terms[tuple(e)] = terms.get(tuple(e), RF_ZERO) - gj * inv
        return BasePoly(self.rank, terms)

    def power(self, k: int, b: BasePoly) -> BasePoly:
        """sigma^k(b) in one pass: every scalar shifts by k times the
        shift, and the own generator goes to its cached image under
        sigma^k."""
        if k == 0:
            return b
        da, db = k * self.shift[0], k * self.shift[1]
        image = _sigma_power_image(self, k)
        out = BasePoly(self.rank)
        i = self.index - 1
        powers = {0: BasePoly.const(self.rank, 1)}
        for e, cf in b.terms.items():
            n = e[i]
            if n not in powers:
                powers[n] = image ** n
            rest = list(e)
            rest[i] = 0
            mono = BasePoly(self.rank, {tuple(rest): cf.shift(da, db)})
            out = out + mono * powers[n]
        return out

    def apply(self, b: BasePoly) -> BasePoly:
        return self.power(1, b)

    def apply_inv(self, b: BasePoly) -> BasePoly:
        return self.power(-1, b)


@cache
def _sigma_power_image(s: SkewAffineSigma, k: int) -> BasePoly:
    """sigma^k(t_i) for the own generator t_i of s, an affine polynomial:
    sigma^(k - step) applied to sigma^step(t_i), step the sign of k."""
    if k == 1:
        return s.t_image()
    if k == -1:
        return s.t_image_inv()
    step = 1 if k > 0 else -1
    return s.power(k - step, _sigma_power_image(s, step))


# ---------------------------------------------------------------------------
# The algebra and its elements.
# ---------------------------------------------------------------------------


class GwaAlgebra:
    """A generalized Weyl algebra B(sigma, t) with B = R[t_1..t_n]."""

    def __init__(self, rank: int, sigmas):
        if len(sigmas) != rank:
            raise ValueError("need one automorphism per index")
        self.rank = rank
        self.sigmas = tuple(sigmas)
        self._check_inverses()
        self._check_commuting()

    def _check_inverses(self):
        for i in range(1, self.rank + 1):
            t = BasePoly.tvar(self.rank, i)
            s = self.sigmas[i - 1]
            if s.apply_inv(s.apply(t)) != t or s.apply(s.apply_inv(t)) != t:
                raise ValueError(f"automorphism {i} has a wrong inverse")

    def _check_commuting(self):
        # generators: the two scalar coordinates and every t variable
        from .scalars import HA, HB
        gens = [BasePoly.const(self.rank, HA), BasePoly.const(self.rank, HB)]
        gens += [BasePoly.tvar(self.rank, i) for i in range(1, self.rank + 1)]
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                si, sj = self.sigmas[i], self.sigmas[j]
                for b in gens:
                    if si.apply(sj.apply(b)) != sj.apply(si.apply(b)):
                        raise ValueError(
                            f"automorphisms {i + 1} and {j + 1} do not commute")

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
        e = [0] * self.rank
        e[i - 1] = 1
        return GwaElem(self, {tuple(e): BasePoly.const(self.rank, 1)})

    def y(self, i: int) -> "GwaElem":
        e = [0] * self.rank
        e[i - 1] = -1
        return GwaElem(self, {tuple(e): BasePoly.const(self.rank, 1)})

    # -- automorphism helpers --

    def sigma(self, i: int, b: BasePoly) -> BasePoly:
        return self.sigmas[i - 1].apply(b)

    def sigma_pow(self, i: int, k: int, b: BasePoly) -> BasePoly:
        return self.sigmas[i - 1].power(k, b)

    def sigma_vec(self, m, b: BasePoly) -> BasePoly:
        for i, k in enumerate(m, start=1):
            if k:
                b = self.sigma_pow(i, k, b)
        return b

    def _contract(self, i: int, p: int, q: int):
        """Normalize Z_i^p Z_i^q; returns (exponent, coefficient)."""
        if p == 0 or q == 0 or (p > 0) == (q > 0):
            return p + q, BasePoly.const(self.rank, 1)
        t = BasePoly.tvar(self.rank, i)
        coeff = BasePoly.const(self.rank, 1)
        if p > 0:
            r = min(p, -q)
            for j in range(r):
                coeff = coeff * self.sigma_pow(i, p - j, t)
        else:
            r = min(-p, q)
            for j in range(r):
                coeff = coeff * self.sigma_pow(i, p + 1 + j, t)
        return p + q, coeff

    def _term_mul(self, m1, b1: BasePoly, m2, b2: BasePoly):
        coeff = b1 * self.sigma_vec(m1, b2)
        exps = []
        extras = []
        for i in range(1, self.rank + 1):
            e, ci = self._contract(i, m1[i - 1], m2[i - 1])
            exps.append(e)
            extras.append(ci)
        prefix = [0] * self.rank
        for i in range(self.rank):
            ci = extras[i]
            if not ci.is_scalar() or ci.scalar_value() != RF_ONE:
                coeff = coeff * self.sigma_vec(tuple(prefix), ci)
            prefix[i] = exps[i]
        return tuple(exps), coeff


class GwaElem(SparseTerms):
    """Left combination of signed-exponent monomials over the base ring."""

    __slots__ = ("alg",)

    def __init__(self, alg: GwaAlgebra, terms=None):
        object.__setattr__(self, "alg", alg)
        super().__init__(terms)

    def _new(self, terms):
        return GwaElem(self.alg, terms)

    def __eq__(self, other):
        eq = SparseTerms.__eq__(self, other)
        return eq if eq is NotImplemented else eq and self.alg is other.alg

    def __hash__(self):
        return hash((id(self.alg), SparseTerms.__hash__(self)))

    def sorted_keys(self) -> list:
        """Signed exponents order by absolute degree, then by key."""
        return sorted(self.terms, key=lambda m: (sum(abs(k) for k in m), m),
                      reverse=True)

    def scaled(self, b) -> "GwaElem":
        if not isinstance(b, BasePoly):
            b = BasePoly.const(self.alg.rank, b)
        return GwaElem(self.alg, {m: b * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, GwaElem):
            return NotImplemented
        if self.alg is not other.alg:
            raise ValueError("elements of different algebras")
        alg = self.alg
        return GwaElem(alg, add_into({}, (alg._term_mul(m1, b1, m2, b2)
                                          for m1, b1 in self.terms.items()
                                          for m2, b2 in other.terms.items())))

    def __pow__(self, n: int):
        return power(self, n, self.alg.one())

    def __repr__(self):
        return f"GwaElem({self.terms!r})"

    def __str__(self):
        return gwa_str(self)


def gwa_str(u: GwaElem) -> str:
    if not u.terms:
        return "0"
    chunks = []
    for m in u.sorted_keys():
        parts = []
        for i, k in enumerate(m, start=1):
            if k > 0:
                parts.append(f"X{i}" if k == 1 else f"X{i}^{k}")
            elif k < 0:
                parts.append(f"Y{i}" if k == -1 else f"Y{i}^{-k}")
        body = " ".join(parts)
        c = base_str(u.terms[m])
        chunks.append(f"[{c}] {body}" if body else f"[{c}]")
    return " + ".join(chunks)


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

    def __init__(self, alg: GwaAlgebra | None = None):
        self.alg = alg if alg is not None else reduction_gwa()
        gens = _dra.normalized_gens()
        self.x_hat = (gens.x1, gens.x2)
        self.d_hat = (gens.d1, gens.d2)

    def base_image(self, b: BasePoly) -> "_dra.DraElem":
        out = _dra.DraElem()
        for e, cf in b.terms.items():
            out = out + _t_monomial_image(e).scaled(cf)
        return out

    def monomial_image(self, m) -> "_dra.DraElem":
        """Lowering factors first, then raising ones, each in index order."""
        return _dra.diamond_product(
            [y for y, k in zip(self.d_hat, m) for _ in range(-k)]
            + [x for x, k in zip(self.x_hat, m) for _ in range(k)])

    def phi(self, u: GwaElem) -> "_dra.DraElem":
        out = _dra.DraElem()
        for m, b in u.terms.items():
            out = out + _dra.diamond(self.base_image(b), self.monomial_image(m))
        return out


@cache
def _t_monomial_image(e: tuple) -> "_dra.DraElem":
    """Image of the base monomial t_1^e_1 t_2^e_2: the ordered diamond
    product of the t images, t_i to the normalized d_i <> x_i."""
    gens = _dra.normalized_gens()
    t_img = (_dra.diamond(gens.d1, gens.x1), _dra.diamond(gens.d2, gens.x2))
    return _dra.diamond_product(t for t, k in zip(t_img, e) for _ in range(k))


# ---------------------------------------------------------------------------
# The classical-example comparison map into the Weyl algebra.
# ---------------------------------------------------------------------------


def weyl_gwa_image(u: GwaElem) -> WeylElem:
    """Image of an element of the classical instance in the Weyl algebra:
    X_i to x_i, Y_i to d_i, u_i to d_i x_i (rank at most two)."""
    n = u.alg.rank
    if n > 2:
        raise ValueError("comparison map implemented for rank <= 2")
    xg = (WeylElem.gen("x1"), WeylElem.gen("x2"))
    dg = (WeylElem.gen("d1"), WeylElem.gen("d2"))
    tg = tuple(dg[i] * xg[i] for i in range(n))
    out = WeylElem()
    for m, b in u.terms.items():
        for e, cf in b.terms.items():
            if not cf.is_const():
                raise ValueError("coefficient is not constant")
            img = WeylElem.const(cf.const_value())
            for i, k in enumerate(e):
                for _ in range(k):
                    img = img * tg[i]
            for i, k in enumerate(m):
                word = xg[i] if k > 0 else dg[i]
                for _ in range(abs(k)):
                    img = img * word
            out = out + img
    return out
