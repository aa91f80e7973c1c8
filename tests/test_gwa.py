import itertools
import json
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from drasp4 import dra, gwa
from drasp4.scalars import GaussRat, HA, HB, RF_ONE, RF_ZERO, RatFunc
from drasp4.sparse import power
from drasp4.weyl import W_ONE, WeylElem
from drasp4.gwa import (BasePoly, GwaAlgebra, GwaElem, GwaRealization,
                        SkewAffineSigma, base_str, gwa_json, reduction_gwa,
                        weyl_gwa, weyl_gwa_image)

FIXTURES = Path(__file__).parent / "fixtures"
DERIVED = json.loads((FIXTURES / "derived_values.json").read_text())


@pytest.fixture(scope="module")
def alg():
    return reduction_gwa()


@pytest.fixture(scope="module")
def real():
    return GwaRealization()


def test_sigma_on_scalars(alg):
    ha = BasePoly.const(2, HA)
    hb = BasePoly.const(2, HB)
    assert alg.sigma(1, ha) == BasePoly.const(2, HA - 1)
    assert alg.sigma(2, ha) == BasePoly.const(2, HA + 1)
    assert alg.sigma(1, hb) == hb
    assert alg.sigma(2, hb) == BasePoly.const(2, HB - 1)


def test_sigma_on_t(alg):
    assert alg.sigma(2, alg.t(1)) == alg.t(1)
    assert alg.sigma(1, alg.t(2)) == alg.t(2)
    table = dra.presentation()
    img = alg.sigma(1, alg.t(1))
    assert img.terms[(0, 0)] == table.chat[0]
    assert img.terms[(1, 0)] == table.fhat[0][0]
    assert img.terms[(0, 1)] == table.fhat[0][1]


def test_sigma_ring_homomorphism(alg):
    rng = random.Random(61)

    def rand_base():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = (rng.randint(0, 2), rng.randint(0, 1))
            terms[e] = HA * rng.randint(-1, 1) + HB * rng.randint(0, 1) \
                + rng.randint(-2, 2)
        return BasePoly(2, terms)

    for _ in range(8):
        u, v = rand_base(), rand_base()
        for i in (1, 2):
            assert alg.sigma(i, u * v) == alg.sigma(i, u) * alg.sigma(i, v)
            assert _one_step(alg.sigmas[i - 1], alg.sigma(i, u), -1) == u


def test_sigma_commutes_directly(alg):
    for b in (alg.t(1), alg.t(2), BasePoly.const(2, HA), BasePoly.const(2, HB)):
        d12 = alg.sigma(1, alg.sigma(2, b))
        d21 = alg.sigma(2, alg.sigma(1, b))
        assert d12 == d21
    assert base_str(alg.sigma(1, alg.sigma(2, alg.t(1)))) \
        == DERIVED["sigma_commute_t1"]
    assert base_str(alg.sigma(1, alg.sigma(2, alg.t(2)))) \
        == DERIVED["sigma_commute_t2"]


def test_commutation_identities(alg):
    from drasp4.verify import sigma_commute_report
    rep = sigma_commute_report()
    assert rep.passed
    assert len(rep.checks) == 6


def test_algebras_compare_by_value(alg):
    again = reduction_gwa()
    assert again is not alg and again == alg and hash(again) == hash(alg)
    assert again.sigmas[0] == alg.sigmas[0] != alg.sigmas[1]
    term = {(1, 0): alg.t(1)}
    assert GwaElem(again, term) == GwaElem(alg, term)
    assert again.x(1) * alg.y(1) == alg.x(1) * alg.y(1)
    assert weyl_gwa(2) != alg
    with pytest.raises(ValueError, match="different algebras"):
        weyl_gwa(2).x(1) * alg.x(1)


def _one_step(s, b, sign):
    """s(b) for sign 1, s^-1(b) for sign -1, substituted term by term from
    the data of s alone: the scalars shift by sign times the shift of s,
    and t_i goes to c + sum_j g_j t_j, or to the solution for t_i, with
    the scalars of the data moved back, (t_i - c - sum_{j != i} g_j t_j)
    / g_i."""
    rank, i = s.rank, s.index
    d = (sign * s.shift[0], sign * s.shift[1])
    t = [BasePoly.tvar(rank, j) for j in range(1, rank + 1)]
    if sign > 0:
        image = BasePoly.const(rank, s.c)
        for tj, gj in zip(t, s.g):
            image = image + tj.scaled(gj)
    else:
        image = t[i - 1] - BasePoly.const(rank, s.c.shift(*d))
        for j, (tj, gj) in enumerate(zip(t, s.g), start=1):
            if j != i:
                image = image - tj.scaled(gj.shift(*d))
        image = image.scaled(s.g[i - 1].shift(*d).inv())
    out = BasePoly(rank, {})
    for e, cf in b.terms.items():
        term = BasePoly.const(rank, cf.shift(*d))
        for j, n in enumerate(e, start=1):
            term = term * (image if j == i else t[j - 1]) ** n
        out = out + term
    return out


def _one_step_fold(alg, m, b):
    """sigma^m(b) by one-step maps only."""
    for s, k in zip(alg.sigmas, m):
        for _ in range(abs(k)):
            b = _one_step(s, b, 1 if k > 0 else -1)
    return b


@pytest.mark.parametrize("make", [reduction_gwa, lambda: weyl_gwa(2)])
def test_other_automorphisms_fix_the_orbit_of_t(make):
    """The premise that lets a contraction factor pass the generators of
    the other indices untwisted: sigma_j(sigma_i^k(t_i)) = sigma_i^k(t_i)
    for j != i."""
    a = make()
    for i, j in ((1, 2), (2, 1)):
        for k in range(-3, 4):
            m = (k, 0) if i == 1 else (0, k)
            orbit = _one_step_fold(a, m, a.t(i))
            assert a.sigma_pow(i, k, a.t(i)) == orbit
            s = a.sigmas[j - 1]
            assert _one_step(s, orbit, 1) == orbit
            assert _one_step(s, orbit, -1) == orbit


def test_sigma_vec_is_the_fold_of_one_step_maps(alg):
    rng = random.Random(65)
    for m in itertools.product(range(-3, 4), repeat=2):
        b = BasePoly(2, {(rng.randint(0, 2), rng.randint(0, 1)):
                         HA * rng.randint(-1, 1) + HB + rng.randint(-2, 2),
                         (0, 0): HB * rng.randint(-2, 2) + 1})
        assert alg.sigma_vec(m, b) == _one_step_fold(alg, m, b)


def test_sigma_pow_at_large_exponents(alg):
    """sigma^m is composed from halves of m, so large exponents do not
    exhaust the stack."""
    w = weyl_gwa(1)
    u = w.t(1)
    for k in (5000, -5000):
        assert w.sigma_pow(1, k, u) == u - BasePoly.const(1, k)
    t1 = alg.t(1)
    assert alg.sigma_pow(1, 1200, t1) \
        == alg.sigma(1, alg.sigma_pow(1, 1199, t1))


def _times_generator(alg, u, i, sign):
    """u times X_i (sign 1) or Y_i (sign -1) from the defining relations
    alone: Y_i X_i = t_i, X_i Y_i = sigma_i(t_i), generators of different
    indices commute, and the factor a contraction leaves is moved past the
    lower indices with their automorphisms applied in full."""
    out = alg.zero()
    for m, b in u.terms.items():
        k = m[i - 1]
        n = list(m)
        n[i - 1] = k + sign
        c = BasePoly.const(alg.rank, 1)
        if k * sign < 0:
            # X_i^a Y_i = sigma_i^a(t_i) X_i^(a-1),
            # Y_i^a X_i = sigma_i^(1-a)(t_i) Y_i^(a-1)
            e = [0] * alg.rank
            e[i - 1] = k if k > 0 else k + 1
            c = _one_step_fold(alg, e, alg.t(i))
            c = _one_step_fold(alg, m[:i - 1] + (0,) * (alg.rank - i + 1), c)
        out = out + GwaElem(alg, {tuple(n): b * c})
    return out


def test_monomial_products_are_folds_of_generator_products(alg):
    """Contractions of length up to three against products by one
    generator at a time, written out from the defining relations."""
    rng = random.Random(66)
    box = list(itertools.product(range(-3, 4), repeat=2))
    pairs = [((3, -3), (-3, 3)), ((-3, 3), (3, -3)), ((3, 3), (-3, -3)),
             ((-3, -3), (3, 3))]
    pairs += [(rng.choice(box), rng.choice(box)) for _ in range(30)]
    one = BasePoly.const(2, 1)
    for m1, m2 in pairs:
        u = GwaElem(alg, {m1: one})
        fold = u
        for i, k in enumerate(m2, start=1):
            for _ in range(abs(k)):
                fold = _times_generator(alg, fold, i, 1 if k > 0 else -1)
        assert u * GwaElem(alg, {m2: one}) == fold, (m1, m2)


def test_non_commuting_ansatz_rejected():
    bad = [SkewAffineSigma(2, 1, (-1, 0), RatFunc.const(1), (RF_ONE, RF_ONE)),
           SkewAffineSigma(2, 2, (0, -1), HA, (RF_ZERO, RF_ONE))]
    with pytest.raises(ValueError, match="do not commute"):
        GwaAlgebra(2, bad)


def test_shift_must_be_two_integers():
    for shift in ((-1.5, 0), (-1.0, 0), (1,), (0, 0, 0), (True, 0)):
        with pytest.raises(ValueError, match="pair of integers"):
            SkewAffineSigma(2, 1, shift, RF_ONE, (RF_ONE, RF_ZERO))


def test_defining_relations(alg):
    t1 = alg.t(1)
    assert alg.y(1) * alg.x(1) == alg.base(t1)
    assert alg.x(1) * alg.y(1) == alg.base(alg.sigma(1, t1))
    assert alg.x(1) * alg.x(2) == alg.x(2) * alg.x(1)
    assert alg.y(1) * alg.y(2) == alg.y(2) * alg.y(1)
    assert alg.x(1) * alg.y(2) == alg.y(2) * alg.x(1)
    b = alg.base(BasePoly.const(2, HA))
    assert alg.x(2) * b == alg.base(BasePoly.const(2, HA + 1)) * alg.x(2)


def test_gwa_associativity(alg):
    rng = random.Random(62)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            m = (rng.randint(-2, 2), rng.randint(-1, 1))
            terms[m] = BasePoly.const(2, rng.randint(1, 3)) \
                if rng.random() < 0.5 else alg.t(rng.randint(1, 2))
        return GwaElem(alg, terms)

    for _ in range(6):
        u, v, w = rand_elem(), rand_elem(), rand_elem()
        assert (u * v) * w == u * (v * w)


def test_weyl_example_n1():
    one = weyl_gwa(1)
    xy = one.x(1) * one.y(1)
    yx = one.y(1) * one.x(1)
    (m1,) = xy.terms
    assert base_str(xy.terms[m1]) == DERIVED["gwa_n1_xy"]
    (m2,) = yx.terms
    assert base_str(yx.terms[m2]) == DERIVED["gwa_n1_yx"]


def test_weyl_example_products():
    from drasp4.verify import weyl_example_report
    assert weyl_example_report(1).passed
    assert weyl_example_report(2).passed
    assert weyl_example_report(2, maxdeg=5).passed


def test_weyl_example_image():
    two = weyl_gwa(2)
    from drasp4.weyl import D1, X1
    assert weyl_gwa_image(two.x(1) * two.y(1)) == X1 * D1
    u = two.x(1) * two.x(2) * two.y(2)
    assert weyl_gwa_image(u) == weyl_gwa_image(two.x(1)) \
        * weyl_gwa_image(two.x(2)) * weyl_gwa_image(two.y(2))


def reference_mono_image(m, e):
    """The comparison image of u^e Z^m from WeylElem products: the factors
    (d_i x_i)^e_i, then the words x_i^m_i or d_i^-m_i, in index order."""
    xg = (WeylElem.gen("x1"), WeylElem.gen("x2"))
    dg = (WeylElem.gen("d1"), WeylElem.gen("d2"))
    img = W_ONE
    for i, k in enumerate(e):
        img = img * power(dg[i] * xg[i], k, W_ONE)
    for i, k in enumerate(m):
        img = img * power(xg[i] if k > 0 else dg[i], abs(k), W_ONE)
    return img


def reference_image(u):
    """weyl_gwa_image term by term, over reference_mono_image."""
    out = WeylElem()
    for m, b in u.terms.items():
        for e, cf in b.terms.items():
            out = out + reference_mono_image(m, e).scaled(cf.const_value())
    return out


@pytest.mark.parametrize("n", (1, 2))
def test_comparison_image_matches_weyl_products(n):
    """The integer images of the comparison map against WeylElem products,
    on every u^e Z^m with |m| + |e| <= 5 and on products of elements with
    Gaussian coefficients other than 1."""
    alg = weyl_gwa(n)
    count = 0
    for m in itertools.product(range(-5, 6), repeat=n):
        for e in itertools.product(range(6), repeat=n):
            if sum(map(abs, m)) + sum(e) <= 5:
                u = GwaElem(alg, {m: BasePoly(n, {e: RF_ONE})})
                assert weyl_gwa_image(u) == reference_mono_image(m, e), (m, e)
                count += 1
    assert count == (36 if n == 1 else 301)

    rng = random.Random(29)

    def gaussian():
        return RatFunc.const(GaussRat(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 4)),
                                      rng.choice((0, 1, -2, Fraction(1, 3)))))

    def elem():
        return GwaElem(alg, {
            tuple(rng.randint(-2, 2) for _ in range(n)):
            BasePoly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                         gaussian() for _ in range(2)})
            for _ in range(2)})

    for _ in range(20):
        u, v = elem(), elem()
        w = u * v
        assert weyl_gwa_image(w) == reference_image(w)
        assert weyl_gwa_image(w) == reference_image(u) * reference_image(v)

    if n == 2:
        # a cold image of degree 150 under a recursion limit below 150: its
        # prefixes are built in increasing length, each one level deep
        limit, low = sys.getrecursionlimit(), _stack_depth() + 40
        assert low < 150
        e = (150, 0)
        u = GwaElem(alg, {(0, 0): BasePoly(2, {e: RF_ONE})})
        gwa._weyl_mono_image.cache_clear()
        sys.setrecursionlimit(low)
        try:
            image = weyl_gwa_image(u)
        finally:
            sys.setrecursionlimit(limit)
        assert image == reference_mono_image((0, 0), e)


def test_reduction_gwa_builds_each_inverse_image_once():
    """The images sigma_i^(+-1)(t_i) are one-pair chains of the image memo,
    built when the algebra checks its inverses and shared by an algebra
    built again."""
    memo = gwa._image_product
    memo.cache_clear()
    a = reduction_gwa()
    assert memo.cache_info().misses == 4
    t1, t2 = a.t(1), a.t(2)
    sample = (t1, t2, t1 * t2 + BasePoly.const(2, HA),
              (t1 ** 2).scaled(HB / (HA + 1)) + t2.scaled(HA - HB),
              BasePoly.const(2, HB + 3))
    b = reduction_gwa()
    for i, s in enumerate(b.sigmas, start=1):
        for u in sample:
            assert b.sigma_pow(i, -1, b.sigma(i, u)) == u
            assert b.sigma(i, b.sigma_pow(i, -1, u)) == u
            assert b.sigma_pow(i, -1, u) == _one_step(s, u, -1)
    assert memo.cache_info().misses == 4


def test_phi_examples(alg, real):
    assert real.phi(alg.one()) == dra.DRA_ONE
    # t_i maps to the product of normalized generators
    ng = dra.normalized_gens()
    assert real.base_image(alg.t(1)) == dra.diamond(ng.d1, ng.x1)
    assert real.base_image(alg.t(2)) == dra.diamond(ng.d2, ng.x2)
    # twisted scalar passage through the realization
    lhs = real.phi(alg.x(1) * alg.base(BasePoly.const(2, HA)))
    rhs = real.phi(alg.base(BasePoly.const(2, HA - 1)) * alg.x(1))
    assert lhs == rhs


def test_phi_a1_identities(alg, real):
    for i in (1, 2):
        lhs = real.base_image(alg.sigma(i, alg.t(i)))
        rhs = dra.diamond(real.x_hat[i - 1], real.d_hat[i - 1])
        assert lhs == rhs


def rand_gwa_elem(rng, alg, bound):
    """One or two terms with exponents in [-bound, bound]^2, each with an
    affine coefficient, times t_1 or t_2 or not."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        m = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        c = BasePoly.const(2, HA * rng.randint(-2, 2)
                           + HB * rng.randint(-2, 2) + rng.randint(1, 3))
        i = rng.randint(0, 2)
        terms[m] = c * alg.t(i) if i else c
    return GwaElem(alg, terms)


def test_phi_is_multiplicative_on_random_elements(alg, real):
    """The realization theorem as a second engine: GWA products only shift
    and multiply, while the diamond side runs the extremal projector."""
    rng = random.Random(63)
    for _ in range(20):
        u, v = rand_gwa_elem(rng, alg, 1), rand_gwa_elem(rng, alg, 1)
        assert real.phi(u * v) == dra.diamond(real.phi(u), real.phi(v))


def test_phi_is_multiplicative_at_higher_degree(alg, real):
    """The same at the exponents of the gwa_native benchmark, [-2, 2]^2."""
    rng = random.Random(64)
    for _ in range(10):
        u, v = rand_gwa_elem(rng, alg, 2), rand_gwa_elem(rng, alg, 2)
        assert real.phi(u * v) == dra.diamond(real.phi(u), real.phi(v))


def test_gwa_iso_report():
    from drasp4.verify import gwa_iso_report
    rep = gwa_iso_report(maxdeg=2)
    assert rep.passed


def test_json_shape(alg):
    u = alg.x(1) * alg.y(2) + alg.base(alg.t(1))
    rows = gwa_json(u)
    kinds = {tuple(r["m"]) for r in rows}
    assert kinds == {(1, -1), (0, 0)}


def test_out_of_range_indices_raise(alg):
    one = BasePoly.const(2, 1)
    calls = [lambda: alg.t(3), lambda: alg.t(0), lambda: BasePoly.tvar(2, 3),
             lambda: alg.x(3), lambda: alg.y(0), lambda: alg.sigma(3, one),
             lambda: alg.sigma_pow(0, 2, one)]
    for call in calls:
        with pytest.raises(ValueError, match="outside 1..2"):
            call()


def test_exponent_vectors_of_the_wrong_length_raise(alg):
    one = BasePoly.const(2, 1)
    for m in ((1,), (1, 0, 5)):
        with pytest.raises(ValueError, match="does not have 2 entries"):
            alg.sigma_vec(m, one)
        with pytest.raises(ValueError, match="does not have 2 entries"):
            GwaElem(alg, {m: one})
        with pytest.raises(ValueError, match="does not have 2 entries"):
            BasePoly(2, {m: RF_ONE})


@pytest.mark.parametrize("call", [
    lambda alg: BasePoly.tvar(2, 1) * BasePoly.tvar(3, 3),
    lambda alg: alg.sigma(1, BasePoly.tvar(3, 3)),
    lambda alg: alg.sigma_pow(1, 2, BasePoly.tvar(3, 3)),
    lambda alg: alg.sigma_vec((1, 0), BasePoly.tvar(3, 3)),
    lambda alg: GwaElem(alg, {(1, 0): BasePoly.tvar(3, 3)}) * alg.x(1),
    lambda alg: alg.x(1) * GwaElem(alg, {(1, 0): BasePoly.tvar(3, 3)}),
], ids=["basepoly_mul", "sigma", "sigma_pow", "sigma_vec", "elem_times_x",
        "x_times_elem"])
def test_coefficients_of_another_rank_raise(alg, call):
    # these used to drop t3 or keep it unchanged: (1) t1, (1) t3, X1^2
    with pytest.raises(ValueError, match="rank 3 where rank 2 is expected"):
        call(alg)


def _contraction(a, i, p, q):
    """c with Z_i^p Z_i^q = c Z_i^(p+q), peeled one pair at a time from
    the middle: X_i^p Y_i = sigma_i^p(t_i) X_i^(p-1) and
    Y_i^-p X_i = sigma_i^(p+1)(t_i) Y_i^(-p-1), each image by sigma_pow."""
    c = BasePoly.const(a.rank, 1)
    while p * q < 0:
        k = p if p > 0 else p + 1
        c = c * a.sigma_pow(i, k, a.t(i))
        step = 1 if p > 0 else -1
        p, q = p - step, q + step
    return c


def _reference_product(u, v):
    """u v by the term formula b1 sigma^m1(b2) prod_i c_i(m1_i, m2_i),
    whole base polynomials at a time."""
    a = u.alg
    out = a.zero()
    for m1, b1 in u.terms.items():
        for m2, b2 in v.terms.items():
            coeff = b1 * a.sigma_vec(m1, b2)
            for i, (p, q) in enumerate(zip(m1, m2), start=1):
                if p * q < 0:
                    coeff = coeff * _contraction(a, i, p, q)
            out = out + GwaElem(a, {tuple(p + q for p, q in zip(m1, m2)):
                                    coeff})
    return out


_QUADRATIC_T = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _rand_scalar(rng):
    """An affine form, or an affine form over a shifted coroot form."""
    f = HA * rng.randint(-2, 2) + HB * rng.randint(-2, 2) + rng.randint(1, 3)
    if rng.random() < 0.5:
        return f
    line = rng.choice((HA, HB, HA + HB, HA + 2 * HB))
    return f / (line + rng.randint(-2, 2))


def _rand_quadratic_elem(rng, a, bound):
    """One or two terms with exponents in [-bound, bound]^2, each with a
    base polynomial of one to three terms of degree at most 2 in t."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        m = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        monos = rng.sample(_QUADRATIC_T, rng.randint(1, 3))
        terms[m] = BasePoly(2, {e: _rand_scalar(rng) for e in monos})
    return GwaElem(a, terms)


def _ansatz_gwa():
    from drasp4.cli import load_ansatz
    return load_ansatz({"shift": [[-1, 0], [1, -1]], "c": ["Ha+Hb", "Hb"],
                        "g": [["2", "0"], ["0", "Hb+1"]]})


@pytest.mark.parametrize("make", [reduction_gwa, lambda: weyl_gwa(2),
                                  _ansatz_gwa])
def test_products_agree_with_the_whole_polynomial_formula(make):
    """The product reads each pair of base monomials from the basis-term
    memo; the reference multiplies whole base polynomials."""
    a = make()
    rng = random.Random(67)
    for _ in range(15):
        u, v = _rand_quadratic_elem(rng, a, 2), _rand_quadratic_elem(rng, a, 2)
        assert u * v == _reference_product(u, v), (u, v)


def _reference_basis_terms(a):
    """t^e1 sigma^m1(t^e2) times the peeled contraction c_i(m1_i, m2_i) of
    each index, at Z^(m1 + m2), as a function of the basis terms (m1, e1)
    and (m2, e2); each contraction is peeled once."""
    contraction = cache(lambda i, p, q: _contraction(a, i, p, q))

    def term(k1, k2):
        (m1, e1), (m2, e2) = k1, k2
        out = BasePoly(a.rank, {e1: RF_ONE}) * a.sigma_vec(
            m1, BasePoly(a.rank, {e2: RF_ONE}))
        for i, (p, q) in enumerate(zip(m1, m2), start=1):
            out = out * contraction(i, p, q)
        m = tuple(p + q for p, q in zip(m1, m2))
        return {(m, e): v for e, v in out.terms.items()}
    return term


def _basis_keys(degree, bound):
    """Every pair of rank-two basis terms (m1, e1), (m2, e2) with
    |e2| <= degree and |m1_i|, |m2_i| <= bound, each with a seeded e1 of
    degree at most two."""
    rng = random.Random(70)
    exps = [e for e in itertools.product(range(degree + 1), repeat=2)
            if sum(e) <= degree]
    box = list(itertools.product(range(-bound, bound + 1), repeat=2))
    for e2 in exps:
        for m1 in box:
            for m2 in box:
                e1 = (rng.randint(0, 2), rng.randint(0, 1))
                yield (m1, e1), (m2, e2)


@pytest.mark.parametrize("make, sample", [
    (lambda: weyl_gwa(2), None), (_ansatz_gwa, None), (reduction_gwa, 40),
], ids=["weyl", "ansatz", "reduction"])
def test_basis_term_is_the_product_of_its_images(make, sample):
    """Each term pair, read from the chain of images, against t^e1
    sigma^m1(t^e2) times the contractions peeled one pair at a time: every
    pair with |e2| <= 1 and exponents up to 2, or a seeded sample of pairs
    with |e2| <= 2 and exponents up to 3 in the reduction instance."""
    a = make()
    reference = _reference_basis_terms(a)
    if sample is None:
        keys = list(_basis_keys(1, 2))
        assert len(keys) == 1875
    else:
        keys = random.Random(69).sample(list(_basis_keys(2, 3)), sample)
    for key in keys:
        assert gwa._term_basis(a, *key) == reference(*key), key


def _stack_depth() -> int:
    """The number of frames on the stack of the caller."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_contraction_chains_stay_within_the_stack():
    """X1^k Y1^k contracts a chain of k images, which is built one prefix
    at a time, so it runs under a recursion limit below k."""
    limit, low = sys.getrecursionlimit(), _stack_depth() + 40
    k = low + 5
    w = weyl_gwa(1)
    gwa._term_basis.cache_clear()
    gwa._image_product.cache_clear()
    sys.setrecursionlimit(low)
    try:
        product = w.x(1) ** k * w.y(1) ** k
    finally:
        sys.setrecursionlimit(limit)
    x1, d1 = WeylElem.gen("x1"), WeylElem.gen("d1")
    assert weyl_gwa_image(product) \
        == power(x1, k, W_ONE) * power(d1, k, W_ONE)


def test_phi_is_multiplicative_on_quadratic_t_coefficients(alg, real):
    """phi(u v) = phi(u) <> phi(v) with a coefficient of degree 2 in t on
    the left; one-term factors keep the diamond side small."""
    rng = random.Random(68)

    def one_term(monos):
        m = (rng.randint(-1, 1), rng.randint(-1, 1))
        return GwaElem(alg, {m: BasePoly(2, {rng.choice(monos):
                                             _rand_scalar(rng)})})

    for _ in range(4):
        u, v = one_term(_QUADRATIC_T[3:]), one_term(_QUADRATIC_T[:3])
        assert real.phi(u * v) == dra.diamond(real.phi(u), real.phi(v))


@pytest.mark.parametrize("n", (2, 3))
def test_phi_is_multiplicative_on_the_frontier_pair(real, n):
    """phi(X1^n X2^n Y1^n Y2^n) = phi(X1^n X2^n) <> phi(Y1^n Y2^n): the
    GWA product against the diamond product of the two images, which runs
    the GWA term product, base_image and the diamond at once.  CI runs the
    same check at n = 4."""
    a = real.alg
    u = a.x(1) ** n * a.x(2) ** n
    v = a.y(1) ** n * a.y(2) ** n
    assert real.phi(u * v) == dra.diamond(real.phi(u), real.phi(v))
