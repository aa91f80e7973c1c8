import itertools
import random

import drasp4
from drasp4 import (DraElem, GwaRealization, diamond, dra, reduction_gwa,
                    weyl_gwa, weyl_gwa_image)
from drasp4.scalars import HA, HB, RF_ONE, poly_gcd
from drasp4.weyl import D1, X1

NAMES = {
    "drasp4.weyl._mono_mul",
    "drasp4.ambient._norm_word",
    "drasp4.dra._leaf_terms",
    "drasp4.dra._basis_diamond",
    "drasp4.dra.presentation",
    "drasp4.gwa._image_product",
    "drasp4.gwa._term_basis",
    "drasp4.gwa._t_monomial_image",
    "drasp4.gwa._weyl_mono_image",
}


def sample():
    real = GwaRealization()
    t1 = real.alg.t(1)
    return (diamond(DraElem.gen("x2"), DraElem({(0, 2, 0, 0): RF_ONE})),
            real.phi(real.alg.x(1).scaled(t1 * t1)),
            poly_gcd(((HA + 1) * (HB + 2)).num, ((HA + 1) * (HA + HB)).num),
            (X1 * X1) * (D1 * D1),
            real.alg.x(1) * real.alg.y(1),
            weyl_gwa_image(weyl_gwa(2).x(1)))


def test_cache_info_names_every_engine_cache():
    assert set(drasp4.cache_info()) == NAMES


def test_clear_caches_empties_them_and_results_stay_equal():
    drasp4.clear_caches()
    first = sample()
    assert all(info.currsize > 0 for info in drasp4.cache_info().values())
    drasp4.clear_caches()
    assert all(info.currsize == 0 for info in drasp4.cache_info().values())
    assert sample() == first


def test_caches_are_keyed_per_monomial(monkeypatch):
    rng = random.Random(81)
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]

    def three_terms():
        return DraElem({m: HA * rng.randint(1, 3) + HB * rng.randint(-1, 1)
                        + rng.randint(-2, 2) for m in rng.sample(monos, 3)})

    u, v = three_terms(), three_terms()
    assert max(sum(n) for n in v.terms) == 2
    drasp4.clear_caches()
    projected = []
    apply_p = dra.apply_p

    def recording(v, *order):
        projected.extend(v.terms)
        return apply_p(v, *order)

    monkeypatch.setattr(dra, "apply_p", recording)
    diamond(u, v)
    # wider right factors are peeled one generator at a time
    assert projected and all(sum(mono) <= 1 for mono in projected)
    # and each generator is projected once, through the leaf's memo
    assert len(projected) == len(set(projected))
    # the memo holds the one-letter step w <> g of a degree-2 factor w g
    n = next(n for n in v.terms if sum(n) == 2)
    i = max(k for k, e in enumerate(n) if e)
    w = n[:i] + (n[i] - 1,) + n[i + 1:]
    before = dra._basis_diamond.cache_info()
    dra._basis_diamond(w, dra._UNITS[i])
    after = dra._basis_diamond.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses
    drasp4.clear_caches()
    assert drasp4.cache_info()["drasp4.dra._basis_diamond"].currsize == 0


def test_gwa_caches_stay_bounded_across_rebuilt_algebras():
    """Each report builds its algebra afresh; equal algebras share entries."""
    from drasp4.verify import gwa_iso_report, sigma_commute_report

    def gwa_sizes():
        return {name: info.currsize
                for name, info in drasp4.cache_info().items()
                if name.startswith("drasp4.gwa.")}

    gwa_iso_report(3)
    sigma_commute_report()
    before = gwa_sizes()
    gwa_iso_report(3)
    sigma_commute_report()
    assert gwa_sizes() == before


def test_gwa_basis_terms_are_shared_across_constants():
    """A GWA product reads each product of two basis terms from one memo
    entry, whatever the scalars."""
    from drasp4.gwa import BasePoly, GwaElem, _term_basis
    alg = reduction_gwa()
    t1 = alg.t(1)

    def product(m1, c1, c2):
        u = GwaElem(alg, {m1: (t1 * t1).scaled(c1)})
        v = GwaElem(alg, {(-1, 0): t1.scaled(c2) + BasePoly.const(2, c1)})
        return u * v

    drasp4.clear_caches()
    product((1, 0), HA + 1, HB)
    first = _term_basis.cache_info()
    assert first.currsize == 2
    product((1, 0), HA - HB, 3 * HB + 2)
    again = _term_basis.cache_info()
    assert again.currsize == first.currsize
    assert again.hits == first.hits + 2
    drasp4.clear_caches()
    assert _term_basis.cache_info().currsize == 0


def test_basis_terms_share_the_prefixes_of_their_image_chains():
    """The products X1 (t1^2 Y1) and X1 (t1^3 Y1) are the chains of three
    and four images sigma_1(t_1), two or three from sigma(t^e) and one
    contraction.  The second reads the three prefixes it shares and
    builds only its whole chain, from the longest of them and the
    one-pair chain of its last image."""
    from drasp4.gwa import _image_product, _term_basis
    alg = reduction_gwa()
    drasp4.clear_caches()
    _term_basis(alg, ((1, 0), (0, 0)), ((-1, 0), (2, 0)))
    first = _image_product.cache_info()
    assert first.currsize == 3
    _term_basis(alg, ((1, 0), (0, 0)), ((-1, 0), (3, 0)))
    again = _image_product.cache_info()
    assert again.misses == first.misses + 1
    assert again.hits == first.hits + 5
    drasp4.clear_caches()
