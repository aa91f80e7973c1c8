import itertools
import random

import drasp4
from drasp4 import DraElem, GwaRealization, diamond
from drasp4.scalars import HA, HB, poly_gcd

NAMES = {
    "drasp4.scalars._dir_split",
    "drasp4.scalars._poly_gcd_impl",
    "drasp4.weyl._mono_mul",
    "drasp4.ambient._norm_word",
    "drasp4.dra.projector_coeff",
    "drasp4.dra._apply_p",
    "drasp4.dra._basis_diamond",
    "drasp4.gwa._t_monomial_image",
}


def sample():
    real = GwaRealization()
    t1 = real.alg.t(1)
    return (diamond(DraElem.gen("x2"), DraElem.gen("d2")),
            real.phi(real.alg.x(1).scaled(t1 * t1)),
            poly_gcd(((HA + 1) * (HB + 2)).num, ((HA + 1) * (HA + HB)).num))


def test_cache_info_names_every_engine_cache():
    assert set(drasp4.cache_info()) == NAMES


def test_clear_caches_empties_them_and_results_stay_equal():
    first = sample()
    assert all(info.currsize > 0 for info in drasp4.cache_info().values())
    drasp4.clear_caches()
    assert all(info.currsize == 0 for info in drasp4.cache_info().values())
    assert sample() == first


def test_caches_are_keyed_per_monomial():
    rng = random.Random(81)
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]

    def three_terms():
        return DraElem({m: HA * rng.randint(1, 3) + HB * rng.randint(-1, 1)
                        + rng.randint(-2, 2) for m in rng.sample(monos, 3)})

    u, v = three_terms(), three_terms()
    drasp4.clear_caches()
    diamond(u, v)
    info = drasp4.cache_info()
    assert info["drasp4.dra._apply_p"].currsize <= 3
    assert info["drasp4.dra._basis_diamond"].currsize == 9
    drasp4.clear_caches()
    assert drasp4.cache_info()["drasp4.dra._basis_diamond"].currsize == 0
