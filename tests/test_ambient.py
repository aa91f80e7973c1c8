import itertools
import json
import random
from pathlib import Path

import pytest

from drasp4 import sp4
from drasp4.scalars import HA, HB, RF_ONE, RatFunc
from drasp4.ambient import (BRACKET, AmbientElem, LETTERS, _letter_terms,
                            _norm_word, ad_e, amb_json, amb_str, amb_theta,
                            e_gen, f_gen, mono_weight, mono_word, red)

FIXTURES = Path(__file__).parent / "fixtures"
DERIVED = json.loads((FIXTURES / "derived_values.json").read_text())

X1 = AmbientElem.gen("x1")
X2 = AmbientElem.gen("x2")
D1 = AmbientElem.gen("d1")
D2 = AmbientElem.gen("d2")


def rand_coeff(rng):
    num = HA * rng.randint(-1, 1) + HB * rng.randint(-1, 1) + rng.randint(-2, 2)
    if not num:
        num = RF_ONE
    if rng.random() < 0.4:
        return num / (HA + rng.randint(1, 3))
    return num


def rand_elem(rng, letters=LETTERS, max_letters=2):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * 12
        for _ in range(rng.randint(0, max_letters)):
            exps[rng.randrange(12)] += 1
        terms[tuple(exps)] = rand_coeff(rng)
    return AmbientElem(terms)


def test_bracket_table_matches_every_direct_bracket():
    """The table brackets each unordered pair once; every one of the 144
    entries must still equal the bracket computed directly."""
    direct = [[_letter_terms(sp4.coordinates(
        sp4.IMAGE[a].bracket(sp4.IMAGE[b]))) for b in LETTERS]
        for a in LETTERS]
    assert len(BRACKET) == len(LETTERS)
    for i, a in enumerate(LETTERS):
        assert len(BRACKET[i]) == len(LETTERS)
        assert BRACKET[i][i] == [], a
        for j, b in enumerate(LETTERS):
            assert BRACKET[i][j] == direct[i][j], (a, b)


def test_scalar_passage():
    assert X1 * AmbientElem.scalar(HA) == X1.scaled(HA - 1)
    assert X1 * AmbientElem.scalar(HB) == X1.scaled(HB)
    c = (HA + 2 * HB) / (HB + 1)
    assert D2 * AmbientElem.scalar(c) == D2.scaled(c.shift(-1, 1))


def test_product_examples():
    ea_x2 = e_gen("a") * X2
    expect = AmbientElem({(0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0): RF_ONE,
                          (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0): RF_ONE})
    assert ea_x2 == expect
    assert e_gen("b") * X1 == AmbientElem(
        {(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1): RF_ONE})


def test_commutator_scalars():
    for g in sp4.POS_ROOTS:
        ca, cb, c0 = sp4.COROOT_FORM[g]
        expect = AmbientElem.scalar(HA * ca + HB * cb + (c0 - sp4.COROOT_SHIFT[g]))
        got = e_gen(g) * f_gen(g) - f_gen(g) * e_gen(g)
        assert got == expect


def test_associativity_random():
    rng = random.Random(41)
    for _ in range(30):
        u, v, w = rand_elem(rng), rand_elem(rng), rand_elem(rng)
        assert (u * v) * w == u * (v * w)


def test_pbw_straightening_confluent():
    # the same word normalized through different association orders gives
    # the identical canonical form, and every output monomial is ordered
    rng = random.Random(40)
    for _ in range(25):
        word = [rng.choice(LETTERS) for _ in range(rng.randint(2, 5))]
        gens = [AmbientElem.gen(n) for n in word]
        left = AmbientElem.scalar(1)
        for g in gens:
            left = left * g
        right = AmbientElem.scalar(1)
        for g in reversed(gens):
            right = g * right
        assert left == right
        for mono in left.terms:
            letters = [i for i in range(12) for _ in range(mono[i])]
            assert letters == sorted(letters)


def test_weyl_only_products_match_straightening():
    # products of Weyl-only monomials are read off the Weyl algebra; the
    # straightening of the joined word is the reference
    rng = random.Random(14)
    for _ in range(60):
        m1, m2 = ((0,) * 4 + tuple(rng.randint(0, 3) for _ in range(4))
                  + (0,) * 4 for _ in range(2))
        got = AmbientElem({m1: RF_ONE}) * AmbientElem({m2: RF_ONE})
        assert got == AmbientElem(_norm_word(mono_word(m1) + mono_word(m2)))


def test_weight_consistency():
    rng = random.Random(42)
    for name in LETTERS:
        g = AmbientElem.gen(name)
        wa, wb = sp4.WEIGHT[name]
        for _ in range(5):
            c = rand_coeff(rng)
            assert AmbientElem.scalar(c) * g == g * AmbientElem.scalar(
                c.shift(wa, wb))


def test_zeta_is_lie_homomorphism():
    def zeta(sym):
        if sym == "Ha":
            return AmbientElem.scalar(HA)
        if sym == "Hb":
            return AmbientElem.scalar(HB)
        return AmbientElem.gen(sym)

    for a in sp4.BASIS:
        for b in sp4.BASIS:
            za, zb = zeta(a), zeta(b)
            br = sp4.lie_bracket(sp4.LieElem.basis(a), sp4.LieElem.basis(b))
            rhs = AmbientElem.scalar(RatFunc.const(br.const))
            for sym, cf in br.coords.items():
                rhs = rhs + zeta(sym).scaled(RatFunc.const(cf))
            assert za * zb - zb * za == rhs, (a, b)


def test_ad_examples_and_nilpotence():
    assert ad_e("a", X2) == X1
    for g in sp4.POS_ROOTS:
        assert ad_e(g, X1).is_zero()
    assert amb_str(ad_e("b", D2)) == DERIVED["ad_eb_d2"]
    rng = random.Random(43)
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 4]
    for _ in range(12):
        m = rng.choice(monos)
        u = AmbientElem({(0, 0, 0, 0) + m + (0, 0, 0, 0): RF_ONE})
        for g in sp4.POS_ROOTS:
            cur = u
            for _ in range(8):
                cur = red(ad_e(g, cur), "I")
                if cur.is_zero():
                    break
            assert cur.is_zero(), (m, g)


def test_red():
    mix = e_gen("a") * X2 + f_gen("a") * X2
    assert red(mix, "I") == AmbientElem(
        {(0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0): RF_ONE,
         (0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0): RF_ONE})
    assert red(red(mix, "I"), "I") == red(mix, "I")
    assert red(f_gen("a") * X2, "J").is_zero()
    v = X1.scaled(HA) + D2
    assert red(v, "I") == v and red(v, "II") == v
    with pytest.raises(ValueError):
        red(v, "K")


def test_theta():
    assert amb_theta(X1) == D1
    assert amb_theta(e_gen("b")) == f_gen("b")
    rng = random.Random(44)
    for _ in range(25):
        u, v = rand_elem(rng), rand_elem(rng)
        assert amb_theta(amb_theta(u)) == u
        assert amb_theta(u * v) == amb_theta(v) * amb_theta(u)
    # raising terms map to lowering terms
    assert red(amb_theta(e_gen("a") * X2), "J") == amb_theta(
        red(e_gen("a") * X2, "I"))


def test_renders():
    u = e_gen("a") * X2
    assert amb_str(u) == "(1) x2 Ea + (1) x1"
    rows = amb_json(u)
    assert {"f": [0, 0, 0, 0], "w": [0, 0, 1, 0], "e": [1, 0, 0, 0],
            "coeff": {"num": [[0, 0, "1", "0"]], "den": [[0, 0, "1", "0"]]}} in rows


def test_ad_e_on_coset_representatives_reduces_to_left_product():
    # A coset representative has no raising letter, so u E is normal-ordered
    # and dropped by red(., I); the projector relies on this.
    c = (HA + 2 * HB + 1) / (HB + 2)
    monos = [m for m in itertools.product(range(4), repeat=8) if sum(m) <= 3]
    for m in monos:
        u = AmbientElem({m + (0, 0, 0, 0): c})
        for g in sp4.POS_ROOTS:
            assert red(ad_e(g, u), "I") == red(e_gen(g) * u, "I"), (m, g)
