import itertools
import json
import random
from pathlib import Path

import pytest

from drasp4 import sp4
from drasp4.scalars import HA, HB, RF_ONE, RF_ZERO
from drasp4.ambient import AmbientElem, e_gen, red
from drasp4.dra import (D1_BAR, D2_BAR, DRA_ONE, DraElem, TruncationError,
                        X1_BAR, X2_BAR, apply_p, apply_p_root, diamond,
                        diamond_commutator, diamond_product, dra_json, dra_str, dra_theta,
                        h_form, normalized_gens, presentation,
                        projector_coeff, truncation_margin)
from drasp4.verify import lemma32_rhs

FIXTURES = Path(__file__).parent / "fixtures"
DERIVED = json.loads((FIXTURES / "derived_values.json").read_text())


def test_projector_coefficients():
    for g in sp4.POS_ROOTS:
        h = h_form(g)
        assert projector_coeff(g, 0) == RF_ONE
        assert projector_coeff(g, 1) == -(RF_ONE / (h + 2))
        assert projector_coeff(g, 2) == RF_ONE / ((h + 2) * (h + 3) * 2)


def test_single_factor_example():
    got = apply_p_root("a", AmbientElem.gen("x2"))
    from drasp4.ambient import amb_str
    assert amb_str(got) == DERIVED["proj_alpha_x2"]


def test_projector_fixes_invariants():
    x1 = AmbientElem.gen("x1")
    for g in sp4.POS_ROOTS:
        assert apply_p_root(g, x1) == x1
    assert apply_p(x1) == x1
    one = AmbientElem.scalar(1)
    assert apply_p(one) == one
    c = AmbientElem.scalar((HA + 1) / (HB - 2))
    assert apply_p(c) == c


def test_projector_output_killed_by_raising_ideal():
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]
    for m in monos:
        v = DraElem({m: RF_ONE}).to_ambient()
        pv = apply_p(v)
        for g in (sp4.ALPHA, sp4.BETA):
            assert red(e_gen(g) * pv, "I").is_zero(), m


def test_projector_idempotent_on_samples():
    for m in ((0, 1, 1, 0), (1, 0, 1, 1), (0, 0, 2, 0)):
        v = DraElem({m: RF_ONE}).to_ambient()
        pv = apply_p(v)
        assert apply_p(pv) == pv


def test_both_convex_orders_agree():
    monos = [m for m in itertools.product(range(4), repeat=4) if sum(m) <= 3]
    for m in monos:
        v = DraElem({m: RF_ONE}).to_ambient()
        assert apply_p(v, sp4.CONVEX_ORDER) == apply_p(v, sp4.CONVEX_ORDER_REV)


def test_projected_product_fixture():
    w = AmbientElem({(0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0): RF_ONE})
    from drasp4.ambient import amb_str
    assert amb_str(red(apply_p(w), "II")) == DERIVED["proj_d2x2_mod_ii"]


def test_lemma_congruences():
    rhs = lemma32_rhs()
    assert diamond(D2_BAR, X2_BAR) == rhs["d2*x2"]
    assert diamond(X2_BAR, D2_BAR) == rhs["x2*d2"]
    assert diamond(X1_BAR, D1_BAR) == rhs["x1*d1"]
    assert dra_str(diamond(D2_BAR, X2_BAR)) == DERIVED["diamond_d2_x2"]


def test_diamond_examples():
    assert dra_str(diamond(X1_BAR, X2_BAR)) == DERIVED["diamond_x1_x2"]
    v = diamond(D2_BAR, X2_BAR)
    assert diamond(DRA_ONE, v) == v
    assert diamond(v, DRA_ONE) == v


def rand_dra(rng):
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]
    terms = {}
    for _ in range(rng.randint(1, 2)):
        num = HA * rng.randint(-1, 1) + HB * rng.randint(-1, 1) + rng.randint(-2, 2)
        if not num:
            num = RF_ONE
        coeff = num / (h_form(rng.choice(sp4.POS_ROOTS)) + rng.randint(0, 2)) \
            if rng.random() < 0.4 else num
        terms[rng.choice(monos)] = coeff
    return DraElem(terms)


def test_diamond_associative_random():
    rng = random.Random(51)
    for _ in range(6):
        u, v, w = rand_dra(rng), rand_dra(rng), rand_dra(rng)
        assert diamond(diamond(u, v), w) == diamond(u, diamond(v, w))


def test_theta():
    assert dra_theta(X1_BAR) == D1_BAR
    assert dra_theta(dra_theta(diamond(X2_BAR, D2_BAR))) == diamond(X2_BAR, D2_BAR)
    rng = random.Random(52)
    for _ in range(8):
        u, v = rand_dra(rng), rand_dra(rng)
        assert dra_theta(diamond(u, v)) == diamond(dra_theta(v), dra_theta(u))


def test_theta_mirrors_relations():
    # each side of the swap relation maps to the matching side of its mirror
    swap = RF_ONE + RF_ONE / (HA + 1)
    assert dra_theta(diamond(X1_BAR, X2_BAR)) == diamond(D2_BAR, D1_BAR)
    assert dra_theta(diamond(X2_BAR, X1_BAR).scaled(swap)) \
        == diamond(D1_BAR, D2_BAR).rmul_scalar(swap)
    hba = h_form(sp4.BETA_A)
    swap_ba = RF_ONE + RF_ONE / (hba + 1)
    assert dra_theta(diamond(X1_BAR, D2_BAR)) == diamond(X2_BAR, D1_BAR)
    assert dra_theta(diamond(D2_BAR, X1_BAR).scaled(swap_ba)) \
        == diamond(D1_BAR, X2_BAR).rmul_scalar(swap_ba)


def test_normalized_gens():
    ng = normalized_gens()
    assert ng.x1 == X1_BAR
    assert ng.x2 == X2_BAR.scaled(HA + 2)
    hba = h_form(sp4.BETA_A)
    assert ng.d2 == D2_BAR.scaled(hba + 2)
    assert ng.d1 == D1_BAR.scaled((HA + 2) * (hba + 2))
    for a, b in ((ng.x1, ng.x2), (ng.d1, ng.d2), (ng.x1, ng.d2), (ng.x2, ng.d1)):
        assert diamond_commutator(a, b).is_zero()


def test_presentation_table():
    t = presentation()
    assert t.a == HA + 1 and t.d == HB + 1
    assert t.b == h_form(sp4.BETA_2A) + 1
    assert t.c == h_form(sp4.BETA_A) + 1
    (f11, f12), (f21, f22) = t.f
    assert f22 == (HB + 2) / (HB + 1)
    assert f12.limit_inf() == RF_ZERO.const_value()
    assert t.chat[0] == -HA * (HA + 2 * HB + 3)


def test_truncation_margin_env(monkeypatch):
    monkeypatch.setenv("DRASP4_MAX_PROJECTOR_K", "12")
    assert truncation_margin() == 12
    monkeypatch.setenv("DRASP4_MAX_PROJECTOR_K", "3")
    with pytest.raises(ValueError):
        truncation_margin()
    monkeypatch.setenv("DRASP4_MAX_PROJECTOR_K", "x")
    with pytest.raises(ValueError):
        truncation_margin()
    monkeypatch.delenv("DRASP4_MAX_PROJECTOR_K")
    assert truncation_margin() == 8


def test_truncation_error_trips_on_tiny_margin():
    v = AmbientElem({(0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0): RF_ONE})
    with pytest.raises(TruncationError):
        apply_p_root("a", v, margin=-6)
    # a result cached under the default margin must not answer for another
    d1 = D1_BAR.to_ambient()
    apply_p(d1)
    with pytest.raises(TruncationError):
        apply_p(d1, margin=-6)


def test_diamond_product_is_the_left_fold():
    assert diamond_product([]) == DRA_ONE
    assert diamond_product([X1_BAR, X2_BAR]) == diamond(X1_BAR, X2_BAR)
    factors = [D1_BAR, X2_BAR, D1_BAR]
    assert diamond_product(iter(factors)) == diamond(
        diamond(diamond(DRA_ONE, D1_BAR), X2_BAR), D1_BAR)


def test_json_render():
    rows = dra_json(diamond(X1_BAR, X2_BAR))
    assert rows == [{"w": [0, 0, 1, 1],
                     "coeff": {"num": [[1, 0, "1", "0"], [0, 0, "2", "0"]],
                               "den": [[1, 0, "1", "0"], [0, 0, "1", "0"]]}}]
