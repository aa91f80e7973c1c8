from fractions import Fraction

import pytest

from drasp4 import sp4
from drasp4.scalars import GaussRat
from drasp4.weyl import D1, D2, W_ONE, WeylElem, X1, X2


def test_root_vector_images():
    assert sp4.osc("Ea") == X1 * D2
    assert sp4.osc("Eba") == (X1 * X2).scaled(GaussRat(0, 1))
    assert sp4.osc("Eb2a") == (X1 * X1).scaled(GaussRat(0, Fraction(1, 2)))
    assert sp4.osc("Fb") == (D2 * D2).scaled(GaussRat(0, Fraction(1, 2)))
    assert sp4.osc("Ha") == X1 * D1 - X2 * D2
    assert sp4.osc("Hb") == X2 * D2 + WeylElem.const(Fraction(1, 2))
    with pytest.raises(KeyError):
        sp4.osc("Ec")


def test_images_linearly_independent():
    for name in sp4.BASIS:
        dec = sp4.decompose(sp4.osc(name))
        assert dec == sp4.LieElem.basis(name)
    one = sp4.decompose(W_ONE)
    assert not one.coords and one.const == GaussRat(1)


def test_decompose_examples():
    dec = sp4.decompose(X1 * D1 + X2 * D2 + W_ONE)
    assert dec == sp4.LieElem.basis("Ha") + sp4.LieElem.basis("Hb").scaled(2)
    assert sp4.decompose(X1 * D2) == sp4.LieElem.basis("Ea")
    for w in (X1, X1 + W_ONE, X1 * X1 * X2, D1 + X2 * D2):
        with pytest.raises(ValueError, match="not in sp"):
            sp4.decompose(w)


def test_bracket_table():
    e = {g: sp4.LieElem.basis(sp4.E_NAME[g]) for g in sp4.POS_ROOTS}
    f = {g: sp4.LieElem.basis(sp4.F_NAME[g]) for g in sp4.POS_ROOTS}
    ha, hb = sp4.LieElem.basis("Ha"), sp4.LieElem.basis("Hb")
    assert sp4.lie_bracket(e["a"], e["b"]) == e["ba"]
    assert sp4.lie_bracket(e["a"], e["ba"]) == e["b2a"].scaled(2)
    assert sp4.lie_bracket(hb, e["a"]) == e["a"].scaled(-1)
    assert sp4.lie_bracket(ha, e["b"]) == e["b"].scaled(-2)
    # coroots of each triple in simple-coroot coordinates
    assert sp4.lie_bracket(e["ba"], f["ba"]) == ha + hb.scaled(2)
    assert sp4.lie_bracket(e["b2a"], f["b2a"]) == ha + hb


def test_jacobi_all_basis_triples():
    basis = [sp4.LieElem.basis(s) for s in sp4.BASIS]
    for x in basis:
        for y in basis:
            for z in basis:
                total = sp4.lie_bracket(sp4.lie_bracket(x, y), z) \
                    + sp4.lie_bracket(sp4.lie_bracket(y, z), x) \
                    + sp4.lie_bracket(sp4.lie_bracket(z, x), y)
                assert total.is_zero()


def test_tau():
    for g in sp4.POS_ROOTS:
        e = sp4.LieElem.basis(sp4.E_NAME[g])
        f = sp4.LieElem.basis(sp4.F_NAME[g])
        assert sp4.tau(e) == f
        assert sp4.tau(f) == e
    assert sp4.tau(sp4.LieElem.basis("Ha")) == sp4.LieElem.basis("Ha")
    x = sp4.LieElem.basis("Ea") + sp4.LieElem.basis("Fb").scaled(GaussRat(0, 1))
    assert sp4.tau(sp4.tau(x)) == x
    # anti-automorphism on a sample pair
    y = sp4.LieElem.basis("Eb")
    assert sp4.tau(sp4.lie_bracket(x, y)) == sp4.lie_bracket(sp4.tau(y), sp4.tau(x))


def test_weight_table():
    expected = {
        "x1": (1, 0), "x2": (-1, 1), "d1": (-1, 0), "d2": (1, -1),
        "Ea": (2, -1), "Eb": (-2, 2), "Eba": (0, 1), "Eb2a": (2, 0),
    }
    for name, w in expected.items():
        assert sp4.WEIGHT[name] == w
        if name.startswith("E"):
            assert sp4.WEIGHT["F" + name[1:]] == (-w[0], -w[1])


def test_root_action_matches_weights():
    ha, hb = sp4.LieElem.basis("Ha"), sp4.LieElem.basis("Hb")
    for g in sp4.POS_ROOTS:
        e = sp4.LieElem.basis(sp4.E_NAME[g])
        wa, wb = sp4.ROOT_WEIGHT[g]
        assert sp4.lie_bracket(ha, e) == e.scaled(wa)
        assert sp4.lie_bracket(hb, e) == e.scaled(wb)


def test_coroot_forms():
    assert sp4.COROOT_FORM == {
        "a": (1, 0, 0), "b": (0, 1, 0), "ba": (1, 2, 2), "b2a": (1, 1, 1)}
    # pairing of each root against its own coroot is 2
    for g in sp4.POS_ROOTS:
        ca, cb, _ = sp4.COROOT_FORM[g]
        wa, wb = sp4.ROOT_WEIGHT[g]
        assert ca * wa + cb * wb == 2


def test_denominator_factor_diagnostic():
    from drasp4.scalars import HA, HB
    den = ((HA + 1) * (HA + 2 * HB + 5)).num
    factors = sp4.denominator_factors(den)
    assert factors is not None
    assert ("a", 1, 1) in factors and ("ba", 3, 1) in factors
    assert sp4.denominator_factors((HA * HA + HB).num) is None
    assert sp4.denominator_factors((HA + 19).num) == [("a", 19, 1)]
    big = ((HA + 2 * HB + 400) * (HB - 250) ** 2 * (HA + HB - 7)).num
    assert sp4.denominator_factors(big) == [("b", -250, 2), ("ba", 398, 1),
                                            ("b2a", -8, 1)]
    assert sp4.denominator_factors(((HA + 300) * (HA * HA + HB)).num) is None
