from fractions import Fraction

import pytest

from drasp4 import dra
from drasp4.scalars import (GR_ONE, GaussRat, HA, HB, Poly2, RF_ONE, RatFunc,
                            rf_sum)
from drasp4.weyl import W_ONE, WeylElem
from drasp4.ambient import AmbientElem
from drasp4.dra import DraElem
from drasp4.gwa import (BasePoly, GwaAlgebra, GwaElem, SkewAffineSigma,
                        weyl_gwa)
from drasp4.sparse import add_into, bilinear, linear, power
from drasp4.sp4 import SPAN, LieElem, decompose

ALG = weyl_gwa(1)

# (constructor, two keys, two nonzero coefficients) per element type
CASES = {
    "Poly2": (Poly2, (1, 0), (0, 2), GaussRat(2), GaussRat(0, 1)),
    "WeylElem": (WeylElem, (1, 0, 0, 0), (0, 0, 1, 1), GaussRat(3),
                 GaussRat(-1)),
    "AmbientElem": (AmbientElem, (1,) + (0,) * 11, (0,) * 11 + (2,), HA,
                    RF_ONE),
    "DraElem": (DraElem, (0, 1, 1, 0), (0, 0, 0, 0), HA + 1, HB),
    "BasePoly": (lambda t: BasePoly(2, t), (1, 0), (0, 1), HA, RF_ONE),
    "GwaElem": (lambda t: GwaElem(ALG, t), (1,), (-1,),
                BasePoly.const(1, 2), BasePoly.tvar(1, 1)),
    "LieElem": (LieElem, "Ea", "1", GaussRat(2), GaussRat(0, 1)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_element_container_protocol(name):
    make, k1, k2, c1, c2 = CASES[name]
    u = make({k1: c1, k2: c2})
    zero = u - u
    assert not zero and zero.is_zero() and zero.terms == {}
    assert (u - make({k1: c1})).terms == {k2: c2}
    assert (u + (-u)).terms == {}
    assert make({k1: c1, k2: c1 - c1}).terms == {k1: c1}

    v = make({k2: c2, k1: c1})
    assert u == v and hash(u) == hash(v)
    assert {u: "first"}[v] == "first"
    assert u != make({k1: c1})

    with pytest.raises(AttributeError):
        u.terms = {}
    with pytest.raises(AttributeError):
        u.other = 1


# per SparseTerms type: the unit key, the coefficient that 2 coerces to,
# the zero coefficient, the degree of make({k1: c1, k2: c2}) and its repr
# before the map
SCALAR_CASES = {
    "WeylElem": ((0, 0, 0, 0), GaussRat(2), GaussRat(0), 2, "WeylElem("),
    "AmbientElem": ((0,) * 12, RatFunc.const(2), RatFunc.const(0), 2,
                    "AmbientElem("),
    "DraElem": ((0, 0, 0, 0), RatFunc.const(2), RatFunc.const(0), 2,
                "DraElem("),
    "BasePoly": ((0, 0), RatFunc.const(2), RatFunc.const(0), 1,
                 "BasePoly(2, "),
    "GwaElem": ((0,), BasePoly.const(1, 2), BasePoly(1), 1,
                f"GwaElem({ALG!r}, "),
    "LieElem": ("1", GaussRat(2), GaussRat(0), 1, "LieElem("),
}


@pytest.mark.parametrize("name", sorted(SCALAR_CASES))
def test_shared_scalar_interface(name):
    make, k1, k2, c1, c2 = CASES[name]
    unit, two, zero, degree, head = SCALAR_CASES[name]
    u = make({k1: c1, k2: c2})
    assert u.scaled(2) == make({k1: two * c1, k2: two * c2})
    assert u.scaled(c2) == make({k1: c2 * c1, k2: c2 * c2})
    assert u.scaled(0) == make({}) and not u.scaled(0)

    s, z = make({unit: c1}), make({})
    assert s.is_scalar() and s.scalar_value() == c1
    assert z.is_scalar() and z.scalar_value() == zero
    assert type(z.scalar_value()) is type(zero)
    assert not u.is_scalar() and not make({k1: c1}).is_scalar()
    with pytest.raises(ValueError):
        u.scalar_value()

    assert (u.degree(), s.degree(), z.degree()) == (degree, 0, -1)
    assert repr(u) == f"{head}{u.terms!r})"


def test_extra_fields_take_part_in_equality():
    assert BasePoly(1) != BasePoly(2)
    # a non-empty map fixes the rank: its keys must have that many entries
    with pytest.raises(ValueError, match="does not have 3 entries"):
        BasePoly(3, {(0, 0): RF_ONE})
    # algebras are equal when their automorphisms are: u_1 -> u_1 - 2 here
    other = GwaAlgebra(1, [SkewAffineSigma(1, 1, (0, 0), RatFunc.const(-2),
                                           (RF_ONE,))])
    b = {(1,): BasePoly.const(1, 1)}
    assert GwaElem(ALG, b) != GwaElem(other, b)
    assert GwaElem(ALG, b) == GwaElem(ALG, dict(b))
    assert GwaElem(ALG, b) == GwaElem(weyl_gwa(1), b)


def test_sums_take_one_type_rank_and_algebra():
    """A sum of elements of two types is a TypeError, not an element of
    the left type; elements of one type with another rank or algebra are a
    ValueError."""
    x = {"WeylElem": WeylElem.gen("x1"), "AmbientElem": AmbientElem.gen("x1"),
         "DraElem": DraElem.gen("x1"), "LieElem": LieElem.basis("Ea")}
    for a in x.values():
        for b in (*x.values(), 1, GaussRat(1), RF_ONE):
            if b is a:
                continue
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
    with pytest.raises(ValueError, match="ranks or algebras"):
        BasePoly.tvar(2, 1) + BasePoly.tvar(3, 1)
    with pytest.raises(ValueError, match="ranks or algebras"):
        BasePoly.tvar(2, 1) - BasePoly.tvar(1, 1)
    other = GwaAlgebra(1, [SkewAffineSigma(1, 1, (0, 0), RatFunc.const(-2),
                                           (RF_ONE,))])
    b = {(1,): BasePoly.const(1, 1)}
    with pytest.raises(ValueError, match="ranks or algebras"):
        GwaElem(ALG, b) - GwaElem(other, b)
    assert (GwaElem(ALG, b) + GwaElem(weyl_gwa(1), b)).terms == {
        (1,): BasePoly.const(1, 2)}


def _concat(m, n):
    return {m + n: 1}


def test_bilinear_on_hand_built_maps():
    # integers, no shift: (1 + t)(1 - t) = 1 - t^2, the two t terms cancel
    # and their key is dropped
    assert bilinear({0: 1, 1: 1}, {0: 1, 1: -1}, lambda i, j: {i + j: 1}) \
        == {0: 1, 2: -1}
    # every basis term is scaled by both coefficients
    assert bilinear({0: 2}, {1: 3}, lambda i, j: {i + j: 5, 7: -1}) \
        == {1: 30, 7: -6}
    # an empty factor gives the empty map
    assert bilinear({}, {"n": HA}, _concat) == {}
    assert bilinear({"p": HA}, {}, _concat, lambda m: (1, 0)) == {}
    # the right coefficient is shifted by its left key's shift; the left
    # coefficient HB and the right key's shift are left alone
    shifts = {"p": (1, 0), "q": (0, 0), "r": (1, 0), "n": (0, 0)}
    got = bilinear({"p": HB, "q": HB, "r": RF_ONE}, {"n": HA}, _concat,
                   shifts.get)
    assert got == {"pn": HB * (HA + 1), "qn": HB * HA, "rn": HA + 1}
    # two shifted pairs that cancel drop their key
    assert bilinear({"p": HB, "r": -HB}, {"n": HA}, lambda m, n: {"k": 1},
                    shifts.get) == {}


def _counted_sums(monkeypatch) -> tuple:
    """Count the n-ary sums of scalars and refuse pairwise ones."""
    nary = []

    def counted(values):
        nary.append(list(values))
        return rf_sum([(f, 1) for f in values])

    def refuse(*args):
        raise AssertionError("pairwise sum of scalars")

    monkeypatch.setattr(RatFunc, "_nsum", staticmethod(counted))
    for name in ("__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(RatFunc, name, refuse)
    return nary


def test_bilinear_sums_a_repeated_key_once(monkeypatch):
    """A key reached three times takes one n-ary sum and no pairwise one;
    a key reached once keeps its term; a key whose terms cancel is
    dropped."""
    f, g, h = HA, HB / (HA + 1), RF_ONE / (HA + 1)
    minus = -(f + g)
    nary = _counted_sums(monkeypatch)
    got = bilinear({"a": f, "b": g, "c": h}, {"n": RF_ONE},
                   lambda m, n: {"k": 1, m: 1})
    assert nary == [[f, g, h]]
    assert got["a"] is f and got["b"] is g and got["c"] is h
    nary.clear()
    cancel = bilinear({"a": f, "b": g, "c": minus}, {"n": RF_ONE},
                      lambda m, n: {"k": 1})
    assert len(nary) == 1 and cancel == {}
    monkeypatch.undo()
    assert got["k"] == f + g + h == (HA * HA + HA + HB + 1) / (HA + 1)


def test_bilinear_sums_numbers_pairwise():
    """int and Gaussian-rational coefficients, which have no n-ary sum,
    are summed pairwise; a key whose sum cancels is dropped."""
    three = lambda m, n: {"k": m, "z": 1}
    assert bilinear({1: 1, 2: 1, 3: 1}, {"n": 2}, three) == {"k": 12,
                                                              "z": 6}
    half, i = GaussRat(Fraction(1, 2)), GaussRat(0, 1)
    assert bilinear({half: half, i: i, -half: -i}, {"n": GR_ONE},
                    three) == {"k": half * half + i * i + half * i,
                               "z": half + i - i}
    assert bilinear({1: half, 2: i, 3: -half - i}, {"n": GR_ONE},
                    lambda m, n: {"z": 1}) == {}


def test_cold_diamond_leaf_sums_each_key_once(monkeypatch):
    """With its projected terms cached, a cold leaf sums each output key
    once, by rf_sum with the bracket integers as weights, and takes no
    pairwise sum of scalars and no product of a scalar by an int."""
    m, n = (0, 0, 1, 1), (1, 0, 0, 0)
    want = dra._basis_diamond(m, n)
    dra._basis_diamond.cache_clear()
    dra._leaf_terms(n, dra._weyl_shift(m))
    calls = []

    def counted(terms):
        calls.append(list(terms))
        return rf_sum(terms)

    mul = RatFunc.__mul__

    def no_int(self, other):
        if type(other) is int:
            raise AssertionError("a scalar times an int")
        return mul(self, other)

    _counted_sums(monkeypatch)
    monkeypatch.setattr(dra, "rf_sum", counted)
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(RatFunc, name, no_int)
    got = dra._basis_diamond(m, n)
    assert len(calls) == len(got.terms) and max(map(len, calls)) > 2
    assert any(k != 1 for terms in calls for _, k in terms)
    monkeypatch.undo()
    assert got == want


def test_linear_on_hand_built_maps():
    image = {"a": {"x": 1, "y": 2}, "b": {"x": -1, "z": 3}, "c": {}}
    # a and b both reach x and cancel there: x is dropped; y and z are
    # scaled by their left coefficient
    assert linear({"a": 1, "b": 1}, image.get) == {"y": 2, "z": 3}
    # an empty map, and a key whose image is empty, give the empty map
    assert linear({}, image.get) == {} and linear({"c": 5}, image.get) == {}
    # images that share a key add there
    assert linear({"a": 2, "b": -3}, image.get) == {"x": 5, "y": 4,
                                                    "z": -9}
    # Gaussian-rational and rational-function coefficients
    half = GaussRat(0, 1) / 2
    assert linear({"a": half, "b": GaussRat(1)}, image.get) \
        == {"x": half - 1, "y": 2 * half, "z": GaussRat(3)}
    assert linear({"a": HA, "b": HB}, image.get) \
        == {"x": HA - HB, "y": 2 * HA, "z": 3 * HB}
    assert linear({"a": HA, "b": HA}, image.get) == {"y": 2 * HA,
                                                     "z": 3 * HA}


def test_lie_elem_is_a_sparse_map():
    assert decompose(W_ONE) == LieElem({"1": GR_ONE})
    x = LieElem.basis("Ea") + LieElem({"1": GaussRat(3)})
    assert x.coords == {"Ea": GR_ONE} and x.const == GaussRat(3)
    assert LieElem.basis("Ea").const == GaussRat(0)
    assert decompose(x.to_weyl()) == x


def test_lie_elem_lists_its_keys_in_span_order():
    """Keys, the four Weyl generators of the elimination rows among them,
    come in SPAN order; test_shared_scalar_interface checks the degrees."""
    x = LieElem({s: GaussRat(k + 1) for k, s in enumerate(reversed(SPAN))})
    assert x.sorted_keys() == list(SPAN) and x.degree() == 1
    assert LieElem({"1": GR_ONE, "x1": GR_ONE}).sorted_keys() == ["x1", "1"]
    assert LieElem().sorted_keys() == []


def test_add_into_and_power():
    out = add_into({"a": 1}, [("a", -1), ("b", 2), ("b", 3)])
    assert out == {"b": 5}
    assert power(3, 0, 1) == 1 and power(3, 5, 1) == 243
    with pytest.raises(ValueError):
        power(3, -1, 1)
    t = BasePoly.tvar(2, 1) + BasePoly.const(2, HA)
    assert t ** 3 == t * t * t
    u = ALG.x(1) + ALG.y(1).scaled(BasePoly.tvar(1, 1))
    assert u ** 3 == u * u * u and u ** 0 == ALG.one()


POWER_BASES = {
    "Poly2": lambda: Poly2({(1, 0): GaussRat(1), (0, 1): GaussRat(-2, 1),
                            (0, 0): GaussRat(3)}),
    "RatFunc": lambda: (HA + 2 * HB - 1) / (HB + 1),
    "BasePoly": lambda: BasePoly.tvar(2, 1) + BasePoly.const(2, HA),
    "GwaElem": lambda: ALG.x(1) + ALG.y(1).scaled(BasePoly.tvar(1, 1)),
}


@pytest.mark.parametrize("name", sorted(POWER_BASES))
def test_power_starts_from_the_base(name):
    x = POWER_BASES[name]()
    one = x ** 0
    assert power(x, 1, one) is x and x ** 1 is x
    expected = one
    for n in range(10):
        assert power(x, n, one) == expected, n
        expected = expected * x
