import pytest

from drasp4.scalars import GaussRat, HA, HB, Poly2, RF_ONE
from drasp4.weyl import WeylElem
from drasp4.ambient import AmbientElem
from drasp4.dra import DraElem
from drasp4.gwa import BasePoly, GwaElem, weyl_gwa
from drasp4.sparse import add_into, power

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


def test_extra_fields_take_part_in_equality():
    t = {(0, 0): RF_ONE}
    assert BasePoly(2, t) != BasePoly(3, t)
    assert BasePoly(1) != BasePoly(2)
    other = weyl_gwa(1)
    b = {(1,): BasePoly.const(1, 1)}
    assert GwaElem(ALG, b) != GwaElem(other, b)
    assert GwaElem(ALG, b) == GwaElem(ALG, dict(b))


def test_add_into_and_power():
    out = add_into({"a": 1}, [("a", -1), ("b", 2), ("b", 3)])
    assert out == {"b": 5}
    assert power(3, 0, 1) == 1 and power(3, 5, 1) == 243
    with pytest.raises(ValueError):
        power(3, -1, 1)
    t = BasePoly.tvar(2, 1) + BasePoly.const(2, HA)
    assert t ** 3 == t * t * t
