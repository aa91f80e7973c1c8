import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import drasp4
from drasp4 import dra, sp4
from drasp4.scalars import GR_ONE, HA, HB, RF_ONE, RF_ZERO
from drasp4.sparse import add_into
from drasp4.weyl import WeylElem
from drasp4.ambient import LETTERS, AmbientElem, e_gen, red
from drasp4.dra import (D1_BAR, D2_BAR, DRA_ONE, DraElem, TruncationError,
                        X1_BAR, X2_BAR, apply_p, apply_p_root, diamond,
                        diamond_commutator, diamond_product, dra_json, dra_str, dra_theta,
                        h_form, normalized_gens, presentation,
                        projector_coeff)
from drasp4.verify import lemma32_rhs, suite_triangular

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


def fold(v):
    """The projector by its definition: each uncached factor in turn."""
    for root in sp4.CONVEX_ORDER:
        v = apply_p_root(root, v)
    return v


def test_diamond_table_agrees_with_definition():
    rng = random.Random(53)
    pairs = [(rand_dra(rng), rand_dra(rng)) for _ in range(8)]
    s1, s2, s3 = (HA + 1) / (HB - 2), HB + 3, (HA - HB) / (h_form(sp4.BETA_A) + 1)
    mixed = DraElem({(0, 0, 0, 0): s1, (0, 1, 0, 0): s2, (1, 0, 1, 0): s3})
    pairs += [
        (DraElem.scalar(s1), DraElem({(0, 0, 1, 1): s2})),
        (DraElem({(0, 2, 0, 0): s3}), DraElem({(1, 0, 0, 0): s1})),
        (mixed, DraElem({(0, 0, 2, 0): s2, (0, 1, 0, 0): s3})),
        (DraElem({(0, 0, 1, 1): s2, (0, 0, 0, 1): s1}), mixed),
    ]
    for u, v in pairs:
        expect = DraElem.from_ambient(
            red(u.to_ambient() * fold(v.to_ambient()), "II"))
        assert diamond(u, v) == expect, (u, v)


def direct(m, n):
    """m <> n for basis monomials by the definition red(m P(n), II), which
    does not assume that the diamond product is associative."""
    prod = (DraElem({m: RF_ONE}).to_ambient()
            * apply_p(DraElem({n: RF_ONE}).to_ambient()))
    return DraElem.from_ambient(red(prod, "II"))


def test_basis_diamond_agrees_with_direct_definition():
    monos = [m for m in itertools.product(range(7), repeat=4) if sum(m) <= 6]
    pairs = [(m, n) for m in monos for n in monos
             if sum(n) <= 3 and sum(m) + sum(n) <= 4]
    assert len(pairs) == 460
    # the base case applies a projected generator by commutators: check it
    # on every left monomial up to degree 6
    pairs += [(m, n) for m in monos for n in monos
              if sum(n) == 1 and sum(m) >= 4]
    assert len(pairs) == 1160
    for m, n in pairs:
        got = diamond(DraElem({m: RF_ONE}), DraElem({n: RF_ONE}))
        assert got == direct(m, n), (m, n)


GENERATORS_AND_ONE = ((0, 0, 0, 0),) + tuple(
    dra.GEN_MONO[name] for name in ("d1", "d2", "x2", "x1"))


def reference_leaf(m, n):
    """m <> n for n a generator or 1, the leaf as Weyl algebra brackets:
    each term c F_i1 ... F_ik w of P(n) adds c.shift(-wt m) times
    [...[m, F_i1], ..., F_ik] w, bracketed with the oscillator images and
    their Gaussian-rational coefficients."""
    wa, wb = dra._weyl_weight(m)
    out = {}
    p_n = apply_p(DraElem({n: RF_ONE}).to_ambient())
    for k, c in p_n.terms.items():
        x = WeylElem({m: GR_ONE})
        for f, e in zip(LETTERS, k[:4]):
            for _ in range(e):
                x = x.bracket(sp4.osc(f))
        c = c.shift(-wa, -wb)
        add_into(out, ((w, c * g) for w, g in
                       (x * WeylElem({k[4:8]: GR_ONE})).terms.items()))
    return DraElem(out)


def leaf_mismatches(maxdeg):
    """The pairs (m, n), m a left monomial of degree <= maxdeg and n a
    generator or 1, where the leaf of _basis_diamond differs from
    reference_leaf; and the number of pairs compared."""
    monos = [m for m in itertools.product(range(maxdeg + 1), repeat=4)
             if sum(m) <= maxdeg]
    pairs = [(m, n) for m in monos for n in GENERATORS_AND_ONE]
    bad = [(m, n) for m, n in pairs
           if dra._basis_diamond(m, n) != reference_leaf(m, n)]
    return bad, len(pairs)


def test_integer_leaf_agrees_with_weyl_brackets():
    bad, count = leaf_mismatches(6)
    assert count == 1050
    assert not bad, bad[:5]


def test_generator_products_straighten_no_ambient_word():
    # once the four generators are projected, a product peeled over them
    # straightens nothing in the ambient algebra
    drasp4.clear_caches()
    for g in (D1_BAR, D2_BAR, X2_BAR, X1_BAR):
        apply_p(g.to_ambient())
    words = drasp4.cache_info()["drasp4.ambient._norm_word"]
    uv = diamond(DraElem({(0, 0, 4, 4): RF_ONE}),
                 DraElem({(4, 4, 0, 0): RF_ONE}))
    assert uv.coeff((4, 4, 4, 4)) and len(uv.terms) == 45
    assert drasp4.cache_info()["drasp4.ambient._norm_word"] == words


def rand_ambient(rng):
    """A sum of one to three words of up to three of the twelve letters,
    each with an affine coefficient."""
    out = AmbientElem()
    for _ in range(rng.randint(1, 3)):
        word = AmbientElem.scalar(HA * rng.randint(-1, 1) + HB * rng.randint(-1, 1)
                                  + rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            word = word * AmbientElem.gen(rng.choice(LETTERS))
        out = out + word
    return out


def test_projection_reduces_to_red_ii():
    # P is 1 plus terms that start with a lowering letter, so projecting a
    # coset representative changes nothing modulo II; this is why the
    # project command reduces without projecting
    rng = random.Random(57)
    samples = [rand_ambient(rng) for _ in range(24)]
    fa_power = AmbientElem.scalar(1)
    for _ in range(9):
        fa_power = fa_power * AmbientElem.gen("Fa")
    # the truncation bound counts the lowering letters of a monomial too
    samples.append(fa_power)
    for u in samples:
        for order in (sp4.CONVEX_ORDER, sp4.CONVEX_ORDER_REV):
            assert red(apply_p(red(u, "I"), order), "II") == red(u, "II"), u


def test_projector_commutes_with_left_scalars():
    scalars = (HA + 2, (HB - 1) / (HA + 3), h_form(sp4.BETA_2A))
    for m in ((0, 1, 0, 0), (1, 0, 1, 0), (0, 0, 2, 0), (0, 1, 1, 1)):
        a = DraElem({m: RF_ONE}).to_ambient()
        pa = apply_p(a)
        for c in scalars:
            assert apply_p(a.scaled(c)) == pa.scaled(c) == fold(a.scaled(c))


def test_diamond_monomials_triangular_to_degree_six():
    rep = suite_triangular(6)
    assert len(rep.checks) == 210
    assert rep.passed, "\n".join(rep.lines())


def test_theta():
    assert dra_theta(X1_BAR) == D1_BAR
    assert dra_theta(dra_theta(diamond(X2_BAR, D2_BAR))) == diamond(X2_BAR, D2_BAR)
    rng = random.Random(52)
    for _ in range(8):
        u, v = rand_dra(rng), rand_dra(rng)
        assert dra_theta(diamond(u, v)) == diamond(dra_theta(v), dra_theta(u))


AFFINE = st.builds(lambda a, b, c: HA * a + HB * b + c,
                   *[st.integers(-2, 2)] * 3).filter(bool)
COEFF = st.one_of(AFFINE, st.builds(
    lambda f, root, k: f / (h_form(root) + k),
    AFFINE, st.sampled_from(sp4.POS_ROOTS), st.integers(0, 2)))
MONO = st.tuples(*[st.integers(0, 3)] * 4).filter(lambda m: sum(m) <= 3)
OPERAND = st.dictionaries(MONO, COEFF, min_size=1, max_size=2).map(DraElem)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(OPERAND, OPERAND)
def test_theta_reverses_diamond_products(u, v):
    assert dra_theta(diamond(u, v)) == diamond(dra_theta(v), dra_theta(u))


def test_degree_twelve_product_under_default_recursion_limit():
    # _basis_diamond recurses through the runs of the right factor and once
    # per correction of an x2 step after d2; d2^6 is one run, so a cold
    # degree-12 product needs no raised limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        drasp4.clear_caches()
        u = DraElem({(0, 0, 6, 0): RF_ONE})
        v = DraElem({(0, 6, 0, 0): RF_ONE})
        uv = diamond(u, v)
    finally:
        sys.setrecursionlimit(limit)
    assert uv.coeff((0, 6, 6, 0)) and len(uv.terms) == 28
    assert dra_theta(uv) == diamond(dra_theta(v), dra_theta(u))


def test_one_letter_steps_are_unitriangular():
    # the premise of the peel in _basis_diamond: for n = w g, g the last
    # letter of n, the step w <> g is n plus lower terms; it has lower
    # terms exactly when g is x2 and d2 divides w
    steps = corrected = 0
    for n in itertools.product(range(17), repeat=4):
        if not 2 <= sum(n) <= 16:
            continue
        i = max(k for k, e in enumerate(n) if e)
        w = n[:i] + (n[i] - 1,) + n[i + 1:]
        step = dra._basis_diamond(w, dra._UNITS[i])
        assert step.coeff(n) == RF_ONE, n
        top = dra.weyl_word(n)
        assert all(dra.weyl_word(k) < top for k in step.terms if k != n), n
        exact = step == DraElem({n: RF_ONE})
        assert exact != (i == 2 and w[1] > 0), n
        steps += 1
        corrected += sum(n) <= 12 and not exact
    assert (steps, corrected) == (4840, 286)


def test_long_runs_under_default_recursion_limit():
    # x1 <> n for right factors of hundreds of letters; the digests are
    # those of the ordered-word recursion that the peel replaced
    digests = {
        (0, 0, 0, 900): "2ea3f29c598d82e544b4e55e760a74e4"
                        "d86830ac19405604760333c552886f4b",
        (0, 0, 900, 0): "09f685b0d93566b3b9399a2a7a3445dd"
                        "bee992ac8a19d717653119fe20e1549b",
        (0, 300, 2, 0): "a973dfd346bbad754e51281e279031fa"
                        "314f499b089d537471826ed0c4ff298b",
    }
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for n, digest in digests.items():
            drasp4.clear_caches()
            got = diamond(X1_BAR, DraElem({n: RF_ONE}))
            text = json.dumps(dra_json(got)).encode()
            assert hashlib.sha256(text).hexdigest() == digest, n
    finally:
        sys.setrecursionlimit(limit)


def _frames() -> int:
    f, n = sys._getframe(), 0
    while f is not None:
        f, n = f.f_back, n + 1
    return n


def test_nested_corrections_recurse_a_bounded_depth():
    # x1 <> d2^16 x2^16 takes a correction per d2 x2 trade, and they nest;
    # the unwarmed peel needed 96 frames above its caller (5k + 16 for
    # d2^k x2^k), the warmed one needs the same few for every k.  The
    # digest is the unwarmed peel's.
    limit = sys.getrecursionlimit()
    drasp4.clear_caches()
    sys.setrecursionlimit(_frames() + 56)
    try:
        got = diamond(X1_BAR, DraElem({(0, 16, 16, 0): RF_ONE}))
    finally:
        sys.setrecursionlimit(limit)
    text = json.dumps(dra_json(got)).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "0fa76a27cec9336d961246d91244542a94e34b501bcb1d2de91b2ca0fe6284a9")


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


def test_truncation_error_trips_on_tiny_margin(monkeypatch):
    # a projection cached under the real bound would answer without a check
    drasp4.clear_caches()
    monkeypatch.setattr(dra, "TRUNCATION_MARGIN", -6)
    v = AmbientElem({(0, 0, 0, 0, 0, 3, 3, 0, 0, 0, 0, 0): RF_ONE})
    with pytest.raises(TruncationError):
        apply_p_root("a", v)
    with pytest.raises(TruncationError):
        apply_p(D1_BAR.to_ambient())


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
