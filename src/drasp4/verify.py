"""Exact identity suites: every defining relation of the reduction algebra,
the computational congruences, the normalized-generator and realization
identities, the classical limit, and the sampling checks, each reported as
an exact pass/fail line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct

from .scalars import (GR_ONE, GR_ZERO, GaussRat, HA, HB, RF_ONE, RatFunc,
                      rf_affine)
from .weyl import WeylElem
from . import sp4
from .ambient import red
from .dra import (D1_BAR, D2_BAR, DraElem, X1_BAR, X2_BAR, apply_p, diamond,
                  diamond_commutator, diamond_product, h_form,
                  normalized_gens, presentation, weyl_word)
from . import gwa as _gwa


@dataclass(frozen=True)
class Check:
    check_id: str
    passed: bool
    residual: str = ""

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        tail = f" {self.residual}" if (not self.passed and self.residual) else ""
        return f"[{tag}] {self.check_id}{tail}"


@dataclass
class Report:
    name: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, lhs, rhs) -> None:
        if lhs == rhs:
            self.checks.append(Check(check_id, True))
        else:
            try:
                residual = str(lhs - rhs)
            except TypeError:
                residual = f"{lhs} != {rhs}"
            self.checks.append(Check(check_id, False, residual))

    def add_flag(self, check_id: str, ok: bool, residual: str = "") -> None:
        self.checks.append(Check(check_id, bool(ok), "" if ok else residual))

    def lines(self) -> list:
        return [c.line() for c in self.checks]

    def to_json(self) -> dict:
        return {"suite": self.name, "passed": self.passed,
                "checks": [{"id": c.check_id, "passed": c.passed,
                            **({"residual": c.residual} if c.residual else {})}
                           for c in self.checks]}


SUITE_NAMES = ("presentation", "lemma32", "normalized", "appendix", "limit",
               "domain_sample", "triangular")


# ---------------------------------------------------------------------------
# presentation: the fourteen defining relations.
# ---------------------------------------------------------------------------

def suite_presentation() -> Report:
    rep = Report("presentation")
    hba = h_form(sp4.BETA_A)
    table = presentation()
    (f11, f12), (f21, f22) = table.f

    shift_expect = {
        "x1": (HA - 1, HB),
        "d1": (HA + 1, HB),
        "x2": (HA + 1, HB - 1),
        "d2": (HA - 1, HB + 1),
    }
    for name in ("x1", "d1", "x2", "d2"):
        g = DraElem.gen(name)
        ea, eb = shift_expect[name]
        rep.add(f"{name}.Ha", diamond(g, DraElem.scalar(HA)), g.scaled(ea))
        rep.add(f"{name}.Hb", diamond(g, DraElem.scalar(HB)), g.scaled(eb))

    swap_a = RF_ONE + RF_ONE / (HA + 1)
    swap_ba = RF_ONE + RF_ONE / (hba + 1)
    rep.add("x1*x2.swap", diamond(X1_BAR, X2_BAR),
            diamond(X2_BAR, X1_BAR).scaled(swap_a))
    rep.add("d2*d1.swap", diamond(D2_BAR, D1_BAR),
            diamond(D1_BAR, D2_BAR).rmul_scalar(swap_a))
    rep.add("x1*d2.swap", diamond(X1_BAR, D2_BAR),
            diamond(D2_BAR, X1_BAR).scaled(swap_ba))
    rep.add("x2*d1.swap", diamond(X2_BAR, D1_BAR),
            diamond(D1_BAR, X2_BAR).rmul_scalar(swap_ba))

    t1 = diamond(D1_BAR, X1_BAR)
    t2 = diamond(D2_BAR, X2_BAR)
    rep.add("x1*d1.expand", diamond(X1_BAR, D1_BAR),
            DraElem.scalar(RF_ONE / (HA + 1) - 1)
            + t1.scaled(f11) + t2.scaled(f12))
    rep.add("x2*d2.expand", diamond(X2_BAR, D2_BAR),
            DraElem.scalar(-RF_ONE) + t1.scaled(f21) + t2.scaled(f22))
    return rep


# ---------------------------------------------------------------------------
# lemma32: the four projector congruences with their full coefficients.
# ---------------------------------------------------------------------------

def lemma32_rhs() -> dict:
    """Expected reduced forms of the four congruences."""
    hba = h_form(sp4.BETA_A)
    hb2a = h_form(sp4.BETA_2A)
    d1x1 = (1, 0, 0, 1)
    d2x2 = (0, 1, 1, 0)
    one = (0, 0, 0, 0)
    return {
        "x1": DraElem({(0, 0, 0, 1): RF_ONE}),
        "d2*x2": DraElem({d2x2: RF_ONE, d1x1: -RF_ONE / (HA + 1)}),
        "x2*d2": DraElem({one: -RF_ONE,
                          d1x1: HB / ((HB + 1) * (hba + 1)),
                          d2x2: RF_ONE + RF_ONE / (HB + 1)}),
        "x1*d1": DraElem({one: RF_ONE / (HA + 1) - 1,
                          d1x1: RF_ONE + (HA * hba + hb2a + 1)
                          / ((HA + 1) * (hba + 1) * (hb2a + 1)),
                          d2x2: (HA - hba - 2) / ((HA + 1) * (hba + 1))}),
    }


def suite_lemma32() -> Report:
    rep = Report("lemma32")
    rhs = lemma32_rhs()
    x1_amb = X1_BAR.to_ambient()
    fixed = apply_p(x1_amb) == x1_amb
    sampled = all(
        diamond(y, X1_BAR) == DraElem.from_ambient(
            red(y.to_ambient() * x1_amb, "II"))
        for y in (X2_BAR, D2_BAR, diamond(D1_BAR, D2_BAR)))
    rep.add_flag("proj.x1", fixed and sampled, "projector moved x1")
    rep.add("proj.d2*x2", diamond(D2_BAR, X2_BAR), rhs["d2*x2"])
    rep.add("proj.x2*d2", diamond(X2_BAR, D2_BAR), rhs["x2*d2"])
    rep.add("proj.x1*d1", diamond(X1_BAR, D1_BAR), rhs["x1*d1"])
    return rep


# ---------------------------------------------------------------------------
# normalized: the four vanishing cross commutators.
# ---------------------------------------------------------------------------

def suite_normalized() -> Report:
    rep = Report("normalized")
    ng = normalized_gens()
    pairs = (("hat.x1x2", ng.x1, ng.x2), ("hat.d1d2", ng.d1, ng.d2),
             ("hat.x1d2", ng.x1, ng.d2), ("hat.x2d1", ng.x2, ng.d1))
    for cid, a, b in pairs:
        rep.add(cid, diamond_commutator(a, b), DraElem())
    return rep


# ---------------------------------------------------------------------------
# appendix: the product identities and the twisted-product identities
# of the realization, including their expanded middle forms.
# ---------------------------------------------------------------------------

def suite_appendix() -> Report:
    rep = Report("appendix")
    ng = normalized_gens()
    rep.add("hat.x1x2.prod", diamond(ng.x1, ng.x2), diamond(ng.x2, ng.x1))
    rep.add("hat.d2d1.prod", diamond(ng.d2, ng.d1), diamond(ng.d1, ng.d2))
    rep.add("hat.x1d2.prod", diamond(ng.x1, ng.d2), diamond(ng.d2, ng.x1))
    rep.add("hat.x2d1.prod", diamond(ng.x2, ng.d1), diamond(ng.d1, ng.x2))

    alg = _gwa.reduction_gwa()
    real = _gwa.GwaRealization(alg)
    hba = h_form(sp4.BETA_A)
    table = presentation()
    t1 = diamond(D1_BAR, X1_BAR)
    t2 = diamond(D2_BAR, X2_BAR)
    for i in (1, 2):
        lhs = real.base_image(alg.sigma(i, alg.t(i)))
        rep.add(f"phi.sigma{i}t{i}",
                lhs, diamond(real.x_hat[i - 1], real.d_hat[i - 1]))
        fi1, fi2 = table.f[i - 1]
        scale = (HA + i) * (hba + 1)
        mid = (DraElem.scalar(table.chat[i - 1])
               + t1.scaled(scale * fi1) + t2.scaled(scale * fi2))
        rep.add(f"phi.sigma{i}t{i}.expand", lhs, mid)
    return rep


# ---------------------------------------------------------------------------
# limit: the coefficients degenerate to the plain Weyl relations.
# ---------------------------------------------------------------------------

def suite_limit() -> Report:
    rep = Report("limit")
    table = presentation()
    delta = {(1, 1): GR_ONE, (2, 2): GR_ONE, (1, 2): GR_ZERO, (2, 1): GR_ZERO}
    for i in (1, 2):
        for j in (1, 2):
            fij = table.f[i - 1][j - 1]
            rep.add(f"limit.f{i}{j}", fij.limit_inf(), delta[(i, j)])
    hba = h_form(sp4.BETA_A)
    rep.add("limit.swap_ba", (RF_ONE + RF_ONE / (hba + 1)).limit_inf(), GR_ONE)
    rep.add("limit.swap_a", (RF_ONE + RF_ONE / (HA + 1)).limit_inf(), GR_ONE)
    return rep


# ---------------------------------------------------------------------------
# domain_sample: no zero divisors on a reproducible random sample.
# ---------------------------------------------------------------------------

DOMAIN_SEED = 74207281


def _rand_affine(rng) -> RatFunc:
    ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
    c0 = rng.randint(-3, 3)
    if ca == 0 and cb == 0 and c0 == 0:
        c0 = 1
    return rf_affine(ca, cb, c0)


def _rand_coeff(rng) -> RatFunc:
    num = _rand_affine(rng)
    if rng.random() < 0.5:
        return num
    root = rng.choice(sp4.POS_ROOTS)
    return num / (h_form(root) + rng.randint(-3, 3))


_DEG2_MONOS = [m for m in iproduct(range(3), repeat=4) if sum(m) <= 2]


def _rand_elem(rng) -> DraElem:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(_DEG2_MONOS)] = _rand_coeff(rng)
    return DraElem(terms)


def suite_domain_sample(seed: int = DOMAIN_SEED, count: int = 100) -> Report:
    rep = Report("domain_sample")
    rng = random.Random(seed)
    bad = []
    for k in range(count):
        u = _rand_elem(rng)
        v = _rand_elem(rng)
        while u.is_zero():
            u = _rand_elem(rng)
        while v.is_zero():
            v = _rand_elem(rng)
        if diamond(u, v).is_zero():
            bad.append(k)
    rep.add_flag(f"domain.sample{count}", not bad,
                 f"zero products at indices {bad}")
    return rep


# ---------------------------------------------------------------------------
# triangular: diamond powers of the generators expand triangularly in the
# monomial basis, with unit leading coefficients.
# ---------------------------------------------------------------------------

def _is_triangular(elem: DraElem, lead, unit: bool) -> tuple:
    lc = elem.coeff(lead)
    if unit and lc != RF_ONE:
        return False, f"leading coefficient {lc}"
    if not unit and lc.is_zero():
        return False, "leading coefficient vanishes"
    top = weyl_word(lead)
    for m in elem.terms:
        if m != tuple(lead) and weyl_word(m) >= top:
            return False, f"non-lower term {m}"
    return True, ""


def suite_triangular(maxdeg: int = 3) -> Report:
    rep = Report("triangular")
    monos = sorted(m for m in iproduct(range(maxdeg + 1), repeat=4)
                   if sum(m) <= maxdeg)
    gens = (D1_BAR, D2_BAR, X2_BAR, X1_BAR)
    for m in monos:
        # d1^<>a <> d2^<>b <> x2^<>c <> x1^<>d
        elem = diamond_product(g for g, e in zip(gens, m) for _ in range(e))
        ok, why = _is_triangular(elem, m, unit=True)
        rep.add_flag("tri." + "".join(map(str, m)), ok, why)
    return rep


# ---------------------------------------------------------------------------
# helpers outside the named CLI suites
# ---------------------------------------------------------------------------

def projector_order_report(maxdeg: int = 3) -> Report:
    """Both convex factor orders give the same projected coset forms."""
    rep = Report("projector_order")
    monos = sorted(m for m in iproduct(range(maxdeg + 1), repeat=4)
                   if sum(m) <= maxdeg)
    for m in monos:
        v = DraElem({m: RF_ONE}).to_ambient()
        rep.add("order." + "".join(map(str, m)),
                apply_p(v, sp4.CONVEX_ORDER), apply_p(v, sp4.CONVEX_ORDER_REV))
    return rep


def coefficient_report() -> Report:
    """Relation coefficients solved from the engine match the closed forms."""
    rep = Report("coefficients")
    table = presentation()
    t2 = diamond(D2_BAR, X2_BAR)
    d11 = diamond(X1_BAR, D1_BAR)
    d22 = diamond(X2_BAR, D2_BAR)
    cross = t2.coeff((1, 0, 0, 1))
    f12 = d11.coeff((0, 1, 1, 0))
    f11 = d11.coeff((1, 0, 0, 1)) - f12 * cross
    f22 = d22.coeff((0, 1, 1, 0))
    f21 = d22.coeff((1, 0, 0, 1)) - f22 * cross
    solved = ((f11, f12), (f21, f22))
    for i in (1, 2):
        for j in (1, 2):
            rep.add(f"coeff.f{i}{j}", solved[i - 1][j - 1],
                    table.f[i - 1][j - 1])
    rep.add("coeff.const1", d11.coeff((0, 0, 0, 0)), RF_ONE / (HA + 1) - 1)
    rep.add("coeff.const2", d22.coeff((0, 0, 0, 0)), -RF_ONE)
    return rep


def bootstrap_report() -> Report:
    """Derived triples match their explicit quadratic expressions."""
    rep = Report("bootstrap")
    x1, x2 = WeylElem.gen("x1"), WeylElem.gen("x2")
    d1, d2 = WeylElem.gen("d1"), WeylElem.gen("d2")
    half_i = GaussRat(0, Fraction(1, 2))
    half = GaussRat(Fraction(1, 2))
    expected = {
        sp4.ALPHA: (x1 * d2, x2 * d1, x1 * d1 - x2 * d2),
        sp4.BETA: ((x2 * x2).scaled(half_i), (d2 * d2).scaled(half_i),
                   x2 * d2 + WeylElem.const(half)),
        sp4.BETA_A: ((x1 * x2).scaled(GaussRat(0, 1)),
                     (d1 * d2).scaled(GaussRat(0, 1)),
                     x1 * d1 + x2 * d2 + WeylElem.const(1)),
        sp4.BETA_2A: ((x1 * x1).scaled(half_i), (d1 * d1).scaled(half_i),
                      x1 * d1 + WeylElem.const(half)),
    }
    triples = sp4.sl2_triples()
    for g in sp4.POS_ROOTS:
        for part, got, want in zip(("e", "f", "h"), triples[g], expected[g]):
            rep.add(f"triple.{part}.{g}", got, want)
    return rep


def sigma_commute_report() -> Report:
    """The six coefficient identities equivalent to commuting automorphisms."""
    rep = Report("sigma_commute")
    table = presentation()
    c1, c2 = table.chat
    (g11, g12), (g21, g22) = table.fhat

    def s1(f):
        return f.shift(-1, 0)

    def s2(f):
        return f.shift(1, -1)

    rep.add("sigma.t2.t1coeff", s1(g21) * g11, g21)
    rep.add("sigma.t2.t2coeff", s1(g21) * g12 + s1(g22), g22)
    rep.add("sigma.t2.const", s1(c2) + s1(g21) * c1, c2)
    rep.add("sigma.t1.t2coeff", s2(g12) * g22, g12)
    rep.add("sigma.t1.t1coeff", s2(g12) * g21 + s2(g11), g11)
    rep.add("sigma.t1.const", s2(c1) + s2(g12) * c2, c1)
    return rep


def _signed_monos(maxdeg: int):
    out = []
    for m1 in range(-maxdeg, maxdeg + 1):
        for m2 in range(-maxdeg, maxdeg + 1):
            if abs(m1) + abs(m2) <= maxdeg:
                out.append((m1, m2))
    return sorted(out, key=lambda m: (abs(m[0]) + abs(m[1]), m))


def gwa_iso_report(maxdeg: int = 3) -> Report:
    """The realization map preserves every defining relation and carries
    the left-module monomials triangularly onto the monomial basis."""
    rep = Report("gwa_iso")
    alg = _gwa.reduction_gwa()
    real = _gwa.GwaRealization(alg)
    rep.add_flag("gwa.sigma_commute_direct", True)  # enforced at construction

    gens = [("Ha", _gwa.BasePoly.const(2, HA)), ("Hb", _gwa.BasePoly.const(2, HB)),
            ("t1", alg.t(1)), ("t2", alg.t(2))]
    for i in (1, 2):
        xi, yi = real.x_hat[i - 1], real.d_hat[i - 1]
        for name, b in gens:
            img = real.base_image(b)
            twisted = real.base_image(alg.sigma(i, b))
            rep.add(f"rel.X{i}.{name}", diamond(xi, img), diamond(twisted, xi))
            rep.add(f"rel.{name}.Y{i}", diamond(img, yi), diamond(yi, twisted))
        rep.add(f"rel.Y{i}X{i}", diamond(yi, xi), real.base_image(alg.t(i)))
        rep.add(f"rel.X{i}Y{i}", diamond(xi, yi),
                real.base_image(alg.sigma(i, alg.t(i))))
    rep.add("rel.X1X2", diamond(real.x_hat[0], real.x_hat[1]),
            diamond(real.x_hat[1], real.x_hat[0]))
    rep.add("rel.Y1Y2", diamond(real.d_hat[0], real.d_hat[1]),
            diamond(real.d_hat[1], real.d_hat[0]))
    rep.add("rel.X1Y2", diamond(real.x_hat[0], real.d_hat[1]),
            diamond(real.d_hat[1], real.x_hat[0]))
    rep.add("rel.X2Y1", diamond(real.x_hat[1], real.d_hat[0]),
            diamond(real.d_hat[0], real.x_hat[1]))

    monos = sorted((m for m in iproduct(range(maxdeg + 1), repeat=4)
                    if sum(m) <= maxdeg))
    gens = real.d_hat + real.x_hat
    for a, b, c, d in monos:
        elem = diamond_product(g for g, e in zip(gens, (a, b, c, d))
                               for _ in range(e))
        lead = (a, b, d, c)
        ok, why = _is_triangular(elem, lead, unit=False)
        rep.add_flag(f"phi.tri.{a}{b}{c}{d}", ok, why)
    return rep


def weyl_example_report(n: int, maxdeg: int = 3) -> Report:
    """Product preservation of the classical-instance comparison map."""
    if n > 2:
        raise ValueError("desk-scale example supports n <= 2")
    rep = Report(f"weyl_example_{n}")
    alg = _gwa.weyl_gwa(n)
    if n == 1:
        u = alg.t(1)
        rep.add("ex.XY", alg.x(1) * alg.y(1), alg.base(alg.sigma(1, u)))
        rep.add("ex.YX", alg.y(1) * alg.x(1), alg.base(u))
    else:
        rep.add("ex.X1X2", alg.x(1) * alg.x(2), alg.x(2) * alg.x(1))
    monos = []
    for m in _signed_monos(maxdeg):
        mono = m if n == 2 else (m[0],)
        if n == 1 and m[1] != 0:
            continue
        elem = _gwa.GwaElem(alg, {mono: _gwa.BasePoly.const(n, 1)})
        monos.append((mono, elem))
    bad = []
    for m1, u in monos:
        for m2, v in monos:
            lhs = _gwa.weyl_gwa_image(u * v)
            rhs = _gwa.weyl_gwa_image(u) * _gwa.weyl_gwa_image(v)
            if lhs != rhs:
                bad.append((m1, m2))
    rep.add_flag(f"ex.products.deg{maxdeg}", not bad,
                 f"mismatch at {bad[:3]}")
    return rep


def run_suite(name: str, **kwargs) -> Report:
    table = {
        "presentation": suite_presentation,
        "lemma32": suite_lemma32,
        "normalized": suite_normalized,
        "appendix": suite_appendix,
        "limit": suite_limit,
        "domain_sample": suite_domain_sample,
        "triangular": suite_triangular,
    }
    try:
        fn = table[name]
    except KeyError:
        raise ValueError(f"unknown suite: {name}") from None
    return fn(**kwargs)


def run_all() -> list:
    return [run_suite(name) for name in SUITE_NAMES]
