"""The benchmark's workloads: how each one's inputs are made from the seed,
why it was chosen, and how its outputs are checked.

Inputs are generated by the benchmark through the engine's public API; the
engine receives only the finished elements.  The structure of the random
workloads (which basis monomials meet, how many terms each operand has,
which coefficient kind sits on each term, which coroot form or t_i appears)
is fixed by a design seed, and the run's ``--seed`` draws the coefficient
values.  The cost of one product depends mostly on that structure, so
fixing it keeps the op-latency distribution comparable from seed to seed
while every seed still feeds the engine different inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex
from dataclasses import dataclass
from itertools import product as iproduct

DESIGN_SEED = 20240321


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: int           # operations in one pass; fixed for every seed
    in_process: bool   # False: each operation is a fresh CLI process


# ---------------------------------------------------------------------------
# dra_random
# ---------------------------------------------------------------------------

DRA_RANDOM = Workload(
    "dra_random",
    "Library use: diamond products with random dynamical-scalar "
    "coefficients; basis-monomial pairs repeat and projector arguments do "
    "not, so per-pair caching and scalar-field changes show here.",
    ops=48, in_process=True)

_DEG2_MONOS = [m for m in iproduct(range(3), repeat=4) if sum(m) <= 2]


class _Balanced:
    """Draws from a fixed item list in shuffled rounds, so that every item
    comes up equally often."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pool = []

    def take(self, avoid=()):
        while True:
            if not self.pool:
                self.pool = self.items[:]
                self.rng.shuffle(self.pool)
            for i, x in enumerate(self.pool):
                if x not in avoid:
                    return self.pool.pop(i)
            self.pool = []


def _affine(d, rng):
    ca, cb = rng.randint(-2, 2), rng.randint(-2, 2)
    c0 = rng.randint(-3, 3)
    if ca == 0 and cb == 0 and c0 == 0:
        c0 = 1
    return d.rf_affine(ca, cb, c0)


def dra_random_inputs(d, seed):
    """Pairs (u, v) of reduction-algebra elements with 1-3 terms on basis
    monomials of degree <= 2; a coefficient is an affine form, or an affine
    form over a shifted coroot form."""
    design = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    shapes = [(1 + k % 3, 1 + (k // 3) % 3) for k in range(DRA_RANDOM.ops)]
    design.shuffle(shapes)
    left = _Balanced(design, _DEG2_MONOS)
    right = _Balanced(design, _DEG2_MONOS)
    kinds = _Balanced(design, d.POS_ROOTS + (None,) * len(d.POS_ROOTS))
    ops = []
    for n_left, n_right in shapes:
        pair = []
        for count, monos in ((n_left, left), (n_right, right)):
            terms = {}
            for _ in range(count):
                mono = monos.take(terms)
                coeff = _affine(d, rng)
                root = kinds.take()
                if root is not None:
                    shift = design.randint(-3, 3)
                    coeff = coeff / (d.h_form(root) + shift)
                terms[mono] = coeff
            pair.append(d.DraElem(terms))
        ops.append(tuple(pair))
    return ops


# ---------------------------------------------------------------------------
# dra_high_degree
# ---------------------------------------------------------------------------

DRA_HIGH_DEGREE = Workload(
    "dra_high_degree",
    "A fixed ladder of unit-coefficient products up to x2 x1^2 <> d1^2 d2, "
    "dominated by ambient straightening that red(., II) mostly drops; all "
    "unique, so quotient straightening shows here.",
    ops=4, in_process=True)

# (left, right) basis monomials d1^a d2^b x2^c x1^d.  The rung x2 x1^2 <>
# d1^2 d2 stands in for the frontier probe.  A run reports medians over its
# passes, so it needs at least three: the 4 by 4 product x2^2 x1^2 <>
# d1^2 d2^2 alone takes 16-20 s and x2^2 x1^2 <> d1^2 d2 about 4 s, so
# neither is on the ladder.  x2^2 x1^2 <> d1 d2 is degree 4 but cheap.
HIGH_DEGREE_LADDER = (
    ((0, 0, 1, 1), (1, 1, 0, 0)),
    ((0, 0, 2, 1), (1, 2, 0, 0)),
    ((0, 0, 1, 2), (2, 1, 0, 0)),
    ((0, 0, 2, 2), (1, 1, 0, 0)),
)


def dra_high_degree_inputs(d, seed):
    one = d.RatFunc.const(1)
    return [(d.DraElem({m: one}), d.DraElem({n: one}))
            for m, n in HIGH_DEGREE_LADDER]


# ---------------------------------------------------------------------------
# gwa_native
# ---------------------------------------------------------------------------

GWA_NATIVE = Workload(
    "gwa_native",
    "Products in the generalized Weyl algebra, which never reach ambient or "
    "dra and spend their time in sigma_pow, that is in scalar "
    "multiplication, shift and gcd; the bypass for ambient and dra changes.",
    ops=120, in_process=True)

# One product in five is in the classical instance, checked by the
# comparison map into the Weyl algebra.
GWA_CLASSICAL_EVERY = 5
_GWA_MONOS = [(a, b) for a in range(-2, 3) for b in range(-1, 2)]


def _gwa_elems(d, rng, alg, count, monos, kinds):
    out = []
    for n_terms in count:
        terms = {}
        for _ in range(n_terms):
            m = monos.take(terms)
            coeff = d.BasePoly.const(2, rng.randint(1, 3))
            t_index = kinds.take()
            if t_index:
                coeff = coeff * alg.t(t_index)
            terms[m] = coeff
        out.append(d.GwaElem(alg, terms))
    return out


def gwa_native_inputs(d, seed):
    """Pairs (u, v) with 1-2 terms of exponent in [-2, 2] x [-1, 1] and a
    coefficient c or c t_i, as in the engine's associativity test.  The
    seed draws c in 1..3; whether t_i appears, and which, is structure."""
    design = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    native = d.reduction_gwa()
    classical = d.weyl_gwa(2)
    monos = _Balanced(design, _GWA_MONOS)
    kinds = _Balanced(design, (0, 0, 1, 2))
    ops = []
    for k in range(GWA_NATIVE.ops):
        alg = classical if k % GWA_CLASSICAL_EVERY == 0 else native
        counts = (1 + k % 2, 1 + (k // 2) % 2)
        ops.append(tuple(_gwa_elems(d, rng, alg, counts, monos, kinds)))
    return ops


def gwa_associativity_sample(d):
    """Fixed triples (u, v, w) for the associativity self-check: single
    terms with small exponents, so that the check stays cheap."""
    alg = d.reduction_gwa()
    design = random.Random(DESIGN_SEED + 1)
    triples = []
    for _ in range(3):
        elems = []
        for _ in range(3):
            m = (design.randint(-1, 1), design.randint(-1, 1))
            coeff = (d.BasePoly.const(2, design.randint(1, 3))
                     if design.random() < 0.5 else alg.t(design.randint(1, 2)))
            elems.append(d.GwaElem(alg, {m: coeff}))
        triples.append(tuple(elems))
    return triples


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

# domain_sample is left out: it would repeat dra_random and dominate the run.
CLI_COMMANDS = (
    ("nf", "d2*x2"),
    ("nf", "--mode", "dra", "x1*d1"),
    ("nf", "--mode", "ambient", "Ea*Fa*x1"),
    ("diamond", "x1", "x2"),
    ("diamond", "x1^2", "d1^2"),
    ("diamond", "x2 x1", "d1 d2"),
    ("project", "d2*x2"),
    ("project", "Eb*Fb*d1"),
    ("theta", "x1 d2"),
    ("theta", "--mode", "ambient", "Ea*x1*Fb"),
    ("sigma", "1", "t1*t2 + Ha"),
    ("sigma", "2", "t1^2"),
    ("limit", "(Hb+2)/(Hb+1)"),
    ("limit", "(Ha^2+1)/(Ha+3)"),
    ("verify", "--suite", "presentation"),
    ("verify", "--suite", "lemma32"),
    ("verify", "--suite", "normalized"),
    ("verify", "--suite", "appendix"),
    ("verify", "--suite", "limit"),
    ("verify", "--suite", "triangular"),
    ("verify", "--suite", "lemma32", "--json"),
    ("gwa-check",),
)
CLI_COLD = Workload(
    "cli_cold",
    "Each drasp4 command in a fresh interpreter with cold caches, the only "
    "workload where import dominates and the only one covering parser, cli, "
    "verify and the realization phi.",
    ops=len(CLI_COMMANDS), in_process=False)


# Every command above succeeds, and all its checks pass: exit code 0.
CLI_EXPECTED_EXIT = 0


def cli_command_order(seed):
    """The commands in a seeded order; every one runs in its own process,
    so the order changes no output."""
    order = list(CLI_COMMANDS)
    random.Random(seed).shuffle(order)
    return order


def cli_label(argv) -> str:
    return shlex.join(argv)


WORKLOADS = {w.name: w for w in (DRA_RANDOM, DRA_HIGH_DEGREE, GWA_NATIVE,
                                 CLI_COLD)}

# Inputs of these workloads do not depend on the seed, so their reference
# digests hold on every seed.
SEED_FREE = ("dra_high_degree", "cli_cold")


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def digest_json(obj) -> str:
    return digest_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def run_in_process(d, name, seed):
    """Inputs and operations of an in-process workload.

    Returns (labels, thunks, render, check): ``thunks[k]()`` performs
    operation k, ``render`` maps its result to canonical JSON and ``check``
    returns an error message for a result that fails a self-check.
    """
    if name in ("dra_random", "dra_high_degree"):
        pairs = (dra_random_inputs if name == "dra_random"
                 else dra_high_degree_inputs)(d, seed)
        thunks = [lambda u=u, v=v: d.diamond(u, v) for u, v in pairs]

        def check(k, result):
            if result.is_zero():
                return "product of two non-zero factors is zero"
            return None

        return ([f"op{k}" for k in range(len(pairs))], thunks,
                d.dra.dra_json, check)
    if name == "gwa_native":
        pairs = gwa_native_inputs(d, seed)
        thunks = [lambda u=u, v=v: u * v for u, v in pairs]

        def check(k, result):
            if k % GWA_CLASSICAL_EVERY:
                return None
            u, v = pairs[k]
            image = d.weyl_gwa_image
            if image(result) != image(u) * image(v):
                return "classical product disagrees with the Weyl algebra"
            return None

        return ([f"op{k}" for k in range(len(pairs))], thunks,
                d.gwa.gwa_json, check)
    raise ValueError(f"not an in-process workload: {name}")


def fixed_checks(d, name):
    """Self-checks on a fixed sample, independent of the seed: a list of
    (label, error or None)."""
    if name != "gwa_native":
        return []
    out = []
    for k, (u, v, w) in enumerate(gwa_associativity_sample(d)):
        try:
            ok = (u * v) * w == u * (v * w)
        except Exception as exc:  # a check that raises has failed
            out.append((f"assoc{k}", f"raised {type(exc).__name__}: {exc}"))
            continue
        out.append((f"assoc{k}", None if ok else "product is not associative"))
    return out
