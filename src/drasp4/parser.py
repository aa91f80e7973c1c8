"""Expression parser and evaluator for the command-line surface.

Deterministic recursive descent (one-token lookahead) over the grammar

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor | factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := name | integer | 'i' | '(' expr ')'

Adjacent factors multiply.  In the reduction-algebra mode '*' (and '^')
is the diamond product while plain adjacency builds normal-ordered basis
monomials, so rendered canonical forms evaluate back to themselves; in
the ambient mode the two coincide.  A divisor must evaluate to a
dynamical scalar.
"""

from __future__ import annotations

import re as _re

from .scalars import HA, HB, RF_I, RatFunc, RF_ONE
from .ambient import AmbientElem, red
from .dra import DraElem, diamond
from .gwa import BasePoly


class ParseError(ValueError):
    """Syntax or evaluation error with a 1-based byte offset."""

    def __init__(self, message: str, pos: int, expected=()):
        self.pos = pos
        self.expected = tuple(expected)
        tail = ""
        if expected:
            tail = " (expected " + ", ".join(expected) + ")"
        super().__init__(f"{message} at offset {pos}{tail}")


_TOKEN_RE = _re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*)"
                        r"|(?P<int>[0-9]+)"
                        r"|(?P<op>[-+*/^()]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.lastgroup is None:
            bad = pos + len(src[pos:]) - len(src[pos:].lstrip())
            if bad >= len(src):
                break
            raise ParseError(f"unexpected character {src[bad]!r}", bad + 1)
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int")), m.start("int") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", None, len(src) + 1))
    return tokens


_ATOM_STARTERS = ("name", "int")

# Parentheses and unary minus nest factors; each level costs a few stack
# frames here and one in evaluation, so the depth is capped well below
# the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            return self.next()
        raise ParseError("syntax error", pos, (f"'{op}'",))

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos, ("end of input",))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = ("mul" if val == "*" else "div", node, rhs, pos)
            elif kind in _ATOM_STARTERS or (kind == "op" and val == "("):
                rhs = self.factor()
                node = ("juxt", node, rhs, pos)
            else:
                return node

    def factor(self):
        kind, val, pos = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING}",
                             pos)
        if kind == "op" and val == "-":
            self.next()
            node = ("neg", self.factor())
        else:
            node = self.atom()
            kind, val, pos = self.peek()
            if kind == "op" and val == "^":
                self.next()
                ekind, eval_, epos = self.peek()
                if ekind != "int":
                    raise ParseError("syntax error", epos,
                                     ("non-negative integer exponent",))
                self.next()
                node = ("pow", node, eval_)
        self.depth -= 1
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "name":
            return ("atom", val, pos)
        if kind == "int":
            return ("num", val, pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("syntax error", pos,
                         ("name", "integer", "'('", "'-'"))


def parse(src: str):
    """Parse a source string into an expression tree."""
    return _Parser(src).parse()


W_NAMES = ("x1", "x2", "d1", "d2")
EF_NAMES = ("Ea", "Eb", "Eba", "Eb2a", "Fa", "Fb", "Fba", "Fb2a")
SCALAR_ATOMS = {"Ha": HA, "Hb": HB, "i": RF_I}


class _Evaluator:
    """mode: 'ambient', 'dra', 'scalar', or 'base'."""

    def __init__(self, mode: str):
        if mode not in ("ambient", "dra", "scalar", "base"):
            raise ValueError(f"unknown evaluation mode: {mode}")
        self.mode = mode

    # -- scalar embedding per mode --

    def from_scalar(self, f: RatFunc):
        if self.mode == "scalar":
            return f
        if self.mode == "base":
            return BasePoly.const(2, f)
        if self.mode == "ambient":
            return AmbientElem.scalar(f)
        return DraElem.scalar(f)

    def atom(self, name: str, pos: int):
        f = SCALAR_ATOMS.get(name)
        if f is not None:
            return self.from_scalar(f)
        if self.mode == "base" and name in ("t1", "t2"):
            return BasePoly.tvar(2, int(name[1]))
        if self.mode in ("ambient", "dra") and name in W_NAMES:
            return (AmbientElem.gen(name) if self.mode == "ambient"
                    else DraElem.gen(name))
        if name in EF_NAMES:
            if self.mode == "ambient":
                return AmbientElem.gen(name)
            if self.mode == "dra":
                raise ParseError("generator not available in dra mode", pos)
        raise ParseError(f"unknown symbol {name!r}", pos)

    def as_scalar(self, v, pos: int) -> RatFunc:
        if isinstance(v, RatFunc):
            return v
        try:
            if isinstance(v, (AmbientElem, DraElem, BasePoly)):
                return v.scalar_value()
        except ValueError:
            pass
        raise ParseError("divisor must be a dynamical scalar", pos)

    def mul(self, a, b):
        if self.mode == "dra":
            return diamond(a, b)
        return a * b

    def juxt(self, a, b):
        if self.mode == "dra":
            prod = a.to_ambient() * b.to_ambient()
            return DraElem.from_ambient(red(prod, "II"))
        return a * b

    def div(self, a, b, pos: int):
        f = self.as_scalar(b, pos)
        if f.is_zero():
            raise ParseError("zero divisor in scalar field", pos)
        inv = f.inv()
        if isinstance(a, RatFunc):
            return a * inv
        if isinstance(a, BasePoly):
            return a.scaled(inv)
        return a.rmul_scalar(inv)

    def eval(self, node):
        op = node[0]
        if op == "num":
            return self.from_scalar(RatFunc.const(node[1]))
        if op == "atom":
            return self.atom(node[1], node[2])
        if op == "neg":
            return -self.eval(node[1])
        if op == "add":
            return self.eval(node[1]) + self.eval(node[2])
        if op == "sub":
            return self.eval(node[1]) - self.eval(node[2])
        if op == "mul":
            return self.mul(self.eval(node[1]), self.eval(node[2]))
        if op == "juxt":
            return self.juxt(self.eval(node[1]), self.eval(node[2]))
        if op == "div":
            return self.div(self.eval(node[1]), self.eval(node[2]), node[3])
        if op == "pow":
            base = self.eval(node[1])
            out = self.from_scalar(RF_ONE)
            for _ in range(node[2]):
                out = self.mul(out, base)
            return out
        raise AssertionError(f"unhandled node {op}")


def evaluate(src: str, mode: str):
    """Parse and evaluate in the given mode ('ambient', 'dra', 'scalar',
    'base'); returns the matching element type."""
    return _Evaluator(mode).eval(parse(src))
