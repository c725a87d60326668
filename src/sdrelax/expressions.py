"""Tiny arithmetic expression language for user-supplied energy densities.

Supported: ``+ - * /``, unary minus, numeric literals, parentheses, variable
names with component indexing (``A[0,1]``; an index past the variable's
shape is an ``ExpressionError``), and the functions ``abs`` (on scalars),
``norm`` (Frobenius), and ``dot`` (vector/matrix contraction).
No general code loading: this is the whole language.

Expressions are compiled once into closures that evaluate on numpy arrays
with arbitrary leading batch dimensions; each variable has a fixed core rank
(``x``: 1, ``A``: 2, ``M``: 3, ``lam``: 1, ``Lam``: 2, ``nu``: 1).
"""

from __future__ import annotations

import re

import numpy as np

from .integrate import norm

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[-+*/(),\[\]]))"
)


class ExpressionError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExpressionError(f"cannot tokenize near {rest[:12]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("sym", m.group("sym")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, var_ranks):
        self.tokens = tokens
        self.pos = 0
        self.var_ranks = var_ranks

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, sym):
        kind, val = self.next()
        if kind != "sym" or val != sym:
            raise ExpressionError(f"expected {sym!r}, got {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError(f"trailing input at {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            op = self.next()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("sym", "*") or self.peek() == ("sym", "/"):
            op = self.next()[1]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == ("sym", "-"):
            self.next()
            return ("neg", self.unary())
        return self.postfix()

    def postfix(self):
        node = self.primary()
        if self.peek() == ("sym", "["):
            self.next()
            indices = [self.integer()]
            while self.peek() == ("sym", ","):
                self.next()
                indices.append(self.integer())
            self.expect("]")
            node = ("index", node, tuple(indices))
        return node

    def integer(self) -> int:
        kind, val = self.next()
        if kind != "num" or "." in val or "e" in val or "E" in val:
            raise ExpressionError(f"index must be an integer, got {val!r}")
        return int(val)

    def primary(self):
        kind, val = self.next()
        if kind == "num":
            return ("const", float(val))
        if kind == "name":
            if self.peek() == ("sym", "("):
                self.next()
                args = [self.expr()]
                while self.peek() == ("sym", ","):
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if val not in ("abs", "norm", "dot"):
                    raise ExpressionError(f"unknown function {val!r}")
                return ("call", val, args)
            if val not in self.var_ranks:
                raise ExpressionError(f"unknown variable {val!r}")
            return ("var", val)
        if kind == "sym" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}")


def _align(a, ra, b, rb):
    """Pad the lower-rank operand with trailing axes so batch dims line up."""
    if isinstance(a, float) or isinstance(b, float):
        return a, b, max(ra, rb)
    if ra == rb:
        return a, b, ra
    if ra == 0:
        return a.reshape(a.shape + (1,) * rb), b, rb
    if rb == 0:
        return a, b.reshape(b.shape + (1,) * ra), ra
    raise ExpressionError(f"rank mismatch in elementwise op ({ra} vs {rb})")


_DOT_RULES = {
    (1, 1): ("...i,...i->...", 0),
    (2, 1): ("...ij,...j->...i", 1),
    (1, 2): ("...i,...ij->...j", 1),
    (2, 2): ("...ij,...jk->...ik", 2),
    (3, 1): ("...ijk,...k->...ij", 2),
}


def _evaluate(node, env):
    kind = node[0]
    if kind == "const":
        return node[1], 0
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        v, r = _evaluate(node[1], env)
        return -v, r
    if kind in ("add", "sub", "mul"):
        a, ra = _evaluate(node[1], env)
        b, rb = _evaluate(node[2], env)
        a, b, r = _align(a, ra, b, rb)
        if kind == "add":
            return a + b, r
        if kind == "sub":
            return a - b, r
        return a * b, r
    if kind == "div":
        a, ra = _evaluate(node[1], env)
        b, rb = _evaluate(node[2], env)
        if rb != 0:
            raise ExpressionError("division only by scalars")
        if isinstance(b, float):
            return a / b, ra
        return a / b.reshape(b.shape + (1,) * ra), ra
    if kind == "index":
        v, r = _evaluate(node[1], env)
        idx = node[2]
        if len(idx) > r:
            raise ExpressionError("too many indices")
        try:
            return v[(Ellipsis,) + idx], r - len(idx)
        except IndexError as err:
            what = node[1][1] if node[1][0] == "var" else "a subexpression"
            raise ExpressionError(f"index {list(idx)} is out of range for {what} "
                                  f"of shape {v.shape[v.ndim - r:]}") from err
    if kind == "call":
        name, args = node[1], node[2]
        vals = [_evaluate(a, env) for a in args]
        if name == "abs":
            (v, r), = vals
            return np.abs(v), r
        if name == "norm":
            (v, r), = vals
            return norm(v, r), 0
        if name == "dot":
            (a, ra), (b, rb) = vals
            rule = _DOT_RULES.get((ra, rb))
            if rule is None:
                raise ExpressionError(f"dot undefined for ranks ({ra},{rb})")
            return np.einsum(rule[0], a, b), rule[1]
    raise ExpressionError(f"bad node {kind!r}")  # pragma: no cover


class CompiledExpression:
    """Parsed expression evaluating to a scalar over named tensor variables."""

    def __init__(self, text: str, var_ranks: dict[str, int]):
        self.text = text
        self.var_ranks = dict(var_ranks)
        self._ast = _Parser(_tokenize(text), self.var_ranks).parse()

    def __call__(self, **variables):
        env = {}
        for name, rank in self.var_ranks.items():
            if name not in variables:
                raise ExpressionError(f"missing variable {name!r}")
            env[name] = (np.asarray(variables[name], dtype=float), rank)
        value, rank = _evaluate(self._ast, env)
        if rank != 0:
            raise ExpressionError(f"expression has tensor rank {rank}, expected scalar")
        return value


BULK_VARS = {"x": 1, "A": 2, "M": 3}
PSI1_VARS = {"x": 1, "lam": 1, "nu": 1}
PSI2_VARS = {"x": 1, "Lam": 2, "nu": 1}


def compile_bulk(text: str) -> CompiledExpression:
    return CompiledExpression(text, BULK_VARS)


def compile_psi1(text: str) -> CompiledExpression:
    return CompiledExpression(text, PSI1_VARS)


def compile_psi2(text: str) -> CompiledExpression:
    return CompiledExpression(text, PSI2_VARS)
