"""A tiny expression language for naming graph families on the command line.

Grammar (whitespace is ignored)::

    expr   := INT '*' expr            m disjoint copies
            | atom
    atom   := 'U' '(' expr, ... ')'   disjoint union
            | 'J' '(' expr, ... ')'   join
            | 'B' '(' expr, expr, ... ')'   blow-up: the first expr is the
                                      base, then one per base vertex
            | '~' atom                complement
            | '(' expr ')'
            | leaf
    leaf   := 'K' INT                 complete graph
            | 'E' INT                 empty graph
            | 'P' INT                 path
            | 'C' INT                 cycle
            | 'T' INT                 broom tree (pendant paths of lengths 1..k)
            | 'C5\''                  the house: the 5-cycle plus a chord
            | 'bull'                  triangle with two pendant vertices
            | 'K' '(' INT, INT, ... ')'   complete multipartite

The leaves are the entries of :data:`symbreak.graphs.LEAF_KINDS` and the
combinators those of :data:`symbreak.graphs._COMBINATORS`; the parser and
:func:`format_spec` read their names and letters from these two tables.
INT is ASCII digits with a value of at most
:data:`symbreak.graphs.MAX_VERTICES`, and nesting is bounded by
``_MAX_NESTING``.  A leaf its builder refuses (``P0``, ``C2``) and an order
over the cap are refused at their position in the text.

Examples: ``K(3,3)``, ``J(K1,U(K1,2*K2))``, ``B(P4,K1,E3,K1,U(K1,K2))``, ``~C5``.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .graphs import (_COMBINATORS, LEAF_KINDS, MAX_VERTICES, FamilySpec, GraphError, _check_order,
                     family_order)

#: Deepest nesting the parser accepts, where every ``expr`` and ``atom`` in
#: the grammar counts one level (``K1`` is two, ``~~K1`` and ``(K1)`` four).
#: It keeps parsing and construction well inside the recursion limit.
_MAX_NESTING = 100

_KIND_OF_LETTER = {letter: kind for kind, letter in _COMBINATORS.items()}


class ExpressionError(ValueError):
    """The input is not a well-formed family expression."""


def _is_digit(ch: str) -> bool:
    # str.isdigit also accepts characters such as '²' that int() rejects.
    return ch.isascii() and ch.isdigit()


def _nested(method: Callable) -> Callable:
    def parse(self: "_Parser") -> FamilySpec:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.error(f"expression nests deeper than {_MAX_NESTING} levels")
        spec = method(self)
        self.depth -= 1
        return spec

    return parse


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ExpressionError:
        return ExpressionError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str) -> None:
        if self.peek() != expected:
            raise self.error(f"expected {expected!r}")
        self.pos += 1

    def integer(self) -> int:
        ch = self.peek()
        if not _is_digit(ch):
            raise self.error("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        digits = self.text[start : self.pos].lstrip("0") or "0"
        # Every integer counts vertices or copies, so none above the vertex
        # cap builds a graph.  Refusing one here keeps a huge K<n> from
        # listing its edges before the cap is checked.
        if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
            raise self.error(f"integers above the {MAX_VERTICES}-vertex cap name no graph")
        return int(digits)

    @_nested
    def expr(self) -> FamilySpec:
        if _is_digit(self.peek()):
            count = self.integer()
            self.take("*")
            sub = self.expr()
            if count < 1:
                raise self.error("copy counts must be at least 1")
            return sub if count == 1 else _capped(FamilySpec("union", parts=(sub,) * count))
        return self.atom()

    @_nested
    def atom(self) -> FamilySpec:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            sub = self.expr()
            self.take(")")
            return sub
        kind = _KIND_OF_LETTER.get(ch)
        if kind is None:
            return self.leaf()
        self.take(ch)
        if kind == "complement":
            return FamilySpec(kind, parts=(self.atom(),))
        return _capped(FamilySpec(kind, parts=self.args(self.expr)))

    def leaf(self) -> FamilySpec:
        start = self.pos
        for kind, leaf in LEAF_KINDS.items():
            self.pos = start
            if not self.word(leaf.name):
                continue
            if leaf.arity == 0:
                return FamilySpec(kind)
            if (self.peek() == "(") != (leaf.arity == 2):
                continue
            params = self.args(self.integer) if leaf.arity == 2 else (self.integer(),)
            spec = FamilySpec(kind, params)
            leaf.build(*params)  # the builder states the leaf's domain: P0 or C2 raises here
            return spec
        self.pos = start
        raise self.error("expected a family expression")

    def word(self, name: str) -> bool:
        for letter in name:
            if self.peek() != letter:
                return False
            self.pos += 1
        return True

    def args(self, item: Callable) -> tuple:
        """A parenthesised, comma-separated list, each entry parsed by ``item``."""
        self.take("(")
        values = [item()]
        while self.peek() == ",":
            self.take(",")
            values.append(item())
        self.take(")")
        return tuple(values)


def _capped(spec: FamilySpec) -> FamilySpec:
    # every parsed leaf has a vertex, so a parsed spec has at most 64 leaves
    _check_order(family_order(spec))
    return spec


def parse_expression(text: str) -> FamilySpec:
    """Parse a family expression; raises :class:`ExpressionError` otherwise."""
    parser = _Parser(text)
    try:
        spec = parser.expr()
    except GraphError as err:  # a FamilySpec refused, at the position it was built
        raise parser.error(str(err)) from None
    if parser.peek():
        raise parser.error("trailing input")
    return spec


def format_spec(spec: FamilySpec) -> str:
    """Render a spec back into the expression language.

    Repeated operands of unions and joins collapse to the ``m*`` shorthand,
    so ``U(K2,K2)`` prints as ``2*K2`` inside a union.
    """
    kind = spec.kind
    leaf = LEAF_KINDS.get(kind)
    if leaf is not None:
        params = ",".join(str(p) for p in spec.params)
        return f"{leaf.name}({params})" if leaf.arity == 2 else leaf.name + params
    letter = _COMBINATORS[kind]
    if kind == "complement":
        # a complement's operand is an atom, which the m* shorthand is not
        rendered = format_spec(spec.parts[0])
        return letter + (f"({rendered})" if _is_digit(rendered[0]) else rendered)
    # The m* shorthand means m disjoint copies, so runs may only be
    # collapsed inside unions.
    if kind == "union":
        runs = [(part, len(list(run))) for part, run in itertools.groupby(spec.parts)]
    else:
        runs = [(part, 1) for part in spec.parts]
    groups = [format_spec(p) if m == 1 else f"{m}*{format_spec(p)}" for p, m in runs]
    if len(groups) == 1:
        return groups[0]
    return f"{letter}(" + ",".join(groups) + ")"
