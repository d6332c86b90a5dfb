"""AST node types and term evaluation. Every node keeps its source position
for diagnostics; positions are excluded from structural equality so a
parse/print round trip compares equal."""

from __future__ import annotations

from .. import lattices
from ..errors import CalmlabError
from ..record import Record, set_field

Pos = tuple  # (line, col)

NOPOS: Pos = (0, 0)


class Var(Record):
    __slots__ = ("name", "pos")
    _fields = ("name",)

    def __init__(self, name: str, pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "pos", pos)


class Wildcard(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        set_field(self, "pos", pos)


class Const(Record):
    __slots__ = ("value", "pos")
    _fields = ("value",)

    def __init__(self, value, pos: Pos = NOPOS):
        set_field(self, "value", value)  # scalar Value
        set_field(self, "pos", pos)


class LatticeTerm(Record):
    """A lattice constructor of a ``variant`` of ``lattices.VARIANT_NAMES``;
    ``parts`` holds its scalar terms, grouped as in ``lattices.text``."""

    __slots__ = ("variant", "parts", "pos")
    _fields = ("variant", "parts")

    def __init__(self, variant: str, parts: tuple, pos: Pos = NOPOS):
        set_field(self, "variant", variant)
        set_field(self, "parts", parts)
        set_field(self, "pos", pos)


class AggTerm(Record):
    """count<X> / min<X> / max<X>; head position only."""

    __slots__ = ("kind", "var", "pos")
    _fields = ("kind", "var")

    def __init__(self, kind: str, var: Var, pos: Pos = NOPOS):
        set_field(self, "kind", kind)  # count | min | max
        set_field(self, "var", var)
        set_field(self, "pos", pos)


Term = object  # Var | Wildcard | Const | LatticeTerm | AggTerm (head only)


class Literal(Record):
    __slots__ = ("relation", "args", "pos")
    _fields = ("relation", "args")

    def __init__(self, relation: str, args: tuple, pos: Pos = NOPOS):
        set_field(self, "relation", relation)
        set_field(self, "args", args)
        set_field(self, "pos", pos)


class Negation(Record):
    __slots__ = ("literal", "pos")
    _fields = ("literal",)

    def __init__(self, literal: Literal, pos: Pos = NOPOS):
        set_field(self, "literal", literal)
        set_field(self, "pos", pos)


class Comparison(Record):
    __slots__ = ("op", "left", "right", "pos")
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left, right, pos: Pos = NOPOS):
        set_field(self, "op", op)  # = != < <=
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "pos", pos)


BodyElem = object  # Literal | Negation | Comparison


class Rule(Record):
    __slots__ = ("head", "body", "pos")
    _fields = ("head", "body")

    def __init__(self, head: Literal, body: tuple, pos: Pos = NOPOS):
        set_field(self, "head", head)
        set_field(self, "body", body)  # tuple[BodyElem]; empty for ground-fact rules
        set_field(self, "pos", pos)


ADDR, SCALAR = "addr", "scalar"


class ColSpec(Record):
    __slots__ = ("name", "role", "pos")
    _fields = ("name", "role")

    def __init__(self, name: str, role: str, pos: Pos = NOPOS):
        set_field(self, "name", name)
        # ADDR | SCALAR | a lattice variant: gset | maxint | boolor | 2p
        set_field(self, "role", role)
        set_field(self, "pos", pos)


class RelDecl(Record):
    __slots__ = ("name", "cols", "channel", "persistence", "is_input", "is_output", "pos")
    _fields = ("name", "cols", "channel", "persistence", "is_input", "is_output")

    def __init__(self, name: str, cols: tuple, channel: bool, persistence: str,
                 is_input: bool = False, is_output: bool = False, pos: Pos = NOPOS):
        set_field(self, "name", name)
        set_field(self, "cols", cols)  # tuple[ColSpec]
        set_field(self, "channel", channel)
        set_field(self, "persistence", persistence)  # persisted | event
        set_field(self, "is_input", is_input)
        set_field(self, "is_output", is_output)
        set_field(self, "pos", pos)


class Program(Record):
    __slots__ = ("decls", "rules", "filename")
    _fields = ("decls", "rules")

    def __init__(self, decls: tuple, rules: tuple, filename: str = "<input>"):
        set_field(self, "decls", decls)  # tuple[RelDecl]
        set_field(self, "rules", rules)  # tuple[Rule]
        set_field(self, "filename", filename)


def term_vars(t) -> list[Var]:
    """Named variables occurring in a term (wildcards excluded)."""
    if isinstance(t, Var):
        return [t]
    if isinstance(t, AggTerm):
        return [t.var]
    if isinstance(t, LatticeTerm):
        return [v for group in t.parts for e in group for v in term_vars(e)]
    return []


def literal_vars(lit: Literal) -> list[Var]:
    return [v for a in lit.args for v in term_vars(a)]


# --- term evaluation ---------------------------------------------------------


class EvalError(CalmlabError):
    """Runtime typing failure while instantiating a head (e.g. maxint over
    a non-integer binding), at the offending term's position."""


def eval_term(term, env: dict):
    if isinstance(term, Var):
        return env[term.name]
    if isinstance(term, Const):
        return term.value
    raise EvalError(f"cannot evaluate term {term!r}", term.pos)


def eval_head_term(term, env: dict):
    """The value of a head term under ``env``; a ground term needs none."""
    if isinstance(term, LatticeTerm):
        parts = tuple(tuple(eval_term(e, env) for e in group) for group in term.parts)
        try:
            return lattices.make(term.variant, parts)
        except lattices.LatticeTypeError as e:  # maxint() of a non-integer, its one part
            raise EvalError(e.message, term.parts[0][0].pos) from None
    return eval_term(term, env)
