"""AST node types and term evaluation. Every node keeps its source position
for diagnostics; positions are excluded from structural equality so a
parse/print round trip compares equal."""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import lattices
from ..errors import CalmlabError

Pos = tuple  # (line, col)

NOPOS: Pos = (0, 0)


@dataclass(frozen=True)
class Var:
    name: str
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Wildcard:
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Const:
    value: object  # scalar Value
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class LatticeTerm:
    """A lattice constructor of a ``variant`` of ``lattices.VARIANT_NAMES``;
    ``parts`` holds its scalar terms, grouped as in ``lattices.text``."""

    variant: str
    parts: tuple
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class AggTerm:
    """count<X> / min<X> / max<X>; head position only."""

    kind: str  # count | min | max
    var: Var
    pos: Pos = field(default=NOPOS, compare=False)


Term = object  # Var | Wildcard | Const | LatticeTerm | AggTerm (head only)


@dataclass(frozen=True)
class Literal:
    relation: str
    args: tuple
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Negation:
    literal: Literal
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Comparison:
    op: str  # = != < <=
    left: object
    right: object
    pos: Pos = field(default=NOPOS, compare=False)


BodyElem = object  # Literal | Negation | Comparison


@dataclass(frozen=True)
class Rule:
    head: Literal
    body: tuple  # tuple[BodyElem]; empty for ground-fact rules
    pos: Pos = field(default=NOPOS, compare=False)


ADDR, SCALAR = "addr", "scalar"


@dataclass(frozen=True)
class ColSpec:
    name: str
    role: str  # ADDR | SCALAR | a lattice variant: gset | maxint | boolor | 2p
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class RelDecl:
    name: str
    cols: tuple  # tuple[ColSpec]
    channel: bool
    persistence: str  # persisted | event
    is_input: bool = False
    is_output: bool = False
    pos: Pos = field(default=NOPOS, compare=False)


@dataclass(frozen=True)
class Program:
    decls: tuple  # tuple[RelDecl]
    rules: tuple  # tuple[Rule]
    filename: str = field(default="<input>", compare=False)


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
