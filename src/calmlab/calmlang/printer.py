"""Rule printer for reports and messages. Reparsing a printed rule yields a
structurally equal rule."""

from __future__ import annotations

from .. import lattices
from .syntax import (
    AggTerm,
    Comparison,
    Const,
    LatticeTerm,
    Literal,
    Negation,
    Var,
    Wildcard,
)


def term_to_text(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Wildcard):
        return "_"
    if isinstance(t, Const):
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        return str(t.value)
    if isinstance(t, AggTerm):
        return f"{t.kind}<{t.var.name}>"
    if isinstance(t, LatticeTerm):
        parts = tuple(tuple(term_to_text(e) for e in group) for group in t.parts)
        return lattices.text(t.variant, parts)
    raise TypeError(f"unknown term {t!r}")


def literal_to_text(lit: Literal) -> str:
    return "%s(%s)" % (lit.relation, ", ".join(term_to_text(a) for a in lit.args))


def body_elem_to_text(e) -> str:
    if isinstance(e, Negation):
        return "!" + literal_to_text(e.literal)
    if isinstance(e, Comparison):
        return f"{term_to_text(e.left)} {e.op} {term_to_text(e.right)}"
    return literal_to_text(e)


def rule_to_text(r) -> str:
    if not r.body:
        return literal_to_text(r.head) + "."
    return "%s :- %s." % (
        literal_to_text(r.head),
        ", ".join(body_elem_to_text(e) for e in r.body),
    )
