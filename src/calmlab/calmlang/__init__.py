"""The rule language: grammar, parser, validator, rule printer.

Programs are lists of relation declarations and rules::

    rel local_edge(x, y) [input]
    rel nbr(@owner, @peer) [input]
    chan copy(@dest, x, y)
    rel path(x, y) [output]

    edge(X, Y) :- local_edge(X, Y).
    edge(X, Y) :- copy(_, X, Y).
    copy(P, X, Y) :- local_edge(X, Y), id(M), nbr(M, P).
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- edge(X, Y), path(Y, Z).

Non-monotone constructs are visually distinct: negation is ``!lit(...)``,
aggregates are ``count<X>`` / ``min<X>`` / ``max<X>`` in rule heads.
See docs/language.md for the full grammar.
"""

from .syntax import Negation
from .parser import ParseError, parse_program
from .validate import (
    ValidatedProgram,
    ValidatedRule,
    ValidationError,
    validate_program,
)
