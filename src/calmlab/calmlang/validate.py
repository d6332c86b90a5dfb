"""Static checks that turn a parsed Program into a ValidatedProgram.

Beyond the classic datalog safety conditions (range restriction, bound
negation, bound comparisons) this gives every term the role of a column
(``role``: an address, a lattice variant, or a scalar) and checks it at
every use, so an address comes only from a constant or an ``@`` column and
goes only to an ``@`` column, and a lattice value leaves its lattice only
by merging. ``value_error`` is the same rule for program constants and, by
``fact_error``, fixture values. Channel relations route on an
address-typed first column, input/output markers only make sense on
persisted relations, and lattice-typed columns stay out of channels,
events, and negated literals.

Validation also fixes a per-rule evaluation plan: positive literals join in
source order and each filter (comparison or negation) runs as soon as its
variables are bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .. import lattices
from ..errors import CalmlabError
from ..lattices import VARIANT_NAMES
from ..values import Address
from .printer import term_to_text
from .syntax import (
    ADDR,
    SCALAR,
    AggTerm,
    ColSpec,
    Comparison,
    Const,
    LatticeTerm,
    Literal,
    Negation,
    Program,
    RelDecl,
    Rule,
    Var,
    Wildcard,
    literal_vars,
    term_vars,
)

RESERVED_RELATIONS = ("id", "all")

JOINABLE = frozenset((SCALAR, ADDR))  # the roles a join or comparison may read
_VALUE_ROLES = {Address: ADDR, **VARIANT_NAMES}


class ValidationError(CalmlabError):
    """A program that parses but breaks a static rule, at its position."""


@dataclass(frozen=True)
class Schema:
    name: str
    cols: tuple  # tuple[ColSpec]
    kind: str  # persisted | event | channel
    is_input: bool = False
    is_output: bool = False
    reserved: bool = False

    @property
    def arity(self) -> int:
        return len(self.cols)

    @cached_property
    def lattice_cols(self) -> tuple:
        return tuple(i for i, c in enumerate(self.cols) if c.role not in JOINABLE)

    @cached_property
    def scalar_cols(self) -> tuple:
        return tuple(i for i, c in enumerate(self.cols) if c.role in JOINABLE)


@dataclass(frozen=True)
class ValidatedRule:
    rule: Rule
    index: int
    plan: tuple  # body elements ordered so filters run once bound
    positives: tuple  # positive body literals, source order
    negations: tuple
    agg: AggTerm | None
    agg_pos: int | None

    @cached_property
    def reads(self) -> tuple:
        """(plan position, relation) of each positive literal."""
        return tuple((i, e.relation) for i, e in enumerate(self.plan) if isinstance(e, Literal))

    @cached_property
    def body_rels(self) -> frozenset:
        """The relations the body reads, positively or negated."""
        literals = (*self.positives, *(n.literal for n in self.negations))
        return frozenset(lit.relation for lit in literals)

    @cached_property
    def kernel(self):
        """The rule compiled for the engine (``transducer.compile_rule``):
        built when the rule first fires, kept for the rule's lifetime."""
        from .. import transducer  # transducer imports this package

        return transducer.compile_rule(self)


@dataclass(frozen=True)
class ValidatedProgram:
    """A checked program. The derived views below are computed on first use
    and kept on the instance; ``schemas`` and ``rules`` never change."""

    program: Program
    schemas: dict  # name -> Schema (includes reserved id/all)
    rules: tuple  # tuple[ValidatedRule]

    @cached_property
    def channel_rels(self) -> frozenset:
        return frozenset(n for n, s in self.schemas.items() if s.kind == "channel")

    @cached_property
    def output_rels(self) -> frozenset:
        return frozenset(n for n, s in self.schemas.items() if s.is_output)

    @cached_property
    def stratum_of(self) -> dict:
        """relation -> stratum index; raises monocheck.UnstratifiableError."""
        from .. import monocheck  # monocheck imports this package

        return {rel: i for i, layer in enumerate(monocheck.stratify(self)) for rel in layer}

    @cached_property
    def strata(self) -> tuple:
        """Per stratum, lowest first, the rules whose head it holds."""
        levels = max(self.stratum_of.values(), default=0) + 1
        return tuple(
            tuple(r for r in self.rules if self.stratum_of.get(r.rule.head.relation, 0) == level)
            for level in range(levels)
        )

    @cached_property
    def fixed(self) -> frozenset:
        """The relations whose contents are the same in every step of a
        machine: a relation is fixed if it is not a channel and every rule
        deriving it reads, positively or negated, only fixed relations. So
        ``id``, ``all``, the inputs no rule derives, and recursion over
        those are fixed; this is the largest set that the rule allows."""
        fixed = set(self.schemas) - self.channel_rels
        while True:
            unfixed = {r.rule.head.relation for r in self.rules if not r.body_rels <= fixed}
            if not unfixed & fixed:
                return frozenset(fixed)
            fixed -= unfixed

    @cached_property
    def sends_once(self) -> bool:
        """Every channel rule reads only fixed relations, so a machine
        sends only in its first step (see ``netsim.enumerate_schedules``)."""
        return all(r.body_rels <= self.fixed for r in self.rules
                   if r.rule.head.relation in self.channel_rels)

    @cached_property
    def ephemeral(self) -> frozenset:
        """The relations whose facts live only in the step that delivers a
        message: the channels, and every event relation that a rule derives
        from an ephemeral relation, read positively or negated."""
        ephemeral = set(self.channel_rels)
        events = {n for n, s in self.schemas.items() if s.kind == "event"}
        while True:
            grown = {r.rule.head.relation for r in self.rules
                     if r.rule.head.relation in events and r.body_rels & ephemeral}
            if grown <= ephemeral:
                return frozenset(ephemeral)
            ephemeral |= grown

    @cached_property
    def deliveries_commute(self) -> bool:
        """Every rule that reads an ephemeral relation reads exactly one
        ephemeral literal, positively, with no aggregate, and all its other
        literals are fixed; and every negated relation, and every body
        relation of an aggregate rule, is fixed. A machine's state is then a
        function of the set of messages delivered to it, whatever their
        order and batching (see ``netsim.enumerate_schedules``)."""
        for r in self.rules:
            if not {n.literal.relation for n in r.negations} <= self.fixed:
                return False
            if r.agg is not None and not r.body_rels <= self.fixed:
                return False
            moving = [lit for lit in r.positives if lit.relation not in self.fixed]
            if (any(lit.relation in self.ephemeral for lit in moving)
                    and len(moving) != 1):
                return False
        return True

    @cached_property
    def refire(self) -> frozenset:
        """Indexes of the rules that a step must fire naively even on a
        closed state: those with an event head or a negated event or
        channel, whose facts do not outlive one step."""
        kind = {n: s.kind for n, s in self.schemas.items()}
        return frozenset(
            r.index for r in self.rules
            if kind[r.rule.head.relation] == "event"
            or any(kind[n.literal.relation] != "persisted" for n in r.negations)
        )


def _reserved_schemas() -> dict:
    addr_col = (ColSpec("a", ADDR),)
    return {
        "id": Schema("id", addr_col, "persisted", reserved=True),
        "all": Schema("all", addr_col, "persisted", reserved=True),
    }


def _check_decl(d: RelDecl) -> Schema:
    if d.name in RESERVED_RELATIONS:
        raise ValidationError(f"relation name {d.name!r} is reserved", d.pos)
    if d.channel:
        if not d.cols or d.cols[0].role != ADDR:
            raise ValidationError(
                f"channel relation {d.name} needs an address-typed first column "
                f"(write it as @{d.cols[0].name if d.cols else 'dest'})",
                d.pos,
            )
        if d.is_input or d.is_output:
            raise ValidationError(
                f"channel relation {d.name} cannot be marked input or output",
                d.pos,
            )
    if d.persistence == "event" and (d.is_input or d.is_output):
        raise ValidationError(
            f"event relation {d.name} cannot be marked input or output "
            "(fixture facts and quiescent reads need persisted state)",
            d.pos,
        )
    if any(c.role not in JOINABLE for c in d.cols) and (d.channel or d.persistence == "event"):
        raise ValidationError(
            f"relation {d.name}: lattice columns are only allowed in persisted relations",
            d.pos,
        )
    kind = "channel" if d.channel else d.persistence
    return Schema(d.name, d.cols, kind, d.is_input, d.is_output)


def role(x) -> str:
    """The role of a column (a ``ColSpec``) or of a value: ``"addr"`` for a
    machine address, a lattice variant for a value of that lattice, and
    ``"scalar"`` for anything else."""
    return x.role if isinstance(x, ColSpec) else _VALUE_ROLES.get(type(x), SCALAR)


def _held(r: str) -> str:
    return {ADDR: "machine addresses", SCALAR: "scalars"}.get(r, f"{r} values")


def _column(col: ColSpec, rel: str) -> str:
    kind = {ADDR: "address ", SCALAR: ""}.get(role(col), f"{role(col)} ")
    return f"{kind}column {col.name} of {rel}"


def _role_error(have: str, col: ColSpec, rel: str) -> str | None:
    """Why a value or term of role ``have`` cannot fill column ``col`` of
    ``rel``, or None."""
    if have == role(col):
        return None
    return f"column {col.name} of {rel} holds {_held(role(col))}, not {_held(have)}"


def value_error(value, col: ColSpec, rel: str) -> str | None:
    """Why ``value`` cannot sit in column ``col`` of ``rel``, or None. Program
    constants and fixture values obey this one rule: the value's role is
    the column's, and a lattice value's elements are scalars."""
    have = role(value)
    if have != role(col):
        return _role_error(have, col, rel)
    if have in JOINABLE:  # only a lattice value has elements
        return None
    for e in lattices.elements(value):
        if role(e) != SCALAR:
            return (f"column {col.name} of {rel} holds {have} values of scalars, "
                    f"not of {_held(role(e))}")
    return None


def fact_error(vp: ValidatedProgram, rel: str, args: tuple) -> str | None:
    """Why the fixture fact ``rel(args)`` cannot enter a run of ``vp``, or
    None. A fixture is an instance of the program's input: the relation is
    declared and marked input, and the fact has its arity and values that
    fit its columns (``value_error``)."""
    schema = vp.schemas.get(rel)
    if schema is None:
        return f"relation {rel} is not declared"
    if not schema.is_input:
        return f"relation {rel} is not marked input"
    if len(args) != schema.arity:
        return f"relation {rel} has arity {schema.arity}"
    for value, col in zip(args, schema.cols):
        error = value_error(value, col, rel)
        if error:
            return error
    return None


def _check_literal_against_schema(lit: Literal, schema: Schema, head: bool) -> None:
    """Arity, and the role of each term that is not a variable: a constant's
    value (``value_error``), a constructor's variant, an aggregate's scalar."""
    if len(lit.args) != schema.arity:
        raise ValidationError(
            f"{lit.relation} has arity {schema.arity}, used with {len(lit.args)} argument(s)",
            lit.pos,
        )
    for col, arg in zip(schema.cols, lit.args):
        error = None
        if isinstance(arg, Const):
            error = value_error(arg.value, col, lit.relation)
        elif isinstance(arg, LatticeTerm):
            if not head:
                raise ValidationError(
                    "lattice constructors are only allowed in rule heads", arg.pos
                )
            error = _role_error(arg.variant, col, lit.relation)
        elif isinstance(arg, AggTerm):
            if not head:
                raise ValidationError("aggregates may appear in rule heads only", arg.pos)
            error = _role_error(SCALAR, col, lit.relation)
        if error:
            raise ValidationError(error, arg.pos)


def _require(term, roles, use: str, bound: dict) -> None:
    """Raise at ``term``, a constant or a bound variable, if its role is not
    one of ``roles``; the error names the ``use``, and a variable's binding."""
    if isinstance(term, Const) and role(term.value) not in roles:
        have = "a machine address" if role(term.value) == ADDR else "a scalar"
        raise ValidationError(f"{term_to_text(term)} {use}, but it is {have}", term.pos)
    if isinstance(term, Var) and term.name in bound:
        have, col, rel = bound[term.name]
        if have not in roles:
            raise ValidationError(
                f"variable {term.name} {use}, but column {col.name} of {rel} holds {_held(have)}",
                term.pos,
            )


def _role_of(term, bound: dict) -> str | None:
    if isinstance(term, Const):
        return role(term.value)
    return bound[term.name][0] if isinstance(term, Var) and term.name in bound else None


def _check_roles(head: Literal, positives: list, negations: list, comparisons: list,
                 agg: AggTerm | None, schemas: dict) -> dict:
    """Type the rule's variables, and return each bound one's (role, column,
    relation) at its first binding. A positive literal binds a variable to
    its column's role. Every other occurrence is a use that requires a role
    (``_require``): a second binding, a negated literal's column or a head
    column requires the column's, and no join, comparison, count or
    aggregate grouping term takes a lattice value. The two sides of a
    comparison share a role, and a constructor part is a scalar."""
    bound: dict = {}
    for lit in positives:
        for col, term in zip(schemas[lit.relation].cols, lit.args):
            if isinstance(term, Var) and term.name not in bound:
                bound[term.name] = (role(col), col, lit.relation)
            elif isinstance(term, Var):
                roles = {role(col)} & JOINABLE
                _require(term, roles, f"is joined at {_column(col, lit.relation)}", bound)
    for lit in (n.literal for n in negations):
        for col, term in zip(schemas[lit.relation].cols, lit.args):
            _require(term, {role(col)}, f"fills {_column(col, lit.relation)}", bound)
    for c in comparisons:
        for side, other in ((c.left, c.right), (c.right, c.left)):
            need = _role_of(other, bound)
            roles = {need} if need in JOINABLE else JOINABLE
            _require(side, roles, f"is compared with {term_to_text(other)}", bound)
    for col, term in zip(schemas[head.relation].cols, head.args):
        where = _column(col, head.relation)
        if isinstance(term, LatticeTerm):
            for part in (p for group in term.parts for p in group):
                _require(part, {SCALAR}, f"is a constructor part in {where}", bound)
        elif isinstance(term, AggTerm) and term.kind == "count":
            _require(term.var, JOINABLE, f"is counted in {where}", bound)
        elif isinstance(term, AggTerm):
            _require(term.var, {role(col)}, f"fills {where}", bound)
        else:
            _require(term, {role(col)}, f"fills {where}", bound)
            if agg is not None:
                _require(term, JOINABLE, f"groups {term_to_text(agg)} in {where}", bound)
    return bound


def _validate_rule(rule: Rule, index: int, schemas: dict) -> ValidatedRule:
    head = rule.head
    if head.relation not in schemas:
        raise ValidationError(f"undeclared relation {head.relation}", head.pos)
    head_schema = schemas[head.relation]
    if head_schema.reserved:
        raise ValidationError(f"cannot derive into reserved relation {head.relation}", head.pos)
    _check_literal_against_schema(head, head_schema, head=True)

    aggs = [(i, a) for i, a in enumerate(head.args) if isinstance(a, AggTerm)]
    if len(aggs) > 1:
        raise ValidationError("at most one aggregate per rule head", head.pos)
    agg_pos, agg = aggs[0] if aggs else (None, None)

    for a in head.args:
        if isinstance(a, Wildcard):
            raise ValidationError("wildcard not allowed in rule head", a.pos)

    positives = [e for e in rule.body if isinstance(e, Literal)]
    negations = [e for e in rule.body if isinstance(e, Negation)]
    comparisons = [e for e in rule.body if isinstance(e, Comparison)]

    for lit in positives + [n.literal for n in negations]:
        if lit.relation not in schemas:
            raise ValidationError(f"undeclared relation {lit.relation}", lit.pos)
        _check_literal_against_schema(lit, schemas[lit.relation], head=False)

    for n in negations:
        schema = schemas[n.literal.relation]
        if schema.lattice_cols:
            raise ValidationError(
                f"relation {n.literal.relation} has lattice columns and cannot "
                "appear under negation",
                n.pos,
            )

    bound = _check_roles(head, positives, negations, comparisons, agg, schemas)

    # range restriction: every variable of the head, of a negation and of a
    # comparison occurs in a positive body literal
    safety = [
        (head.args, "head variable {} does not appear in a positive body literal"),
        ([a for n in negations for a in n.literal.args],
         "variable {} under negation is not bound by a positive literal"),
        ([s for c in comparisons for s in (c.left, c.right)],
         "variable {} in comparison is not bound by a positive literal"),
    ]
    for terms, message in safety:
        for v in (v for t in terms for v in term_vars(t)):
            if v.name not in bound:
                raise ValidationError(message.format(v.name), v.pos)
    grouping = {v.name for a in head.args if a is not agg for v in term_vars(a)}
    if agg is not None and agg.var.name in grouping:
        raise ValidationError(
            f"aggregate variable {agg.var.name} also appears as a grouping term", agg.pos
        )
    for c in comparisons:
        for side in (c.left, c.right):
            if isinstance(side, (LatticeTerm, AggTerm)):
                raise ValidationError("comparisons operate on scalar terms", c.pos)
            if isinstance(side, Wildcard):
                raise ValidationError("wildcard not allowed in a comparison", side.pos)

    # evaluation plan: join positives in source order, attach each filter
    # at the earliest point where its variables are bound
    plan: list = []
    pending = [*negations, *comparisons]
    seen: set[str] = set()

    def attach_ready() -> None:
        nonlocal pending
        still = []
        for f in pending:
            vars_ = (
                literal_vars(f.literal)
                if isinstance(f, Negation)
                else [v for s in (f.left, f.right) for v in term_vars(s)]
            )
            if all(v.name in seen for v in vars_):
                plan.append(f)
            else:
                still.append(f)
        pending = still

    attach_ready()
    for lit in positives:
        plan.append(lit)
        seen.update(v.name for v in literal_vars(lit))
        attach_ready()
    assert not pending, "safety checks above guarantee filters become bound"

    return ValidatedRule(
        rule=rule,
        index=index,
        plan=tuple(plan),
        positives=tuple(positives),
        negations=tuple(negations),
        agg=agg,
        agg_pos=agg_pos,
    )


def validate_program(program: Program) -> ValidatedProgram:
    """Run all safety/arity/channel/lattice checks; raises ValidationError
    located in the program's file."""
    schemas = _reserved_schemas()
    try:
        for d in program.decls:
            schemas[d.name] = _check_decl(d)
        rules = tuple(_validate_rule(r, i, schemas) for i, r in enumerate(program.rules))
    except ValidationError as e:
        e.filename = program.filename
        raise
    return ValidatedProgram(program=program, schemas=schemas, rules=rules)
