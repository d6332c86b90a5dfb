"""Static checks that turn a parsed Program into a ValidatedProgram.

Beyond the classic datalog safety conditions (range restriction, bound
negation, bound comparisons) this enforces the network-facing invariants:
channel relations route on an address-typed first column, a head's
address column takes only an address constant or a variable bound at an
address column, and a variable bound only at address columns fills no
other head column. Input/output markers only make sense on persisted
relations, lattice-typed columns stay out of channels, events, and negated
literals, and a lattice value leaves its lattice only by merging.
``fact_error`` decides whether a fixture fact fits the program, with the
same column rule (``value_error``) as program constants.

Validation also fixes a per-rule evaluation plan: positive literals join in
source order and each filter (comparison or negation) runs as soon as its
variables are bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import CalmlabError
from ..lattices import VARIANT_NAMES, is_lattice
from ..values import Address
from .syntax import (
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
        return tuple(i for i, c in enumerate(self.cols) if c.lattice)

    @cached_property
    def scalar_cols(self) -> tuple:
        return tuple(i for i, c in enumerate(self.cols) if not c.lattice)


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
    addr_col = (ColSpec("a", "addr"),)
    return {
        "id": Schema("id", addr_col, "persisted", reserved=True),
        "all": Schema("all", addr_col, "persisted", reserved=True),
    }


def _check_decl(d: RelDecl) -> Schema:
    if d.name in RESERVED_RELATIONS:
        raise ValidationError(f"relation name {d.name!r} is reserved", d.pos)
    if d.channel:
        if not d.cols or d.cols[0].role != "addr":
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
    has_lattice = any(c.lattice for c in d.cols)
    if has_lattice and (d.channel or d.persistence == "event"):
        raise ValidationError(
            f"relation {d.name}: lattice columns are only allowed in persisted relations",
            d.pos,
        )
    kind = "channel" if d.channel else d.persistence
    return Schema(d.name, d.cols, kind, d.is_input, d.is_output)


def value_error(value, col: ColSpec, rel: str) -> str | None:
    """Why ``value`` cannot sit in column ``col`` of ``rel``, or None. Program
    constants and fixture values obey this one rule: only an address goes
    in an ``@`` column and only there, a lattice column takes a value of its
    own lattice, and any other column takes no lattice value."""
    where = f"column {col.name} of {rel}"
    if col.role == "addr":
        return None if isinstance(value, Address) else f"{where} holds machine addresses"
    if isinstance(value, Address):
        return f"{where} is not an address column"
    if col.lattice:
        if VARIANT_NAMES.get(type(value)) != col.lattice:
            return f"{where} holds {col.lattice} values"
    elif is_lattice(value):
        return f"{where} is not a lattice column"
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
    if len(lit.args) != schema.arity:
        raise ValidationError(
            f"{lit.relation} has arity {schema.arity}, used with {len(lit.args)} argument(s)",
            lit.pos,
        )
    for i, arg in enumerate(lit.args):
        col = schema.cols[i]
        if isinstance(arg, Const):
            if col.lattice:
                raise ValidationError(
                    f"column {col.name} of {lit.relation} is a {col.lattice} lattice column; "
                    "use a variable or a lattice constructor",
                    arg.pos,
                )
            error = value_error(arg.value, col, lit.relation)
            if error:
                raise ValidationError(error, arg.pos)
        elif isinstance(arg, LatticeTerm):
            if not head:
                raise ValidationError(
                    "lattice constructors are only allowed in rule heads", arg.pos
                )
            if col.lattice is None:
                raise ValidationError(
                    f"column {col.name} of {lit.relation} is not a lattice column",
                    arg.pos,
                )
            if arg.variant != col.lattice:
                raise ValidationError(
                    f"column {col.name} of {lit.relation} is {col.lattice}, "
                    f"constructor builds {arg.variant}",
                    arg.pos,
                )
        elif isinstance(arg, AggTerm):
            if not head:
                raise ValidationError("aggregates may appear in rule heads only", arg.pos)
            if col.lattice:
                raise ValidationError(f"aggregate cannot target lattice column {col.name}", arg.pos)
            if col.role == "addr":
                raise ValidationError(f"aggregate cannot target address column {col.name}", arg.pos)


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

    positives: list[Literal] = []
    negations: list[Negation] = []
    comparisons: list[Comparison] = []
    for elem in rule.body:
        if isinstance(elem, Literal):
            positives.append(elem)
        elif isinstance(elem, Negation):
            negations.append(elem)
        else:
            comparisons.append(elem)

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

    # a lattice value leaves its lattice only through the merge at commit: a
    # variable bound at a lattice column occurs once in the body, and
    # elsewhere only as a bare head term in a column of its own lattice, in a
    # head without an aggregate (an aggregate's grouping terms are scalar uses)
    source: dict[str, tuple] = {}  # variable -> (term, column, relation), first occurrence
    for lit in positives:
        for term, col in zip(lit.args, schemas[lit.relation].cols):
            if not isinstance(term, Var):
                continue
            if term.name in source and (col.lattice or source[term.name][1].lattice):
                raise ValidationError(
                    f"lattice variable {term.name} occurs more than once in the body", term.pos
                )
            source.setdefault(term.name, (term, col, lit.relation))

    def scalar_use(*terms) -> None:
        for v in (v for t in terms for v in term_vars(t)):
            if v.name in source and source[v.name][1].lattice:
                raise ValidationError("lattice value where a scalar is required", v.pos)

    for n in negations:
        scalar_use(*n.literal.args)
    for c in comparisons:
        scalar_use(c.left, c.right)
    for col, arg in zip(head_schema.cols, head.args):
        bare = col.lattice is not None and isinstance(arg, Var)
        if agg is not None or not bare:
            scalar_use(arg)
        if bare and arg.name in source:
            term, src, rel = source[arg.name]
            if src.lattice != col.lattice:
                holds = f"{src.lattice} values" if src.lattice else "scalars"
                raise ValidationError(
                    f"variable {arg.name} fills {col.lattice} column {col.name} of "
                    f"{head.relation}, but column {src.name} of {rel} holds {holds}",
                    term.pos,
                )

    bound = source.keys()  # the variables of positive body literals

    # range restriction: head variables come from positive body literals
    head_var_names = []
    for i, a in enumerate(head.args):
        if i == agg_pos:
            continue
        head_var_names.extend(v.name for v in term_vars(a))
    for a in head.args:
        for v in term_vars(a):
            if v.name not in bound:
                raise ValidationError(
                    f"head variable {v.name} does not appear in a positive body literal",
                    v.pos,
                )
    # an address comes only from an address column: a head variable in an
    # @ column occurs at an @ column of a positive literal
    addressed = {t.name for lit in positives
                 for t, col in zip(lit.args, schemas[lit.relation].cols)
                 if col.role == "addr" and isinstance(t, Var)}
    for col, arg in zip(head_schema.cols, head.args):
        if col.role == "addr" and isinstance(arg, Var) and arg.name not in addressed:
            raise ValidationError(
                f"variable {arg.name} fills address column {col.name} of {head.relation}, "
                "but no positive literal binds it at an address column",
                arg.pos,
            )
    # and an address goes only to an address column: a head variable in any
    # other column, or the one a min or max picks, is bound at another column
    valued = {t.name for lit in positives
              for t, col in zip(lit.args, schemas[lit.relation].cols)
              if col.role != "addr" and isinstance(t, Var)}
    for col, arg in zip(head_schema.cols, head.args):
        var = arg.var if isinstance(arg, AggTerm) and arg.kind != "count" else arg
        if col.role != "addr" and isinstance(var, Var) and var.name not in valued:
            raise ValidationError(
                f"variable {var.name} fills column {col.name} of {head.relation}, "
                "but positive literals bind it only at address columns",
                var.pos,
            )
    if agg is not None and agg.var.name in head_var_names:
        raise ValidationError(
            f"aggregate variable {agg.var.name} also appears as a grouping term",
            agg.pos,
        )
    for n in negations:
        for v in literal_vars(n.literal):
            if v.name not in bound:
                raise ValidationError(
                    f"variable {v.name} under negation is not bound by a positive literal",
                    v.pos,
                )
    for c in comparisons:
        for side in (c.left, c.right):
            for v in term_vars(side):
                if v.name not in bound:
                    raise ValidationError(
                        f"variable {v.name} in comparison is not bound by a positive literal",
                        v.pos,
                    )
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
