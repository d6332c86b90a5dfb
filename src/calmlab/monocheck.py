"""Static monotonicity analysis.

Classification is purely syntactic and deliberately conservative: a rule is
monotone iff it has no negated literal, no aggregate, does not read the
reserved network-membership relation ``all``, and joins no ephemeral
literal with another that is not fixed. An ephemeral fact (a message, or
an event derived from one) is visible only in the iteration that delivers
it, so such an ephemeral join fires or not by what its machine knew when
the message arrived. ``coordination_points`` finds each such construct
where it stands in the source; a rule's reasons and the program's verdict
are read off those points. Semantic monotonicity behind non-monotone
syntax is out of scope, so false "non-monotone" verdicts are possible.
Reading a lattice value as a scalar is a validation error.

Reading ``id`` (the machine's own address) is surfaced as a flag and does not
affect the verdict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .calmlang import ValidatedProgram, ValidatedRule
from .calmlang.printer import rule_to_text
from .errors import CalmlabError

REASON_NEGATION = "negation"
REASON_AGGREGATION = "aggregation"
REASON_MEMBERSHIP = "membership-query"
REASON_EPHEMERAL_JOIN = "ephemeral-join"

SCHEMA_VERSION = 1


class UnstratifiableError(CalmlabError):
    def __init__(self, cycle: tuple, filename: str | None = None):
        self.cycle = cycle
        super().__init__(
            "program is unstratifiable: cycle through negation/aggregation: "
            + " -> ".join(cycle + (cycle[0],)),
            filename=filename,
        )


@dataclass(frozen=True)
class MonotonicityClass:
    reasons: frozenset  # subset of the four reason strings

    @property
    def monotone(self) -> bool:
        return not self.reasons

    def __str__(self) -> str:
        if self.monotone:
            return "monotone"
        return "non-monotone{%s}" % ",".join(sorted(self.reasons))


@dataclass(frozen=True)
class DepEdge:
    head: str
    body: str
    kind: str  # positive | negative | aggregate


@dataclass(frozen=True)
class CoordinationPoint:
    rule_index: int
    line: int
    col: int
    kind: str  # negation | aggregation | membership-query | ephemeral-join
    detail: str


@dataclass(frozen=True)
class AnalysisReport:
    program_monotone: bool
    rule_classes: tuple  # tuple[MonotonicityClass]
    dependency_graph: tuple  # tuple[DepEdge]
    strata: dict | None  # relation -> stratum, None if unstratifiable
    unstratifiable_cycle: tuple | None
    coordination_points: tuple  # tuple[CoordinationPoint]
    uses_all: bool
    uses_id: bool

    def to_obj(self, vp: ValidatedProgram) -> dict:
        rules = []
        for r, cls in zip(vp.rules, self.rule_classes):
            rules.append(
                {
                    "index": r.index,
                    "rule": rule_to_text(r.rule),
                    "line": r.rule.pos[0],
                    "class": "monotone" if cls.monotone else "non-monotone",
                    "reasons": sorted(cls.reasons),
                    "reads_id": "id" in r.body_rels,
                    "reads_all": "all" in r.body_rels,
                }
            )
        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": "monotone" if self.program_monotone else "non-monotone",
            "rules": rules,
            "dependency_graph": [
                {"head": e.head, "body": e.body, "kind": e.kind}
                for e in self.dependency_graph
            ],
            "strata": dict(sorted(self.strata.items())) if self.strata is not None else None,
            "unstratifiable_cycle": (
                list(self.unstratifiable_cycle) if self.unstratifiable_cycle else None
            ),
            "coordination_points": [
                {
                    "rule_index": p.rule_index,
                    "line": p.line,
                    "col": p.col,
                    "kind": p.kind,
                    "detail": p.detail,
                }
                for p in self.coordination_points
            ],
            "uses_all": self.uses_all,
            "uses_id": self.uses_id,
        }


def coordination_points(vp: ValidatedProgram, rule: ValidatedRule) -> tuple:
    """The non-monotone constructs of ``vp``'s rule ``rule``, in source
    order: each negation at its ``!``, the aggregate at its term, each
    literal of ``all``, positive or negated, at the literal, and an
    ephemeral join at the second literal, in source order, that is not
    fixed: a rule with a positive ephemeral literal and another literal,
    positive or negated, that is not fixed (``ValidatedProgram.ephemeral``
    and ``fixed``)."""
    literals = sorted((*rule.positives, *(n.literal for n in rule.negations)),
                      key=lambda lit: lit.pos)
    points = [CoordinationPoint(rule.index, *n.pos, REASON_NEGATION,
                                f"negated literal !{n.literal.relation}") for n in rule.negations]
    if rule.agg is not None:
        points.append(CoordinationPoint(rule.index, *rule.agg.pos, REASON_AGGREGATION,
                                        f"{rule.agg.kind} aggregate"))
    points += (CoordinationPoint(rule.index, *lit.pos, REASON_MEMBERSHIP,
                                 "reads network membership relation all")
               for lit in literals if lit.relation == "all")
    moving = [lit for lit in literals if lit.relation not in vp.fixed]
    message = next((lit for lit in rule.positives if lit.relation in vp.ephemeral), None)
    if message is not None and len(moving) > 1:
        other = next(lit for lit in moving if lit is not message)
        points.append(CoordinationPoint(
            rule.index, *moving[1].pos, REASON_EPHEMERAL_JOIN,
            f"joins ephemeral {message.relation} with {other.relation}, which is not fixed"))
    return tuple(sorted(points, key=lambda p: (p.line, p.col)))


def classify_rule(vp: ValidatedProgram, rule: ValidatedRule) -> MonotonicityClass:
    """Syntactic classification of one validated rule of ``vp``."""
    return MonotonicityClass(frozenset(p.kind for p in coordination_points(vp, rule)))


def dependency_graph(vp: ValidatedProgram) -> tuple:
    """Edges head -> body relation, labeled positive/negative/aggregate.

    Every body dependency of an aggregate rule is strict (the aggregate needs
    its input complete), as is every negated dependency.
    """
    edges = set()
    for r in vp.rules:
        strict_all = r.agg is not None
        for lit in r.positives:
            kind = "aggregate" if strict_all else "positive"
            edges.add(DepEdge(r.rule.head.relation, lit.relation, kind))
        for n in r.negations:
            edges.add(DepEdge(r.rule.head.relation, n.literal.relation, "negative"))
    return tuple(sorted(edges, key=lambda e: (e.head, e.body, e.kind)))


def _find_strict_cycle(edges) -> tuple | None:
    """Return a relation cycle containing a strict edge, if one exists.

    The first strict edge head -> body, in (head, body) order, whose body
    reaches its head closes a cycle through the shortest path back. Every
    node on such a path shares the edge's strongly connected component.
    """
    adj: dict[str, list] = {}
    for e in edges:
        adj.setdefault(e.head, []).append(e.body)
        adj.setdefault(e.body, [])
    for succs in adj.values():
        succs.sort()
    for e in sorted(edges, key=lambda e: (e.head, e.body)):
        if e.kind in ("negative", "aggregate"):
            path = _shortest_path(e.body, e.head, adj)
            if path:
                return tuple([e.head] + path[:-1])
    return None


def _shortest_path(src: str, dst: str, adj: dict) -> list | None:
    prev: dict[str, str | None] = {src: None}
    q = deque([src])
    while q:
        v = q.popleft()
        if v == dst:
            path = []
            node: str | None = v
            while node is not None:
                path.append(node)
                node = prev[node]
            path.reverse()
            return path
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                q.append(w)
    return None


def stratify(vp: ValidatedProgram) -> list:
    """Layer predicates so strict dependencies point strictly downward.

    Returns a list of strata, each a sorted list of relation names; every
    relation read or derived by the program appears in exactly one stratum,
    at the lowest level possible. Raises UnstratifiableError on a cycle
    through negation or aggregation.
    """
    edges = dependency_graph(vp)
    cycle = _find_strict_cycle(edges)
    if cycle is not None:
        raise UnstratifiableError(cycle, vp.program.filename)

    rels = {r.rule.head.relation for r in vp.rules}.union(*(r.body_rels for r in vp.rules))
    stratum = {rel: 0 for rel in rels}
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        assert guard <= len(rels) + 2, "stratification did not converge"
        for e in edges:
            need = stratum[e.body] + (1 if e.kind in ("negative", "aggregate") else 0)
            if stratum[e.head] < need:
                stratum[e.head] = need
                changed = True
    height = max(stratum.values(), default=0)
    return [
        sorted(rel for rel, s in stratum.items() if s == level)
        for level in range(height + 1)
    ]


def analyze_program(vp: ValidatedProgram) -> AnalysisReport:
    """Full static report: per-rule classes, dependencies, strata, flags."""
    points = tuple(p for r in vp.rules for p in coordination_points(vp, r))
    strata = None
    cycle = None
    try:
        strata = vp.stratum_of
    except UnstratifiableError as e:
        cycle = e.cycle

    return AnalysisReport(
        program_monotone=not points,
        rule_classes=tuple(classify_rule(vp, r) for r in vp.rules),
        dependency_graph=dependency_graph(vp),
        strata=strata,
        unstratifiable_cycle=cycle,
        coordination_points=points,
        uses_all=any("all" in r.body_rels for r in vp.rules),
        uses_id=any("id" in r.body_rels for r in vp.rules),
    )
