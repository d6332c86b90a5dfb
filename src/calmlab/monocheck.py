"""Static monotonicity analysis.

Classification is purely syntactic and deliberately conservative: a rule is
monotone iff it has no negated literal, no aggregate, does not read the
reserved network-membership relation ``all``, and joins no ephemeral
literal with another that is not fixed. An ephemeral fact (a message, or
an event derived from one) is visible only in the iteration that delivers
it, so such an ephemeral join fires or not by what its machine knew when
the message arrived. ``coordination_points`` finds each such construct
where it stands in the source; a rule's reasons and the program's verdict
are read off those points, as are the walk's and the step's conditions
(``ValidatedProgram.deliveries_commute`` and ``empty_steps_idle``) from
the relations each point reads. Semantic monotonicity behind non-monotone
syntax is out of scope, so false "non-monotone" verdicts are possible.
Reading a lattice value as a scalar is a validation error.

Reading ``id`` (the machine's own address) is surfaced as a flag and does not
affect the verdict.
"""

from __future__ import annotations

from collections import deque

from .calmlang import ValidatedProgram, ValidatedRule
from .calmlang.printer import rule_to_text
from .errors import CalmlabError
from .record import Frozen, Record, set_field

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


class DepEdge(Record):
    __slots__ = _fields = ("head", "body", "kind")

    def __init__(self, head: str, body: str, kind: str):
        set_field(self, "head", head)
        set_field(self, "body", body)
        set_field(self, "kind", kind)  # positive | negative | aggregate


class CoordinationPoint(Record):
    __slots__ = _fields = ("rule_index", "line", "col", "kind", "detail", "reads")

    def __init__(self, rule_index: int, line: int, col: int, kind: str, detail: str,
                 reads: frozenset):
        set_field(self, "rule_index", rule_index)
        set_field(self, "line", line)
        set_field(self, "col", col)
        # negation | aggregation | membership-query | ephemeral-join
        set_field(self, "kind", kind)
        set_field(self, "detail", detail)
        set_field(self, "reads", reads)  # the relations whose contents decide the construct


class AnalysisReport(Frozen):
    __slots__ = ("dependency_graph", "strata", "unstratifiable_cycle", "coordination_points")

    def __init__(self, dependency_graph: tuple, strata: dict | None,
                 unstratifiable_cycle: tuple | None, coordination_points: tuple):
        set_field(self, "dependency_graph", dependency_graph)  # tuple[DepEdge]
        set_field(self, "strata", strata)  # relation -> stratum, None if unstratifiable
        set_field(self, "unstratifiable_cycle", unstratifiable_cycle)
        set_field(self, "coordination_points", coordination_points)  # tuple[CoordinationPoint]

    @property
    def program_monotone(self) -> bool:
        return not self.coordination_points

    def to_obj(self, vp: ValidatedProgram) -> dict:
        reasons: dict = {r.index: set() for r in vp.rules}
        for p in self.coordination_points:
            reasons[p.rule_index].add(p.kind)
        rules = [
            {
                "index": r.index,
                "rule": rule_to_text(r.rule),
                "line": r.rule.pos[0],
                "class": "non-monotone" if reasons[r.index] else "monotone",
                "reasons": sorted(reasons[r.index]),
                "reads_id": "id" in r.body_rels,
                "reads_all": "all" in r.body_rels,
            }
            for r in vp.rules
        ]
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
            "uses_all": any(r["reads_all"] for r in rules),
            "uses_id": any(r["reads_id"] for r in rules),
        }


def coordination_points(vp: ValidatedProgram, rule: ValidatedRule) -> tuple:
    """The non-monotone constructs of ``vp``'s rule ``rule``, in source
    order: each negation at its ``!``, the aggregate at its term, each
    literal of ``all``, positive or negated, at the literal, and an
    ephemeral join at the second literal, in source order, that is not
    fixed: a rule with a positive ephemeral literal and another literal,
    positive or negated, that is not fixed (``ValidatedProgram.ephemeral``
    and ``fixed``). Each point ``reads`` the relations it observes: a
    negation its negated relation, an aggregate the rule's body, ``all``
    itself, and an ephemeral join every literal that is not fixed."""
    literals = sorted((*rule.positives, *(n.literal for n in rule.negations)),
                      key=lambda lit: lit.pos)
    points = [CoordinationPoint(rule.index, *n.pos, REASON_NEGATION,
                                f"negated literal !{n.literal.relation}",
                                frozenset((n.literal.relation,))) for n in rule.negations]
    if rule.agg is not None:
        points.append(CoordinationPoint(rule.index, *rule.agg.pos, REASON_AGGREGATION,
                                        f"{rule.agg.kind} aggregate", rule.body_rels))
    points += (CoordinationPoint(rule.index, *lit.pos, REASON_MEMBERSHIP,
                                 "reads network membership relation all", frozenset(("all",)))
               for lit in literals if lit.relation == "all")
    moving = [lit for lit in literals if lit.relation not in vp.fixed]
    message = next((lit for lit in rule.positives if lit.relation in vp.ephemeral), None)
    if message is not None and len(moving) > 1:
        other = next(lit for lit in moving if lit is not message)
        points.append(CoordinationPoint(
            rule.index, *moving[1].pos, REASON_EPHEMERAL_JOIN,
            f"joins ephemeral {message.relation} with {other.relation}, which is not fixed",
            frozenset(lit.relation for lit in moving)))
    return tuple(sorted(points, key=lambda p: (p.line, p.col)))


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
    rels = {r.rule.head.relation for r in vp.rules}.union(*(r.body_rels for r in vp.rules))
    stratum = {rel: 0 for rel in rels}
    # a relation's level is the most strict edges on a dependency path from
    # it. Without a cycle through a strict edge, dropping a cycle from a path
    # loses none, so paths of at most len(rels) - 1 edges fix every level
    # and a later pass changes nothing; with one, every pass raises a level
    for _ in range(len(rels) + 1):
        changed = False
        for e in edges:
            need = stratum[e.body] + (1 if e.kind in ("negative", "aggregate") else 0)
            if stratum[e.head] < need:
                stratum[e.head] = need
                changed = True
        if not changed:
            break
    else:
        raise UnstratifiableError(_find_strict_cycle(edges), vp.program.filename)
    height = max(stratum.values(), default=0)
    return [
        sorted(rel for rel, s in stratum.items() if s == level)
        for level in range(height + 1)
    ]


def analyze_program(vp: ValidatedProgram) -> AnalysisReport:
    """Full static report: dependencies, strata and coordination points,
    from which ``to_obj`` reads each rule's class and flags."""
    try:
        strata, cycle = vp.stratum_of, None
    except UnstratifiableError as e:
        strata, cycle = None, e.cycle
    return AnalysisReport(
        dependency_graph=dependency_graph(vp),
        strata=strata,
        unstratifiable_cycle=cycle,
        coordination_points=vp.coordination_points,
    )
