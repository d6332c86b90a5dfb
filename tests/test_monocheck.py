from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from calmlab import corpus, monocheck
from calmlab.calmlang import parse_program, validate_program
from calmlab.relspace import Database, db_leq, parse_facts
from calmlab.transducer import init_machine, step
from calmlab.values import Address
from calmlab.verdicts import check_confluence
from test_enumerator_oracle import EPHEMERAL_JOIN, EVENT_JOIN, REPAIRED_JOIN, probe


def vp_of(src: str):
    return validate_program(parse_program(src))


def kinds(vp, index: int = 0) -> set:
    """The kinds of the coordination points of ``vp``'s rule ``index``."""
    return {p.kind for p in monocheck.coordination_points(vp, vp.rules[index])}


def rule_objs(vp) -> list:
    return monocheck.analyze_program(vp).to_obj(vp)["rules"]


def test_positive_conjunctive_rule_is_monotone():
    vp = vp_of("rel edge(x,y) [input]\nrel path(x,y) [output]\npath(X,Y) :- edge(X,Y).")
    assert monocheck.coordination_points(vp, vp.rules[0]) == ()
    [obj] = rule_objs(vp)
    assert (obj["class"], obj["reasons"]) == ("monotone", [])


def test_negation_classified():
    vp = vp_of(
        "rel object(x) [input]\nrel reach(x) [input]\nrel garbage(x) [output]\n"
        "garbage(X) :- object(X), !reach(X)."
    )
    assert kinds(vp) == {"negation"}
    [obj] = rule_objs(vp)
    assert (obj["class"], obj["reasons"]) == ("non-monotone", ["negation"])


def test_aggregation_classified_and_dynamically_nonmonotone():
    # oracle: growing the member set changes (does not extend) the count output
    vp = vp_of("rel member(x) [input]\nrel n(k) [output]\nn(count<X>) :- member(X).")
    assert kinds(vp) == {"aggregation"}
    small = Database.from_facts(parse_facts("member(a)"))
    large = Database.from_facts(parse_facts("member(a)\nmember(b)"))
    m1 = Address("m1")
    out_small, out_large = (
        step(init_machine(vp, m1, db, (m1,)), ())[0].persisted.restrict(vp.output_rels)
        for db in (small, large)
    )
    assert not db_leq(out_small, out_large)  # n(1) is not in {n(2)}


def test_membership_query_classified():
    vp = vp_of("rel out(@a) [output]\nout(X) :- all(X).")
    assert kinds(vp) == {"membership-query"}


def test_reading_id_does_not_affect_verdict(programs):
    vp = programs["deadlock"]
    rep = monocheck.analyze_program(vp)
    assert rep.to_obj(vp)["uses_id"] and rep.program_monotone


def test_analyze_deadlock_monotone_no_coordination_points(programs):
    vp = programs["deadlock"]
    rep = monocheck.analyze_program(vp)
    assert rep.program_monotone
    assert rep.coordination_points == ()
    assert not rep.to_obj(vp)["uses_all"]


def test_analyze_gc_exactly_one_coordination_point(programs):
    rep = monocheck.analyze_program(programs["gc"])
    assert not rep.program_monotone
    assert len(rep.coordination_points) == 1
    assert rep.coordination_points[0].kind == "negation"


def test_analyze_cart_manifest_nonmonotone(programs):
    vp = programs["cart_manifest"]
    assert not monocheck.analyze_program(vp).program_monotone
    assert "negation" in {k for r in rule_objs(vp) for k in r["reasons"]}


def test_analyze_gc_coordinated_uses_all(programs):
    vp = programs["gc_coordinated"]
    obj = monocheck.analyze_program(vp).to_obj(vp)
    assert obj["uses_all"]
    reasons = {k for r in obj["rules"] for k in r["reasons"]}
    assert reasons == {"negation", "aggregation", "membership-query"}


def test_program_verdict_is_conjunction_of_rule_verdicts(programs):
    for vp in programs.values():
        obj = monocheck.analyze_program(vp).to_obj(vp)
        monotone = all(r["class"] == "monotone" for r in obj["rules"])
        assert (obj["verdict"] == "monotone") == monotone


NEGATED_ALL = "rel seen(@m) [input]\nrel lonely(@m) [output]\nlonely(M) :- seen(M), !all(M)."

# one rule for each kind of non-monotone construct
REASON_TABLE = (
    "rel object(x) [input]\nrel reach(x) [input]\nrel garbage(x) [output]\n"
    "garbage(X) :- object(X), !reach(X).",
    "rel member(x) [input]\nrel n(k) [output]\nn(count<X>) :- member(X).",
    "rel out(@a) [output]\nout(X) :- all(X).",
    NEGATED_ALL,
    EPHEMERAL_JOIN,
)

GC_BARRIER = Path(__file__).resolve().parents[1] / "perfbench" / "programs" / "gc_barrier.calm"


def test_a_negated_all_is_a_negation_point_and_a_membership_query_point():
    rep = monocheck.analyze_program(vp_of(NEGATED_ALL))
    assert [(p.kind, p.line, p.col) for p in rep.coordination_points] == [
        ("negation", 3, 23),  # the !
        ("membership-query", 3, 24),  # all
    ]


def test_an_ephemeral_join_is_not_monotone_and_its_repair_is():
    # sa is visible only in the step that delivers it, and hb can still
    # grow, so m3 derives out(k) only if sb arrives no later than sa
    for text, monotone, outcome in ((EPHEMERAL_JOIN, False, "divergent"),
                                    (EVENT_JOIN, False, "divergent"),
                                    (REPAIRED_JOIN, True, "confluent-on-instance")):
        vp, fixture, part = probe(text)
        assert monocheck.analyze_program(vp).program_monotone == monotone
        assert check_confluence(vp, fixture, part, mode="exhaustive").outcome == outcome
    rep = monocheck.analyze_program(vp_of(EPHEMERAL_JOIN))
    assert [(p.kind, p.line, p.col) for p in rep.coordination_points] == [
        ("ephemeral-join", 12, 21),  # hb, the literal that can still grow
    ]
    assert vp_of(EVENT_JOIN).ephemeral == {"sa", "sb", "ea"}


def test_a_rules_reasons_are_the_kinds_of_its_coordination_points(programs):
    gc_barrier = validate_program(parse_program(GC_BARRIER.read_text(), str(GC_BARRIER)))
    for vp in [*programs.values(), gc_barrier, *map(vp_of, REASON_TABLE)]:
        rep = monocheck.analyze_program(vp)
        per_rule = [monocheck.coordination_points(vp, r) for r in vp.rules]
        for r, points, obj in zip(vp.rules, per_rule, rep.to_obj(vp)["rules"]):
            assert obj["reasons"] == sorted({p.kind for p in points})
            assert obj["class"] == ("non-monotone" if points else "monotone")
            assert all(p.rule_index == r.index for p in points)
        assert rep.coordination_points == vp.coordination_points == sum(per_rule, ())
        assert rep.program_monotone == (rep.coordination_points == ())


def test_stratify_pure_positive_single_stratum():
    vp = vp_of("rel e(x,y) [input]\nrel p(x,y) [output]\np(X,Y) :- e(X,Y).\np(X,Z) :- e(X,Y), p(Y,Z).")
    assert len(monocheck.stratify(vp)) == 1


def test_stratify_gc_two_strata_garbage_on_top(programs):
    strata = monocheck.stratify(programs["gc"])
    assert len(strata) == 2
    assert "garbage" in strata[1]
    assert "edge" in strata[0] and "reach" in strata[0]


def test_unstratifiable_negative_self_loop():
    vp = vp_of("rel q(x) [input]\nrel p(x) [output]\np(X) :- q(X), !p(X).")
    with pytest.raises(monocheck.UnstratifiableError) as e:
        monocheck.stratify(vp)
    assert "p" in e.value.cycle


def test_unstratifiable_longer_cycle():
    src = """
rel base(x) [input]
rel p(x)
rel q(x) [output]
p(X) :- base(X), !q(X).
q(X) :- p(X).
"""
    with pytest.raises(monocheck.UnstratifiableError) as e:
        monocheck.stratify(vp_of(src))
    assert set(e.value.cycle) == {"p", "q"}


def test_analyze_reports_unstratifiable_cycle_without_raising():
    vp = vp_of("rel q(x) [input]\nrel p(x) [output]\np(X) :- q(X), !p(X).")
    rep = monocheck.analyze_program(vp)
    assert rep.strata is None
    assert rep.unstratifiable_cycle is not None


def test_classification_stable_under_rule_reorder_and_renaming(programs):
    src = corpus.read_text("gc", "program.calm")
    p = parse_program(src)
    reordered = type(p)(p.decls, tuple(reversed(p.rules)), p.filename)
    vp1, vp2 = validate_program(p), validate_program(reordered)
    rep1, rep2 = monocheck.analyze_program(vp1), monocheck.analyze_program(vp2)
    assert rep1.program_monotone == rep2.program_monotone
    reasons1 = [tuple(r["reasons"]) for r in rep1.to_obj(vp1)["rules"]]
    assert sorted(reasons1) == sorted(tuple(r["reasons"]) for r in rep2.to_obj(vp2)["rules"])
    assert rep1.strata == rep2.strata

    renamed = src.replace("X", "Xv").replace("Y", "Yv").replace("R", "Rv")
    vp3 = validate_program(parse_program(renamed))
    rep3 = monocheck.analyze_program(vp3)
    assert rep3.strata == rep1.strata
    assert [tuple(r["reasons"]) for r in rep3.to_obj(vp3)["rules"]] == reasons1


def test_dependency_graph_edge_kinds(programs):
    edges = monocheck.dependency_graph(programs["gc"])
    kinds = {(e.head, e.body): e.kind for e in edges}
    assert kinds[("garbage", "reach")] == "negative"
    assert kinds[("path", "edge")] if ("path", "edge") in kinds else True
    assert kinds[("reach", "edge")] == "positive"


def test_report_json_stable_key_order(programs):
    from calmlab.relspace import canonical_json

    rep = monocheck.analyze_program(programs["gc"])
    one = canonical_json(rep.to_obj(programs["gc"]))
    two = canonical_json(
        monocheck.analyze_program(programs["gc"]).to_obj(programs["gc"])
    )
    assert one == two
    assert '"schema_version":1' in one


# --- the oracle: strict cycles through Tarjan's strongly connected components


def _tarjan_strict_cycle(edges) -> tuple | None:
    """The cycle finder as first written: Tarjan SCCs, then the first strict
    edge (in (head, body) order) inside an SCC, closed by a BFS confined to
    that SCC."""
    adj: dict[str, list] = {}
    for e in edges:
        adj.setdefault(e.head, []).append(e)
        adj.setdefault(e.body, [])

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[frozenset] = []
    counter = [0]

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj[v], key=lambda e: e.body)))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for e in it:
                w = e.body
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w], key=lambda e2: e2.body))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                sccs.append(frozenset(comp))

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)

    def shortest_path(src: str, dst: str, comp: frozenset) -> list | None:
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
            for e in sorted(adj[v], key=lambda e: e.body):
                w = e.body
                if w in comp and w not in prev:
                    prev[w] = v
                    q.append(w)
        return None

    scc_of = {v: comp for comp in sccs for v in comp}
    for e in sorted(edges, key=lambda e: (e.head, e.body)):
        if e.kind in ("negative", "aggregate") and scc_of[e.head] is scc_of[e.body]:
            path = shortest_path(e.body, e.head, scc_of[e.head])
            if path:
                return tuple([e.head] + path[:-1])
            return (e.head, e.body)
    return None


dependency_edges = st.sets(
    st.builds(
        monocheck.DepEdge,
        st.sampled_from("abcdef"),
        st.sampled_from("abcdef"),
        st.sampled_from(("positive", "positive", "negative", "aggregate")),
    ),
    max_size=14,
)


@settings(max_examples=400)
@given(dependency_edges)
def test_strict_cycle_matches_the_scc_oracle(edges):
    assert monocheck._find_strict_cycle(edges) == _tarjan_strict_cycle(edges)
