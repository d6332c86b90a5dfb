"""Which coordination points can race, and the conditions read off them.

A coordination point is *local* if it reads only fixed relations, and
*racing* otherwise. ``ValidatedProgram.deliveries_commute`` (no racing
point) and ``empty_steps_idle`` (no negation or aggregation point reads an
ephemeral relation) are one expression each over the points. The oracle
here is the rule-by-rule statement of the same two conditions.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from strategies import programs
from test_enumerator_oracle import EPHEMERAL, FLOOD, RELAY, RELAY_JOIN
from test_incremental_step import EPHEMERAL_COUNT
from test_netsim import BLOCKED

from calmlab import corpus
from calmlab.calmlang import parse_program, validate_program

ROOT = Path(__file__).resolve().parents[1]


def commute_reference(vp) -> bool:
    """Every negated relation, and every body relation of an aggregate
    rule, is fixed; and a rule that reads an ephemeral relation positively
    reads one literal that is not fixed."""
    for r in vp.rules:
        if not {n.literal.relation for n in r.negations} <= vp.fixed:
            return False
        if r.agg is not None and not r.body_rels <= vp.fixed:
            return False
        moving = [lit for lit in r.positives if lit.relation not in vp.fixed]
        if any(lit.relation in vp.ephemeral for lit in moving) and len(moving) != 1:
            return False
    return True


def idle_reference(vp) -> bool:
    """No negated literal, and no body of an aggregate rule, reads an
    ephemeral relation."""
    return not any(
        r.body_rels & vp.ephemeral if r.agg is not None
        else any(n.literal.relation in vp.ephemeral for n in r.negations)
        for r in vp.rules
    )


def _assert_conditions_match_the_reference(vp) -> None:
    assert vp.deliveries_commute == commute_reference(vp)
    assert vp.empty_steps_idle == idle_reference(vp)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_conditions_match_the_reference_on_generated_programs(source):
    _assert_conditions_match_the_reference(validate_program(parse_program(source)))


def test_conditions_match_the_reference_on_corpus_and_example_programs():
    paths = [*ROOT.glob("src/calmlab/corpus/*/program.calm"),
             ROOT / "perfbench/programs/gc_barrier.calm"]
    vps = [validate_program(parse_program(p.read_text(encoding="utf-8"), str(p))) for p in paths]
    examples = (FLOOD, RELAY, RELAY_JOIN, EPHEMERAL, BLOCKED, EPHEMERAL_COUNT)
    vps += [validate_program(parse_program(text)) for text in examples]
    for vp in vps:
        _assert_conditions_match_the_reference(vp)
    # each side of both conditions is met
    assert {vp.deliveries_commute for vp in vps} == {vp.empty_steps_idle for vp in vps} == {
        True, False}


# (local points, details of the racing points) of each corpus entry
SPLIT = {
    "gc_coordinated": (7, ["count aggregate", "negated literal !complete_from",
                           "negated literal !missing", "negated literal !reach"]),
    "gc": (0, ["negated literal !reach"]),
    "cart_naive": (0, ["negated literal !removed",
                       "joins ephemeral add_msg with removed, which is not fixed"]),
    "cart_manifest": (0, ["negated literal !seen_id", "negated literal !pending",
                          "negated literal !removed_item"]),
    **{e.name: (0, []) for e in corpus.MONOTONE_ENTRIES},
}


def test_local_and_racing_points_of_the_corpus():
    assert set(SPLIT) == {e.name for e in corpus.ENTRIES}
    for name, (local, racing) in SPLIT.items():
        vp = corpus.load_program(name)
        points = vp.coordination_points
        got = [p.detail for p in points if not p.reads <= vp.fixed]
        assert (len(points) - len(got), got) == (local, racing), name
        assert vp.deliveries_commute == (not racing)


# one point of each kind: the count reads its rule's body, the join the
# literals that are not fixed, a negation its relation, and all itself
EACH_KIND = """
rel seed(@d, x) [input]
rel item(x) [input]
rel gone(x) [input]
chan msg(@d, x)
rel got(x)
rel n(c)
rel out(x) [output]
rel peers(@m) [output]

msg(D, X) :- seed(D, X).
got(X) :- msg(_, X).
n(count<X>) :- got(X), item(X).
out(X) :- item(X), msg(_, X), got(X), !gone(X).
peers(M) :- all(M).
"""


def test_what_each_kind_of_point_reads():
    vp = validate_program(parse_program(EACH_KIND))
    reads = {(p.rule_index, p.kind): (sorted(p.reads), p.reads <= vp.fixed)
             for p in vp.coordination_points}
    assert reads == {
        (2, "aggregation"): (["got", "item"], False),
        (3, "ephemeral-join"): (["got", "msg"], False),
        (3, "negation"): (["gone"], True),
        (4, "membership-query"): (["all"], True),
    }
    assert not vp.deliveries_commute and vp.empty_steps_idle
