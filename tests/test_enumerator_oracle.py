"""Differential test of the schedule enumerator against an unreduced oracle.

``_reference_enumerate`` is the walker ``netsim.enumerate_schedules`` was
before envelopes became their own canonical keys: pending messages in a
``Counter`` of ``(src, dst, Fact)`` triples, every inbox re-sorted by
``str(Fact)`` on each expansion, a recursive depth-first walk, and no sleep
sets: it delivers every batch from every state. It shares nothing with the
walker under test but ``init_network`` and ``step``, so the hypothesis test
below checks each of the walker's reductions against it. Under sleep sets
(a program that sends on receipt) the walker finds the same outcomes, on
the same paths and in the same order, after the same number of states, and
only drops deliveries. Under persistent sets (a program that
``sends_once``) and on the one path of a program whose
``deliveries_commute``, it finds the same outcomes, on the same paths and
in the same order, after no more states and, when the oracle completes, no
more deliveries.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from calmlab import corpus
from calmlab.calmlang import parse_program, validate_program
from calmlab.netsim import (
    Schedule,
    enumerate_schedules,
    init_network,
    machine_addresses,
    partitioning_from_map,
    run_schedule,
)
from calmlab.relspace import Database, db_to_obj, db_union, parse_facts
from calmlab.transducer import step

# --- the oracle: the Counter-based recursive walker ----------------------------


def _key(env) -> tuple:
    return env[0].name, str(env[2])


def _inboxes(pending: Counter) -> dict:
    out: dict = {}
    for env in sorted(pending, key=lambda e: (e[1].name, *_key(e))):
        out.setdefault(env[1], []).append(env)
    return out


def _enqueue(pending: Counter, src, offered: tuple) -> None:
    for f in offered:
        pending[(src, f.args[0], f)] += 1


def _sweep(machines: dict, pending: Counter, steps: list, budget: int, stepper) -> bool:
    while True:
        any_change = False
        for a in sorted(machines, key=lambda x: x.name):
            if steps[0] >= budget:
                return False
            m = machines[a]
            nxt, offered = stepper(m, ())
            steps[0] += 1
            if offered or nxt.persisted != m.persisted:
                machines[a] = nxt
                _enqueue(pending, a, offered)
                any_change = True
        if not any_change:
            return True


def _outputs(machines: dict) -> tuple:
    per_machine = {
        a.name: m.persisted.restrict(m.program.output_rels) for a, m in machines.items()
    }
    union = Database({})
    for db in per_machine.values():
        union = db_union(union, db)
    return per_machine, union


def _reference_enumerate(machines: dict, bound: int, step_budget: int = 10_000,
                         stop_after_distinct: int | None = None):
    """(outcomes as (union, per-machine, decisions), complete, states,
    deliveries) of the network whose ``machines`` map names to machine
    states."""
    step_memo: dict = {}

    def memo_step(mstate, facts):
        key = (mstate.semantic_key(), frozenset(facts))
        if key not in step_memo:
            step_memo[key] = step(mstate, facts)
        return step_memo[key]

    outcomes: dict = {}
    memo: dict = {}
    states = deliveries = 0
    truncated = stopped = False

    def explore(machines: dict, pending: Counter, steps: list, path: tuple) -> frozenset:
        nonlocal states, deliveries, truncated, stopped
        if not pending:
            if not _sweep(machines, pending, steps, step_budget, memo_step):
                truncated = True
                return frozenset()
            if not pending:
                per_machine, union = _outputs(machines)
                if union not in outcomes:
                    outcomes[union] = (union, per_machine, path)
                    if len(outcomes) == stop_after_distinct:
                        stopped = True
                return frozenset([union])
        skey = (
            tuple(machines[a].semantic_key() for a in sorted(machines, key=lambda x: x.name)),
            frozenset(pending.items()),
        )
        if skey in memo:
            return memo[skey]
        if states >= bound:
            stopped = True
            return frozenset()
        states += 1
        found: set = set()
        for envs in _inboxes(pending).values():
            for k in range(len(envs), 0, -1):
                for batch in itertools.combinations(envs, k):
                    if stopped:
                        break
                    child, rest = dict(machines), Counter(pending)
                    dst = batch[0][1]
                    batch = sorted(batch, key=_key)
                    for env in batch:
                        rest[env] -= 1
                        if not rest[env]:
                            del rest[env]
                    child[dst], offered = memo_step(child[dst], [f for _, _, f in batch])
                    deliveries += 1
                    child_steps = [steps[0] + 1]
                    _enqueue(rest, dst, offered)
                    decision = (dst.name, tuple(map(_key, batch)))
                    found |= explore(child, rest, child_steps, path + (decision,))
        memo[skey] = frozenset(found)
        return memo[skey]

    explore({m.address: m for m in machines.values()}, Counter(), [0], ())
    return list(outcomes.values()), not (truncated or stopped), states, deliveries


# --- generated networks --------------------------------------------------------

NODES = ("root", "o1", "o2")

# deadlock that forwards every edge it knows, so a machine sends on receipt
FLOOD = corpus.read_text("deadlock", "program.calm").replace(
    "copy(P, X, Y) :- local_edge(X, Y), id(M), nbr(M, P).",
    "copy(P, X, Y) :- edge(X, Y), id(M), nbr(M, P).",
)

# flood with a racing point: acyclic(X, Y) holds while Y does not yet reach
# X, so its output depends on the order of deliveries, and the walk keeps
# sleep sets for it
RACING_FLOOD = FLOOD.replace(
    "rel cycle(a, b) [output]", "rel cycle(a, b) [output]\nrel acyclic(a, b) [output]"
) + "acyclic(X, Y) :- edge(X, Y), !path(Y, X).\n"

# deadlock with a racing point that fires on receipt: acyclic(X, Y) holds
# when copy(X, Y) arrives before Y is known to reach X. It still sends once,
# so this races under persistent sets
RECEIPT_RACE = corpus.read_text("deadlock", "program.calm").replace(
    "rel cycle(a, b) [output]", "rel cycle(a, b) [output]\nrel acyclic(a, b) [output]"
) + "acyclic(X, Y) :- copy(_, X, Y), !path(Y, X).\n"

TEXTS = {"flood": FLOOD, "racing_flood": RACING_FLOOD, "receipt_race": RECEIPT_RACE}


def _program(name: str):
    if name in TEXTS:
        return validate_program(parse_program(TEXTS[name]))
    return corpus.load_program(name)


@st.composite
def networks(draw):
    """The deadlock, flood, racing flood, receipt race or gc program on a 2-4
    edge graph over 2-3 machines. Each machine holds its own row of the full
    ``nbr`` mesh; every other fact is placed at random."""
    name = draw(st.sampled_from(["deadlock", "flood", "racing_flood", "receipt_race", "gc"]))
    machines = machine_addresses(draw(st.integers(2, 3)))
    pairs = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
    edges = draw(st.lists(pairs, min_size=2, max_size=4, unique=True))
    lines = [f"local_edge({x}, {y})" for x, y in edges]
    if name == "gc":
        objects = draw(st.lists(st.sampled_from(NODES[1:]), min_size=1, unique=True))
        lines += ["root_input(root)"] + [f"obj({x})" for x in objects]
    mapping: dict = {a.name: [f"nbr({a}, {b})" for b in machines if b != a] for a in machines}
    for line in lines:
        mapping[draw(st.sampled_from(machines)).name].append(line)
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    return init_network(_program(name), fixture, part)


def _check_against_the_oracle(net, bound: int, stop_after_distinct: int | None) -> None:
    res = enumerate_schedules(net, bound=bound, stop_after_distinct=stop_after_distinct)
    want, complete, states, deliveries = _reference_enumerate(
        net.machines, bound, stop_after_distinct=stop_after_distinct
    )
    got = [(o.union_output, o.per_machine_outputs, o.decisions) for o in res.outcomes]
    # one path, or persistent sets from a swept root: fewer states
    program = net.table.program
    reduced = program.deliveries_commute or program.sends_once and not net.pending
    if not reduced:  # sleep sets enter every state the oracle does
        assert (got, res.complete, res.states_explored) == (want, complete, states)
    elif complete:
        assert res.complete and got == want and res.states_explored <= states
    else:
        # the oracle stopped at its bound or after its distinct outcomes;
        # the walk, entering fewer states, may get further before its own
        assert got[:len(want)] == want and res.states_explored <= states
    if complete or not reduced:
        assert res.deliveries <= deliveries
    for o in res.outcomes:
        replay = run_schedule(net, Schedule(decisions=o.decisions))
        assert replay.quiesced and replay.decisions == o.decisions
        assert db_to_obj(replay.union_output) == db_to_obj(o.union_output)
        assert replay.per_machine_outputs == o.per_machine_outputs
    if res.complete:
        found = {o.union_output for o in res.outcomes}
        for seed in range(3):
            assert run_schedule(net, Schedule(seed=seed)).union_output in found


@settings(max_examples=60, deadline=None)
@given(networks(), st.sampled_from([40, 400]), st.sampled_from([None, None, 1]))
def test_walk_matches_the_counter_oracle(net, bound, stop_after_distinct):
    _check_against_the_oracle(net, bound, stop_after_distinct)


def test_walk_matches_the_oracle_on_ten_machines():
    # only m2 and m10 talk: machines past m9 must come in name order
    # (m1, m10, m2, ...), as in the oracle, or the decisions differ
    machines = machine_addresses(10)
    mapping = {
        "m2": ["nbr(@m2, @m10)", "local_edge(t1, t2)"],
        "m10": ["nbr(@m10, @m2)", "local_edge(t2, t3)", "local_edge(t3, t1)"],
    }
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    net = init_network(corpus.load_program("deadlock"), fixture, part)
    for bound, stop_after_distinct in ((400, None), (5, None), (400, 1)):
        _check_against_the_oracle(net, bound, stop_after_distinct)


# m1 sends a and c to m2. Delivered as one batch they derive both(k); a then
# c and c then a do not, and reach one state. Only a makes m2 send e to m1.
# So that state is entered first through a, c, with e asleep at m1, and then
# through c, a, with nothing asleep: the case where sleep sets with state
# caching would expand a seen state again. The walk does not, and still
# enters every state the oracle does.
EPHEMERAL = """
rel seeda(@dest, k) [input]
rel seedc(@dest, k) [input]
rel peer(@p) [input]
chan a(@dest, k)
chan c(@dest, k)
chan e(@dest, k)
rel got(k) [output]
rel both(k) [output]
rel fwd(k) [output]

a(D, K) :- seeda(D, K).
c(D, K) :- seedc(D, K).
got(K) :- a(_, K).
got(K) :- c(_, K).
both(K) :- a(_, K), c(_, K).
e(P, K) :- a(_, K), peer(P).
fwd(K) :- e(_, K).
"""


def test_walk_matches_the_oracle_on_a_state_entered_with_less_asleep():
    machines = machine_addresses(2)
    mapping = {"m1": ["seeda(@m2, k)", "seedc(@m2, k)"], "m2": ["peer(@m1)"]}
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    net = init_network(validate_program(parse_program(EPHEMERAL)), fixture, part)
    for bound, stop_after_distinct in ((400, None), (3, None), (400, 1)):
        _check_against_the_oracle(net, bound, stop_after_distinct)
    res = enumerate_schedules(net)
    assert (res.states_explored, len(res.outcomes), res.deliveries) == (6, 2, 8)
    assert _reference_enumerate(net.machines, 400)[2:] == (6, 9)


# m1 sends z to m2 and x to m3; m3 relays x to m2 as y. m2 derives both(k)
# only if y and z arrive in one batch, so the outcome depends on what m2
# waits for, and m3 sends on receipt. A walk that took the program to send
# once would deliver to m2 before m3 relays, and lose both(k).
RELAY_JOIN = """
rel seedz(@dest, k) [input]
rel seedx(@dest, k) [input]
rel peer(@p) [input]
chan z(@dest, k)
chan x(@dest, k)
chan y(@dest, k)
rel both(k) [output]

z(D, K) :- seedz(D, K).
x(D, K) :- seedx(D, K).
y(P, K) :- x(_, K), peer(P).
both(K) :- y(_, K), z(_, K).
"""


def test_walk_matches_the_oracle_on_a_join_of_a_relayed_message():
    machines = machine_addresses(3)
    mapping = {"m1": ["seedz(@m2, k)", "seedx(@m3, k)"], "m3": ["peer(@m2)"]}
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    net = init_network(validate_program(parse_program(RELAY_JOIN)), fixture, part)
    for bound, stop_after_distinct in ((400, None), (3, None), (400, 1)):
        _check_against_the_oracle(net, bound, stop_after_distinct)
    res = enumerate_schedules(net)
    assert [db_to_obj(o.union_output) for o in res.outcomes] == [{}, {"both": [["k"]]}]
    assert res.states_explored == 5


# m1 sends sa(k) and m2 sends sb(k) to m3, which keeps sb in hb and derives
# out(k) when sa arrives with hb(k) known: sb first, or both in one batch.
# The program sends once and reads each message alone, but its join reads
# hb, which grows, so deliveries do not commute and the walk must find both
# outcomes.
EPHEMERAL_JOIN = """
rel seeda(@d, k) [input]
rel seedb(@d, k) [input]
chan sa(@dest, k)
chan sb(@dest, k)
rel hb(k)
rel out(k) [output]

sa(D, K) :- seeda(D, K).
sb(D, K) :- seedb(D, K).
hb(X) :- sb(_, X).
out(X) :- sa(_, X), hb(X).
"""

# the same program with sa kept before the join: monotone, and one outcome
REPAIRED_JOIN = EPHEMERAL_JOIN.replace("rel hb(k)", "rel ha(k)\nrel hb(k)").replace(
    "out(X) :- sa(_, X), hb(X).", "ha(X) :- sa(_, X).\nout(X) :- ha(X), hb(X)."
)
# the same join through an event derived from sa, which is as ephemeral
EVENT_JOIN = EPHEMERAL_JOIN.replace("rel hb(k)", "rel ea(k) [event]\nrel hb(k)").replace(
    "out(X) :- sa(_, X), hb(X).", "ea(X) :- sa(_, X).\nout(X) :- ea(X), hb(X)."
)
PROBE_MAP = {"m1": ["seeda(@m3, k)"], "m2": ["seedb(@m3, k)"]}


def probe(text: str) -> tuple:
    """(program, fixture, partitioning) of ``text``, one of the three
    programs above, on 3 machines, with m1 and m2 each holding one seed for
    m3."""
    fixture = Database.from_facts(parse_facts("\n".join(sum(PROBE_MAP.values(), []))))
    part = partitioning_from_map(fixture, machine_addresses(3), PROBE_MAP)
    return validate_program(parse_program(text)), fixture, part


def test_walk_matches_the_oracle_on_an_ephemeral_join_and_its_repair():
    net, repaired = (init_network(*probe(text)) for text in (EPHEMERAL_JOIN, REPAIRED_JOIN))
    assert net.table.program.sends_once and not net.table.program.deliveries_commute
    assert repaired.table.program.deliveries_commute
    for bound, stop_after_distinct in ((400, None), (1, None), (400, 1)):
        _check_against_the_oracle(net, bound, stop_after_distinct)
        _check_against_the_oracle(repaired, bound, stop_after_distinct)
    res = enumerate_schedules(net)
    assert [db_to_obj(o.union_output) for o in res.outcomes] == [{"out": [["k"]]}, {}]
    assert res.complete and res.states_explored == 3
    res = enumerate_schedules(repaired)
    assert [db_to_obj(o.union_output) for o in res.outcomes] == [{"out": [["k"]]}]


# --- depth ---------------------------------------------------------------------

RELAY = """
rel next(n, m) [input]
rel start(n) [input]
rel peer(@p) [input]
chan token(@dest, n)
rel seen(n) [output]

seen(N) :- start(N).
seen(N) :- token(_, N).
token(P, M) :- seen(N), next(N, M), peer(P).
"""


def test_a_program_that_sends_on_receipt_does_not_send_once():
    # so the walk keeps sleep sets for it, under the oracle above, unless
    # its deliveries commute
    assert corpus.load_program("deadlock").sends_once and _program("receipt_race").sends_once
    assert not _program("flood").sends_once
    for text in (EPHEMERAL, RELAY, RELAY_JOIN, RACING_FLOOD):
        assert not validate_program(parse_program(text)).sends_once


def test_deliveries_commute_for_the_flood_and_the_relay_alone():
    # each reads a message alone and negates and counts nothing; the others
    # join two messages (EPHEMERAL, RELAY_JOIN), a message or an event
    # derived from one with a growing relation (EPHEMERAL_JOIN, EVENT_JOIN)
    # or negate one that grows (RACING_FLOOD, RECEIPT_RACE)
    for text in (FLOOD, RELAY):
        assert validate_program(parse_program(text)).deliveries_commute
    for text in (EPHEMERAL, RELAY_JOIN, EPHEMERAL_JOIN, EVENT_JOIN, RACING_FLOOD, RECEIPT_RACE):
        assert not validate_program(parse_program(text)).deliveries_commute


def _depth() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_walk_deeper_than_the_recursion_limit():
    # two machines pass one token back and forth: every state has exactly
    # one pending message, so the walk is one path of ``hops`` deliveries
    hops = 200
    vp = validate_program(parse_program(RELAY))
    machines = machine_addresses(2)
    mapping = {
        "m1": ["start(0)", "peer(@m2)"] + [f"next({i}, {i + 1})" for i in range(0, hops, 2)],
        "m2": ["peer(@m1)"] + [f"next({i}, {i + 1})" for i in range(1, hops, 2)],
    }
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    net = init_network(vp, fixture, partitioning_from_map(fixture, machines, mapping))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_depth() + 100)
    try:
        res = enumerate_schedules(net)
    finally:
        sys.setrecursionlimit(limit)
    assert res.complete and res.states_explored == hops
    [outcome] = res.outcomes
    assert len(outcome.decisions) == hops
    assert outcome.union_output.size() == hops + 1
