import json
import re
import sys
from collections import Counter

import pytest

from calmlab import corpus, netsim, transducer
from calmlab.calmlang import parse_program, validate_program
from calmlab.config import ConfigError, load_config
from calmlab.errors import ParseError
from calmlab.netsim import (
    PartitioningError,
    ReplayError,
    Schedule,
    colocated,
    enumerate_partitionings,
    enumerate_schedules,
    hash_partitioning,
    init_network,
    machine_addresses,
    partitioning_from_map,
    run_schedule,
)
from calmlab.relspace import Database, canonical_json, db_to_obj, parse_facts
from calmlab.values import Address


def cfg_for(name, config="run.json"):
    return load_config(corpus.config_path(name, config))


def outcome_json(outcome):
    return canonical_json(outcome.to_obj())


def test_init_single_machine_holds_everything(programs, fixtures):
    fixture = fixtures[("deadlock", "edges_only.facts")]
    part = colocated(fixture, machine_addresses(1))
    net = init_network(programs["deadlock"], fixture, part)
    m1 = net.machines["m1"]
    assert m1.persisted.relation("local_edge") == fixture.relation("local_edge")
    assert not net.pending


def test_init_figure_placement(programs, fixtures):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    m2 = net.machines["m2"]
    assert {str(f) for f in m2.persisted.relation("local_edge")} == {
        "local_edge(t3, t1)"
    }
    # reserved relations populated everywhere
    for m in net.machines.values():
        assert {str(f) for f in m.persisted.relation("id")} == {f"id(@{m.address.name})"}
        assert len(m.persisted.relation("all")) == 3


def test_init_empty_input_three_machines(programs):
    part = colocated(Database({}), machine_addresses(3))
    net = init_network(programs["transitive_closure"], Database({}), part)
    assert len(net.machines) == 3
    for m in net.machines.values():
        assert set(m.persisted.relations) == {"id", "all"}


def test_partitioning_unassigned_fact_rejected(programs, fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]
    mapping = {"m1": ["edge(a, b)"]}  # misses the rest; the first missed, sorted
    with pytest.raises(PartitioningError, match=re.escape(
            "input fact edge(b, c) not assigned to any machine")):
        partitioning_from_map(fixture, machine_addresses(2), mapping)


def test_partitioning_double_assignment_rejected(fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]
    mapping = {
        "m1": ["edge(a, b)", "edge(b, c)", "edge(c, a)", "edge(c, d)"],
        "m2": ["edge(a, b)"],
    }
    with pytest.raises(PartitioningError, match=re.escape(
            "fact edge(a, b) assigned to more than one machine")):
        partitioning_from_map(fixture, machine_addresses(2), mapping)


def test_partitioning_unknown_fact_rejected(fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]
    mapping = {
        "m1": ["edge(a, b)", "edge(b, c)", "edge(c, a)", "edge(c, d)", "edge(z, z)"]
    }
    with pytest.raises(PartitioningError, match=re.escape(
            "assigned fact edge(z, z) is not in the input fixture")):
        partitioning_from_map(fixture, machine_addresses(2), mapping)


def test_partitioning_map_entries_are_parsed_unless_canonical(fixtures):
    # an entry spelled otherwise than the fixture's canonical text names the
    # same fact; one that is not one fact is located in its entry
    fixture = fixtures[("transitive_closure", "chain.facts")]
    rest = ["edge(b, c)", "edge(c, a)", "edge(c, d)"]
    part = partitioning_from_map(fixture, machine_addresses(2),
                                 {"m1": ["edge( a ,b )"], "m2": rest})
    assert part.describe() == {"@m1": ["edge(a, b)"], "@m2": rest}
    with pytest.raises(ParseError, match=re.escape(
            "partitioning map entry 'm1':1:1: expected one fact, found 2")):
        partitioning_from_map(fixture, machine_addresses(2),
                              {"m1": ["edge(a, b)\nedge(b, c)"], "m2": rest[1:]})


def test_fixture_fact_must_be_input_relation(tmp_path):
    # an output relation, then one the program does not declare: loading the
    # config rejects each, naming the fixture file
    program = corpus.config_path("transitive_closure", "program.calm")
    (tmp_path / "run.json").write_text(json.dumps({"program": str(program), "fixture": "bad.facts"}))
    for text, reason in (("path(a, b)", "path is not marked input"),
                         ("mystery(a)", "mystery is not declared")):
        (tmp_path / "bad.facts").write_text(text + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"bad.facts: {text}: relation {reason}")):
            load_config(tmp_path / "run.json")


def test_hash_partitioning_is_deterministic(fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]
    p1 = hash_partitioning(fixture, machine_addresses(3))
    p2 = hash_partitioning(fixture, machine_addresses(3))
    assert p1.assignment == p2.assignment


def test_enumerate_partitionings_small_is_exhaustive(fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]  # 4 facts
    parts = enumerate_partitionings(fixture, 2, cap=64)
    assert len(parts) == 2**4
    keys = {tuple(p.assignment[f].name for f in fixture.facts()) for p in parts}
    assert len(keys) == 2**4
    # the colocated partitionings come first, then the rest in product order
    assert [set(p.assignment.values()) for p in parts[:3]] == [
        {Address("m1")}, {Address("m2")}, {Address("m1"), Address("m2")}
    ]


def test_enumerate_partitionings_capped_includes_colocated(programs, fixtures):
    fixture = fixtures[("deadlock", "fig1.facts")]  # 11 facts
    parts = enumerate_partitionings(fixture, 3, cap=10, seed=1)
    assert len(parts) == 10
    colocated_keys = [
        all(a.name == f"m{i}" for a in p.assignment.values())
        for i, p in zip((1, 2, 3), parts[:3])
    ]
    assert all(colocated_keys)


def test_run_deadlock_any_seed_contains_both_cycles(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    for seed in (0, 7, 123456789):
        out = run_schedule(net, Schedule(seed=seed))
        assert out.quiesced
        cycles = {str(f) for f in out.union_output.relation("cycle")}
        assert cycles == {
            "cycle(t1, t2)",
            "cycle(t2, t1)",
            "cycle(t1, t3)",
            "cycle(t3, t1)",
        }


def test_same_seed_bit_identical_three_times(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    runs = [outcome_json(run_schedule(net, Schedule(seed=42))) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_explicit_decisions_replay_bit_identically(programs):
    cfg = cfg_for("gc", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    run1 = run_schedule(net, Schedule(seed=5))
    replay = run_schedule(net, Schedule(decisions=run1.decisions))
    assert outcome_json(replay) == outcome_json(run1)


def test_replay_errors_name_what_does_not_match(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    decisions = run_schedule(net, Schedule(seed=3)).decisions
    (dst, keys), *_ = decisions
    bogus = {
        "decision delivers ('m2', 'copy(@m1, t9, t9)') to m1 but it is not pending":
            (("m1", (("m2", "copy(@m1, t9, t9)"),)),),
        "schedule exhausted while messages are still pending": decisions[:-1],
        "decision lists the same message twice in one batch": ((dst, keys + keys[:1]),),
        "decision delivers an empty batch": ((dst, ()),),
    }
    for message, schedule in bogus.items():
        with pytest.raises(ReplayError) as err:
            run_schedule(net, Schedule(decisions=schedule))
        assert err.value.message == message


def test_empty_program_quiesces_with_empty_output():
    vp = validate_program(parse_program("rel seen(x) [input]\nrel out(x) [output]"))
    db = Database.from_facts(parse_facts("seen(a)"))
    net = init_network(vp, db, colocated(db, machine_addresses(2)))
    out = run_schedule(net, Schedule(seed=0))
    assert out.quiesced
    assert out.union_output == Database({})
    assert out.message_count == 0


# m1 sends msg(@m2, k). The step that delivers it derives got(k) at m2 but
# not out(k), since blocked() holds there; only the sweep's empty step after
# it derives out(k)
BLOCKED = """
rel seed(@d, x) [input]
chan msg(@d, x)
rel got(x)
rel blocked() [event]
rel out(x) [output]

msg(D, X) :- seed(D, X).
got(X) :- msg(_, X).
blocked() :- msg(_, _).
out(X) :- got(X), !blocked().
"""


def test_a_sweep_settles_what_a_negated_event_blocked():
    vp = validate_program(parse_program(BLOCKED))
    assert not vp.empty_steps_idle
    fixture = Database.from_facts(parse_facts("seed(@m2, k)"))
    part = partitioning_from_map(fixture, machine_addresses(2), {"m1": ["seed(@m2, k)"]})
    net = init_network(vp, fixture, part)
    out = run_schedule(net, Schedule(seed=1))
    assert out.quiesced and (out.steps_used, out.message_count) == (9, 1)
    assert db_to_obj(out.union_output) == {"out": [["k"]]}
    [outcome] = enumerate_schedules(net).outcomes
    assert db_to_obj(outcome.union_output) == {"out": [["k"]]}


def test_a_step_that_changes_nothing_returns_its_state():
    # once a sweep settles, every machine's empty step changes nothing, and
    # step returns the very state it was given, committed or still fresh
    # (m2 of BLOCKED, before its message arrives, derived nothing)
    nets = [init_network(cfg.program, cfg.fixture, cfg.partitioning())
            for cfg in (cfg_for(e.name, "check.json") for e in corpus.ENTRIES)]
    blocked = Database.from_facts(parse_facts("seed(@m2, k)"))
    nets.append(init_network(validate_program(parse_program(BLOCKED)), blocked,
                             partitioning_from_map(blocked, machine_addresses(2),
                                                   {"m1": ["seed(@m2, k)"]})))
    fresh = 0
    for net in nets:
        while True:
            assert netsim._sweep(net, netsim.DEFAULT_STEP_BUDGET)
            for m in net.machines.values():
                nxt, offered = transducer.step(m, ())
                assert nxt is m and offered == ()
                fresh += not m.committed
            if not net.pending:
                break
            netsim._deliver(net, next(iter(netsim._inboxes(net.pending).values())))
    assert fresh


def test_budget_one_flags_non_quiescence(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    out = run_schedule(net, Schedule(seed=0), step_budget=1)
    assert not out.quiesced


@pytest.mark.parametrize("name", [e.name for e in corpus.ENTRIES])
def test_a_budgeted_run_is_a_prefix_of_the_unbudgeted_run(name):
    # a run stops at its step budget: with S the steps the unbudgeted run
    # takes, a run under budget b takes min(b, S) steps, quiesces exactly
    # when S <= b, and makes the first decisions of the unbudgeted run
    cfg = cfg_for(name)
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    schedule = Schedule(seed=cfg.seed, duplicate_every=cfg.duplicate_every)
    full = run_schedule(net, schedule, step_budget=cfg.step_budget)
    assert full.quiesced
    for budget in range(1, 31):
        out = run_schedule(net, schedule, step_budget=budget)
        assert out.steps_used == min(budget, full.steps_used), budget
        assert out.quiesced == (full.steps_used <= budget), budget
        assert out.decisions == full.decisions[:len(out.decisions)], budget
        assert out.trace == full.trace[:len(out.trace)], budget


def test_quiescence_implies_no_pending_messages(programs):
    # fairness: the trace accounts for every message that was ever sent
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    out = run_schedule(net, Schedule(seed=3))
    assert out.quiesced
    assert len(out.trace) == 10  # 5 local edges copied to 2 peers each


def test_duplication_toggle_preserves_monotone_outcome(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    plain = run_schedule(net, Schedule(seed=9))
    dup = run_schedule(net, Schedule(seed=9, duplicate_every=2))
    assert plain.union_output == dup.union_output


def test_fixture_naming_an_unknown_address_is_rejected_before_the_run(tmp_path):
    fixture = corpus.config_path("deadlock", "fig1.facts")  # names m2 and m3
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "program": str(corpus.config_path("deadlock", "program.calm")),
        "fixture": str(fixture), "machines": 2,
    }))
    cfg = load_config(path)
    with pytest.raises(ConfigError) as raised:
        cfg.partitioning()
    assert str(raised.value) == (
        f"fixture {fixture}: nbr(@m1, @m3): names @m3, which is not in the network"
    )


# --- exhaustive enumeration ---------------------------------------------------


def test_single_machine_monotone_single_outcome(programs, fixtures):
    fixture = fixtures[("transitive_closure", "chain.facts")]
    part = colocated(fixture, machine_addresses(1))
    net = init_network(programs["transitive_closure"], fixture, part)
    res = enumerate_schedules(net)
    assert res.complete
    assert len(res.outcomes) == 1


def test_deadlock_two_machine_split_full_enumeration_confluent(programs, fixtures):
    # full enumeration is the oracle: every schedule agrees
    vp = programs["deadlock"]
    fixture = Database.from_facts(
        parse_facts(
            "local_edge(t1, t2)\nlocal_edge(t2, t1)\nlocal_edge(t1, t3)\n"
            "local_edge(t3, t1)\nnbr(@m1, @m2)\nnbr(@m2, @m1)"
        )
    )
    mapping = {
        "m1": ["local_edge(t1, t2)", "local_edge(t2, t1)", "local_edge(t1, t3)", "nbr(@m1, @m2)"],
        "m2": ["local_edge(t3, t1)", "nbr(@m2, @m1)"],
    }
    part = partitioning_from_map(fixture, machine_addresses(2), mapping)
    net = init_network(vp, fixture, part)
    res = enumerate_schedules(net)
    assert res.complete
    assert len(res.outcomes) == 1
    cycles = {str(f) for f in res.outcomes[0].union_output.relation("cycle")}
    assert cycles == {"cycle(t1, t2)", "cycle(t2, t1)", "cycle(t1, t3)", "cycle(t3, t1)"}


def test_cart_naive_concurrent_update_two_outcomes(programs):
    cfg = cfg_for("cart_naive", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    res = enumerate_schedules(net)
    assert res.complete
    unions = sorted(
        canonical_json({r: sorted(map(str, o.union_output.relation(r))) for r in o.union_output.relations})
        for o in res.outcomes
    )
    assert len(unions) == 2


def test_enumeration_bound_flags_partial(programs):
    cfg = cfg_for("gc", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    res = enumerate_schedules(net, bound=3)
    assert not res.complete


def test_exhaustive_walk_steps_each_machine_on_each_inbox_once(monkeypatch):
    # the walk memoises step, empty-inbox sweeps included: a machine state
    # and an inbox it has already been stepped on must never be stepped again
    cfg = cfg_for("gc", "check.json")
    stepped = Counter()
    real_step = netsim.step

    def counting_step(mstate, facts, *args):
        stepped[(mstate.semantic_key(), frozenset(facts))] += 1
        return real_step(mstate, facts, *args)

    monkeypatch.setattr(netsim, "step", counting_step)
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    res = enumerate_schedules(net)
    assert res.complete and res.states_explored == 56
    repeated = {key: n for key, n in stepped.items() if n > 1}
    assert not repeated, f"{len(repeated)} (machine, inbox) pairs stepped more than once"


def test_a_walk_from_a_root_with_messages_in_flight_keeps_sleep_sets():
    # the one-machine-at-a-time walk needs a swept root: the first step of
    # a machine is the one that sends, and a root in flight may not have
    # taken it, so such a root enters every state the unreduced walk does
    cfg = cfg_for("gc", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    root = net.copy()
    assert netsim._sweep(root, netsim.DEFAULT_STEP_BUDGET) and root.pending
    swept, in_flight = enumerate_schedules(net), enumerate_schedules(root)
    assert (swept.states_explored, in_flight.states_explored) == (56, 4606)
    assert [o.union_output for o in in_flight.outcomes] == [o.union_output for o in swept.outcomes]


def test_a_walk_whose_deliveries_commute_is_one_path():
    # deadlock reads each message alone and negates and counts nothing, so
    # every path reaches one outcome: each frame delivers its whole first
    # inbox once, from a swept root and from a root in flight alike
    cfg = cfg_for("deadlock", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    root = net.copy()
    assert cfg.program.deliveries_commute
    assert netsim._sweep(root, netsim.DEFAULT_STEP_BUDGET) and root.pending
    for start in (net, root):
        res = enumerate_schedules(start)
        [outcome] = res.outcomes
        assert res.complete and res.states_explored == res.deliveries == 3
        assert len(outcome.decisions) == 3
        replay = run_schedule(start, Schedule(decisions=outcome.decisions))
        assert replay.union_output == outcome.union_output


def test_a_rerun_on_one_network_executes_no_step():
    # every walk on a network steps through the memo its copies share, so
    # a second run of the same schedule finds each step already made
    cfg = cfg_for("gc", "check.json")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    step_runs = 0

    def count_steps(frame, event, arg):
        nonlocal step_runs
        if event == "call" and frame.f_code is transducer.step.__code__:
            step_runs += 1

    outcomes = []
    for _ in range(2):
        step_runs = 0
        sys.setprofile(count_steps)
        try:
            outcomes.append(run_schedule(net, Schedule(seed=9)))
        finally:
            sys.setprofile(None)
    assert step_runs == 0
    assert outcomes[0].to_obj() == outcomes[1].to_obj()


@pytest.mark.parametrize("name,steps", [("gc_coordinated", 3474), ("gc", 310)])
def test_a_walk_keys_each_machine_state_once_per_step(monkeypatch, name, steps):
    # machine states are interned to ids, so the walk keys a machine state
    # only when it enters the table (at init or after a step that changed
    # it) and compares databases only when a step runs: a delivery that
    # hits the step memo touches no Database
    cfg = cfg_for(name, "check.json")
    part = cfg.partitioning()
    calls = Counter()

    def count(owner, attr, label):
        real = getattr(owner, attr)

        def counted(*args):
            calls[label] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, counted)

    count(transducer.MachineState, "semantic_key", "keys")
    count(Database, "__eq__", "eqs")
    count(netsim, "step", "steps")
    net = init_network(cfg.program, cfg.fixture, part)
    res = enumerate_schedules(net)
    assert res.complete
    assert calls["steps"] == steps
    assert calls["keys"] <= steps + len(net.machines), calls
    assert calls["eqs"] <= 2 * steps, calls


def test_run_schedule_leaves_its_input_untouched():
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    before = net.semantic_key()
    seeded = run_schedule(net, Schedule(seed=4))
    assert net.semantic_key() == before
    run_schedule(net, Schedule(decisions=seeded.decisions))
    assert net.semantic_key() == before
    assert net.steps == 0


def test_at_least_once_seeded_run_is_pinned():
    # duplication draws from the same rng as the delivery choices, so this
    # pins the order of every draw
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    out = run_schedule(net, Schedule(seed=9, duplicate_every=2))
    assert out.quiesced
    assert out.decisions == (
        ("m2", (("m1", "copy(@m2, t1, t3)"), ("m1", "copy(@m2, t2, t1)"))),
        ("m3", (("m1", "copy(@m3, t1, t2)"), ("m1", "copy(@m3, t2, t1)"))),
        ("m1", (("m3", "copy(@m1, t3, t4)"),)),
        ("m2", (("m3", "copy(@m2, t3, t4)"),)),
        ("m1", (("m2", "copy(@m1, t3, t1)"),)),
        ("m2", (("m1", "copy(@m2, t1, t2)"),)),
        ("m3", (("m2", "copy(@m3, t3, t1)"),)),
        ("m2", (("m1", "copy(@m2, t1, t2)"),)),
        ("m3", (("m2", "copy(@m3, t3, t1)"),)),
        ("m3", (("m2", "copy(@m3, t3, t1)"),)),
    ) + (("m3", (("m1", "copy(@m3, t1, t3)"),)),) * 6
    assert (out.steps_used, out.message_count, len(out.trace)) == (25, 18, 18)
