import pytest

from calmlab import corpus
from calmlab.calmlang import parse_program, validate_program
from calmlab.config import load_config
from calmlab.netsim import (
    Schedule,
    colocated,
    init_network,
    machine_addresses,
    run_schedule,
)
from calmlab.relspace import Database, canonical_json, db_to_obj, parse_facts
from calmlab.values import Address
from calmlab.verdicts import (
    OUTCOME_CONFLUENT,
    OUTCOME_DIVERGENT,
    OUTCOME_INCONCLUSIVE,
    VERDICT_FREE,
    VERDICT_INCONCLUSIVE,
    VERDICT_REQUIRED,
    check_confluence,
    detect_coordination,
    diff_databases,
)


def cfg_for(name, config="check.json"):
    return load_config(corpus.config_path(name, config))


def test_deadlock_exhaustive_confluent(programs):
    cfg = cfg_for("deadlock")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    assert v.outcome == OUTCOME_CONFLUENT
    assert v.distinct_outcomes == 1
    assert v.witnesses == ()


def test_gc_divergent_with_garbage_o4_witness(programs):
    cfg = cfg_for("gc")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    assert v.outcome == OUTCOME_DIVERGENT
    assert len(v.witnesses) == 2
    (s1, out1), (s2, out2) = v.witnesses
    assert out1 != out2
    diff = diff_databases(out1, out2)
    assert set(diff) == {"garbage"}
    moved = diff["garbage"]["only_in_first"] + diff["garbage"]["only_in_second"]
    assert moved == ["garbage(o4)"]


def test_single_machine_any_program_trivially_confluent(programs, fixtures):
    fixture = fixtures[("gc", "fig2.facts")]
    part = colocated(fixture, machine_addresses(3), Address("m1"))
    v = check_confluence(programs["gc"], fixture, part, mode="exhaustive")
    assert v.outcome == OUTCOME_CONFLUENT


def test_cart_manifest_confluent(programs):
    cfg = cfg_for("cart_manifest")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    assert v.outcome == OUTCOME_CONFLUENT
    (out,) = [db_to_obj(o.union_output) for o in _enum_outcomes(cfg)]
    assert out == {"final_cart": [["apple"]]}


def _enum_outcomes(cfg):
    from calmlab.netsim import enumerate_schedules

    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    return enumerate_schedules(net).outcomes


def test_sampled_mode_gc_divergent(programs):
    cfg = cfg_for("gc")
    v = check_confluence(
        cfg.program, cfg.fixture, cfg.partitioning(), mode="sampled", seeds=64
    )
    assert v.mode == "sampled"
    assert v.outcome == OUTCOME_DIVERGENT
    assert len(v.witnesses) == 2


def test_inconclusive_when_budget_starves_runs(programs):
    cfg = cfg_for("deadlock")
    v = check_confluence(
        cfg.program, cfg.fixture, cfg.partitioning(), mode="sampled", seeds=4,
        step_budget=1,
    )
    assert v.outcome == OUTCOME_INCONCLUSIVE


def test_exhaustive_bound_inconclusive(programs):
    cfg = cfg_for("deadlock")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive", budget=2)
    assert v.outcome == OUTCOME_INCONCLUSIVE


@pytest.mark.parametrize("budget", [1, 10, 100])
def test_exhaustive_walk_stops_at_the_state_bound(budget):
    # gc_coordinated's full walk has 978 states; once the bound is met,
    # every pending sibling must return without examining another state
    cfg = cfg_for("gc_coordinated")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive",
                         budget=budget)
    assert (v.outcome, v.runs_examined) == (OUTCOME_INCONCLUSIVE, budget)


def test_witness_schedules_replay_byte_identically(programs):
    cfg = cfg_for("gc")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    for sched, recorded in v.witnesses:
        replay = run_schedule(net, sched)
        assert canonical_json(db_to_obj(replay.union_output)) == canonical_json(
            db_to_obj(recorded)
        )


def test_deadlock_coordination_free(programs):
    cfg = cfg_for("deadlock", "coordination.json")
    r = detect_coordination(
        cfg.program, cfg.fixture, cfg.machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
    )
    assert r.verdict == VERDICT_FREE
    assert r.colocated_min_messages == 0


def test_gc_coordinated_requires_coordination(programs):
    cfg = cfg_for("gc_coordinated", "coordination.json")
    r = detect_coordination(
        cfg.program, cfg.fixture, cfg.machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
    )
    assert r.verdict == VERDICT_REQUIRED
    assert r.colocated_min_messages >= 1


def test_empty_program_coordination_free():
    vp = validate_program(parse_program("rel seen(x) [input]\nrel out(x) [output]"))
    db = Database.from_facts(parse_facts("seen(a)\nseen(b)"))
    r = detect_coordination(vp, db, 2, schedules_per_partitioning=2, partition_cap=4)
    assert r.verdict == VERDICT_FREE
    assert r.colocated_min_messages == 0
    assert all(row["min_messages"] == 0 for row in r.per_partitioning)
    # 2**2 <= cap: every assignment once, the two colocated ones first
    assert [row["colocated"] for row in r.per_partitioning] == [True, True, False, False]
    maps = {canonical_json(row["partitioning"]) for row in r.per_partitioning}
    assert len(maps) == 4


def test_an_empty_fixture_is_one_colocated_partitioning():
    vp = validate_program(parse_program("rel seen(x) [input]\nrel out(x) [output]"))
    r = detect_coordination(vp, Database({}), 3)
    assert r.per_partitioning == (
        {"partitioning": {"@m1": [], "@m2": [], "@m3": []}, "colocated": True, "min_messages": 0},
    )
    assert r.verdict == VERDICT_FREE
    assert r.colocated_min_messages == 0


def test_coordination_is_inconclusive_when_no_colocated_run_quiesces():
    vp = validate_program(parse_program("rel seen(x) [input]\nrel out(x) [output]"))
    db = Database.from_facts(parse_facts("seen(a)\nseen(b)"))
    r = detect_coordination(vp, db, 2, step_budget=1)
    assert r.verdict == VERDICT_INCONCLUSIVE
    assert r.colocated_min_messages is None
    assert [row["min_messages"] for row in r.per_partitioning] == [None] * 4


def test_compare_outputs_reflexive_empty(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    r = run_schedule(net, Schedule(seed=1))
    assert diff_databases(r.union_output, r.union_output) == {}


def test_deadlock_two_seeds_empty_diff(programs):
    cfg = cfg_for("deadlock")
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    r1 = run_schedule(net, Schedule(seed=1))
    r2 = run_schedule(net, Schedule(seed=2))
    assert diff_databases(r1.union_output, r2.union_output) == {}


def test_verdict_json_has_schema_version(programs):
    cfg = cfg_for("gc")
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    obj = v.to_obj()
    assert obj["schema_version"] == 1
    assert obj["outcome"] == OUTCOME_DIVERGENT
