"""Regression matrix: every expected verdict recorded in the corpus registry
is re-derived from scratch."""

import importlib.util
from pathlib import Path

import pytest

from calmlab import corpus, monocheck
from calmlab.calmlang import parse_program, validate_program
from calmlab.config import load_config
from calmlab.netsim import Schedule, enumerate_schedules, init_network, run_schedule
from calmlab.verdicts import OUTCOME_CONFLUENT, check_confluence, detect_coordination

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_expected_static_verdict(entry, programs):
    rep = monocheck.analyze_program(programs[entry.name])
    verdict = "monotone" if rep.program_monotone else "non-monotone"
    assert verdict == entry.expected_static
    assert {p.kind for p in rep.coordination_points} == set(entry.expected_reasons)


@pytest.mark.parametrize(
    "entry,config",
    [
        (e, c)
        for e in corpus.ENTRIES
        for c in sorted(e.expected_dynamic)
    ],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_expected_dynamic_verdict(entry, config):
    expected = entry.expected_dynamic[config]
    cfg = load_config(corpus.config_path(entry.name, config))
    if config == "coordination.json":
        report = detect_coordination(
            cfg.program,
            cfg.fixture,
            cfg.machines,
            schedules_per_partitioning=cfg.schedules_per_partitioning,
            partition_cap=cfg.partition_cap,
        )
        assert report.verdict == expected
    else:
        verdict = check_confluence(
            cfg.program,
            cfg.fixture,
            cfg.partitioning(),
            mode=cfg.mode,
            seeds=cfg.seeds,
        )
        assert verdict.outcome == expected


def test_every_corpus_and_benchmark_program_validates():
    # read in place: a rule that rejected one of these would fail every
    # verdict or benchmark op that loads it
    paths = [*ROOT.glob("src/calmlab/corpus/*/*.calm"), *ROOT.glob("perfbench/programs/*.calm")]
    assert ROOT / "perfbench/programs/gc_barrier.calm" in paths
    assert len(paths) == len(corpus.ENTRIES) + 1
    for path in paths:
        validate_program(parse_program(path.read_text(encoding="utf-8"), str(path)))


def test_empty_steps_are_idle_in_every_corpus_and_benchmark_program():
    # none negates or aggregates an ephemeral relation, so a swept machine's
    # empty step returns at once (see transducer.step)
    for path in [*ROOT.glob("src/calmlab/corpus/*/*.calm"), *ROOT.glob("perfbench/programs/*.calm")]:
        vp = validate_program(parse_program(path.read_text(encoding="utf-8"), str(path)))
        assert vp.empty_steps_idle, path


def test_every_entry_ships_program_fixtures_readme():
    for e in corpus.ENTRIES:
        assert corpus.read_text(e.name, "program.calm")
        assert corpus.read_text(e.name, "README.md")
        for fx in e.fixtures:
            assert corpus.load_fixture(e.name, fx).size() > 0


def test_calm_reverse_every_nonmonotone_entry_has_evidence():
    # each non-monotone entry either diverges somewhere or needs coordination
    for e in corpus.ENTRIES:
        if e.expected_static != "non-monotone":
            continue
        assert any(
            v in ("divergent", "coordination-required-on-instance")
            for v in e.expected_dynamic.values()
        ), f"{e.name} records no dynamic evidence of non-monotonicity"


def test_deliveries_commute_where_messages_are_read_alone_and_nothing_races():
    # the monotone entries read each message alone; each non-monotone one
    # negates a relation that is not fixed
    commute = {e.name for e in corpus.ENTRIES if corpus.load_program(e.name).deliveries_commute}
    assert commute == {e.name for e in corpus.ENTRIES if e.expected_static == "monotone"}


def test_every_corpus_program_sends_once():
    # each channel rule reads only fixed relations, so the exhaustive walk
    # delivers to one machine at a time on every corpus check
    for e in corpus.ENTRIES:
        assert corpus.load_program(e.name).sends_once, e.name


def test_fixed_relations_take_negation_aggregates_and_recursion_over_inputs():
    fixed = corpus.load_program("gc_coordinated").fixed
    assert {"has_local", "nlocal", "local_edge", "id", "all"} <= fixed
    assert not {"got", "edge", "missing", "garbage", "share"} & fixed
    # missing is an event, but derived from no message
    assert corpus.load_program("gc_coordinated").ephemeral == {"share", "share_root", "ack"}
    assert {"edge", "path"} <= corpus.load_program("transitive_closure").fixed


# Exhaustive check of each entry's check.json: (outcome, distinct outcomes,
# states explored). These pin which network states the enumerator merges.
EXHAUSTIVE_STATE_SPACE = {
    "cart_manifest": ("confluent-on-instance", 1, 4),
    "cart_naive": ("divergent", 2, 3),
    "cart_two_set": ("confluent-on-instance", 1, 2),
    "deadlock": ("confluent-on-instance", 1, 3),
    "gc": ("divergent", 2, 4),
    "gc_coordinated": ("confluent-on-instance", 1, 978),
    "tombstone_demo": ("confluent-on-instance", 1, 2),
    "transitive_closure": ("confluent-on-instance", 1, 0),
}


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_STATE_SPACE))
def test_exhaustive_state_space_is_pinned(name):
    cfg = load_config(corpus.config_path(name, "check.json"))
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    assert (v.outcome, v.distinct_outcomes, v.runs_examined) == EXHAUSTIVE_STATE_SPACE[name]


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_STATE_SPACE))
def test_enumeration_outcome_paths_replay(name):
    # the same walk as the check above: every outcome's path is a witness
    cfg = load_config(corpus.config_path(name, "check.json"))
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    res = enumerate_schedules(net, stop_after_distinct=2)
    assert len(res.outcomes) == EXHAUSTIVE_STATE_SPACE[name][1]
    for o in res.outcomes:
        replay = run_schedule(net, Schedule(decisions=o.decisions))
        assert replay.quiesced
        assert replay.union_output == o.union_output
        assert replay.decisions == o.decisions


# Batches delivered by the same walks. Every corpus program sends once, so
# a frame delivers only to its first inbox; where deliveries commute
# (deadlock, cart_two_set, tombstone_demo, transitive_closure) it delivers
# that whole inbox alone, so the walk is one path. On deadlock the
# unreduced walk delivered 9600 batches, sleep sets 4425, and the
# first-inbox walk 135.
CHECK_DELIVERIES = {
    "cart_manifest": 6,
    "cart_naive": 4,
    "cart_two_set": 2,
    "deadlock": 3,
    "gc": 5,
    "gc_coordinated": 11690,
    "tombstone_demo": 2,
    "transitive_closure": 0,
}


@pytest.mark.parametrize("name", sorted(CHECK_DELIVERIES))
def test_check_walk_deliveries_are_pinned(name):
    cfg = load_config(corpus.config_path(name, "check.json"))
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    res = enumerate_schedules(net, stop_after_distinct=2)
    assert res.states_explored == EXHAUSTIVE_STATE_SPACE[name][2]
    assert res.deliveries == CHECK_DELIVERIES[name]


def _seeded_output(cfg) -> set:
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    run = run_schedule(net, Schedule(seed=cfg.seed, duplicate_every=cfg.duplicate_every),
                       step_budget=cfg.step_budget)
    assert run.quiesced
    return {str(f) for f in run.union_output.facts()}


def test_gc_coordinated_declares_the_unreachable_objects():
    garbage = {"garbage(o5)", "garbage(o6)"}
    assert _seeded_output(load_config(corpus.config_path("gc_coordinated", "run.json"))) == garbage
    cfg = load_config(corpus.config_path("gc_coordinated", "check.json"))
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode=cfg.mode,
                         seeds=cfg.seeds, base_seed=cfg.seed)
    assert (v.outcome, v.distinct_outcomes) == (OUTCOME_CONFLUENT, 1)
    # every schedule reaches the one outcome, the first seed's run included
    assert _seeded_output(cfg) == garbage


def test_corpus_matrix_script_matches_the_registry(capsys):
    spec = importlib.util.spec_from_file_location("corpus_matrix", ROOT / "scripts" / "corpus_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    assert matrix.main() == 0
    # a row is "entry static verdict (...) time" for an entry's first config
    # and "verdict (...) time" for the next ones
    rows = []
    for line in capsys.readouterr().out.splitlines()[2:-2]:
        words = line.split()
        if not line.startswith(" "):
            name, static = words[:2]
            words = words[2:]
        rows.append((name, static, words[0]))
    want = [
        (e.name, "monotone" if e.expected_static == "monotone"
         else "non-monotone{%s}" % ",".join(sorted(e.expected_reasons)), e.expected_dynamic[c])
        for e in corpus.ENTRIES
        for c in sorted(e.expected_dynamic)
    ]
    assert rows == want
