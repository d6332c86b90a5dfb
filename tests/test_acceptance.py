"""Acceptance suite: one test per criterion, each printing a pass line with
its measured evidence. Run with ``pytest tests/test_acceptance.py -v -s``.

Partitioning sweeps use the capped enumeration (all assignments when the
count fits the cap, otherwise the colocated variants plus seeded samples),
and skip machine counts whose address space does not cover the addresses a
fixture routes to, since sending to an unknown machine is a routing error
by design.
"""

import json
import random
import time
from pathlib import Path

from calmlab import corpus, monocheck
from calmlab.config import load_config
from calmlab.lattices import leq as lattice_leq, merge
from calmlab.netsim import (
    Schedule,
    colocated,
    enumerate_partitionings,
    enumerate_schedules,
    init_network,
    machine_addresses,
    run_schedule,
)
from calmlab.relspace import Database, canonical_json, db_leq, parse_facts
from calmlab.values import Address
from calmlab.verdicts import (
    OUTCOME_CONFLUENT,
    OUTCOME_DIVERGENT,
    VERDICT_FREE,
    VERDICT_REQUIRED,
    check_confluence,
    detect_coordination,
    diff_databases,
)

GOLDENS = Path(__file__).parent / "goldens"
PARTITION_CAP = 24  # per machine count; beyond this, colocated + seeded samples


def golden(name):
    return json.loads((GOLDENS / name).read_text())


def sweep_partitionings(fixture, cap=PARTITION_CAP, seed=0):
    needed = {a for f in fixture.facts() for a in f.args if isinstance(a, Address)}
    for m in (1, 2, 3):
        if not needed <= set(machine_addresses(m)):
            continue
        yield from enumerate_partitionings(fixture, m, cap=cap, seed=seed)


def test_criterion_1_calm_forward_monotone_programs_confluent(programs, fixtures):
    """Monotone corpus x fixtures x partitionings (M in 1..3): exhaustive
    confluence everywhere, under 60 seconds."""
    t0 = time.monotonic()
    checks = 0
    for entry in corpus.MONOTONE_ENTRIES:
        vp = programs[entry.name]
        for fx in entry.fixtures:
            fixture = fixtures[(entry.name, fx)]
            assert fixture.size() <= 12, f"{entry.name}/{fx} exceeds the 12-fact bound"
            for part in sweep_partitionings(fixture):
                v = check_confluence(vp, fixture, part, mode="exhaustive")
                checks += 1
                assert v.outcome == OUTCOME_CONFLUENT, (
                    f"{entry.name}/{fx} diverged under {part.describe()}"
                )
                assert v.distinct_outcomes == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (target < 60s)"
    print(
        f"\nACCEPTANCE 1 PASS: CALM forward; {checks} exhaustive confluence checks "
        f"across 4 monotone programs, all confluent-on-instance, {elapsed:.1f}s"
    )


def test_criterion_2_nonmonotone_divergence_witnesses(programs):
    """Bare collector diverges by exactly garbage(o4); racing cart yields
    at least two distinct quiescent outcomes. Both pinned as goldens."""
    cfg = load_config(corpus.config_path("gc", "check.json"))
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    assert v.outcome == OUTCOME_DIVERGENT
    (s1, out1), (s2, out2) = v.witnesses
    diff = diff_databases(out1, out2)
    moved = [
        f
        for rel in diff
        for f in diff[rel]["only_in_first"] + diff[rel]["only_in_second"]
    ]
    assert moved == ["garbage(o4)"], f"witness diff is {diff}"
    want = golden("gc_witness_diff.json")
    assert diff == want["diff"]
    assert [sorted(str(f) for f in out1.facts()), sorted(str(f) for f in out2.facts())] == want[
        "witness_outputs"
    ]

    cfg = load_config(corpus.config_path("cart_naive", "check.json"))
    res = enumerate_schedules(init_network(cfg.program, cfg.fixture, cfg.partitioning()))
    assert res.complete
    assert len(res.outcomes) >= 2
    got = sorted(sorted(str(f) for f in o.union_output.facts()) for o in res.outcomes)
    assert got == golden("cart_naive_outcomes.json")
    print(
        "\nACCEPTANCE 2 PASS: CALM reverse; collector witness diff == {garbage(o4)}, "
        f"racing cart has {len(res.outcomes)} distinct quiescent outcomes, goldens match"
    )


def test_criterion_3_figure_fidelity(programs, fixtures):
    """Deadlock on its figure placement yields exactly the two cycles under
    every enumerated schedule; the co-located collector yields exactly
    garbage = {o5, o6}."""
    cfg = load_config(corpus.config_path("deadlock", "check.json"))
    res = enumerate_schedules(init_network(cfg.program, cfg.fixture, cfg.partitioning()))
    assert res.complete
    assert len(res.outcomes) == 1
    cycles = {str(f) for f in res.outcomes[0].union_output.relation("cycle")}
    assert cycles == {
        "cycle(t1, t2)",
        "cycle(t2, t1)",
        "cycle(t1, t3)",
        "cycle(t3, t1)",
    }

    cfg = load_config(corpus.config_path("gc", "run.json"))
    res = enumerate_schedules(init_network(cfg.program, cfg.fixture, cfg.partitioning()))
    assert res.complete
    assert len(res.outcomes) == 1
    garbage = {str(f) for f in res.outcomes[0].union_output.relation("garbage")}
    assert garbage == {"garbage(o5)", "garbage(o6)"}
    print(
        "\nACCEPTANCE 3 PASS: figure fidelity; deadlock cycles {t1,t2} and {t1,t3} "
        "under every schedule, co-located collector garbage == {o5, o6}"
    )


def test_criterion_4_coordination_detection(programs, fixtures):
    """Deadlock detection is coordination-free on its instance; the
    coordinated collector pays messages even co-located, on every fixture."""
    cfg = load_config(corpus.config_path("deadlock", "coordination.json"))
    r = detect_coordination(
        cfg.program, cfg.fixture, cfg.machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
    )
    assert r.verdict == VERDICT_FREE
    assert r.colocated_min_messages == 0

    entry = corpus.entry("gc_coordinated")
    mins = []
    for fx in entry.fixtures:
        fixture = fixtures[("gc_coordinated", fx)]
        r2 = detect_coordination(
            programs["gc_coordinated"], fixture, 3,
            schedules_per_partitioning=4, partition_cap=6,
        )
        assert r2.verdict == VERDICT_REQUIRED
        assert r2.colocated_min_messages >= 1
        mins.append(r2.colocated_min_messages)
    print(
        f"\nACCEPTANCE 4 PASS: coordination; deadlock colocated_min=0 (free), "
        f"coordinated collector colocated_min={mins} >= 1 (required) on every fixture"
    )


def _subset_pairs(fixture, rng, count):
    """S subset T pairs with T = S plus 1-3 fixture facts."""
    facts = list(fixture.facts())
    pairs = []
    while len(pairs) < count:
        k = rng.randrange(0, len(facts))
        s_facts = rng.sample(facts, k)
        rest = [f for f in facts if f not in s_facts]
        if not rest:
            continue
        extra = rng.sample(rest, min(len(rest), rng.randint(1, 3)))
        pairs.append((Database.from_facts(s_facts), Database.from_facts(s_facts + extra)))
    return pairs


GC_VIOLATION_S = """
root_input(root)
obj(o4)
obj(o5)
obj(o6)
local_edge(o5, o6)
"""
GC_VIOLATION_EXTRA = "local_edge(root, o3)\nlocal_edge(o3, o4)"


def run_output(vp, input_db):
    """Union output of a seeded run with all of ``input_db`` on m1 of a
    3-machine network (the corpus fixtures name machines up to @m3)."""
    machines = machine_addresses(3)
    net = init_network(vp, input_db, colocated(input_db, machines, machines[0]))
    run = run_schedule(net, Schedule(seed=0))
    assert run.quiesced
    return run.union_output


def test_criterion_5_dynamic_monotonicity_check(programs, fixtures):
    """20 random input pairs S subset T per monotone program: the output of
    a run on S is contained in the output of a run on T; the bare collector
    violates it on a pinned pair where o4 leaves the garbage set."""
    rng = random.Random(2024)
    for entry in corpus.MONOTONE_ENTRIES:
        vp = programs[entry.name]
        fixture = fixtures[(entry.name, entry.fixtures[0])]
        for s_db, t_db in _subset_pairs(fixture, rng, 20):
            assert db_leq(run_output(vp, s_db), run_output(vp, t_db)), (
                f"{entry.name}: output not monotone for S={list(s_db.facts())}"
            )

    gc = programs["gc"]
    s_db = Database.from_facts(parse_facts(GC_VIOLATION_S))
    t_db = Database.from_facts(list(s_db.facts()) + parse_facts(GC_VIOLATION_EXTRA))
    pairs = [(s_db, t_db)] + _subset_pairs(fixtures[("gc", "fig2.facts")], rng, 19)
    violations = 0
    for s, t in pairs:
        out_s, out_t = run_output(gc, s), run_output(gc, t)
        if not db_leq(out_s, out_t):
            violations += 1
    assert violations >= 1
    out_s = run_output(gc, s_db)
    out_t = run_output(gc, t_db)
    assert "garbage(o4)" in {str(f) for f in out_s.facts()}
    assert "garbage(o4)" not in {str(f) for f in out_t.facts()}
    print(
        f"\nACCEPTANCE 5 PASS: dynamic monotonicity; 4 monotone programs x 20 pairs "
        f"all contained, collector violated containment on {violations}/20 pairs "
        "(o4 leaves garbage)"
    )


def test_criterion_6_lattice_laws():
    """ACI + inflation over >= 200 cases per variant, replica convergence
    over >= 100 permutation pairs, zero failures."""
    from test_lattices import VARIANTS, rand_value

    failures = 0
    cases = 0
    for variant in VARIANTS:
        rng = random.Random(60_000 + hash(variant) % 1000)
        for _ in range(200):
            a, b, c = (rand_value(variant, rng) for _ in range(3))
            cases += 1
            if not (
                merge(a, b) == merge(b, a)
                and merge(a, merge(b, c)) == merge(merge(a, b), c)
                and merge(a, a) == a
                and lattice_leq(a, merge(a, b))
                and lattice_leq(b, merge(a, b))
            ):
                failures += 1
    conv_pairs = 0
    for variant in VARIANTS:
        rng = random.Random(61_000 + hash(variant) % 1000)
        for _ in range(100):
            updates = [rand_value(variant, rng) for _ in range(rng.randint(1, 8))]
            shuffled = updates[:]
            rng.shuffle(shuffled)
            fold = lambda vals: [v := vals[0], [v := merge(v, u) for u in vals[1:]], v][-1]
            conv_pairs += 1
            if fold(updates) != fold(shuffled):
                failures += 1
    assert failures == 0
    print(
        f"\nACCEPTANCE 6 PASS: lattice laws; {cases} ACI+inflation cases and "
        f"{conv_pairs} convergence permutation pairs, zero failures"
    )


def test_criterion_7_run_determinism(programs):
    """Each (program, input, partitioning, seed) run, repeated three times,
    produces byte-identical canonical outcome JSON."""
    combos = [
        ("deadlock", "run.json", 7),
        ("gc", "check.json", 13),
        ("tombstone_demo", "run.json", 11),
        ("gc_coordinated", "run.json", 5),
        ("cart_naive", "run.json", 1),
    ]
    for name, config, seed in combos:
        cfg = load_config(corpus.config_path(name, config))
        net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
        payloads = {
            canonical_json(run_schedule(net, Schedule(seed=seed)).to_obj())
            for _ in range(3)
        }
        assert len(payloads) == 1, f"{name} seed {seed} not deterministic"
    print(
        f"\nACCEPTANCE 7 PASS: determinism; {len(combos)} configurations x 3 repeats, "
        "byte-identical canonical outcome JSON"
    )


def test_criterion_8_analyzer_conservativeness(programs):
    """No program the analyzer calls monotone exhibits a divergence witness
    anywhere in the corpus matrix."""
    divergent_dynamics = set()
    for entry in corpus.ENTRIES:
        for config, expected in entry.expected_dynamic.items():
            if config != "check.json":
                continue
            cfg = load_config(corpus.config_path(entry.name, config))
            v = check_confluence(
                cfg.program, cfg.fixture, cfg.partitioning(), mode=cfg.mode, seeds=cfg.seeds
            )
            if v.outcome == OUTCOME_DIVERGENT:
                divergent_dynamics.add(entry.name)
    statically_monotone = {
        e.name
        for e in corpus.ENTRIES
        if monocheck.analyze_program(programs[e.name]).program_monotone
    }
    overlap = statically_monotone & divergent_dynamics
    assert not overlap, f"analyzer called {overlap} monotone but they diverge"
    print(
        "\nACCEPTANCE 8 PASS: conservativeness; divergent programs "
        f"{sorted(divergent_dynamics)} are all classified non-monotone "
        f"(monotone set: {sorted(statically_monotone)})"
    )
