import gc
import weakref

import pytest
from test_query_oracle import _reference_query

from calmlab import corpus, transducer
from calmlab.calmlang import parse_program, validate_program
from calmlab.config import load_config
from calmlab.lattices import TwoPSet, leq as lattice_leq
from calmlab.netsim import Schedule, init_network, run_schedule
from calmlab.relspace import Database, Fact, db_leq, parse_fact, parse_facts
from calmlab.transducer import _query, init_machine, step
from calmlab.values import Address, Symbol
from calmlab.verdicts import (
    OUTCOME_CONFLUENT,
    VERDICT_REQUIRED,
    check_confluence,
    detect_coordination,
)

M1 = Address("m1")


def vp_of(src: str):
    return validate_program(parse_program(src))


def fresh(vp, db: Database):
    """A one-machine network's only machine, holding ``db``."""
    return init_machine(vp, M1, db, (M1,))


def fixpoint(vp, db: Database) -> Database:
    """One machine's fixpoint over ``db``: a fresh machine stepped once."""
    return step(fresh(vp, db), ())[0].persisted


TC = """
rel edge(x, y) [input]
rel path(x, y) [output]
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def test_evaluate_two_cycle_reaches_self_path():
    db = Database.from_facts(parse_facts("edge(t1, t2)\nedge(t2, t1)"))
    out = fixpoint(vp_of(TC), db)
    assert parse_fact("path(t1, t1)") in out


def test_evaluate_empty_edges_empty_paths():
    out = fixpoint(vp_of(TC), Database({}))
    assert out.relation("path") == frozenset()


def test_evaluate_full_figure_graph_garbage(programs, fixtures):
    out = fixpoint(programs["gc"], fixtures[("gc", "fig2.facts")])
    assert sorted(str(f) for f in out.relation("garbage")) == [
        "garbage(o5)",
        "garbage(o6)",
    ]


@pytest.mark.parametrize("entry", corpus.ENTRIES, ids=lambda e: e.name)
def test_evaluate_idempotent_on_corpus(entry, programs, fixtures):
    # a committed fixpoint is closed: stepping it again on an empty inbox
    # derives nothing and sends nothing
    db = fixtures[(entry.name, entry.fixtures[0])]
    once, _ = step(fresh(programs[entry.name], db), ())
    twice, offered = step(once, ())
    assert twice.persisted == once.persisted
    assert not offered


REACH = """
rel edge(x, y) [input]
rel start(x) [input]
rel reach(x) [output]
reach(X) :- start(X).
reach(Y) :- reach(X), edge(X, Y).
"""


def test_reach_along_a_chain_longer_than_ten_thousand_rounds():
    # one semi-naive round per edge: 10,001 rounds in one stratum
    edges = {(Symbol(f"n{i}"), Symbol(f"n{i + 1}")) for i in range(10_001)}
    db = Database({"edge": frozenset(edges), "start": frozenset({(Symbol("n0"),)})})
    out = fixpoint(vp_of(REACH), db)
    assert len(out.relations["reach"]) == 10_002


def test_comparisons_and_wildcards():
    src = """
rel num(x) [input]
rel small(x) [output]
rel nonempty() [output]
small(X) :- num(X), X < 3.
nonempty() :- num(_).
"""
    out = fixpoint(vp_of(src), Database.from_facts(parse_facts("num(1)\nnum(2)\nnum(3)")))
    assert sorted(str(f) for f in out.relation("small")) == ["small(1)", "small(2)"]
    assert out.relation("nonempty") == frozenset([Fact("nonempty", ())])


def test_min_max_aggregates():
    src = """
rel score(who, n) [input]
rel best(who, n) [output]
rel worst(n) [output]
best(W, max<N>) :- score(W, N).
worst(min<N>) :- score(W, N).
"""
    db = Database.from_facts(parse_facts("score(a, 3)\nscore(a, 7)\nscore(b, 5)"))
    out = fixpoint(vp_of(src), db)
    assert sorted(str(f) for f in out.relation("best")) == ["best(a, 7)", "best(b, 5)"]
    assert sorted(str(f) for f in out.relation("worst")) == ["worst(3)"]


def test_negation_with_wildcard_is_existential():
    src = """
rel pair(x, y) [input]
rel single(x) [input]
rel lonely(x) [output]
lonely(X) :- single(X), !pair(_, X).
"""
    db = Database.from_facts(parse_facts("single(a)\nsingle(b)\npair(c, a)"))
    out = fixpoint(vp_of(src), db)
    assert sorted(str(f) for f in out.relation("lonely")) == ["lonely(b)"]


def test_ground_fact_rule():
    src = """
rel marker(x) [output]
marker(here).
"""
    out = fixpoint(vp_of(src), Database({}))
    assert out.relation("marker") == frozenset([Fact("marker", (Symbol("here"),))])


# --- the event loop ----------------------------------------------------------


def fig1_machine1(programs, fixtures):
    vp = programs["deadlock"]
    local = Database.from_facts(
        parse_facts(
            "local_edge(t1, t2)\nlocal_edge(t2, t1)\nlocal_edge(t1, t3)\n"
            "nbr(@m1, @m2)\nnbr(@m1, @m3)"
        )
    )
    members = (Address("m1"), Address("m2"), Address("m3"))
    return init_machine(vp, Address("m1"), local, members)


def test_seed_step_sends_edge_copies_to_peers(programs, fixtures):
    m = fig1_machine1(programs, fixtures)
    _, offered = step(m, ())
    assert {f.args[0] for f in offered} == {Address("m2"), Address("m3")}
    copies = {str(f) for f in offered if f.args[0] == Address("m2")}
    assert copies == {
        "copy(@m2, t1, t2)",
        "copy(@m2, t2, t1)",
        "copy(@m2, t1, t3)",
    }


def test_step_on_quiesced_state_is_noop(programs, fixtures):
    m = fig1_machine1(programs, fixtures)
    first, _ = step(m, ())
    second, offered = step(first, ())
    assert not offered
    assert second.persisted == first.persisted


def test_reingesting_same_inbox_idempotent(programs):
    m = fig1_machine1(programs, None)
    inbox = [parse_fact("copy(@m1, t3, t1)")]
    once, _ = step(step(m, ())[0], inbox)
    twice, _ = step(once, inbox)
    assert twice.persisted == once.persisted


def test_step_inflationary_for_monotone_programs(programs):
    m = fig1_machine1(programs, None)
    seeded, _ = step(m, ())
    grown, _ = step(seeded, [parse_fact("copy(@m1, t3, t1)")])
    assert db_leq(seeded.persisted, grown.persisted)


def test_batching_insensitive_for_monotone_program(programs):
    m, _ = step(fig1_machine1(programs, None), ())
    a = parse_fact("copy(@m1, t3, t1)")
    b = parse_fact("copy(@m1, t3, t4)")
    batched, _ = step(m, [a, b])
    split, _ = step(step(m, [a])[0], [b])
    assert batched.persisted == split.persisted


def test_channel_derivations_not_visible_in_same_iteration(programs):
    # a freshly seeded cart_naive replica must not see its own outgoing
    # add message as a delivered event
    vp = programs["cart_naive"]
    local = Database.from_facts(
        parse_facts("add_req(apple)\nnbr(@m1, @m1)\nnbr(@m1, @m2)")
    )
    m = init_machine(vp, Address("m1"), local, (Address("m1"), Address("m2")))
    m2, offered = step(m, ())
    assert m2.persisted.relation("cart") == frozenset()
    assert offered  # the message is on the wire instead


def test_gc_not_inflationary_across_growing_inputs(programs):
    # machine 3's local view plus the root marker wrongly condemns o4;
    # the edges proving reachability retract that verdict
    gc = programs["gc"]
    s = Database.from_facts(
        parse_facts(
            "root_input(root)\nobj(o4)\nobj(o5)\nobj(o6)\nlocal_edge(o5, o6)"
        )
    )
    t = Database.from_facts(
        list(s.facts()) + parse_facts("local_edge(root, o3)\nlocal_edge(o3, o4)")
    )
    out_s = fixpoint(gc, s).restrict(gc.output_rels)
    out_t = fixpoint(gc, t).restrict(gc.output_rels)
    assert parse_fact("garbage(o4)") in out_s
    assert parse_fact("garbage(o4)") not in out_t
    assert not db_leq(out_s, out_t)


def test_lattice_merge_on_insert_single_store_fact(programs):
    vp = programs["tombstone_demo"]
    local = Database.from_facts(
        parse_facts("add(apple)\nadd(bread)\ndel(bread)\nnbr(@m1, @m2)")
    )
    m = init_machine(vp, Address("m1"), local, (Address("m1"), Address("m2")))
    first, _ = step(m, ())
    store = first.persisted.relation("store")
    assert len(store) == 1
    (fact,) = store
    val = fact.args[0]
    assert isinstance(val, TwoPSet)
    assert val.added == frozenset([Symbol("apple"), Symbol("bread")])
    assert val.tombstoned == frozenset([Symbol("bread")])
    # lattice state grows under the lattice order across steps
    second, _ = step(first, [parse_fact("xdel(@m1, apple)")])
    (fact2,) = second.persisted.relation("store")
    assert lattice_leq(val, fact2.args[0])


PUT = """
chan put(@d, k, v)
rel acc(k, s: gset) [output]
acc(K, gset{V}) :- put(_, K, V).
"""


def test_a_message_whose_lattice_value_is_held_changes_nothing():
    # acc(a, gset{1}) is a new tuple beside acc(a, gset{1, 2}), and the
    # merge at commit folds it back into what the machine held
    vp = vp_of(PUT)
    first, _ = step(fresh(vp, Database({})), [parse_fact("put(@m1, a, 1)")])
    second, _ = step(first, [parse_fact("put(@m1, a, 2)")])
    third, offered = step(second, [parse_fact("put(@m1, a, 1)")])
    assert third is second and offered == ()
    assert [str(f) for f in second.persisted.relation("acc")] == ["acc(a, gset{1, 2})"]


def test_input_lattice_facts_merge_though_no_rule_adds_to_them():
    vp = vp_of("rel acc(k, s: gset) [input, output]\nrel k(x)\nk(X) :- acc(X, _).\n")
    out = fixpoint(vp, Database.from_facts(parse_facts("acc(a, gset{1})\nacc(a, gset{2})")))
    assert [str(f) for f in out.relation("acc")] == ["acc(a, gset{1, 2})"]


def test_no_global_cache_keeps_a_program_alive():
    vp = vp_of(TC)
    fixpoint(vp, Database.from_facts(parse_facts("edge(t1, t2)")))
    ref = weakref.ref(vp)
    del vp
    gc.collect()
    assert ref() is None


# each network keeps its step memo, so what a command ran must not outlive it
NETWORK_RUNS = {
    "run": ("gc", "run.json", lambda cfg: run_schedule(
        init_network(cfg.program, cfg.fixture, cfg.partitioning()), Schedule(seed=0)).quiesced),
    "sampled-check": ("gc_coordinated", "check.json", lambda cfg: check_confluence(
        cfg.program, cfg.fixture, cfg.partitioning(), mode="sampled", seeds=cfg.seeds,
    ).outcome == OUTCOME_CONFLUENT),
    "coordination": ("gc_coordinated", "coordination.json", lambda cfg: detect_coordination(
        cfg.program, cfg.fixture, cfg.machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
    ).verdict == VERDICT_REQUIRED),
}


@pytest.mark.parametrize("verb", NETWORK_RUNS)
def test_a_program_dies_with_its_last_reference_after_a_network_run(verb):
    name, config, run = NETWORK_RUNS[verb]
    cfg = load_config(corpus.config_path(name, config))
    assert run(cfg)
    assert any("kernel" in vars(r) for r in cfg.program.rules)  # compiled and kept on the rule
    ref = weakref.ref(cfg.program)
    gc.disable()  # no reference cycle may keep it alive either
    try:
        del cfg
        assert ref() is None
    finally:
        gc.enable()


RELAY = """
rel edge(x, y) [input]
rel path(x, y) [output]
chan link(@to, x, y)
path(X, Y) :- edge(X, Y).
path(X, Y) :- link(_, X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
"""


def test_stepping_twice_builds_each_rule_kernel_once(monkeypatch):
    built, fired = [], []
    compile_rule = transducer.compile_rule

    def counting(rule):
        built.append(rule.index)
        kernel = compile_rule(rule)

        def counted(*args):
            fired.append(rule.index)
            return kernel(*args)
        return counted

    monkeypatch.setattr(transducer, "compile_rule", counting)
    vp = vp_of(RELAY)
    first, _ = step(fresh(vp, Database.from_facts(parse_facts("edge(b, c)"))), ())
    assert sorted(set(fired)) == sorted(built) == [0, 1, 2]  # a fresh state fires every rule
    fired.clear()
    second, _ = step(first, [Fact("link", (M1, Symbol("c"), Symbol("d")))])
    assert sorted(set(fired)) == [1, 2]  # the inbox, then the new path facts
    assert sorted(built) == [0, 1, 2]
    assert {str(f) for f in second.persisted.relation("path")} == {
        "path(b, c)", "path(c, d)", "path(b, d)"}


def test_a_120_literal_body_steps_like_a_short_one():
    body = ", ".join(f"edge(X{i}, X{i + 1})" for i in range(120))
    vp = vp_of(f"rel edge(x, y) [input]\nrel far(x, y) [output]\nfar(X0, X120) :- {body}.\n")
    chain = Database.from_facts(
        Fact("edge", (Symbol(f"n{i}"), Symbol(f"n{i + 1}"))) for i in range(125)
    )
    assert fixpoint(vp, chain).relation("far") == {
        Fact("far", (Symbol(f"n{i}"), Symbol(f"n{i + 120}"))) for i in range(6)
    }


HOP = """
rel edge(x, y) [input]
rel start(x) [input]
rel hop(x, y)
hop(X, Y) :- start(X), edge(X, Y).
"""


@pytest.mark.parametrize("starts", [["a"], ["a", "b"]])
def test_relation_is_indexed_on_its_first_probe(starts):
    # one start probes edge with one binding, two with two: both index it
    a, b, c = Symbol("a"), Symbol("b"), Symbol("c")
    persisted = {"edge": {(a, b), (b, c), (c, a)}, "start": {(Symbol(s),) for s in starts}}
    space = _query(vp_of(HOP), persisted, {})
    assert (0,) in space.indexes["edge"]
    assert space.facts["hop"] == {t for t in persisted["edge"] if (t[0],) in persisted["start"]}


TWO_CLOSURES = """
rel e(x, y) [input]
rel f(x, y) [input]
rel p(x, y)
rel q(x, y)
rel r(x, y)
p(X, Y) :- e(X, Y).
p(X, Z) :- p(X, Y), e(Y, Z).
q(X, Y) :- f(X, Y).
q(X, Z) :- q(X, Y), f(Y, Z).
r(X, Z) :- p(X, Y), q(Y, Z).
"""


def test_an_index_built_early_finds_the_tuples_its_relation_gained_since():
    # r's first firing indexes q on its first column while p and q are both
    # short. p(a0, a6) arrives rounds after q(a6, b4), and r reads that pair
    # only through the early index, as r fires on p's delta
    a = [Symbol(f"a{i}") for i in range(7)]
    b = [Symbol(f"b{i}") for i in range(1, 6)]
    persisted = {"e": set(zip(a, a[1:])), "f": set(zip([a[6], *b], b))}
    vp = vp_of(TWO_CLOSURES)
    got = _query(vp, persisted, {})
    assert (a[0], b[3]) in got.facts["r"]
    assert (0,) in got.indexes["q"]
    assert got.facts == _reference_query(vp, persisted, {}).facts
