"""Incremental steps against from-scratch steps.

A state that an earlier step committed is closed under its rules, so
``step`` fires only what this step's inbox and events touch (see the
``transducer`` module docstring). The oracle is
the same state stepped with a full naive first round, which is what
``step`` does for a state not yet committed. It also checks the shortcut of an
empty step of a committed state, which returns the state at once unless a
negation or an aggregate reads an ephemeral relation: the explicit examples
hold one of each, so that there the empty step must derive.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from strategies import DECLS, inbox_runs, instances, programs

from calmlab import corpus, transducer
from calmlab.calmlang import parse_program, validate_program
from calmlab.calmlang.validate import value_error
from calmlab.relspace import Database, parse_facts
from calmlab.transducer import MachineState, init_machine, step
from calmlab.values import Address

ME, PEER = Address("m1"), Address("m2")

FEATURES = DECLS + """
rel blk() [event]
rel d3(x)
d0(X, Y) :- e(X, Y).
d0(X, Y) :- msg(_, X, Y).
d0(X, Z) :- d0(X, Y), e(Y, Z).
ev(X) :- d0(X, _), !u(X).
acc(X, gset{Y}) :- e(X, Y).
acc(X, gset{Y}) :- msg(_, X, Y).
acc(Y, S) :- acc(X, S), f(X, Y).
d1(X, Y) :- msg(_, X, Y), !ev(X).
d1(X, Y) :- acc(X, _), acc(Y, _).
g(X, count<Y>) :- d0(X, Y).
d2(X, N) :- g(X, N), !ev(X).
msg(P, X, Y) :- peer(P), d0(X, Y).
blk() :- msg(_, _, _).
d3(X) :- d0(X, _), !blk().
"""
FEATURE_INPUT = ({rel: set(ts) for rel, ts in Database.from_facts(parse_facts(
    "e(a, b)\ne(b, 1)\nf(a, b)\nf(b, a)\nu(a)\npeer(@m2)\n")).relations.items()}, {})
FEATURE_RUN = [
    parse_facts("msg(@m1, a, 2)\nmsg(@m1, b, 2)"),
    [],
    parse_facts("msg(@m2, b, 1)\nmsg(@m1, 1, 2)"),
    parse_facts("msg(@m1, a, b)\nmsg(@m2, 1, a)"),
]
# an aggregate over an ephemeral event that an empty step still derives
# from a persisted relation: the step after msg(@m1, a, b) counts a and b,
# the empty one after it counts a alone and derives n(1)
EPHEMERAL_COUNT = DECLS + """
rel q(x)
rel ep(x) [event]
rel n(c)
q(X) :- msg(_, X, _).
ep(Y) :- msg(_, _, Y).
ep(X) :- q(X).
n(count<X>) :- ep(X).
"""


@example(FEATURES, FEATURE_INPUT, FEATURE_RUN)
@example(EPHEMERAL_COUNT, ({}, {}), [parse_facts("msg(@m1, a, b)")])
@settings(max_examples=250, deadline=None)
@given(programs(), instances(), inbox_runs())
def test_incremental_steps_match_from_scratch_steps(source, instance, run):
    vp = validate_program(parse_program(source))
    local = Database({rel: frozenset(ts) for rel, ts in instance[0].items()})
    state = init_machine(vp, ME, local, (ME, PEER))
    for inbox in [[], *run, []]:
        got, offered = step(state, inbox)
        fresh = MachineState(state.address, state.persisted, state.program, sent=state.sent)
        want, want_offered = step(fresh, inbox)
        assert got.persisted == want.persisted
        assert got.sent == want.sent
        assert set(offered) == set(want_offered)
        # a step offers only what it has not sent, and ``sent`` keeps it
        assert not any(f in state.sent for f in offered)
        assert set(got.sent.facts()) == set(state.sent.facts()) | set(offered)
        # the engine derives only facts whose values fit their columns
        for f in [*got.persisted.facts(), *offered]:
            cols = vp.schemas[f.relation].cols
            assert not any(value_error(v, col, f.relation) for v, col in zip(f.args, cols)), f
        state = got


def _chain(rel: str) -> Database:
    return Database.from_facts(parse_facts("\n".join(f"{rel}(n{i}, n{i + 1})" for i in range(8))))


def _assert_a_quiesced_step_fires_no_rule(monkeypatch, vp, local: Database) -> None:
    fired = []
    compile_rule = transducer.compile_rule

    def counting(rule):
        kernel = compile_rule(rule)

        def counted(*args):
            fired.append(rule.index)
            return kernel(*args)
        return counted

    monkeypatch.setattr(transducer, "compile_rule", counting)
    first, _ = step(init_machine(vp, ME, local, (ME,)), [])
    assert fired  # not yet committed: a full naive round
    fired.clear()
    again, offered = step(first, [])
    assert fired == []
    assert again.persisted == first.persisted and not offered


def test_a_quiesced_transitive_closure_step_fires_no_rule(monkeypatch):
    vp = corpus.load_program("transitive_closure")
    _assert_a_quiesced_step_fires_no_rule(monkeypatch, vp, _chain("edge"))


GSET_CLOSURE = """
rel e(x, y) [input]
rel acc(x, s: gset) [output]
acc(X, gset{Y}) :- e(X, Y).
acc(Y, S) :- acc(X, S), e(X, Y).
"""


def test_a_quiesced_lattice_step_fires_no_rule(monkeypatch):
    # the merged gset facts are closed under the rules like any others
    vp = validate_program(parse_program(GSET_CLOSURE))
    _assert_a_quiesced_step_fires_no_rule(monkeypatch, vp, _chain("e"))


def test_empty_steps_are_idle_without_an_ephemeral_negation_or_aggregate():
    assert validate_program(parse_program(GSET_CLOSURE)).empty_steps_idle
    for text in (FEATURES, EPHEMERAL_COUNT):
        assert not validate_program(parse_program(text)).empty_steps_idle
