"""Differential test of the engine's indexed joins against a nested-loop
oracle.

``_reference_query`` is the evaluator the engine used before joins probed
relations by their bound columns: every body literal scans its whole
relation for every outer binding and unifies argument by argument. It is
slow and obviously right, so the hypothesis test below checks that the
indexed ``_query`` derives exactly the same facts and messages on small
generated stratifiable programs and instances.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from strategies import DECLS, instances, programs

from calmlab.calmlang import parse_program, validate_program
from calmlab.calmlang.syntax import Literal, Negation, Var, Wildcard, eval_head_term, eval_term
from calmlab.relspace import Database, Fact
from calmlab.transducer import _query, init_machine, step
from calmlab.values import Address, Int, Symbol, value_sort_key

# --- the oracle: nested-loop evaluation --------------------------------------


def _compare(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    a, b = value_sort_key(left), value_sort_key(right)
    return a < b if op == "<" else a <= b


class _RefSpace:
    def __init__(self, vp, persisted: dict, inbox: dict):
        self.channels = vp.channel_rels
        self.facts = {r: set(ts) for r, ts in persisted.items()}
        self.inbox = inbox
        self.outbound: dict = {}

    def readable(self, rel):
        if rel in self.channels:
            return self.inbox.get(rel, set())
        return self.facts.get(rel, set())

    def add(self, rel, tup) -> bool:
        if rel in self.channels:
            bucket = self.outbound.setdefault(rel, set())
        else:
            bucket = self.facts.setdefault(rel, set())
        if tup in bucket:
            return False
        bucket.add(tup)
        return True


def _match_literal(lit: Literal, tup: tuple, env: dict):
    out = env
    for term, val in zip(lit.args, tup):
        if isinstance(term, Wildcard):
            continue
        if isinstance(term, Var):
            bound = out.get(term.name)
            if bound is None:
                if out is env:
                    out = dict(env)
                out[term.name] = val
            elif bound != val:
                return None
        elif term.value != val:  # Const
            return None
    return out


def _rule_bindings(rule, space, delta_at, delta):
    plan = rule.plan

    def rec(i, env):
        if i == len(plan):
            yield env
            return
        elem = plan[i]
        if isinstance(elem, Literal):
            source = delta if i == delta_at else space.readable(elem.relation)
            for tup in source:
                env2 = _match_literal(elem, tup, env)
                if env2 is not None:
                    yield from rec(i + 1, env2)
        elif isinstance(elem, Negation):
            lit = elem.literal
            if not any(
                _match_literal(lit, tup, env) is not None for tup in space.readable(lit.relation)
            ):
                yield from rec(i + 1, env)
        elif _compare(elem.op, eval_term(elem.left, env), eval_term(elem.right, env)):
            yield from rec(i + 1, env)

    yield from rec(0, {})


def _fire_rule(rule, space, delta_at, delta) -> list:
    head = rule.rule.head
    if rule.agg is None:
        return [
            tuple(eval_head_term(t, env) for t in head.args)
            for env in _rule_bindings(rule, space, delta_at, delta)
        ]
    groups: dict = {}
    for env in _rule_bindings(rule, space, delta_at, delta):
        key = tuple(eval_head_term(t, env) for i, t in enumerate(head.args) if i != rule.agg_pos)
        groups.setdefault(key, set()).add(env[rule.agg.var.name])
    out = []
    for key, vals in groups.items():
        if rule.agg.kind == "count":
            agg_val = Int(len(vals))
        elif rule.agg.kind == "min":
            agg_val = min(vals, key=value_sort_key)
        else:
            agg_val = max(vals, key=value_sort_key)
        tup = list(key)
        tup.insert(rule.agg_pos, agg_val)
        out.append(tuple(tup))
    return out


# the oracle stops a runaway fixpoint on its own; the engine needs no bound
ORACLE_ROUNDS = 10_000


def _reference_query(vp, persisted: dict, inbox: dict):
    stratum_of = vp.stratum_of
    levels = max(stratum_of.values(), default=0) + 1
    space = _RefSpace(vp, persisted, inbox)
    for level in range(levels):
        rules = [r for r in vp.rules if stratum_of.get(r.rule.head.relation, 0) == level]
        if not rules:
            continue
        delta: dict = {}
        for r in rules:
            for tup in _fire_rule(r, space, None, set()):
                if space.add(r.rule.head.relation, tup):
                    delta.setdefault(r.rule.head.relation, set()).add(tup)
        rounds = 0
        while delta:
            rounds += 1
            assert rounds <= ORACLE_ROUNDS, f"stratum {level} did not reach a fixpoint"
            new_delta: dict = {}
            for r in rules:
                if r.agg is not None:
                    continue
                for pos, elem in enumerate(r.plan):
                    if not isinstance(elem, Literal):
                        continue
                    d = delta.get(elem.relation)
                    if not d or elem.relation in vp.channel_rels:
                        continue
                    for tup in _fire_rule(r, space, pos, d):
                        if space.add(r.rule.head.relation, tup):
                            new_delta.setdefault(r.rule.head.relation, set()).add(tup)
            delta = new_delta
    return space


# --- hand-written examples ----------------------------------------------------

FEATURE_PROGRAMS = [
    # constants, repeated variables and a wildcard under negation
    DECLS + "d0(X, X) :- e(X, X), !f(X, _).\nd1(X, b) :- e(a, X), u(X).\n",
    # recursion and a comparison
    DECLS + "d0(X, Y) :- e(X, Y).\nd0(X, Z) :- e(X, Y), d0(Y, Z), X != Z.\n",
    # a relation indexed while it still grows, then probed by a higher stratum
    DECLS + "d0(X, Y) :- e(X, Y).\nd0(X, Z) :- e(X, Y), d0(Y, Z).\n"
            "d1(X, Z) :- e(X, Y), d0(Y, Z), !u(X).\n",
    # count, min and max aggregates over a recursive relation
    DECLS + "d0(X, Y) :- f(X, Y).\nd0(X, Z) :- d0(X, Y), d0(Y, Z).\n"
            "g(X, count<Y>) :- d0(X, Y).\ng(X, min<Y>) :- e(X, Y).\n"
            "g(X, max<Y>) :- e(X, Y), Y <= 2.\nd2(X, N) :- g(X, N), !u(N).\n",
    # a channel literal read from the inbox, joined on its address, and a
    # channel head
    DECLS + "d0(X, Y) :- msg(_, X, Y).\nd1(X, Y) :- msg(D, X, Y), e(X, _), peer(D).\n"
            "msg(P, X, Y) :- peer(P), e(X, Y).\n",
    # zero-arity heads, negated and read: missing() holds, none() does not
    DECLS + "rel missing() [event]\nrel none()\n"
            "missing() :- e(X, Y), X != Y, !u(Y).\nnone() :- f(X, X).\n"
            "d0(X, Y) :- e(X, Y), !missing().\nd1(X, X) :- u(X), missing().\n"
            "d2(X, Y) :- f(X, Y), !none().\n",
    # literals probed by constants only: whole tuples, a prefix, negated,
    # and one that matches nothing
    DECLS + "d0(X, Y) :- e(a, b), f(X, Y).\nd1(X, Y) :- e(a, _), f(X, Y), !e(b, b), !u(2).\n"
            "d2(X, Y) :- f(X, Y), e(c, a).\n",
    # a variable repeated within one literal (scanned, and probed by another
    # column) and across literals
    DECLS + "d0(X, Y) :- e(X, X), f(X, Y).\nd1(X, Y) :- msg(_, X, X), e(X, Y).\n"
            "d2(Y, Y) :- peer(D), msg(D, Y, Y).\nd2(X, Z) :- u(X), e(Z, Z), f(Z, _).\n",
    # literals of a recursive relation that bind nothing, read from the
    # semi-naive delta: one probed by part of its columns, one by all
    DECLS + "d0(X, Y) :- e(X, Y).\nd0(Y, X) :- f(X, Y), d0(X, _).\n"
            "d0(X, Z) :- e(X, Z), d0(Z, X).\n",
    # a repeated variable in a literal read from the delta and probed by a
    # bound column
    DECLS + "rel t(x, y, z)\nt(X, Y, Y) :- e(X, Y).\nt(X, Z, Y) :- f(X, Y), e(Y, Z).\n"
            "t(X, Z, Z) :- e(X, Y), t(Y, Z, Z).\nd0(X, Z) :- t(X, Z, Z).\n",
    # a string constant holding a quote and a backslash, in a head, a probe
    # and a comparison
    DECLS + r'd0(X, "q\"b\\s") :- u(X).' "\n"
            r'd1(X, Y) :- d0(X, "q\"b\\s"), e(X, Y).' "\n"
            r'd2(X, Y) :- d0(X, Y), Y != "q\"b\\s".' "\n"
            r'd2(X, Y) :- d0(X, Y), Y = "q\"b\\s".' "\n",
    # a 30-literal chain body
    DECLS + "d0(X0, X30) :- " + ", ".join(f"e(X{i}, X{i + 1})" for i in range(30)) + ".\n",
]
FEATURE_INSTANCE = (
    {
        "e": {(Symbol("a"), Symbol("a")), (Symbol("a"), Symbol("b")), (Symbol("b"), Int(1)),
              (Int(1), Int(2)), (Symbol("c"), Symbol("c"))},
        "f": {(Symbol("c"), Int(2)), (Int(2), Symbol("a")), (Symbol("b"), Int(2))},
        "u": {(Symbol("b"),), (Int(1),)},
        "peer": {(Address("m2"),)},
    },
    {"msg": {(Address("m1"), Symbol("a"), Int(2)), (Address("m2"), Symbol("b"), Int(1)),
             (Address("m2"), Symbol("c"), Symbol("c"))}},
)


# one program for each binding shape that the kernel's steps handle apart
SHAPE_PROGRAMS = [
    # a whole tuple bound in column order, scanned
    DECLS + "d0(X, Y) :- e(X, Y).\n",
    # one fresh column after a probe
    DECLS + "d0(X, Z) :- e(X, Y), f(Y, Z).\n",
    # a repeated fresh variable next to a probe column
    DECLS + "d0(Z, Z) :- msg(@m2, Z, Z).\n",
    # a constant probe
    DECLS + "d0(a, Y) :- e(a, Y).\n",
    # literals with no probe column, positive and negated
    DECLS + "ev(X) :- u(X).\nd0(X, Y) :- e(X, Y), ev(_).\nd1(X, Y) :- f(X, Y), !u(_).\n",
    # a comparison with a constant
    DECLS + "d0(X, Y) :- e(X, Y), X != a.\n",
]


def _examples(test):
    for source in FEATURE_PROGRAMS + SHAPE_PROGRAMS:
        test = example(source, FEATURE_INSTANCE)(test)
    return test


@_examples
@settings(max_examples=300, deadline=None)
@given(programs(), instances())
def test_indexed_query_matches_the_nested_loop_oracle(source, instance):
    vp = validate_program(parse_program(source))
    persisted, inbox = instance
    got = _query(vp, persisted, inbox)
    want = _reference_query(vp, persisted, inbox)
    assert got.facts == {**want.facts, **inbox}  # the engine reads the inbox from facts
    assert got.outbound == want.outbound


def test_feature_programs_derive_something():
    # the hand-written examples exercise their features only if they fire
    for source in FEATURE_PROGRAMS + SHAPE_PROGRAMS:
        vp = validate_program(parse_program(source))
        space = _query(vp, *FEATURE_INSTANCE)
        derived = {rel for rel in ("d0", "d1", "g", "d2") if space.facts.get(rel)}
        assert derived | set(space.outbound), source


def test_closure_of_a_200_edge_chain():
    vp = validate_program(parse_program(
        "rel edge(x, y) [input]\nrel path(x, y) [output]\n"
        "path(X, Y) :- edge(X, Y).\npath(X, Z) :- edge(X, Y), path(Y, Z).\n"
    ))
    chain = Database.from_facts(
        Fact("edge", (Symbol(f"n{i}"), Symbol(f"n{i + 1}"))) for i in range(200)
    )
    m1 = Address("m1")
    out = step(init_machine(vp, m1, chain, (m1,)), ())[0].persisted
    assert len(out.relation("path")) == 200 * 201 // 2 == 20_100
