"""Hypothesis strategies shared by the engine's differential tests.

They draw small stratifiable programs over one fixed schema, the persisted
facts and inbox a fixpoint runs on, and runs of inboxes that step a
machine. The schema has:

* inputs ``e``, ``f``, ``u`` and ``peer`` (an address column);
* a channel ``msg`` whose rules send to ``peer``;
* an event ``ev``, which rules of higher strata may negate;
* ``acc``, whose second column is a ``gset`` lattice;
* derived relations ``d0``, ``d1``, ``d2`` and ``g``, the head of
  ``count``, ``min`` and ``max`` aggregates.
"""

from __future__ import annotations

from hypothesis import strategies as st

from calmlab.relspace import Fact
from calmlab.values import Address, Int, Symbol

DECLS = """
rel e(x, y) [input]
rel f(x, y) [input]
rel u(x) [input]
rel peer(@p) [input]
chan msg(@dest, x, y)
rel d0(x, y)
rel ev(x) [event]
rel acc(x, s: gset)
rel d1(x, y)
rel g(x, n)
rel d2(x, y)
"""

ARITY = {"e": 2, "f": 2, "u": 1, "peer": 1, "msg": 3, "d0": 2, "ev": 1, "acc": 2,
         "d1": 2, "g": 2, "d2": 2}
ADDR_COLS = {"peer": (0,), "msg": (0,)}
LATTICE_COLS = {"acc": (1,)}
INPUTS = ("e", "f", "u")

# head -> (relations its body may read positively, relations it may negate).
# Every relation a rule reads sits in a lower layer or is the head itself,
# and negated or aggregated ones sit strictly lower, so every program
# drawn here is stratifiable. Reading its own head makes a rule recursive.
# ``g`` reads ``ev`` positively, so that an aggregate can read an ephemeral
# relation where no negation does.
LAYERS = {
    "d0": (INPUTS + ("msg", "d0"), INPUTS),
    "ev": (INPUTS + ("msg", "d0"), INPUTS + ("d0",)),
    "acc": (INPUTS + ("msg", "d0", "ev", "acc"), INPUTS + ("d0", "ev")),
    "d1": (INPUTS + ("msg", "d0", "ev", "acc", "d1"), INPUTS + ("d0", "ev")),
    "g": (INPUTS + ("d0", "ev", "d1", "acc"), INPUTS + ("d0", "ev")),
    "d2": (INPUTS + ("msg", "d0", "ev", "d1", "g", "d2"), INPUTS + ("d0", "ev", "d1", "g")),
}

DATA_VALUES = (Symbol("a"), Symbol("b"), Int(1), Int(2))
ADDRESSES = (Address("m1"), Address("m2"))
DATA_CONSTS = ("a", "1")
VARS = ("X", "Y", "Z")
# D binds addresses and S gset values. Neither reaches a comparison, an
# aggregate or a scalar head column. S occurs at most once per body, at the
# lattice column of acc, and reaches only the lattice column of an acc head,
# as validation requires
SPECIAL_VARS = {"D", "S"}


@st.composite
def _args(draw, rel: str, bound: set, positive: bool) -> list:
    """Argument texts of one body literal. Variables under a negation are
    drawn only from ``bound``, which the caller extends for positives."""
    out = []
    for col in range(ARITY[rel]):
        if col in ADDR_COLS.get(rel, ()):
            choices = ["_", "@m1"] + (["D"] if positive or "D" in bound else [])
        elif col in LATTICE_COLS.get(rel, ()):  # never negated
            choices = ["_"] if "S" in bound else ["_", "S"]
        else:
            names = VARS if positive else sorted(bound - SPECIAL_VARS)
            choices = ["_", *DATA_CONSTS, *names, *names, *names]
        out.append(draw(st.sampled_from(choices)))
    return out


def _vars_of(args) -> set:
    return {a for a in args if a[:1].isupper()}


@st.composite
def _rule(draw, head: str) -> str:
    readable, negatable = LAYERS[head]
    body, bound = [], set()
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(readable))
        args = draw(_args(rel, bound, positive=True))
        bound |= _vars_of(args)
        body.append(f"{rel}({', '.join(args)})")
    data_vars = sorted(bound - SPECIAL_VARS)
    for _ in range(draw(st.integers(0, 1))):
        rel = draw(st.sampled_from(negatable))
        body.append(f"!{rel}({', '.join(draw(_args(rel, bound, positive=False)))})")
    if data_vars and draw(st.booleans()):
        left = draw(st.sampled_from(data_vars))
        right = draw(st.sampled_from(data_vars + list(DATA_CONSTS)))
        body.append(f"{left} {draw(st.sampled_from(['=', '!=', '<', '<=']))} {right}")
    terms = data_vars + list(DATA_CONSTS)
    if head == "g":
        if not data_vars:
            return ""
        agg_var = draw(st.sampled_from(data_vars))
        group = draw(st.sampled_from([t for t in terms if t != agg_var]))
        kind = draw(st.sampled_from(["count", "min", "max"]))
        head_args = [group, f"{kind}<{agg_var}>"]
    elif head == "acc":  # a new singleton set, or a set read from acc
        sets = [f"gset{{{draw(st.sampled_from(terms))}}}"] + (["S"] if "S" in bound else [])
        head_args = [draw(st.sampled_from(terms)), draw(st.sampled_from(sets))]
    else:
        head_args = [draw(st.sampled_from(terms)) for _ in range(ARITY[head])]
    return f"{head}({', '.join(head_args)}) :- {', '.join(body)}."


@st.composite
def programs(draw) -> str:
    rules = [draw(_rule(draw(st.sampled_from(sorted(LAYERS)))))
             for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):  # a channel head: the rule sends its bindings
        rel = draw(st.sampled_from(INPUTS + ("d0",)))
        args = draw(_args(rel, set(), positive=True))
        xs = sorted(_vars_of(args)) + list(DATA_CONSTS)
        rules.append(f"msg(P, {draw(st.sampled_from(xs))}, {draw(st.sampled_from(xs))}) "
                     f":- peer(P), {rel}({', '.join(args)}).")
    if draw(st.booleans()):
        rules.append("d0(a, 1).")
    return DECLS + "\n".join(r for r in rules if r) + "\n"


def _tuples(draw, arity: int, max_size: int, first=DATA_VALUES) -> set:
    cols = [st.sampled_from(first)] + [st.sampled_from(DATA_VALUES)] * (arity - 1)
    return set(draw(st.lists(st.tuples(*cols), max_size=max_size)))


@st.composite
def instances(draw) -> tuple:
    """(persisted, inbox): input relations -> tuples, msg -> tuples."""
    persisted = {
        "e": _tuples(draw, 2, 6),
        "f": _tuples(draw, 2, 4),
        "u": _tuples(draw, 1, 3),
        "peer": _tuples(draw, 1, 2, first=ADDRESSES),
    }
    inbox = {"msg": _tuples(draw, 3, 3, first=ADDRESSES)}
    return ({rel: ts for rel, ts in persisted.items() if ts},
            {rel: ts for rel, ts in inbox.items() if ts})


@st.composite
def inbox_runs(draw) -> list:
    """One to four inboxes in a row, each a list of ``msg`` facts, the only
    kind a network delivers. An inbox may be empty."""
    return [[Fact("msg", t) for t in _tuples(draw, 3, 3, first=ADDRESSES)]
            for _ in range(draw(st.integers(1, 4)))]
