"""One machine of a relational transducer network: the Ingest -> Query ->
Send loop.

``step`` is the only code that computes what a program derives. One
machine's fixpoint is one step of a fresh ``init_machine`` state; a network
run (``netsim.run_schedule``) drives the steps of every machine.

The Query phase is a stratified, semi-naive fixpoint over the machine's
local database. Relations behave by persistence class:

* persisted relations accumulate across iterations and never shrink during
  a run. When an iteration commits, the lattice facts that agree on every
  scalar column merge column-wise into one, which subsumes what rules read
  of the partial values (validation lets those reach only lattice columns
  of heads without an aggregate);
* event relations are scratch space, visible within the iteration that
  derived them and cleared afterwards;
* channel relations are special events: a channel literal in a rule body
  matches only facts delivered in this iteration's inbox, and a channel head
  buffers facts for the Send phase (locally addressed sends come back through
  the inbox on a later iteration, they are never visible early).

A stratum's fixpoint needs no round bound. Every round but the last adds a
tuple, and the tuples range over a finite set: the language has no
arithmetic, a lattice constructor builds its value from bound scalars, and
an aggregate fires once, over lower strata that are already complete. So
every value a rule derives comes from the finitely many values of the
program, the database and the inbox, or from one aggregate firing.

Each rule compiles once, on its first firing, into a join kernel that the
rule keeps (``ValidatedRule.kernel``, built by ``compile_rule``). Every
variable gets an integer slot in one list per firing, which the depth-first
walk overwrites in place; constants get pre-filled slots of their own, so
probe keys and head tuples are ``itemgetter`` reads of the slots. Scalar
values are interned (:mod:`calmlab.values`), so those keys and tuples hash
and compare by the identity of their values, with no Python-level call,
in every probe, index and set insert. Each plan
element becomes one closure that calls the next one's. ``compile_rule``
alone decides how a literal looks its tuples up: a constant, or a variable
bound earlier in the plan, makes a probe column. A literal that binds a
variable is a binding loop (``_bind``): it scans its relation when it has
no probe column and looks its probe columns up otherwise. A literal that
binds none, negated or not, is an existence test (``_test``): a
set-membership test when every column is probed, else a lookup. A variable
repeated within one literal (``p(X, X)``) filters the literal's source once
per firing, and a probed one indexes what is left. ``_Space.finder`` picks
each lookup: an index is built on the second probe of its (relation,
columns) pair within one fixpoint, the first probe scans, since most
relations of a small step are probed once, and building an index for them
costs more than the scan it replaces. The semi-naive delta gets its own
index for each rule firing. A firing's head tuples enter the space as one
set: ``_Space.add`` keeps the ones not there yet, adds just those to the
relation's indexes, and they join the next round's delta.

Steps are incremental. Persisted facts only grow, so a state that an
earlier step committed (``iteration > 0``) is closed: its persisted
relations are the persisted part of that step's fixpoint, and every channel
fact they derive is already in ``sent``. A rule over persisted relations
alone can then derive nothing new until one of them grows; a negated one
growing only removes derivations. So a step seeds each stratum's first
round with what changed: this inbox and the new tuples of the strata below.
A rule fires once per positive literal over a changed relation, reading
just the changed tuples there, and is skipped without one. Some rules
still fire naively (``ValidatedProgram.refire``): those with an event head
or a negated event or channel, since events and the inbox last one step;
and aggregates over a changed relation, whose value moves. A state of
iteration 0, fresh from ``init_machine``, runs a full naive first round.

A machine's observable step effects (persisted growth, messages offered to
the network) are monotone functions of its history, which is what makes
quiescence detection by no-op probing sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import eq, itemgetter, ne

from . import lattices
from .calmlang import ValidatedProgram, ValidatedRule
from .calmlang.syntax import (
    Comparison,
    Const,
    EvalError,
    LatticeTerm,
    Negation,
    Var,
    eval_head_term,
    term_vars,
)
from .relspace import Database, Fact
from .values import Address, Int, value_sort_key


# --- the fact space ----------------------------------------------------------


def _index(tuples, get) -> dict:
    index: dict = {}
    for tup in tuples:
        index.setdefault(get(tup), []).append(tup)
    return index


class _Space:
    """Readable/writable fact space for one evaluation run."""

    def __init__(self, vp: ValidatedProgram, persisted: dict, inbox: dict):
        self.channels = vp.channel_rels
        # what rules read: persisted contents plus anything derived, and
        # under the channel names the inbox only; a relation's set is copied
        # on its first new tuple, so one that gains nothing stays the
        # caller's set
        self.facts: dict = {**persisted, **inbox}
        # what channel heads derive: the messages of the Send phase
        self.outbound: dict[str, set] = {}
        self.owned: set = set()  # relations whose set this space has copied
        # relation -> probe columns -> (key getter, key -> tuples)
        self.indexes: dict[str, dict] = {}
        self.scanned: set = set()  # (relation, probe columns) probed once

    def readable(self, rel: str):
        return self.facts.get(rel, ())

    def lookup(self, rel: str, cols: tuple, key):
        """Readable tuples of ``rel`` holding ``key`` at ``cols``, where a
        key is what ``itemgetter(*cols)`` reads from a tuple. The first
        probe of a (relation, columns) pair scans; the second indexes."""
        by_cols = self.indexes.get(rel)
        entry = by_cols.get(cols) if by_cols else None
        if entry is None:
            get = itemgetter(*cols)
            if (rel, cols) not in self.scanned:
                self.scanned.add((rel, cols))
                return [tup for tup in self.readable(rel) if get(tup) == key]
            entry = get, _index(self.readable(rel), get)
            self.indexes.setdefault(rel, {})[cols] = entry
        return entry[1].get(key, ())

    def finder(self, rel: str, cols: tuple, delta=None):
        """The one lookup of a (relation, columns) pair within a firing:
        ``key -> tuples``, which may return None for no tuples. Given
        ``delta`` (the delta, or a literal's filtered source), a per-firing
        index over it; else ``lookup``, or the index's own ``get`` once the
        pair's index exists."""
        if delta is not None:
            return _index(delta, itemgetter(*cols)).get
        entry = self.indexes.get(rel, {}).get(cols)
        return entry[1].get if entry else partial(self.lookup, rel, cols)

    def add(self, rel: str, tuples: set) -> set:
        """Record derived tuples; returns the ones that are new."""
        bucket_of = self.outbound if rel in self.channels else self.facts
        bucket = bucket_of.get(rel)
        new = tuples - bucket if bucket else tuples
        if not new:
            return new
        if rel not in self.owned:
            self.owned.add(rel)
            bucket = bucket_of[rel] = set(bucket) if bucket else set()
        bucket |= new
        # a channel's indexes cover its inbox, which derivations never touch
        if rel not in self.channels and rel in self.indexes:
            for get, index in self.indexes[rel].values():
                for tup in new:
                    index.setdefault(get(tup), []).append(tup)
        return new


# --- rule kernels ------------------------------------------------------------


_TESTS = {
    "=": eq,
    "!=": ne,
    "<": lambda left, right: value_sort_key(left) < value_sort_key(right),
    "<=": lambda left, right: value_sort_key(left) <= value_sort_key(right),
}


def _tuple_at(positions: tuple):
    """Reads the values at ``positions`` of a slot list or a tuple as a
    tuple, where ``itemgetter(*positions)`` reads a lone value bare."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions)


def _dead(env) -> None:
    """An element no binding gets past in this firing."""


def _test(rel: str, cols: tuple, key_slots: tuple, arity: int, negated: bool):
    """The linker of a literal that binds no variable: a negated one, or a
    positive one whose variables are all bound or wildcards. It passes a
    binding on once when whether some tuple matches differs from
    ``negated``: rule outputs are sets."""
    full = len(cols) == arity
    key = _tuple_at(key_slots) if full else itemgetter(*key_slots) if cols else None

    def link(space, delta, nxt):
        src = space.readable(rel) if delta is None else delta
        if not src or not cols:  # the outcome is the same for every binding
            return nxt if bool(src) != negated else _dead
        if full:
            def member(env):
                if (key(env) in src) != negated:
                    nxt(env)
            return member
        find = space.finder(rel, cols, delta)

        def exists(env):
            if (not find(key(env))) == negated:
                nxt(env)
        return exists
    return link


def _bind(rel: str, cols: tuple, key_slots: tuple, bind_cols: tuple, lo: int, checks: tuple):
    """The linker of a positive literal that binds variables. Its tuples
    come from a scan (no probe column) or a keyed lookup; each binds the
    columns ``bind_cols`` into the slots from ``lo`` on. A variable
    repeated within the literal (``p(X, X)``) gives ``checks`` (column,
    column), which filter the source once per firing."""
    key = itemgetter(*key_slots) if cols else None
    pick = _tuple_at(bind_cols)
    hi = lo + len(bind_cols)

    def link(space, delta, nxt):
        src = space.readable(rel) if delta is None else delta
        if checks:
            src = [tup for tup in src if all(tup[a] == tup[b] for a, b in checks)]
        if not src:
            return _dead
        if not cols:
            def scan(env):
                for tup in src:
                    env[lo:hi] = pick(tup)
                    nxt(env)
            return scan
        find = space.finder(rel, cols, src if checks else delta)

        def probe(env):
            for tup in find(key(env)) or ():
                env[lo:hi] = pick(tup)
                nxt(env)
        return probe
    return link


def _comparison(comp: Comparison, slot_of):
    """The linker of a comparison. Each side, a variable or a constant
    (``calmlang.validate`` allows no other term), is read from its slot."""
    test = _TESTS[comp.op]
    ls, rs = slot_of(comp.left), slot_of(comp.right)

    def link(space, delta, nxt):
        def compare(env):
            if test(env[ls], env[rs]):
                nxt(env)
        return compare
    return link


def _head(args: tuple, slot_of, names: dict):
    """Builds a head tuple from the slots; lattice constructors evaluate
    through ``eval_head_term`` on their variables."""
    if not any(isinstance(t, LatticeTerm) for t in args):
        return _tuple_at(tuple(slot_of(t) for t in args))

    def part(term):
        if not isinstance(term, LatticeTerm):
            return itemgetter(slot_of(term))
        used = {v.name: names[v.name] for v in term_vars(term)}
        return lambda env: eval_head_term(term, {name: env[slot] for name, slot in used.items()})

    parts = [part(t) for t in args]
    return lambda env: tuple([p(env) for p in parts])


def compile_rule(rule: ValidatedRule):
    """Compile a rule's plan into its join kernel,
    ``kernel(space, delta_at, delta) -> set`` of the head tuples derivable
    under the delta restriction (see ``_query``).

    Each variable gets a slot in one list per firing, in plan order, so a
    literal's fresh variables fill consecutive slots; constants get slots
    of their own, pre-filled, allocated before those of the literal's
    fresh variables. Each plan element compiles to a linker that,
    per firing, closes over its source (the relation, or ``delta`` at plan
    position ``delta_at``) and the next element's closure. The depth-first
    walk binds and rebinds the slots in place.
    """
    names: dict[str, int] = {}
    template: list = []

    def slot_of(term) -> int:
        if isinstance(term, Var):
            return names[term.name]
        template.append(term.value)
        return len(template) - 1

    linkers = []
    for elem in rule.plan:
        if isinstance(elem, Comparison):
            linkers.append(_comparison(elem, slot_of))
            continue
        negated = isinstance(elem, Negation)
        lit = elem.literal if negated else elem
        # a constant or an earlier-bound variable is a probe column; a
        # fresh variable binds at its first column and is checked at others
        cols, key_slots, first, checks = [], [], {}, []
        for col, arg in enumerate(lit.args):
            if isinstance(arg, Const) or isinstance(arg, Var) and arg.name in names:
                cols.append(col)
                key_slots.append(slot_of(arg))
            elif isinstance(arg, Var):
                if arg.name in first:
                    checks.append((col, first[arg.name]))
                else:
                    first[arg.name] = col
        cols, key_slots = tuple(cols), tuple(key_slots)
        if not first:
            linkers.append(_test(lit.relation, cols, key_slots, len(lit.args), negated))
            continue
        lo = len(template)
        for name in first:
            names[name] = len(template)
            template.append(None)
        linkers.append(_bind(lit.relation, cols, key_slots, tuple(first.values()), lo,
                             tuple(checks)))
    linkers.reverse()

    args = rule.rule.head.args
    agg, agg_pos = rule.agg, rule.agg_pos
    if agg is None:
        head = _head(args, slot_of, names)
    else:
        group = _head(tuple(t for i, t in enumerate(args) if i != agg_pos), slot_of, names)
        agg_slot = names[agg.var.name]
    last = len(linkers) - 1

    def kernel(space: _Space, delta_at: int | None, delta) -> set:
        out: set = set()
        if agg is None:
            def nxt(env):
                out.add(head(env))
        else:
            groups: dict[tuple, set] = {}

            def nxt(env):
                groups.setdefault(group(env), set()).add(env[agg_slot])
        for i, link in enumerate(linkers):
            nxt = link(space, delta if last - i == delta_at else None, nxt)
        nxt(list(template))
        if agg is None:
            return out
        for key, vals in groups.items():
            if agg.kind == "count":
                agg_val = Int(len(vals))
            elif agg.kind == "min":
                agg_val = min(vals, key=value_sort_key)
            else:
                agg_val = max(vals, key=value_sort_key)
            tup = list(key)
            tup.insert(agg_pos, agg_val)
            out.add(tuple(tup))
        return out

    return kernel


def _query(vp: ValidatedProgram, persisted: dict, inbox: dict, changed: dict | None = None) -> _Space:
    """Stratified semi-naive fixpoint. Returns the filled fact space.

    Without ``changed`` each stratum's first round fires every rule naively.
    With it (relation -> tuples, see ``step``) the persisted facts are closed
    under the rules, and the first round fires naively only the rules of
    ``vp.refire`` and aggregates over a changed relation; any other rule
    fires once per positive literal over a changed relation, with that
    literal reading the changed tuples. A stratum's new tuples join
    ``changed`` for the strata above it.
    """
    space = _Space(vp, persisted, inbox)
    channels = vp.channel_rels

    def fire(r: ValidatedRule, delta_at, delta, new: dict) -> None:
        head = r.rule.head.relation
        added = space.add(head, r.kernel(space, delta_at, delta))
        # derived channel facts are outbound, no rule reads them
        if added and head not in channels:
            if head in new:
                new[head] |= added
            else:
                new[head] = added

    def fire_on(r: ValidatedRule, delta: dict, new: dict) -> None:
        for pos, rel in r.reads:
            if rel in delta:
                fire(r, pos, delta[rel], new)

    try:
        for rules in vp.strata:
            # aggregates within a stratum see only completed lower strata, so an
            # aggregate rule fires once, in the first round
            delta: dict[str, set] = {}
            for r in rules:
                if (changed is None or r.index in vp.refire
                        or r.agg is not None and not r.body_rels.isdisjoint(changed)):
                    fire(r, None, (), delta)
                elif r.agg is None:
                    fire_on(r, changed, delta)
            while delta:
                if changed is not None:
                    for rel, tups in delta.items():
                        changed.setdefault(rel, set()).update(tups)
                new_delta: dict[str, set] = {}
                for r in rules:
                    if r.agg is None:
                        fire_on(r, delta, new_delta)
                delta = new_delta
    except EvalError as e:
        e.filename = vp.program.filename
        raise
    return space


def _to_db(tuples: dict) -> Database:
    return Database({rel: frozenset(tups) for rel, tups in tuples.items() if tups})


# --- lattice merge at commit -------------------------------------------------


def _fold_lattice(rel: str, tups: set, vp: ValidatedProgram) -> set:
    """The facts of ``rel`` that agree on every scalar column, merged into
    one. The order of merging is free: ``lattices.merge`` is associative,
    commutative and idempotent, and each lattice column holds one variant."""
    schema = vp.schemas[rel]
    lat_cols = schema.lattice_cols
    if not lat_cols:
        return tups
    key = _tuple_at(schema.scalar_cols)
    merged: dict[tuple, tuple] = {}
    for tup in tups:
        cur = merged.setdefault(key(tup), tup)
        if cur is not tup:
            merged[key(tup)] = tuple(
                lattices.merge(a, b) if i in lat_cols else a for i, (a, b) in enumerate(zip(cur, tup))
            )
    return set(merged.values())


# --- the machine -------------------------------------------------------------


@dataclass(frozen=True)
class MachineState:
    address: Address
    persisted: Database
    program: ValidatedProgram
    iteration: int = 0
    # channel facts already offered to the network, each addressed by its
    # column 1; grows monotonically and keeps re-derived messages from
    # resending forever
    sent: frozenset = frozenset()

    def semantic_key(self):
        """State identity for schedule enumeration (iteration excluded)."""
        return (self.address, self.persisted, self.sent)


@dataclass(frozen=True)
class StepResult:
    new_state: MachineState
    outbound: dict  # Address -> frozenset[Fact]

    def changed(self, old: MachineState) -> bool:
        return bool(self.outbound) or self.new_state.persisted != old.persisted


def init_machine(vp: ValidatedProgram, address: Address, local_input: Database,
                 members: tuple) -> MachineState:
    tuples = {**local_input.relations, "id": {(address,)}, "all": {(a,) for a in members}}
    return MachineState(address=address, persisted=_to_db(tuples), program=vp)


def step(state: MachineState, inbox) -> StepResult:
    """One Ingest -> Query -> Send iteration. Pure: returns the new state.
    ``inbox`` holds the channel facts delivered to this machine; a machine
    gets its input once, from ``init_machine``."""
    vp = state.program
    persisted = state.persisted.relations
    delivered: dict[str, set] = {}
    for f in inbox:
        delivered.setdefault(f.relation, set()).add(f.args)

    # a state committed by an earlier step is closed, see the module docstring
    changed = dict(delivered) if state.iteration else None
    space = _query(vp, persisted, delivered, changed)

    new_persisted = {rel: _fold_lattice(rel, tups, vp) for rel, tups in space.facts.items()
                     if vp.schemas[rel].kind == "persisted"}

    outbound: dict[Address, set] = {}
    new_sent = []
    for rel, tups in space.outbound.items():
        for tup in tups:
            fact = Fact(rel, tup)
            if fact not in state.sent:
                new_sent.append(fact)
                outbound.setdefault(tup[0], set()).add(fact)

    new_state = MachineState(
        address=state.address,
        persisted=_to_db(new_persisted),
        program=vp,
        iteration=state.iteration + 1,
        sent=state.sent.union(new_sent) if new_sent else state.sent,
    )
    return StepResult(
        new_state=new_state,
        outbound={a: frozenset(fs) for a, fs in sorted(outbound.items(), key=lambda kv: kv[0].name)},
    )
