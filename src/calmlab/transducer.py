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
rule keeps (``ValidatedRule.kernel``, built by ``compile_rule``). The
kernel evaluates the body set at a time. A binding is a tuple: the rule's
constants first, then its variables in plan order, so probe keys and head
tuples are ``itemgetter`` reads of a binding. Each plan element is a step
that maps the list of bindings to the next list in one comprehension, and
a firing stops at the first empty list. Scalar values are interned
(:mod:`calmlab.values`), so keys and tuples hash and compare by the
identity of their values, with no Python-level call, in every probe, index
and set insert. ``compile_rule`` alone decides how a literal looks its
tuples up: a constant, or a variable bound earlier in the plan, makes a
probe column. A literal that binds a variable (``_bind``) extends each
binding by every tuple that matches it: from a scan of its relation when it
has no probe column, else from a lookup of its probe columns. A literal
that binds none, negated or not, is an existence test (``_test``) that
filters the list: a set-membership test when every column is probed, else a
lookup. A variable repeated within one literal (``p(X, X)``) filters the
literal's source once per firing, and a probed one indexes what is left.
``_Space.finder`` gives each lookup: the first probe of a (relation,
columns) pair within one fixpoint builds its index, which later probes of
the pair share, and each probe looks up a whole batch of bindings in it.
The semi-naive delta gets its own index for each rule firing. A firing's
head tuples enter the space as one set: ``_Space.add`` keeps the ones not
there yet, which join the next round's delta, and queues that set on each
index of the relation; an index files what is queued on it when it is next
probed, so an index that nothing reads again costs nothing more.

Steps are incremental. Persisted facts only grow, so a state that an
earlier step committed (``committed``) is closed: its persisted
relations are the persisted part of that step's fixpoint, and every channel
fact they derive is already in ``sent``. A rule over persisted relations
alone can then derive nothing new until one of them grows; a negated one
growing only removes derivations. So a step seeds each stratum's first
round with what changed: this inbox and the new tuples of the strata below.
A rule fires once per positive literal over a changed relation, reading
just the changed tuples there, and is skipped without one. Some rules
still fire naively (``ValidatedProgram.refire``): those with an event head
or a negated event or channel, since events and the inbox last one step;
and aggregates over a changed relation, whose value moves. A state not
yet committed, fresh from ``init_machine``, runs a full naive first round.
A committed state stepped on an empty inbox can change only through a
negated ephemeral relation (``blocked() :- msg(_, _).`` with
``out(X) :- got(X), !blocked().``) or an aggregate over one; in a program
where no negation or aggregation point reads an ephemeral relation
(``ValidatedProgram.empty_steps_idle``) such a step returns the state at
once, which ``step`` proves.

``step`` maps a state and the messages delivered to it to ``(next state,
offered)``, the channel facts it sends for the first time. A step that
changes nothing returns its input state object, uncommitted if it was, so
a caller tells a change by identity.

A machine's observable step effects (persisted growth, messages offered to
the network) are monotone functions of its history, which is what makes
quiescence detection by no-op probing sound.
"""

from __future__ import annotations

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
from .record import Frozen, set_field
from .relspace import Database, Fact, db_union
from .values import Address, Int, value_sort_key


# --- the fact space ----------------------------------------------------------


def _file(index: dict, get, tuples) -> dict:
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
        # relation -> probe columns -> (key getter, key -> tuples, the new
        # tuple sets not filed yet)
        self.indexes: dict[str, dict] = {}

    def readable(self, rel: str):
        return self.facts.get(rel, ())

    def finder(self, rel: str, cols: tuple, delta=None):
        """The one lookup of a (relation, columns) pair within a firing:
        ``key -> tuples``, which may return None for no tuples, where a key
        is what ``itemgetter(*cols)`` reads from a tuple. Given ``delta``
        (the delta, or a literal's filtered source), a per-firing index over
        it; else the pair's index, which first files the tuples queued on
        it: on its first probe the relation's, later the ones ``add``
        queued."""
        if delta is not None:
            return _file({}, itemgetter(*cols), delta).get
        by_cols = self.indexes.setdefault(rel, {})
        entry = by_cols.get(cols)
        if entry is None:
            entry = by_cols[cols] = itemgetter(*cols), {}, [self.readable(rel)]
        get, index, queued = entry
        for tuples in queued:
            _file(index, get, tuples)
        queued.clear()
        return index.get

    def add(self, rel: str, tuples: set) -> set:
        """Record derived tuples; returns the ones that are new, which the
        caller must not change: each index of ``rel`` queues them."""
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
            for entry in self.indexes[rel].values():
                entry[2].append(new)
        return new


# --- rule kernels ------------------------------------------------------------


_TESTS = {
    "=": eq,
    "!=": ne,
    "<": lambda left, right: value_sort_key(left) < value_sort_key(right),
    "<=": lambda left, right: value_sort_key(left) <= value_sort_key(right),
}


def _tuple_at(positions: tuple):
    """Reads the values at ``positions`` of a tuple as a tuple, where
    ``itemgetter(*positions)`` reads a lone value bare."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        (i,) = positions
        return lambda seq: (seq[i],)
    return itemgetter(*positions)


def _test(rel: str, cols: tuple, key_at: tuple, arity: int, negated: bool):
    """The step of a literal that binds no variable: a negated one, or a
    positive one whose variables are all bound or wildcards. It keeps the
    bindings for which whether some tuple matches differs from
    ``negated``, each once: rule outputs are sets."""
    full = len(cols) == arity
    key = _tuple_at(key_at) if full else itemgetter(*key_at) if cols else None

    def run(space, delta, rows):
        src = space.readable(rel) if delta is None else delta
        if not src or not cols:  # the outcome is the same for every binding
            return rows if bool(src) != negated else []
        if full:
            return [row for row in rows if (key(row) in src) != negated]
        find = space.finder(rel, cols, delta)
        return [row for row in rows if (not find(key(row))) == negated]
    return run


def _bind(rel: str, cols: tuple, key_at: tuple, fresh: tuple, arity: int, checks: tuple):
    """The step of a positive literal that binds variables: each binding
    extends by the columns ``fresh`` of every tuple that matches it, from a
    scan (no probe column) or a keyed lookup. A variable repeated within
    the literal (``p(X, X)``) gives ``checks`` (column, column), which
    filter the source once per firing."""
    key = itemgetter(*key_at) if cols else None
    pick = _tuple_at(fresh)
    whole = fresh == tuple(range(arity))  # a scan that binds every column in order

    def run(space, delta, rows):
        src = space.readable(rel) if delta is None else delta
        if checks:
            src = [tup for tup in src if all(tup[a] == tup[b] for a, b in checks)]
        if not src:
            return []
        if not cols:
            ext = src if whole else set(map(pick, src))
            return [row + e for row in rows for e in ext]
        find = space.finder(rel, cols, src if checks else delta)
        if len(fresh) == 1:
            (i,) = fresh
            return [row + (tup[i],) for row in rows for tup in find(key(row)) or ()]
        return [row + pick(tup) for row in rows for tup in find(key(row)) or ()]
    return run


def _comparison(comp: Comparison, slot_of):
    """The step of a comparison. Each side, a variable or a constant
    (``calmlang.validate`` allows no other term), is read from its slot."""
    test = _TESTS[comp.op]
    ls, rs = slot_of(comp.left), slot_of(comp.right)
    return lambda space, delta, rows: [row for row in rows if test(row[ls], row[rs])]


def _head(args: tuple, slot_of, names: dict):
    """Builds a head tuple from a binding; lattice constructors evaluate
    through ``eval_head_term`` on their variables."""
    if not any(isinstance(t, LatticeTerm) for t in args):
        return _tuple_at(tuple(slot_of(t) for t in args))

    def part(term):
        if not isinstance(term, LatticeTerm):
            return itemgetter(slot_of(term))
        used = {v.name: names[v.name] for v in term_vars(term)}
        return lambda row: eval_head_term(term, {name: row[slot] for name, slot in used.items()})

    parts = [part(t) for t in args]
    return lambda row: tuple([p(row) for p in parts])


def compile_rule(rule: ValidatedRule):
    """Compile a rule's plan into its join kernel,
    ``kernel(space, delta_at, delta) -> set`` of the head tuples derivable
    under the delta restriction (see ``_query``).

    A binding is a tuple: the rule's constants first, then its variables in
    plan order, so a literal's fresh variables take the next slots. Each
    plan element compiles to a step that maps the list of bindings to the
    next list in one comprehension: a literal that binds variables extends
    each binding by every tuple that matches it, and a test, a negation or
    a comparison filters the list. A step reads its source per firing: the
    relation, or ``delta`` at plan position ``delta_at``. The head maps the
    last list to a set, or groups it for an aggregate; a firing returns at
    the first empty list.
    """
    const_at: dict = {}  # constant value -> slot
    for elem in (*rule.plan, rule.rule.head):
        lit = elem.literal if isinstance(elem, Negation) else elem
        for term in (elem.left, elem.right) if isinstance(elem, Comparison) else lit.args:
            if isinstance(term, Const):
                const_at.setdefault(term.value, len(const_at))
    names: dict[str, int] = {}  # variable -> slot, after the constants'

    def slot_of(term) -> int:
        return names[term.name] if isinstance(term, Var) else const_at[term.value]

    steps = []
    for elem in rule.plan:
        if isinstance(elem, Comparison):
            steps.append(_comparison(elem, slot_of))
            continue
        negated = isinstance(elem, Negation)
        lit = elem.literal if negated else elem
        # a constant or an earlier-bound variable is a probe column; a
        # fresh variable binds at its first column and is checked at others
        cols, key_at, first, checks = [], [], {}, []
        for col, arg in enumerate(lit.args):
            if isinstance(arg, Const) or isinstance(arg, Var) and arg.name in names:
                cols.append(col)
                key_at.append(slot_of(arg))
            elif isinstance(arg, Var):
                if arg.name in first:
                    checks.append((col, first[arg.name]))
                else:
                    first[arg.name] = col
        cols, key_at, arity = tuple(cols), tuple(key_at), len(lit.args)
        if not first:
            steps.append(_test(lit.relation, cols, key_at, arity, negated))
            continue
        for name in first:
            names[name] = len(const_at) + len(names)
        steps.append(_bind(lit.relation, cols, key_at, tuple(first.values()), arity,
                           tuple(checks)))

    consts = tuple(const_at)
    args = rule.rule.head.args
    agg, agg_pos = rule.agg, rule.agg_pos
    if agg is None:
        head = _head(args, slot_of, names)
    else:
        group = _head(tuple(t for i, t in enumerate(args) if i != agg_pos), slot_of, names)
        agg_slot = names[agg.var.name]

    def kernel(space: _Space, delta_at: int | None, delta) -> set:
        rows = [consts]
        for pos, run in enumerate(steps):
            rows = run(space, delta if pos == delta_at else None, rows)
            if not rows:
                return set()
        if agg is None:
            return set(map(head, rows))
        groups: dict[tuple, set] = {}
        for row in rows:
            groups.setdefault(group(row), set()).add(row[agg_slot])
        out = set()
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
            # a new set, not ``|=``: ``added`` is queued on indexes
            new[head] = new[head] | added if head in new else added

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


class MachineState(Frozen):
    __slots__ = ("address", "persisted", "program", "committed", "sent")

    def __init__(self, address: Address, persisted: Database, program: ValidatedProgram,
                 committed: bool = False, sent: Database = Database({})):
        set_field(self, "address", address)
        set_field(self, "persisted", persisted)
        set_field(self, "program", program)
        # produced by a step that changed it, not fresh from init_machine
        set_field(self, "committed", committed)
        # the channel tuples already offered to the network, by relation
        # like ``persisted``, each addressed by its column 1; grows
        # monotonically and keeps re-derived messages from resending forever
        set_field(self, "sent", sent)

    def semantic_key(self):
        """State identity for schedule enumeration (``committed`` excluded),
        of two databases that each cache their hash."""
        return (self.address, self.persisted, self.sent)


def init_machine(vp: ValidatedProgram, address: Address, local_input: Database,
                 members: tuple) -> MachineState:
    tuples = {**local_input.relations, "id": {(address,)}, "all": {(a,) for a in members}}
    # merged as at commit, which merges only the relations a step adds to
    persisted = {rel: frozenset(_fold_lattice(rel, tups, vp))
                 for rel, tups in tuples.items() if tups}
    return MachineState(address=address, persisted=Database(persisted), program=vp)


def step(state: MachineState, inbox) -> tuple:
    """One Ingest -> Query -> Send iteration. Pure: returns ``(next state,
    offered)``, where ``offered`` is the tuple of channel facts, in no set
    order, that this step offers to the network: those not already in
    ``state.sent``, each addressed by its column 1. ``inbox`` holds the
    channel facts delivered to this machine; a machine gets its input once,
    from ``init_machine``. A step that changes nothing (no new persisted
    fact after the lattice merge, nothing offered) returns ``(state, ())``,
    ``state`` itself, committed or not.

    A ``committed`` state stepped on an empty inbox is such a step, and
    returns before evaluating anything, when ``vp.empty_steps_idle``: no
    negation or aggregation coordination point reads an ephemeral relation
    (``ValidatedProgram.ephemeral``). Proof: let T be the step that
    committed the state, over some inbox; T's fixpoint is closed under the
    rules. Going up the strata, the empty step's fixpoint holds no fact
    that T's did not, and each relation that is not ephemeral holds exactly
    what it held in T:

    - events derived only from persisted relations: a relation that is not
      ephemeral is persisted, or an event whose every rule reads only
      relations that are not ephemeral. A persisted relation starts from
      what T committed, every fact T derived into it, so such an event is
      derived from the same facts as in T and comes out the same;
    - positive reads: no message is delivered, so a channel literal
      matches nothing, and an ephemeral event holds a subset of what it
      held in T. A rule is monotone in its positive literals, so reading
      subsets it derives a subset of what it derived in T;
    - negations and aggregates read only relations that are not ephemeral,
      which hold what they held in T, so a negation passes the same
      bindings and an aggregate finds the same groups and values. (Over an
      ephemeral relation an aggregate would find no group when it is empty,
      but fewer facts when an empty step still derives some of it.);
    - lattice merges: a rule reads a merged value only into a lattice
      column of a head without an aggregate, where it merges into what that
      head already holds, as merging is associative, commutative and
      idempotent; merged facts agree with T's on every scalar column, which
      is all that a join, a negation or an aggregate reads;
    - ``sent`` holds every channel fact T derived.

    So every rule derives a subset of what it derived in T, which T
    committed, held for one step, or sent: the persisted state and ``sent``
    come out as committed, and nothing is offered. A negated ephemeral
    relation breaks this: ``blocked() :- msg(_, _).`` with
    ``out(X) :- got(X), !blocked().`` derives ``out`` only in an empty
    step."""
    vp = state.program
    if state.committed and not inbox and vp.empty_steps_idle:
        return state, ()
    persisted = state.persisted.relations
    delivered: dict[str, set] = {}
    for f in inbox:
        delivered.setdefault(f.relation, set()).add(f.args)

    # a state committed by an earlier step is closed, see the module docstring
    changed = dict(delivered) if state.committed else None
    space = _query(vp, persisted, delivered, changed)

    # only a relation this step added to can change, and its merge may
    # still give what it held
    grown = {rel: tups for rel in space.owned if vp.schemas[rel].kind == "persisted"
             if (tups := frozenset(_fold_lattice(rel, space.facts[rel], vp))) != persisted.get(rel)}
    sent = state.sent.relations
    unsent = {rel: frozenset(new) for rel, tups in space.outbound.items()
              if (new := tups.difference(sent.get(rel, ())))}
    if not grown and not unsent:
        return state, ()
    return MachineState(
        address=state.address,
        persisted=Database({**persisted, **grown}) if grown else state.persisted,
        program=vp,
        committed=True,
        sent=db_union(state.sent, Database(unsent)) if unsent else state.sent,
    ), tuple(Fact(rel, tup) for rel, tups in unsent.items() for tup in tups)
