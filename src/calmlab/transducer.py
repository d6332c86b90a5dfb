"""One machine of a relational transducer network: the Ingest -> Query ->
Send loop.

``step`` is the only code that computes what a program derives. One
machine's fixpoint is one step of a fresh ``init_machine`` state; a network
run (``netsim.run_schedule``) drives the steps of every machine.

The Query phase is a stratified, semi-naive fixpoint over the machine's
local database. Relations behave by persistence class:

* persisted relations accumulate across iterations and never shrink during
  a run. Within one iteration, rules see each derived lattice fact unmerged,
  next to the stored one; when the iteration commits, the facts that agree
  on every scalar column merge column-wise into one;
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

Joins look tuples up by each literal's probe columns, fixed at validation
(see ``calmlang.validate``). A literal with no bound column scans its
relation; one with every column bound is a set-membership test; any other
probes a hash index on (relation, columns). An index is built on the second
probe of its (relation, columns) pair within one fixpoint, the first probe
scans: most relations of a small step are probed once, and building an
index for them costs more than the scan it replaces. Once built, an index is
kept current as tuples are derived. The semi-naive delta gets its own index
for each rule firing.

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
those with a lattice head, since the merge after the fixpoint replaced the
facts they derived; and aggregates over a changed relation, whose value
moves. Relations with lattice columns count as wholly changed: their facts
are merged after the fixpoint, so no rule has joined the merged facts yet.
A state of iteration 0, fresh from ``init_machine``, runs a full naive
first round.

A machine's observable step effects (persisted growth, messages offered to
the network) are monotone functions of its history, which is what makes
quiescence detection by no-op probing sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from . import lattices
from .calmlang import ValidatedProgram, ValidatedRule
from .calmlang.syntax import EvalError, Literal, Negation, Var, eval_head_term, eval_scalar
from .calmlang.validate import BIND, Probe
from .errors import CalmlabError
from .relspace import Database, Fact
from .values import Address, Int, value_sort_key


class RoutingError(CalmlabError):
    """An outbound channel fact that cannot be routed: a non-address in its
    first column, or an address outside the network."""


# --- query evaluation --------------------------------------------------------


def _tuple_getter(cols: tuple):
    """Reads a tuple's values at ``cols`` as a tuple (a probe key)."""
    if len(cols) == 1:
        (col,) = cols
        return lambda tup: (tup[col],)
    return itemgetter(*cols)


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

    def lookup(self, rel: str, cols: tuple, key: tuple):
        """Readable tuples of ``rel`` holding ``key`` at ``cols``. The first
        probe of a (relation, columns) pair scans; the second indexes."""
        by_cols = self.indexes.get(rel)
        entry = by_cols.get(cols) if by_cols else None
        if entry is None:
            get = _tuple_getter(cols)
            if (rel, cols) not in self.scanned:
                self.scanned.add((rel, cols))
                return [tup for tup in self.readable(rel) if get(tup) == key]
            entry = get, _index(self.readable(rel), get)
            self.indexes.setdefault(rel, {})[cols] = entry
        return entry[1].get(key, ())

    def add(self, rel: str, tup: tuple) -> bool:
        """Record a derived tuple; returns True if new."""
        bucket_of = self.outbound if rel in self.channels else self.facts
        bucket = bucket_of.get(rel, ())
        if tup in bucket:
            return False
        if rel not in self.owned:
            self.owned.add(rel)
            bucket = bucket_of[rel] = set(bucket)
        bucket.add(tup)
        # a channel's indexes cover its inbox, which derivations never touch
        if rel not in self.channels and rel in self.indexes:
            for get, index in self.indexes[rel].values():
                index.setdefault(get(tup), []).append(tup)
        return True


def _probe_key(probe: Probe, env: dict) -> tuple:
    return tuple([env[t.name] if isinstance(t, Var) else t.value for t in probe.key])


def _bind(binds: tuple, tup: tuple, env: dict) -> dict | None:
    """Extend ``env`` with a probed tuple's unbound columns; None if a
    repeated variable disagrees."""
    out = dict(env)
    for col, name, mode in binds:
        if mode == BIND:
            out[name] = tup[col]
        elif out[name] != tup[col]:
            return None
    return out


def _compare(op: str, left, right) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    ka, kb = value_sort_key(left), value_sort_key(right)
    return ka < kb if op == "<" else ka <= kb


def _solve(rule: ValidatedRule, space: _Space, delta_at: int | None, delta: set, emit) -> None:
    """Call ``emit(env)`` for every variable environment satisfying the rule
    body.

    ``delta_at`` picks one positive-literal occurrence (by plan position)
    that must match against ``delta`` instead of the full relation; None
    means a full naive pass. The delta gets its own index, built on its
    first keyed probe.
    """
    plan, probes = rule.plan, rule.probes
    last = len(plan)
    delta_index = None

    def candidates(i: int, lit: Literal, probe: Probe, env: dict):
        """Tuples that agree with ``env`` on the literal's probe columns."""
        nonlocal delta_index
        if not probe.cols:
            return delta if i == delta_at else space.readable(lit.relation)
        key = _probe_key(probe, env)
        if len(key) == len(lit.args):  # every column bound: a membership test
            source = delta if i == delta_at else space.readable(lit.relation)
            return (key,) if key in source else ()
        if i != delta_at:
            return space.lookup(lit.relation, probe.cols, key)
        if delta_index is None:
            delta_index = _index(delta, _tuple_getter(probe.cols))
        return delta_index.get(key, ())

    def rec(i: int, env: dict) -> None:
        if i == last:
            emit(env)
            return
        elem, probe = plan[i], probes[i]
        if probe is None:  # Comparison
            if _compare(elem.op, eval_scalar(elem.left, env), eval_scalar(elem.right, env)):
                rec(i + 1, env)
        elif isinstance(elem, Negation):
            if not candidates(i, elem.literal, probe, env):
                rec(i + 1, env)
        else:
            binds = probe.binds
            for tup in candidates(i, elem, probe, env):
                env2 = _bind(binds, tup, env) if binds else env
                if env2 is not None:
                    rec(i + 1, env2)

    rec(0, {})


def _fire_rule(rule: ValidatedRule, space: _Space, delta_at, delta) -> list:
    """Head tuples derivable from the rule under the given delta restriction."""
    head_args = rule.rule.head.args
    out: list = []
    if rule.agg is None:
        def emit(env):
            out.append(tuple([eval_head_term(t, env) for t in head_args]))

        _solve(rule, space, delta_at, delta, emit)
        return out
    groups: dict[tuple, set] = {}

    def collect(env):
        key = tuple(
            eval_head_term(t, env)
            for i, t in enumerate(head_args)
            if i != rule.agg_pos
        )
        groups.setdefault(key, set()).add(env[rule.agg.var.name])

    _solve(rule, space, delta_at, delta, collect)
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
        for tup in _fire_rule(r, space, delta_at, delta):
            # derived channel facts are outbound, no rule reads them
            if space.add(head, tup) and head not in channels:
                new.setdefault(head, set()).add(tup)

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
                if changed is None or r.index in vp.refire or r.agg is not None and any(
                    lit.relation in changed
                    for lit in (*r.positives, *(n.literal for n in r.negations))
                ):
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
    schema = vp.schemas[rel]
    lat_cols = schema.lattice_cols
    if not lat_cols:
        return tups
    scalar_cols = schema.scalar_cols
    merged: dict[tuple, dict] = {}
    for tup in sorted(tups, key=lambda t: tuple(value_sort_key(v) for v in t)):
        key = tuple(tup[i] for i in scalar_cols)
        slot = merged.setdefault(key, {i: None for i in lat_cols})
        for i in lat_cols:
            cur = slot[i]
            try:
                slot[i] = tup[i] if cur is None else lattices.merge(cur, tup[i])
            except lattices.LatticeTypeError as e:
                col = schema.cols[i]
                raise lattices.LatticeTypeError(
                    f"{e.message} in column {col.name} of {rel}", col.pos, vp.program.filename
                ) from None
    out = set()
    for key, slot in merged.items():
        tup = [None] * schema.arity
        for pos, v in zip(scalar_cols, key):
            tup[pos] = v
        for pos in lat_cols:
            tup[pos] = slot[pos]
        out.add(tuple(tup))
    return out


# --- the machine -------------------------------------------------------------


@dataclass(frozen=True)
class MachineState:
    address: Address
    persisted: Database
    program: ValidatedProgram
    iteration: int = 0
    # channel facts already offered to the network, as (dest, Fact) pairs;
    # grows monotonically and keeps re-derived messages from resending forever
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

    changed = None
    if state.iteration:  # committed by an earlier step: closed, see the module docstring
        lattice = {rel: set(persisted[rel]) for rel in vp.lattice_rels if rel in persisted}
        changed = {**delivered, **lattice}
    space = _query(vp, persisted, delivered, changed)

    new_persisted = {rel: _fold_lattice(rel, tups, vp) for rel, tups in space.facts.items()
                     if vp.schemas[rel].kind == "persisted"}

    outbound: dict[Address, set] = {}
    new_sent = []
    for rel, tups in space.outbound.items():
        for tup in tups:
            dest = tup[0]
            if not isinstance(dest, Address):
                raise RoutingError(f"channel fact {rel}{tup} has no address in column 1")
            key = (dest, Fact(rel, tup))
            if key not in state.sent:
                new_sent.append(key)
                outbound.setdefault(dest, set()).add(key[1])

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
