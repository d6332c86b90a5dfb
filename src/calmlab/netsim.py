"""Deterministic, seed-driven simulator of a transducer network.

A run starts by stepping every machine on its local input, then repeatedly
resolves one nondeterministic choice: pick a machine with pending messages
and deliver a nonempty subset of them (this one primitive realizes both
reordering and batching nondeterminism). Whenever the in-flight set drains,
machines are swept with empty inboxes until none of them changes; if the
sweep emitted new messages the delivery loop resumes, otherwise the network
is quiescent and the output relations are read. An empty step can change a
machine that an earlier step committed only through a negated ephemeral
relation (``blocked() :- msg(_, _).`` with ``out(X) :- got(X),
!blocked().``) or an aggregate over one: a negation or aggregation point
that reads an ephemeral relation. Every other such step returns at once
(``transducer.step``), so a sweep costs little where nothing is left
to settle.

A network's machine states and step memo live once in its
``MachineTable``, the states interned to small ints by ``semantic_key``; a
state's outputs are computed where they are read. A network state is
``(ids, pending)``: the ids in machine-name order (m1, m10, m2, ...), the
order of the sweep, and the sorted tuple of envelopes ``(dst name, src
name, fact string)`` in flight, one entry per copy. Its key is thus ints and strings, and never
calls into a ``Database``. Every walk delivers a batch through ``_deliver``
and steps a machine through ``_step``, which memoises each (id, inbox) step
with its new id and sent envelopes; a decision names each delivered
envelope by its tail ``(src, fact)``.
``run_schedule`` asks a chooser: a seeded one (64-bit seed, reproducible)
or a replay of an explicit decision list, which replays bit-identically and
serves as a divergence witness. ``enumerate_schedules`` walks every batch
schedule depth-first on an explicit stack, deduplicating canonical network
states, and yields each reachable quiescent outcome once. Deliveries to
different machines commute, so the walk tries each such pair in one order
only (sleep sets): a batch whose envelopes are all asleep at its machine is
not delivered. It still enters every state the unreduced walk would, in the
same order. A program that ``sends_once`` sends nothing after the first
sweep, so there the walk delivers only to the first machine with a nonempty
inbox (persistent sets) and enters fewer states. A program whose
``deliveries_commute`` (no coordination point races: each message is read
alone, next to fixed relations only, and nothing negates or aggregates a
relation that can grow) reaches one outcome on every path, so there the
walk follows one path, delivering the whole first inbox at each state. In
every case its outcomes and witnesses are those of the unreduced walk.
"""

from __future__ import annotations

import itertools
import random
import zlib

from .calmlang import ValidatedProgram
from .errors import CalmlabError
from .record import Frozen, set_field
from .relspace import Database, Fact, db_to_obj, db_union, parse_fact
from .transducer import MachineState, init_machine, step
from .values import Address

DEFAULT_STEP_BUDGET = 10_000
DEFAULT_ENUM_BOUND = 1_000_000


class PartitioningError(CalmlabError):
    """Input fact unassigned, assigned twice, unknown to the fixture, or
    naming a machine outside the network."""


class ReplayError(CalmlabError):
    """Explicit schedule decision does not match the pending message set."""


def machine_addresses(m: int) -> tuple:
    return tuple(Address(f"m{i}") for i in range(1, m + 1))


class Partitioning(Frozen):
    __slots__ = ("machines", "assignment")

    def __init__(self, machines: tuple, assignment: dict):
        set_field(self, "machines", machines)  # tuple[Address]
        set_field(self, "assignment", assignment)  # Fact -> Address

    def describe(self) -> dict:
        by_machine: dict[str, list] = {str(a): [] for a in self.machines}
        for fact, addr in self.assignment.items():
            by_machine[str(addr)].append(str(fact))
        return {m: sorted(fs) for m, fs in sorted(by_machine.items())}


def colocated(input_db: Database, machines: tuple) -> Partitioning:
    """Every input fact on the first machine."""
    return Partitioning(machines, {Fact(rel, args): machines[0]
                                   for rel, tuples in input_db.relations.items()
                                   for args in tuples})


def hash_partitioning(input_db: Database, machines: tuple) -> Partitioning:
    assignment = {}
    for f in input_db.facts():
        h = zlib.crc32(str(f).encode("utf-8"))
        assignment[f] = machines[h % len(machines)]
    return Partitioning(machines, assignment)


def partitioning_from_map(input_db: Database, machines: tuple, mapping: dict) -> Partitioning:
    """mapping: machine name -> list of fact strings (fixture syntax). An
    entry written as a fixture fact's canonical text (``str(Fact)``) is that
    fact; any other entry is parsed."""
    by_addr = {a.name: a for a in machines}
    facts = [Fact(rel, args) for rel, tuples in input_db.relations.items() for args in tuples]
    by_text = {str(f): f for f in facts}
    assignment: dict = {}
    for mname, fact_strs in mapping.items():
        addr = by_addr.get(mname.removeprefix("@"))
        if addr is None:
            raise PartitioningError(f"unknown machine {mname!r} in partitioning map")
        for s in fact_strs:
            f = by_text.get(s) or parse_fact(s, f"partitioning map entry {mname!r}")
            if f in assignment:
                raise PartitioningError(f"fact {f} assigned to more than one machine")
            assignment[f] = addr
    if any(f not in assignment for f in facts):
        f = next(f for f in input_db.facts() if f not in assignment)  # the first, sorted
        raise PartitioningError(f"input fact {f} not assigned to any machine")
    for f in assignment:
        if f not in input_db:
            raise PartitioningError(f"assigned fact {f} is not in the input fixture")
    return Partitioning(machines, assignment)


def enumerate_partitionings(
    input_db: Database, m: int, cap: int = 64, seed: int = 0
) -> list:
    """Each distinct assignment of input facts to m machines at most once.

    The m colocated partitionings come first (one, for an empty fixture).
    Every other assignment follows in product order when all m**n fit within
    cap; otherwise seeded samples follow, up to cap partitionings in total.
    """
    machines = machine_addresses(m)
    facts = list(input_db.facts())
    combos = dict.fromkeys((i,) * len(facts) for i in range(m))
    if m ** len(facts) <= cap:
        combos.update(dict.fromkeys(itertools.product(range(m), repeat=len(facts))))
    else:
        rng = random.Random(seed)
        while len(combos) < cap:
            combos.setdefault(tuple(rng.randrange(m) for _ in facts))
    return [
        Partitioning(machines, {f: machines[i] for f, i in zip(facts, combo)})
        for combo in combos
    ]


# --- schedules ---------------------------------------------------------------

class Schedule(Frozen):
    """Either a seed for pseudo-random choices or an explicit decision list.

    A decision is (machine name, tuple of envelope tails (src name, fact
    string)). Decision lists replay bit-identically.
    The at-least-once toggle only applies to seeded schedules: a duplicated
    run's decisions under-specify the duplication points, so witnesses and
    enumeration paths are always recorded with duplication off (the
    default)."""

    __slots__ = ("seed", "decisions", "duplicate_every")

    def __init__(self, seed: int | None = None, decisions: tuple | None = None,
                 duplicate_every: int = 0):
        set_field(self, "seed", seed)
        set_field(self, "decisions", decisions)
        set_field(self, "duplicate_every", duplicate_every)  # at-least-once toggle: 0 = off

    def to_obj(self):
        """A decision schedule as JSON; only those are ever reported."""
        return {
            "decisions": [
                [dst, [[src, fact] for src, fact in keys]] for dst, keys in self.decisions
            ]
        }


class MachineTable:
    """One network's machine states and step memo, shared by the network's
    copies and dropped with them. ``states[i]`` is the machine state of id
    ``i``; each distinct ``semantic_key`` gets one id (collapse compression,
    Holzmann, *State Compression in SPIN*, 1997)."""

    __slots__ = ("program", "names", "states", "ids", "facts", "memo")

    def __init__(self, program: ValidatedProgram, names: tuple):
        self.program = program  # the program every machine runs
        self.names = names  # machine names, in name order
        self.states = []  # id -> MachineState
        self.ids = {}  # MachineState.semantic_key() -> id
        self.facts = {}  # fact string -> Fact, for a memo miss
        self.memo = {}  # step memo, see _step

    def intern(self, machine: MachineState) -> int:
        mid = self.ids.setdefault(machine.semantic_key(), len(self.states))
        if mid == len(self.states):
            self.states.append(machine)
        return mid


class NetworkState:
    """A network on one path of a run: ``(ids, pending)`` is its key, and
    ``steps`` counts the steps the path took. Copies share ``table``."""

    __slots__ = ("ids", "table", "pending", "steps")

    def __init__(self, ids: tuple, table: MachineTable, pending: tuple = (), steps: int = 0):
        self.ids = ids  # machine-state ids of ``table``, in machine-name order
        self.table = table
        self.pending = pending  # sorted envelopes, one entry per copy
        self.steps = steps

    @property
    def machines(self) -> dict:
        """Machine name -> MachineState, in name order."""
        return {name: self.table.states[mid] for name, mid in zip(self.table.names, self.ids)}

    def copy(self) -> NetworkState:
        return NetworkState(self.ids, self.table, self.pending, self.steps)

    def semantic_key(self):
        return self.ids, self.pending


class RunOutcome(Frozen):
    __slots__ = ("per_machine_outputs", "union_output", "trace", "quiesced", "steps_used",
                 "decisions")

    def __init__(self, per_machine_outputs: dict, union_output: Database, trace: tuple,
                 quiesced: bool, steps_used: int, decisions: tuple):
        set_field(self, "per_machine_outputs", per_machine_outputs)  # machine name -> Database
        set_field(self, "union_output", union_output)
        set_field(self, "trace", trace)  # ((src, dst, fact_str, step), ...)
        set_field(self, "quiesced", quiesced)
        set_field(self, "steps_used", steps_used)
        set_field(self, "decisions", decisions)  # resolved schedule, replayable

    @property
    def message_count(self) -> int:
        """Inter-machine deliveries: trace entries with src != dst."""
        return sum(1 for src, dst, _, _ in self.trace if src != dst)

    def to_obj(self) -> dict:
        return {
            "schema_version": 1,
            "quiesced": self.quiesced,
            "steps_used": self.steps_used,
            "message_count": self.message_count,
            "union_output": db_to_obj(self.union_output),
            "per_machine_outputs": {
                m: db_to_obj(db) for m, db in sorted(self.per_machine_outputs.items())
            },
            "trace": [list(entry) for entry in self.trace],
            "schedule": Schedule(decisions=self.decisions).to_obj(),
        }


def init_network(vp: ValidatedProgram, input_db: Database, part: Partitioning) -> NetworkState:
    """Machines hold their assigned input facts plus id/all; nothing pending.
    The fixture's facts already fit the program, and they and the program's
    address constants name only machines of the network (the verbs check
    both through ``config.RunConfig``), so every message reaches one of its
    machines; ``part`` assigns exactly the fixture's facts."""
    local: dict = {a: [] for a in sorted(part.machines, key=lambda a: a.name)}
    for f, addr in part.assignment.items():
        local[addr].append(f)
    table = MachineTable(vp, tuple(a.name for a in local))
    ids = tuple(table.intern(init_machine(vp, a, Database.from_facts(facts), part.machines))
                for a, facts in local.items())
    return NetworkState(ids, table)


def _stepped(table: MachineTable, mid: int, src: str, texts) -> tuple:
    """``step`` of machine ``mid`` on ``texts``, as the memo stores it: (new
    id, sent envelopes). A step that changes nothing returns its state
    itself, which keeps its id without hashing a ``Database``; a changed
    state has a new ``semantic_key``, as its persisted facts or ``sent``
    differ, and so a new id."""
    machine = table.states[mid]
    nxt, offered = step(machine, [table.facts[text] for text in texts])
    if nxt is machine:
        return mid, ()
    sent = []
    for f in offered:
        text = str(f)
        table.facts[text] = f
        sent.append((f.args[0].name, src, text))
    return table.intern(nxt), tuple(sent)


def _step(state: NetworkState, at: int, texts) -> bool:
    """Step the machine at position ``at`` on the fact strings ``texts`` and
    commit it; True if it changed, which is when its id changed. The step
    is memoised in the table as (new id, sent envelopes), by the machine's
    id and the set of texts: ``step`` reads its inbox as a set and never
    sees the sender."""
    table, mid = state.table, state.ids[at]
    key = (mid, frozenset(texts))
    hit = table.memo.get(key)
    if hit is None:
        hit = table.memo[key] = _stepped(table, mid, table.names[at], texts)
    new, sent = hit
    state.steps += 1
    if new == mid:
        return False
    state.ids = state.ids[:at] + (new,) + state.ids[at + 1:]
    state.pending = tuple(sorted(state.pending + sent))
    return True


def _sweep(state: NetworkState, budget: int) -> bool:
    """Step every machine with an empty inbox until none changes.

    This both seeds derivations from local input at run start and settles
    event-dependent rules once a machine's inbox has drained: a rule that
    negates an ephemeral relation, or aggregates over one, can derive in an
    empty step what the step that delivered a message could not. Without
    such a rule (``ValidatedProgram.empty_steps_idle``), the empty step of a
    machine that an earlier step committed returns at once and changes
    nothing; it still counts as a step. Machine step effects grow
    monotonically (persisted state and sent-cache only grow), so the sweep
    terminates. Returns False if the budget ran out.
    """
    while True:
        any_change = False
        for at in range(len(state.ids)):
            if state.steps >= budget:
                return False
            any_change |= _step(state, at, ())
        if not any_change:
            return True


def _inboxes(pending: tuple) -> dict:
    """Pending envelopes grouped by destination name, in envelope order,
    each duplicated envelope listed once."""
    out: dict = {}
    for env in dict.fromkeys(pending):
        out.setdefault(env[0], []).append(env)
    return out


def _deliver(state: NetworkState, batch) -> None:
    """The one delivery primitive: take the batch (distinct pending
    envelopes, all to one machine, sorted) out of ``state.pending``, then
    step that machine on their facts and commit it with what it sends."""
    rest = list(state.pending)
    for env in batch:
        rest.remove(env)
    state.pending = tuple(rest)
    _step(state, state.table.names.index(batch[0][0]), [env[2] for env in batch])


def _decision(batch) -> tuple:
    """The replayable decision that delivers the sorted ``batch``."""
    return batch[0][0], tuple(env[1:] for env in batch)


def _outputs(state: NetworkState) -> tuple:
    """(machine name -> output relations, their union) of ``state``."""
    per_machine = {
        name: m.persisted.restrict(m.program.output_rels)
        for name, m in state.machines.items()
    }
    union = Database({})
    for db in per_machine.values():
        union = db_union(union, db)
    return per_machine, union


class _SeededChooser:
    def __init__(self, seed: int, duplicate_every: int = 0):
        self.rng = random.Random(seed)
        self.duplicate_every = duplicate_every
        self.deliveries = 0
        self._dup_done = 0

    def choose(self, pending: tuple) -> list:
        inboxes = _inboxes(pending)
        envs = inboxes[self.rng.choice(list(inboxes))]
        chosen = [env for env in envs if self.rng.random() < 0.5]
        if not chosen:
            chosen = [envs[self.rng.randrange(len(envs))]]
        self.deliveries += len(chosen)
        return chosen

    def maybe_duplicate(self, state: NetworkState) -> None:
        if not self.duplicate_every or not state.pending:
            return
        if self.deliveries // self.duplicate_every > self._dup_done:
            self._dup_done += 1
            envs = list(dict.fromkeys(state.pending))
            env = envs[self.rng.randrange(len(envs))]
            state.pending = tuple(sorted(state.pending + (env,)))


class _ReplayChooser:
    def __init__(self, decisions: tuple):
        self.decisions = decisions
        self.next = 0  # index of the decision to replay next

    def choose(self, pending: tuple) -> list:
        if self.next == len(self.decisions):
            raise ReplayError("schedule exhausted while messages are still pending")
        dst_name, keys = self.decisions[self.next]
        self.next += 1
        if len({tuple(k) for k in keys}) != len(keys):
            raise ReplayError("decision lists the same message twice in one batch")
        if not keys:
            raise ReplayError("decision delivers an empty batch")
        chosen = []
        for key in keys:
            env = (dst_name, *key)
            if env not in pending:
                raise ReplayError(
                    f"decision delivers {key} to {dst_name} but it is not pending"
                )
            chosen.append(env)
        return chosen

    def maybe_duplicate(self, state: NetworkState) -> None:
        pass


def run_schedule(
    initial: NetworkState,
    schedule: Schedule,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> RunOutcome:
    """Run to quiescence (or budget); same schedule => bit-identical outcome."""
    state = initial.copy()
    if schedule.decisions is not None:
        chooser = _ReplayChooser(schedule.decisions)
    else:
        chooser = _SeededChooser(schedule.seed or 0, schedule.duplicate_every)

    decisions: list = []
    trace: list = []
    ok = _sweep(state, step_budget)
    while ok and state.pending and state.steps < step_budget:
        at = state.steps
        batch = sorted(chooser.choose(state.pending))
        _deliver(state, batch)
        dst, keys = _decision(batch)
        decisions.append((dst, keys))
        trace.extend((src, dst, fact, at) for src, fact in keys)
        chooser.maybe_duplicate(state)
        if not state.pending:
            ok = _sweep(state, step_budget)

    per_machine, union = _outputs(state)
    return RunOutcome(
        per_machine_outputs=per_machine,
        union_output=union,
        trace=tuple(trace),
        quiesced=ok and not state.pending,
        steps_used=state.steps,
        decisions=tuple(decisions),
    )


# --- exhaustive schedule enumeration ------------------------------------------


class EnumOutcome(Frozen):
    __slots__ = ("union_output", "per_machine_outputs", "decisions")

    def __init__(self, union_output: Database, per_machine_outputs: dict, decisions: tuple):
        set_field(self, "union_output", union_output)
        set_field(self, "per_machine_outputs", per_machine_outputs)
        set_field(self, "decisions", decisions)  # replayable path that reached this outcome


class EnumerationResult:
    __slots__ = ("outcomes", "complete", "states_explored", "deliveries")

    def __init__(self, outcomes: list, complete: bool, states_explored: int, deliveries: int):
        self.outcomes = outcomes  # distinct quiescent outcomes, first-found order
        # False if the walk stopped early or a branch ran out of step budget
        self.complete = complete
        self.states_explored = states_explored
        self.deliveries = deliveries  # batches the walk delivered


def _subsets(envs: list):
    """The nonempty batches of an inbox, larger first (fair-delivery bias),
    each in inbox order."""
    for k in range(len(envs), 0, -1):
        yield from itertools.combinations(envs, k)


def _first_batches(pending: tuple):
    """The batches of the first inbox in ``_inboxes`` order, each with
    nothing asleep in the child it leads to: a persistent set of a state
    from which no step sends (see ``enumerate_schedules``)."""
    for batch in _subsets(next(iter(_inboxes(pending).values()))):
        yield batch, {}


def _awake_batches(pending: tuple, asleep: dict):
    """The batches a frame delivers, each with the asleep envelopes of the
    child it leads to. Batches come in ``_inboxes`` order, machines in name
    order and larger batches first (fair-delivery bias), leaving out every
    batch whose envelopes are all asleep at its machine. In the child of a
    delivery to ``dst``, a machine before ``dst`` has its whole inbox
    asleep (each batch of it was tried from this state first, or sleeps
    here), a machine after ``dst`` keeps what sleeps here, and ``dst`` has
    nothing asleep."""
    tried: dict = {}  # machine before dst -> its whole inbox
    for dst, envs in _inboxes(pending).items():
        dozing = asleep.get(dst)
        if dozing is None or not dozing.issuperset(envs):
            child = dict(tried)
            child.update((m, z) for m, z in asleep.items() if m > dst)
            for batch in _subsets(envs):
                if dozing is None or not dozing.issuperset(batch):
                    yield batch, child
        tried[dst] = frozenset(envs)


def _unwind(path: tuple) -> tuple:
    """The decisions of the batches on a path ``(batch, parent)``, root path
    ``()`` first."""
    decisions = []
    while path:
        batch, path = path
        decisions.append(_decision(batch))
    return tuple(reversed(decisions))


def enumerate_schedules(
    initial: NetworkState,
    bound: int = DEFAULT_ENUM_BOUND,
    step_budget: int = DEFAULT_STEP_BUDGET,
    stop_after_distinct: int | None = None,
) -> EnumerationResult:
    """Depth-first walk of the (machine, inbox-subset) delivery choices,
    deduplicated by canonical network state and stepped through the
    network's memo, that finds every reachable quiescent outcome. It stops
    once it has met ``bound`` distinct states or ``stop_after_distinct``
    outcomes. The stack is explicit and a path is a parent-pointer chain. A
    state is marked seen on entry: no state is its own descendant, since
    every delivery grows a machine's state or shrinks ``pending``.

    Sleep sets (Godefroid, *Partial-Order Methods for the Verification of
    Concurrent Systems*, LNCS 1032, 1996, ch. 5) cut the deliveries, not
    the states. Deliveries to different machines are independent:
    ``_deliver`` steps one machine and only adds to the others' inboxes,
    so X·b·t and X·t·b are the same state when b and t go to different
    machines. A frame is expanded under ``asleep``, a frozenset of envelopes
    per machine, and skips a batch whose envelopes are all asleep at its
    machine (``_awake_batches`` says how a child's sets follow from its
    parent's). Delivering to a machine wakes it, so ``asleep[m]`` is a
    part of m's inbox; a drained state has nothing asleep.

    Invariant: if b is a batch of ``asleep[m]`` at a frame for state X,
    every state reachable from X·b has already been entered. It holds at
    the root, where nothing is asleep. In the child C = X·t of a delivery
    t to machine d:

    - for m before d, b was tried from X before t, or was asleep at X.
      Either way, everything reachable from X·b was entered, and C·b =
      X·b·t is reachable from X·b;
    - for m after d, b was asleep at X, and again C·b = X·b·t.

    A batch tried earlier has had its reachable states entered because
    the state space is acyclic: the state it led to is not on the stack,
    so its frame has finished, and its awake batches were tried and its
    asleep ones are covered by the invariant. Hence a skipped delivery
    would only have met a seen state, or a drained one whose machines
    match an earlier drained state's, so its sweep repeats a recorded
    outcome or meets a seen key. The walk therefore enters the same
    states in the same order as the walk without sleep sets, and finds
    the same outcomes on the same paths, ``states_explored`` and
    ``complete`` included; only ``deliveries`` falls. The one difference
    is the step budget, which counts steps along a path: a skipped
    delivery can reach a drained state at a higher step count than the
    path that first reached one with the same machines, so where the
    unreduced walk would call such a branch out of budget, this walk, which
    has its outcome, stays complete.

    The invariant holds at every entry of a state, the first or a later
    one, whatever was asleep when the state was first expanded. So
    Godefroid's rule for state caching, which expands a seen state again
    when its stored sleep set is not covered, could only enter seen states
    here, and ``seen`` stores keys alone.

    Persistent sets (Godefroid, ch. 4) cut the states as well, for a
    program that ``sends_once`` (``ValidatedProgram.sends_once``: every
    channel rule reads only ``fixed`` relations). Below a swept root, a
    frame of such a program expands only the batches of its first inbox,
    in ``_inboxes`` order (``_first_batches``), which are the batches the
    sleep-set walk tries first at every frame. After the root's sweep no
    step sends:

    - fixed relations, event rules refired over them, and aggregates and
      negations over them come out the same in every step, so a channel
      rule derives again only what the machine's first step sent, which
      ``sent`` holds;
    - lattice columns live only in persisted relations and never reach a
      channel, so a merge moves no channel fact;
    - an id whose stored state is not yet committed had a first step
      that changed nothing, so it sent nothing, and its next step runs the
      same naive round over the same fixed relations.

    So ``pending`` only shrinks, and a delivery changes only its own
    machine. Let m be the first machine with a nonempty inbox at X. A
    path from X to a drained state delivers all of m's inbox; its first
    delivery to m is a batch b of m's inbox at X, and it commutes with the
    deliveries to other machines before it. Moved to the front, it gives a
    path through X·b to the same machines, whose sweep finds the same
    outcome. The unreduced walk tries X's first-inbox batches first, and
    has entered every state reachable from them before it tries another,
    so every outcome it finds, it finds first on a path that delivers to
    the first inbox at every frame. The reduced walk takes those paths in
    the same depth-first order, so it finds the same outcomes in the same
    order and on the same paths, and enters fewer states; as with sleep
    sets, the two walks can differ only where the step budget cuts a
    branch. The root must be swept, since a machine's first step is the
    one that sends: ``enter`` sweeps a root with nothing in flight, as
    every ``init_network`` root is, and a root with messages in flight is
    walked with sleep sets.

    One path suffices for a program whose ``deliveries_commute``
    (``ValidatedProgram.deliveries_commute``): no coordination point races,
    that is, every point reads only fixed relations. With no racing
    ephemeral join, every rule that reads an ephemeral relation reads one
    ephemeral literal, positively, next to fixed literals only; with no
    racing negation or aggregate, every negated relation and every body
    relation of an aggregate rule is fixed. A machine's ``(persisted,
    sent)`` after a step is then a function of its input and of the *set*
    of messages delivered to it so far, whatever their order and batching:

    - a message reaches the rules only through a chain of rules that each
      read one ephemeral literal and fixed relations, so each message
      derives a fixed set of facts, the same in every step that delivers
      it, and a batch derives the union of its messages' sets;
    - every other rule reads no ephemeral relation and negates or
      aggregates only fixed ones, so it is monotone in every relation that
      is not fixed, and a step's fixpoint is the least one over the input
      and what the messages derived, however many steps that took;
    - lattice merges are associative, commutative and idempotent, so the
      merged values do not depend on the order in which facts arrive;
    - ``sent`` is the union of what the channel rules derive, and those
      derivations are monotone in the same sense.

    So what a machine sends is monotone in the set delivered to it. On any
    path, each message delivered was sent because of messages delivered
    before it, so it lies in the least fixpoint of "machine m receives what
    the others send given what they receive"; and a path ends only when
    nothing is pending, with every machine swept, so what it delivered is
    a fixpoint. Every maximal path from any state therefore delivers that
    least fixpoint and ends at the same machines, with one outcome. No
    swept root is needed: a machine's first step computes the same
    function. The walk expands one batch per frame, the first that
    ``_first_batches`` yields: the whole first inbox, which is the batch
    the unreduced walk tries first at every frame; the unreduced walk's
    first path reaches its first outcome, which is its only one, so the
    reduced walk finds it on the same path with the same decisions,
    entering no more states. As with
    persistent sets, the two walks can differ only where the step budget
    cuts a branch."""

    # outcomes are keyed by the union output: that is the observable the
    # confluence question compares
    outcomes: dict = {}  # union-output Database -> EnumOutcome, first-found order
    seen: set = set()  # keys of the states entered and the quiescent states met
    states = deliveries = 0
    truncated = False  # a branch ran out of step budget
    stopped = False  # the state bound or stop_after_distinct ended the walk
    stack: list = []  # (state, path, awake batches) frames
    # a network whose deliveries commute has one outcome on every path, and
    # a send-once one sends nothing once its root is swept (see above)
    program = initial.table.program
    one_path = program.deliveries_commute
    first_only = program.sends_once and not initial.pending

    def enter(state: NetworkState, path: tuple, asleep: dict) -> None:
        """Push the frame that expands ``state``, unless it is quiescent
        (its outcome is then recorded), already seen, or past the bound."""
        nonlocal states, truncated, stopped
        if not state.pending and not _sweep(state, step_budget):
            truncated = True
            return
        skey = state.semantic_key()
        if skey in seen:
            return
        if not state.pending:
            seen.add(skey)
            per_machine, union = _outputs(state)
            if union not in outcomes:
                outcomes[union] = EnumOutcome(union, per_machine, _unwind(path))
                if len(outcomes) == stop_after_distinct:
                    stopped = True
            return
        if states >= bound:
            stopped = True
            return
        states += 1
        seen.add(skey)
        if one_path:
            batches = itertools.islice(_first_batches(state.pending), 1)
        elif first_only:
            batches = _first_batches(state.pending)
        else:
            batches = _awake_batches(state.pending, asleep)
        stack.append((state, path, batches))

    enter(initial.copy(), (), {})
    while stack and not stopped:
        state, path, batches = stack[-1]
        nxt = next(batches, None)
        if nxt is None:
            stack.pop()
        else:
            batch, asleep = nxt
            child = state.copy()
            deliveries += 1
            _deliver(child, batch)
            enter(child, (batch, path), asleep)
    return EnumerationResult(
        outcomes=list(outcomes.values()),
        complete=not (truncated or stopped),
        states_explored=states,
        deliveries=deliveries,
    )
