"""Dynamic verdict engines: confluence across schedules, coordination across
partitionings, output diffing with witness extraction.

All verdicts are instance-level. Dynamic evidence never upgrades to a
program-level claim: a single divergence witness refutes confluence on the
instance, but agreeing runs only establish "confluent on this instance under
the explored schedules" (exhaustive mode explores all of them). The static,
conservative program-level claim is monocheck's job.

Both verdicts read one stream of seeded runs, ``seeded_runs``: the sampled
check compares their outputs, and coordination takes their least message
count under each partitioning of ``enumerate_partitionings``.

Coordination is operationalized as the minimum inter-machine message count
over explored schedules; a program needs coordination on an instance when
even the partitionings that co-locate all data at a single machine cannot
quiesce without messages.
"""

from __future__ import annotations

from .calmlang import ValidatedProgram
from .netsim import (
    DEFAULT_ENUM_BOUND,
    DEFAULT_STEP_BUDGET,
    NetworkState,
    Schedule,
    enumerate_partitionings,
    enumerate_schedules,
    init_network,
    run_schedule,
)
from .record import Frozen, set_field
from .relspace import Database, db_to_obj

OUTCOME_CONFLUENT = "confluent-on-instance"
OUTCOME_DIVERGENT = "divergent"
OUTCOME_INCONCLUSIVE = "inconclusive"

VERDICT_FREE = "coordination-free-on-instance"
VERDICT_REQUIRED = "coordination-required-on-instance"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_SAMPLED_SEEDS = 64

SCHEMA_VERSION = 1


class ConfluenceVerdict(Frozen):
    __slots__ = ("mode", "outcome", "distinct_outcomes", "witnesses", "runs_examined")

    def __init__(self, mode: str, outcome: str, distinct_outcomes: int, witnesses: tuple,
                 runs_examined: int):
        set_field(self, "mode", mode)  # exhaustive | sampled
        set_field(self, "outcome", outcome)  # confluent-on-instance | divergent | inconclusive
        set_field(self, "distinct_outcomes", distinct_outcomes)
        # up to 2 (Schedule, union Database) pairs when divergent
        set_field(self, "witnesses", witnesses)
        set_field(self, "runs_examined", runs_examined)

    def to_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "outcome": self.outcome,
            "distinct_outcomes": self.distinct_outcomes,
            "runs_examined": self.runs_examined,
            "witnesses": [
                {"schedule": sched.to_obj(), "union_output": db_to_obj(db)}
                for sched, db in self.witnesses
            ],
        }


class CoordinationReport(Frozen):
    __slots__ = ("per_partitioning", "colocated_min_messages", "verdict")

    def __init__(self, per_partitioning: tuple, colocated_min_messages: int | None, verdict: str):
        # ({"partitioning": map, "colocated": bool, "min_messages": n|None}, ...)
        set_field(self, "per_partitioning", per_partitioning)
        set_field(self, "colocated_min_messages", colocated_min_messages)
        set_field(self, "verdict", verdict)

    def to_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": self.verdict,
            "colocated_min_messages": self.colocated_min_messages,
            "per_partitioning": list(self.per_partitioning),
        }


def seeded_runs(initial: NetworkState, seeds: int, base_seed: int, step_budget: int):
    """The quiesced runs of seeds ``base_seed … base_seed+seeds-1``, in seed
    order; a run that exhausts ``step_budget`` is skipped."""
    for seed in range(base_seed, base_seed + seeds):
        # looked up per run, so that a tracer rebinding run_schedule sees every run
        run = run_schedule(initial, Schedule(seed=seed), step_budget=step_budget)
        if run.quiesced:
            yield run


def check_confluence(
    vp: ValidatedProgram,
    input_db: Database,
    part,
    mode: str = "exhaustive",
    budget: int = DEFAULT_ENUM_BOUND,
    seeds: int = DEFAULT_SAMPLED_SEEDS,
    base_seed: int = 0,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> ConfluenceVerdict:
    """Compare quiescent union outputs across delivery schedules.

    Exhaustive mode enumerates every reachable quiescent outcome (stopping
    early once two distinct outputs prove divergence); sampled mode compares
    ``seeds`` seeded runs. Divergence always comes with two replayable
    witness schedules.
    """
    initial = init_network(vp, input_db, part)
    # each mode yields its distinct (decisions, union output) pairs in
    # first-found order, whether its search was conclusive, and its count
    if mode == "exhaustive":
        res = enumerate_schedules(
            initial, bound=budget, step_budget=step_budget, stop_after_distinct=2
        )
        found = [(o.decisions, o.union_output) for o in res.outcomes]
        conclusive, examined = res.complete, res.states_explored
    elif mode == "sampled":
        found = []
        examined = 0  # quiescent runs
        for run in seeded_runs(initial, seeds, base_seed, step_budget):
            examined += 1
            if all(run.union_output != out for _, out in found):
                found.append((run.decisions, run.union_output))
                if len(found) == 2:
                    break
        conclusive = examined > 0
    else:
        raise ValueError(f"unknown confluence mode {mode!r}")

    if len(found) >= 2:
        witnesses = tuple((Schedule(decisions=d), out) for d, out in found[:2])
        return ConfluenceVerdict(mode, OUTCOME_DIVERGENT, len(found), witnesses, examined)
    outcome = OUTCOME_CONFLUENT if conclusive and found else OUTCOME_INCONCLUSIVE
    return ConfluenceVerdict(mode, outcome, len(found), (), examined)


def detect_coordination(
    vp: ValidatedProgram,
    input_db: Database,
    machines: int,
    schedules_per_partitioning: int = 8,
    partition_cap: int = 16,
    base_seed: int = 0,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> CoordinationReport:
    """Minimum observed inter-machine messages per partitioning.

    Explores ``enumerate_partitionings``, whose colocated partitionings come
    first; the verdict is coordination-free exactly when some colocated run
    quiesces with zero inter-machine messages.
    """
    if machines < 2:
        raise ValueError("coordination detection needs at least 2 machines")
    rows = []
    for part in enumerate_partitionings(input_db, machines, cap=partition_cap, seed=base_seed):
        initial = init_network(vp, input_db, part)
        runs = seeded_runs(initial, schedules_per_partitioning, base_seed, step_budget)
        rows.append(
            {
                "partitioning": part.describe(),
                "colocated": len(set(part.assignment.values())) < 2,
                "min_messages": min((run.message_count for run in runs), default=None),
            }
        )
    # None exactly when no colocated run quiesced
    colocated_min = min(
        (row["min_messages"] for row in rows
         if row["colocated"] and row["min_messages"] is not None),
        default=None,
    )
    if colocated_min is None:
        verdict = VERDICT_INCONCLUSIVE
    elif colocated_min == 0:
        verdict = VERDICT_FREE
    else:
        verdict = VERDICT_REQUIRED
    return CoordinationReport(tuple(rows), colocated_min, verdict)


def diff_databases(da: Database, db: Database) -> dict:
    """Symmetric difference by relation; {} iff equal."""
    rels = set(da.relations) | set(db.relations)
    out: dict = {}
    for rel in sorted(rels):
        fa = da.relation(rel)
        fb = db.relation(rel)
        only_a = sorted(str(f) for f in fa - fb)
        only_b = sorted(str(f) for f in fb - fa)
        if only_a or only_b:
            out[rel] = {"only_in_first": only_a, "only_in_second": only_b}
    return out
