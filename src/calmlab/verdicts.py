"""Dynamic verdict engines: confluence across schedules, coordination across
partitionings, output diffing with witness extraction.

All verdicts are instance-level. Dynamic evidence never upgrades to a
program-level claim: a single divergence witness refutes confluence on the
instance, but agreeing runs only establish "confluent on this instance under
the explored schedules" (exhaustive mode explores all of them). The static,
conservative program-level claim is monocheck's job.

Coordination is operationalized as the minimum inter-machine message count
over explored schedules; a program needs coordination on an instance when
even the partitionings that co-locate all data at a single machine cannot
quiesce without messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calmlang import ValidatedProgram
from .netsim import (
    DEFAULT_ENUM_BOUND,
    DEFAULT_STEP_BUDGET,
    Partitioning,
    Schedule,
    colocated,
    enumerate_partitionings,
    enumerate_schedules,
    init_network,
    machine_addresses,
    run_schedule,
)
from .relspace import Database, db_to_obj

OUTCOME_CONFLUENT = "confluent-on-instance"
OUTCOME_DIVERGENT = "divergent"
OUTCOME_INCONCLUSIVE = "inconclusive"

VERDICT_FREE = "coordination-free-on-instance"
VERDICT_REQUIRED = "coordination-required-on-instance"
VERDICT_INCONCLUSIVE = "inconclusive"

DEFAULT_SAMPLED_SEEDS = 64

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ConfluenceVerdict:
    mode: str  # exhaustive | sampled
    outcome: str  # confluent-on-instance | divergent | inconclusive
    distinct_outcomes: int
    witnesses: tuple  # up to 2 (Schedule, union Database) pairs when divergent
    runs_examined: int

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


@dataclass(frozen=True)
class CoordinationReport:
    per_partitioning: tuple  # ({"partitioning": map, "colocated": bool, "min_messages": n|None}, ...)
    colocated_min_messages: int | None
    verdict: str

    def to_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "verdict": self.verdict,
            "colocated_min_messages": self.colocated_min_messages,
            "per_partitioning": list(self.per_partitioning),
        }


def check_confluence(
    vp: ValidatedProgram,
    input_db: Database,
    part: Partitioning,
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
        for i in range(seeds):
            run = run_schedule(initial, Schedule(seed=base_seed + i), step_budget=step_budget)
            if not run.quiesced:
                continue
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

    Always explores the ``machines`` colocated variants; the verdict is
    coordination-free exactly when some colocated run quiesces with zero
    inter-machine messages.
    """
    if machines < 2:
        raise ValueError("coordination detection needs at least 2 machines")
    addrs = machine_addresses(machines)
    colocated_parts = [colocated(input_db, addrs, a) for a in addrs]
    sampled = enumerate_partitionings(input_db, machines, cap=partition_cap, seed=base_seed)
    explored: list[Partitioning] = colocated_parts + [
        p for p in sampled if p.assignment not in [c.assignment for c in colocated_parts]
    ]

    rows = []
    colocated_min: int | None = None
    for idx, part in enumerate(explored):
        is_colocated = idx < len(colocated_parts)
        initial = init_network(vp, input_db, part)
        best: int | None = None
        for i in range(schedules_per_partitioning):
            run = run_schedule(initial, Schedule(seed=base_seed + i), step_budget=step_budget)
            if not run.quiesced:
                continue
            if best is None or run.message_count < best:
                best = run.message_count
        rows.append(
            {
                "partitioning": part.describe(),
                "colocated": is_colocated,
                "min_messages": best,
            }
        )
        if is_colocated and best is not None and (colocated_min is None or best < colocated_min):
            colocated_min = best

    # None exactly when none of the (at least two) colocated runs quiesced
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
