#!/usr/bin/env python3
"""Time the schedule enumerator, the coordination detector and one-machine
runs on fixed scaling families, and write the numbers as JSON.

Workloads:

- ``deadlock_ring_NxM``: the corpus ``deadlock`` program on the ring of
  edges t_i -> t_(i+1 mod N), dealt round-robin to M machines, each owner
  holding the full ``nbr`` mesh of its machine. The walk is exhaustive,
  except ``6x4``, which stops at a fixed state bound.
- ``gc``: the corpus ``gc`` check walked exhaustively, with no early stop.
- ``gc_coordinated_sampled``: the corpus ``gc_coordinated`` check as its
  config gives it, sampled over 24 seeds: many small non-monotone steps
  behind a barrier, all seeds stepping through the one memo of their
  network.
- ``gc_coordinated_exhaustive``: the same check walked exhaustively under a
  fixed state bound, which it does not finish within.
- ``gc_coordinated_coordination``: ``detect_coordination`` on the corpus
  ``gc_coordinated`` coordination config.
- ``tc_chain_N``: transitive closure of an N-edge chain, one seeded run on
  a one-machine network.
- ``load_chain_400``: ``load_config`` on a config whose fixture is the
  chain of ``tc_chain_400``, written to a temporary directory; the best of
  7 loads, as it takes milliseconds.

A walk row gives its time, the states it entered, the batches it delivered
(``deliveries``), whether it completed, its distinct outcomes, and two
counts of its network's ``MachineTable``: the distinct machine states
interned (``machine_states``) and the steps memoised (``memo_entries``,
each one execution of ``step``).

Each workload but ``load_chain_400`` runs once, in this process, and the
whole set takes well under two minutes on a 2-vCPU VM. Usage, from the
root of a checkout::

    PYTHONPATH=src python scripts/bench.py BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from calmlab import corpus
from calmlab.config import load_config
from calmlab.netsim import (
    Schedule,
    colocated,
    enumerate_schedules,
    init_network,
    machine_addresses,
    partitioning_from_map,
    run_schedule,
)
from calmlab.relspace import Database, parse_facts
from calmlab.verdicts import check_confluence, detect_coordination

RING_6X4_BOUND = 30_000
GC_COORDINATED_BOUND = 10_000


def ring_network(n: int, m: int):
    edges = [f"local_edge(t{i + 1}, t{(i + 1) % n + 1})" for i in range(n)]
    machines = machine_addresses(m)
    mapping = {a.name: [] for a in machines}
    for i, line in enumerate(edges):
        mapping[machines[i % m].name].append(line)
    for a in machines:
        mapping[a.name] += [f"nbr({a}, {b})" for b in machines if b != a]
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    return init_network(corpus.load_program("deadlock"), fixture, part)


def walk(net, bound=None) -> dict:
    start = time.perf_counter()
    res = enumerate_schedules(net) if bound is None else enumerate_schedules(net, bound=bound)
    return {
        "seconds": round(time.perf_counter() - start, 3),
        "states": res.states_explored,
        "deliveries": res.deliveries,
        "complete": res.complete,
        "outcomes": len(res.outcomes),
        "bound": bound,
        "machine_states": len(net.table.states),
        "memo_entries": len(net.table.memo),
    }


def chain_facts(n: int) -> str:
    return "\n".join(f"edge(n{i}, n{i + 1})" for i in range(n))


def tc_chain(n: int) -> dict:
    vp = corpus.load_program("transitive_closure")
    chain = Database.from_facts(parse_facts(chain_facts(n)))
    machines = machine_addresses(1)
    net = init_network(vp, chain, colocated(chain, machines, machines[0]))
    start = time.perf_counter()
    run = run_schedule(net, Schedule(seed=0))
    return {"seconds": round(time.perf_counter() - start, 3), "facts": run.union_output.size()}


def load_chain(n: int, repeats: int = 7) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "program.calm").write_text(corpus.read_text("transitive_closure", "program.calm"))
        (d / "chain.facts").write_text(chain_facts(n) + "\n")
        (d / "run.json").write_text(json.dumps({"program": "program.calm", "fixture": "chain.facts"}))
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            cfg = load_config(d / "run.json")
            best = min(best, time.perf_counter() - start)
    return {"seconds": round(best, 5), "facts": cfg.fixture.size(), "repeats": repeats}


def check_network(name: str):
    cfg = load_config(corpus.config_path(name, "check.json"))
    return init_network(cfg.program, cfg.fixture, cfg.partitioning())


def gc_coordinated_sampled() -> dict:
    cfg = load_config(corpus.config_path("gc_coordinated", "check.json"))
    start = time.perf_counter()
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode=cfg.mode, seeds=cfg.seeds)
    return {"seconds": round(time.perf_counter() - start, 3), "outcome": v.outcome,
            "runs": v.runs_examined}


def gc_coordinated_coordination() -> dict:
    cfg = load_config(corpus.config_path("gc_coordinated", "coordination.json"))
    start = time.perf_counter()
    r = detect_coordination(
        cfg.program, cfg.fixture, cfg.machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
    )
    return {"seconds": round(time.perf_counter() - start, 3), "verdict": r.verdict,
            "colocated_min_messages": r.colocated_min_messages,
            "partitionings": len(r.per_partitioning)}


WORKLOADS = {
    "deadlock_ring_5x3": lambda: walk(ring_network(5, 3)),
    "deadlock_ring_6x3": lambda: walk(ring_network(6, 3)),
    "deadlock_ring_6x4": lambda: walk(ring_network(6, 4), bound=RING_6X4_BOUND),
    "gc": lambda: walk(check_network("gc")),
    "gc_coordinated_sampled": gc_coordinated_sampled,
    "gc_coordinated_exhaustive": lambda: walk(
        check_network("gc_coordinated"), bound=GC_COORDINATED_BOUND
    ),
    "gc_coordinated_coordination": gc_coordinated_coordination,
    "tc_chain_100": lambda: tc_chain(100),
    "tc_chain_200": lambda: tc_chain(200),
    "tc_chain_400": lambda: tc_chain(400),
    "load_chain_400": lambda: load_chain(400),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="where to write the JSON report")
    args = parser.parse_args(argv)
    results = {}
    for name, run in WORKLOADS.items():
        results[name] = run()
        print(f"{name:28s} {json.dumps(results[name])}", flush=True)
    report = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
