#!/usr/bin/env python3
"""Time the schedule enumerator, the coordination detector and one-machine
runs on fixed scaling families, and write the numbers as JSON.

Workloads:

- ``deadlock_ring_NxM``: the corpus ``deadlock`` program on the ring of
  edges t_i -> t_(i+1 mod N), dealt round-robin to M machines, each owner
  holding the full ``nbr`` mesh of its machine. The walk is exhaustive;
  ``6x4`` runs under a fixed state bound, and completes within it.
- ``flood_ring_NxM``: the same walk of ``deadlock`` changed to forward
  every edge it knows (``edge`` for ``local_edge`` in the ``copy`` rule),
  so a machine sends on receipt. Its deliveries commute, so the walk is one
  path; the walk before that reduction took 50,652 states at ``3x3`` and
  did not finish ``6x3``.
- ``gc``: the corpus ``gc`` check walked exhaustively, with no early stop.
- ``gc_coordinated_sampled``: the corpus ``gc_coordinated`` check in
  sampled mode over its config's 24 seeds: many small non-monotone steps
  behind a barrier, all seeds stepping through the one memo of their
  network.
- ``gc_coordinated_exhaustive``: the same check walked exhaustively under a
  fixed state bound, which it completes within.
- ``gc_coordinated_coordination``: ``detect_coordination`` on the corpus
  ``gc_coordinated`` coordination config.
- ``tc_chain_N``: transitive closure of an N-edge chain, one seeded run on
  a one-machine network; the best of 5 runs, each on a fresh network of a
  freshly loaded program, so every run compiles the rules' kernels too.
- ``load_chain_400``: ``load_config`` on a config whose fixture is the
  chain of ``tc_chain_400``, written to a temporary directory; the best of
  7 loads, as it takes milliseconds.
- ``import_cli``: a fresh interpreter importing ``calmlab.cli``, which
  imports every verb, next to one that runs ``pass`` (``bare_seconds``);
  the median of 11 runs of each, alternated, with
  ``PYTHONDONTWRITEBYTECODE=1``, so that no run writes ``__pycache__``
  into the checkout (without one, each run compiles calmlab's sources).
  Every CLI verb pays this before its own work.

A walk row gives its time, the states it entered, the batches it delivered
(``deliveries``), whether it completed, its distinct outcomes, and two
counts of its network's ``MachineTable``: the distinct machine states
interned (``machine_states``) and the steps memoised (``memo_entries``,
each one execution of ``step``).

The report's top-level ``src_lines`` counts the lines (as ``wc -l`` does)
of ``src/calmlab/**/*.py`` outside ``corpus/``: the size of the code that
these numbers time.

Each workload but ``tc_chain_N``, ``load_chain_400`` and ``import_cli``
runs once, in this process, and the whole set takes well under two
minutes on a 2-vCPU VM.
Usage, from the root of a checkout::

    PYTHONPATH=src python scripts/bench.py BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calmlab import corpus
from calmlab.calmlang import parse_program, validate_program
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

SRC = Path(__file__).resolve().parents[1] / "src"
RING_6X4_BOUND = 30_000
GC_COORDINATED_BOUND = 10_000

FLOOD = corpus.read_text("deadlock", "program.calm").replace(
    "copy(P, X, Y) :- local_edge(X, Y), id(M), nbr(M, P).",
    "copy(P, X, Y) :- edge(X, Y), id(M), nbr(M, P).",
)


def ring_network(n: int, m: int, vp=None):
    """``vp``, by default the corpus ``deadlock``, on the ring layout."""
    edges = [f"local_edge(t{i + 1}, t{(i + 1) % n + 1})" for i in range(n)]
    machines = machine_addresses(m)
    mapping = {a.name: [] for a in machines}
    for i, line in enumerate(edges):
        mapping[machines[i % m].name].append(line)
    for a in machines:
        mapping[a.name] += [f"nbr({a}, {b})" for b in machines if b != a]
    fixture = Database.from_facts(parse_facts("\n".join(sum(mapping.values(), []))))
    part = partitioning_from_map(fixture, machines, mapping)
    return init_network(vp or corpus.load_program("deadlock"), fixture, part)


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


def tc_chain(n: int, repeats: int = 5) -> dict:
    chain = Database.from_facts(parse_facts(chain_facts(n)))
    machines = machine_addresses(1)
    best = float("inf")
    for _ in range(repeats):
        vp = corpus.load_program("transitive_closure")
        net = init_network(vp, chain, colocated(chain, machines, machines[0]))
        start = time.perf_counter()
        run = run_schedule(net, Schedule(seed=0))
        best = min(best, time.perf_counter() - start)
    return {"seconds": round(best, 4), "facts": run.union_output.size(), "repeats": repeats}


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


def import_cli(runs: int = 11) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    times: dict = {"pass": [], "import calmlab.cli": []}
    for _ in range(runs):
        for code, took in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            took.append(time.perf_counter() - start)
    return {"seconds": round(statistics.median(times["import calmlab.cli"]), 4),
            "bare_seconds": round(statistics.median(times["pass"]), 4), "runs": runs}


def src_lines() -> int:
    package = SRC / "calmlab"
    return sum(path.read_bytes().count(b"\n") for path in package.rglob("*.py")
               if path.relative_to(package).parts[0] != "corpus")


def check_network(name: str):
    cfg = load_config(corpus.config_path(name, "check.json"))
    return init_network(cfg.program, cfg.fixture, cfg.partitioning())


def gc_coordinated_sampled() -> dict:
    cfg = load_config(corpus.config_path("gc_coordinated", "check.json"))
    start = time.perf_counter()
    v = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="sampled",
                         seeds=cfg.seeds)
    return {"seconds": round(time.perf_counter() - start, 3), "outcome": v.outcome,
            "runs": v.runs_examined}


def gc_coordinated_coordination() -> dict:
    cfg = load_config(corpus.config_path("gc_coordinated", "coordination.json"))
    start = time.perf_counter()
    r = detect_coordination(
        cfg.program, cfg.fixture, max(cfg.machines, 2),
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
        base_seed=cfg.seed,
        step_budget=cfg.step_budget,
    )
    return {"seconds": round(time.perf_counter() - start, 3), "verdict": r.verdict,
            "colocated_min_messages": r.colocated_min_messages,
            "partitionings": len(r.per_partitioning)}


WORKLOADS = {
    "deadlock_ring_5x3": lambda: walk(ring_network(5, 3)),
    "deadlock_ring_6x3": lambda: walk(ring_network(6, 3)),
    "deadlock_ring_6x4": lambda: walk(ring_network(6, 4), bound=RING_6X4_BOUND),
    "flood_ring_3x3": lambda: walk(ring_network(3, 3, validate_program(parse_program(FLOOD)))),
    "flood_ring_6x3": lambda: walk(ring_network(6, 3, validate_program(parse_program(FLOOD)))),
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
    "import_cli": import_cli,
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
        "src_lines": src_lines(),
        "workloads": results,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
