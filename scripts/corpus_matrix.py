#!/usr/bin/env python3
"""Run the full corpus matrix and print one line per (entry, check):
static verdict, confluence/coordination results, and timings. This is the
desk-scale experiment the package exists for: the static column and the
dynamic columns should never disagree in the dangerous direction
(monotone + divergent)."""

from __future__ import annotations

import sys
import time

from calmlab import corpus, monocheck
from calmlab.config import load_config
from calmlab.verdicts import check_confluence, detect_coordination


def main() -> int:
    dangerous = []
    print(f"{'entry':20s} {'static':26s} {'dynamic check':40s} {'time':>6s}")
    print("-" * 96)
    for entry in corpus.ENTRIES:
        vp = corpus.load_program(entry.name)
        rep = monocheck.analyze_program(vp)
        reasons = sorted({p.kind for p in rep.coordination_points})
        static = "monotone" if rep.program_monotone else "non-monotone{%s}" % ",".join(reasons)
        first = True
        for config in sorted(entry.expected_dynamic):
            cfg = load_config(corpus.config_path(entry.name, config))
            t0 = time.monotonic()
            # the config's knobs, passed as `calmlab check` and `calmlab
            # coordination` pass them without flags
            if config == "coordination.json":
                machines = max(cfg.machines, 2)
                cfg.check_network(machines)
                r = detect_coordination(
                    cfg.program, cfg.fixture, machines,
                    schedules_per_partitioning=cfg.schedules_per_partitioning,
                    partition_cap=cfg.partition_cap,
                    base_seed=cfg.seed,
                    step_budget=cfg.step_budget,
                )
                dynamic = f"{r.verdict} (colocated_min={r.colocated_min_messages})"
            else:
                v = check_confluence(
                    cfg.program, cfg.fixture, cfg.partitioning(),
                    mode=cfg.mode, budget=cfg.enum_bound, seeds=cfg.seeds,
                    base_seed=cfg.seed, step_budget=cfg.step_budget,
                )
                dynamic = f"{v.outcome} ({v.mode}, {v.distinct_outcomes} outcome(s))"
                if rep.program_monotone and v.outcome == "divergent":
                    dangerous.append(entry.name)
            dt = time.monotonic() - t0
            name_col = entry.name if first else ""
            static_col = static if first else ""
            print(f"{name_col:20s} {static_col:26s} {dynamic:40s} {dt:5.1f}s")
            first = False
    print("-" * 96)
    if dangerous:
        print(f"DANGEROUS DISAGREEMENT: {dangerous}")
        return 1
    print("no monotone-but-divergent disagreements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
