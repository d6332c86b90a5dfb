#!/usr/bin/env python3
"""Regenerate the golden files under tests/goldens/ from the current
implementation. Run this once after an intentional report-format or corpus
change, review the diff, and commit the result; the golden tests then pin
the formats and witness contents byte for byte. ``main(out_dir)`` writes
the same files anywhere else, which is how the tests check that the
committed goldens still match the implementation."""

from __future__ import annotations

import sys
from pathlib import Path

from calmlab import corpus, monocheck
from calmlab.config import load_config
from calmlab.netsim import Schedule, init_network, run_schedule
from calmlab.relspace import canonical_json
from calmlab.verdicts import check_confluence, detect_coordination, diff_databases

GOLDENS = Path(__file__).resolve().parent.parent / "tests" / "goldens"


def main(out_dir: Path = GOLDENS) -> int:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def write(name: str, obj) -> None:
        path = out_dir / name
        path.write_text(canonical_json(obj) + "\n", encoding="utf-8")
        print(f"wrote {path}")

    # static analysis report format, pinned on the bare collector
    vp = corpus.load_program("gc")
    write("analyze_gc.json", monocheck.analyze_program(vp).to_obj(vp))

    # one full seeded run outcome (format + replay regression)
    cfg = load_config(corpus.config_path("deadlock", "run.json"))
    net = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    outcome = run_schedule(net, Schedule(seed=7))
    write("run_deadlock_seed7.json", outcome.to_obj())

    # divergence witness diff for the bare collector
    cfg = load_config(corpus.config_path("gc", "check.json"))
    verdict = check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
    (s1, out1), (s2, out2) = verdict.witnesses
    write(
        "gc_witness_diff.json",
        {
            "witness_outputs": [
                sorted(str(f) for f in out1.facts()),
                sorted(str(f) for f in out2.facts()),
            ],
            "diff": diff_databases(out1, out2),
        },
    )
    write("check_gc.json", verdict.to_obj())

    # distinct quiescent cart outcomes
    from calmlab.netsim import enumerate_schedules

    cfg = load_config(corpus.config_path("cart_naive", "check.json"))
    res = enumerate_schedules(init_network(cfg.program, cfg.fixture, cfg.partitioning()))
    write(
        "cart_naive_outcomes.json",
        sorted(sorted(str(f) for f in o.union_output.facts()) for o in res.outcomes),
    )

    # coordination report format, pinned on the coordinated collector
    cfg = load_config(corpus.config_path("gc_coordinated", "coordination.json"))
    report = detect_coordination(
        cfg.program,
        cfg.fixture,
        max(cfg.machines, 2),
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
        base_seed=cfg.seed,
        step_budget=cfg.step_budget,
    )
    write("coordination_gc_coordinated.json", report.to_obj())
    return 0


if __name__ == "__main__":
    sys.exit(main())
