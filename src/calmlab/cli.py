"""Command-line front door.

Verbs: analyze, run, check, coordination, corpus list. Exit codes follow the
verdicts: for analyze 0 means monotone, 1 non-monotone; for check 0
confluent, 1 divergent, 2 inconclusive; for coordination 0 free, 1
required, 2 inconclusive; for run 0 quiesced, 2 not. Under every verb a user
error (a ``CalmlabError`` or an unreadable or unwritable file) prints one
``error:`` line and exits 2, so exit 1 is always a verdict. A verb writes
its report once it has decided its exit code, and a reader that closes
stdout early changes neither. All reports carry a schema_version field and
serialize with stable key order.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from . import corpus as corpus_mod
from . import monocheck
from .calmlang import parse_program, validate_program
from .config import MODES, ConfigError, load_config
from .errors import CalmlabError, read_text
from .netsim import Schedule, init_network, run_schedule
from .relspace import canonical_json, db_to_obj
from .verdicts import (
    OUTCOME_CONFLUENT,
    OUTCOME_DIVERGENT,
    VERDICT_FREE,
    VERDICT_REQUIRED,
    check_confluence,
    detect_coordination,
)

USER_ERRORS = (CalmlabError, OSError)
# check's and coordination's exit codes; any other verdict (inconclusive) exits 2
VERDICT_EXIT = {OUTCOME_CONFLUENT: 0, VERDICT_FREE: 0, OUTCOME_DIVERGENT: 1, VERDICT_REQUIRED: 1}


def _print_json(obj) -> None:
    print(canonical_json(obj))


def machine_count(text: str) -> int:
    """``--machines``: coordination compares partitionings, so at least 2."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def _budget(flag: int | None, configured: int) -> int:
    """The --budget flag when given, else the config's value."""
    if flag is None:
        return configured
    if flag < 1:
        raise ConfigError(f"--budget must be at least 1, got {flag}")
    return flag


def cmd_analyze(args) -> int:
    vp = validate_program(parse_program(read_text(args.program, "program"), args.program))
    report = monocheck.analyze_program(vp)
    obj = report.to_obj(vp)
    if args.json:
        _print_json(obj)
    else:
        print(f"{args.program}: {obj['verdict']}")
        for r in obj["rules"]:
            flags = ""
            if r["reads_id"]:
                flags += " [reads id]"
            if r["reads_all"]:
                flags += " [reads all]"
            reasons = ",".join(r["reasons"])
            cls = r["class"] if not reasons else f"{r['class']}{{{reasons}}}"
            print(f"  rule {r['index']} (line {r['line']}): {cls}{flags}")
        if obj["strata"] is not None:
            height = max(obj["strata"].values()) + 1
            print(f"  strata: {height}")
        else:
            print(
                "  unstratifiable: cycle "
                + " -> ".join(obj["unstratifiable_cycle"] or [])
            )
        for p in obj["coordination_points"]:
            print(
                f"  coordination point at {args.program}:{p['line']}:{p['col']}: "
                f"{p['kind']} ({p['detail']})"
            )
    return 0 if obj["verdict"] == "monotone" else 1


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    network = init_network(cfg.program, cfg.fixture, cfg.partitioning())
    outcome = run_schedule(
        network,
        Schedule(seed=seed, duplicate_every=cfg.duplicate_every),
        step_budget=_budget(args.budget, cfg.step_budget),
    )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for src, dst, fact, step_idx in outcome.trace:
                fh.write(
                    canonical_json(
                        {"from": src, "to": dst, "fact": fact, "step": step_idx}
                    )
                    + "\n"
                )
    if args.json:
        _print_json(outcome.to_obj())
    else:
        status = "quiesced" if outcome.quiesced else "DID NOT QUIESCE (budget exhausted)"
        print(f"{status} after {outcome.steps_used} steps, "
              f"{outcome.message_count} inter-machine messages")
        for fact_row in db_to_obj(outcome.union_output).items():
            rel, rows = fact_row
            for row in rows:
                print(f"  {rel}({', '.join(row)})")
    return 0 if outcome.quiesced else 2


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    mode = args.mode or cfg.mode
    if mode == "sampled" and args.budget is not None:
        raise ConfigError("--budget bounds exhaustive mode only; sampled mode runs 'seeds' runs")
    verdict = check_confluence(
        cfg.program,
        cfg.fixture,
        cfg.partitioning(),
        mode=mode,
        budget=_budget(args.budget, cfg.enum_bound),
        seeds=cfg.seeds,
        base_seed=args.seed if args.seed is not None else cfg.seed,
        step_budget=cfg.step_budget,
    )
    if args.json:
        _print_json(verdict.to_obj())
    else:
        print(f"{verdict.outcome} ({verdict.mode} mode, "
              f"{verdict.distinct_outcomes} distinct outcome(s), "
              f"{verdict.runs_examined} runs/states examined)")
        for i, (sched, db) in enumerate(verdict.witnesses):
            print(f"  witness {i + 1}: output {canonical_json(db_to_obj(db))}")
    return VERDICT_EXIT.get(verdict.outcome, 2)


def cmd_coordination(args) -> int:
    cfg = load_config(args.config)
    machines = args.machines or max(cfg.machines, 2)
    cfg.check_network(machines)
    report = detect_coordination(
        cfg.program,
        cfg.fixture,
        machines,
        schedules_per_partitioning=cfg.schedules_per_partitioning,
        partition_cap=cfg.partition_cap,
        base_seed=args.seed if args.seed is not None else cfg.seed,
        step_budget=cfg.step_budget,
    )
    if args.json:
        _print_json(report.to_obj())
    else:
        print(f"{report.verdict} "
              f"(colocated minimum messages: {report.colocated_min_messages})")
    return VERDICT_EXIT.get(report.verdict, 2)


def cmd_corpus(args) -> int:
    if args.json:
        _print_json(
            {
                "schema_version": 1,
                "entries": [
                    {
                        "name": e.name,
                        "title": e.title,
                        "static": e.expected_static,
                        "fixtures": list(e.fixtures),
                        "configs": sorted(e.expected_dynamic),
                        "path": str(corpus_mod.entry_path(e.name)),
                    }
                    for e in corpus_mod.ENTRIES
                ],
            }
        )
        return 0
    for e in corpus_mod.ENTRIES:
        print(f"{e.name:20s} {e.expected_static:13s} {e.title}")
        print(f"{'':20s} at {corpus_mod.entry_path(e.name)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="calmlab",
        description="classify rule programs as monotone or not, and test "
        "confluence and coordination-freeness on a simulated network",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="static monotonicity analysis of a program")
    p.add_argument("program")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("run", help="run one seeded schedule from a config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--trace-out", default=None, help="write the message trace as JSON lines")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="confluence verdict across schedules")
    p.add_argument("config")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("coordination", help="coordination verdict across partitionings")
    p.add_argument("config")
    p.add_argument("--machines", type=machine_count, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_coordination)

    p = sub.add_parser("corpus", help="bundled example programs")
    p.add_argument("corpus_cmd", choices=("list",))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_corpus)

    args = parser.parse_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = args.fn(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, which changes no verdict; what is left
        # unwritten goes to os.devnull, so that exit does not fail on it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
