"""One measuring process of the benchmark (started by run.py).

    python3 perfbench/child.py --workload W --seed N --seconds T \
        --mode measure|setup|trace --out DIR

``setup`` mode stops after the warm-up op and reports ``setup_s``: the time
from process start through importing calmlab, loading the warm-up
instance's config, building its network and running that op. ``measure``
then runs ops in a closed loop with one caller until ``T`` seconds have
passed. One op is what a CLI verb does in process: ``config.load_config``
on a fresh instance's files, then ``netsim.run_schedule`` (closure) or
``verdicts.check_confluence`` (ring, barrier). ``trace`` does the same with
the tracer installed, and also runs at least ``COUNT_OPS`` ops so that the
per-op counts cover the same instances in every run of a seed.

Every answer is checked against the oracle in workloads.py; the checking
and the instance writing sit outside the timed region. Results go to
``DIR/result.json``, one line per instance to ``DIR/instances.log``, and in
trace mode the spans to ``DIR/spans.jsonl``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, InstanceStream  # noqa: E402

COUNT_OPS = 40
# peak RSS is read after this many ops, a fixed amount of work, so that a
# faster program is not charged for memory that grows with the op count
RSS_OPS = 100


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode != "trace":
        result = measure(args, None)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result = measure(args, tracer)
        finally:
            tracer.restore()
        tracer.dump(args.out / "spans.jsonl")
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


def measure(args, tracer) -> dict:
    wl = WORKLOADS[args.workload]
    from calmlab import config, netsim, verdicts
    from calmlab.netsim import Schedule

    def op(path):
        cfg = config.load_config(path)
        if wl.verb == "run":
            net = netsim.init_network(cfg.program, cfg.fixture, cfg.partitioning())
            sched = Schedule(seed=cfg.seed, duplicate_every=cfg.duplicate_every)
            return cfg, None, netsim.run_schedule(net, sched, step_budget=cfg.step_budget)
        verdict = verdicts.check_confluence(
            cfg.program, cfg.fixture, cfg.partitioning(), mode=wl.verb,
            budget=cfg.enum_bound, seeds=cfg.seeds, base_seed=cfg.seed,
            step_budget=cfg.step_budget,
        )
        return cfg, verdict, None

    def check(inst, cfg, verdict, run):
        """(why the op's answer is wrong or None, the run whose output was
        compared). A verdict's output comes from one extra untimed run."""
        if verdict is not None:
            if verdict.outcome != verdicts.OUTCOME_CONFLUENT:
                return f"verdict {verdict.outcome}, expected {verdicts.OUTCOME_CONFLUENT}", None
            net = netsim.init_network(cfg.program, cfg.fixture, cfg.partitioning())
            run = netsim.run_schedule(net, Schedule(seed=cfg.seed), step_budget=cfg.step_budget)
        if not run.quiesced:
            return "run did not quiesce within its step budget", run
        got = frozenset(tuple(str(a) for a in f.args) for f in run.union_output.relation(wl.output))
        if got != inst.expected:
            return (f"{wl.output}: missing {sorted(inst.expected - got)}, "
                    f"unexpected {sorted(got - inst.expected)}"), run
        return None, run

    out = args.out
    stream = InstanceStream(wl, args.seed, out / "instance", ROOT)

    if tracer:
        setup_span = tracer.begin("setup")
    op(stream.write(stream.next(0)))
    if tracer:
        tracer.end(setup_span)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return result

    latencies, log, failures, rss_kb = [], [], 0, None
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < args.seconds or (tracer and i < COUNT_OPS):
        inst = stream.next(i)
        path = stream.write(inst)
        if tracer:
            tracer.op = i
            span = tracer.begin("op")
        error = verdict = run = None
        start = time.perf_counter()
        try:
            cfg, verdict, run = op(path)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc()
        took = time.perf_counter() - start
        if tracer:
            tracer.end(span)
            tracer.enabled = False
        if error is None:
            error, run = check(inst, cfg, verdict, run)
        if tracer:
            tracer.enabled = True
        if error is not None:
            failures += 1
            if failures == 1:
                shutil.copytree(stream.dir, out / "failed_example", dirs_exist_ok=True)
                (out / "failed_example" / "error.txt").write_text(error)
        latencies.append(took)
        states = verdict.runs_examined if verdict and wl.verb == "exhaustive" else 0
        log.append({"op": i, "size": inst.size, "machines": inst.machines,
                    "states_explored": states, "steps": run.steps_used if run else None,
                    "ms": round(took * 1e3, 3), "ok": error is None})
        i += 1
        if i == RSS_OPS:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # latency figures use whole rounds of the size-class cycle, so every
    # run of every seed summarizes the same mix of instance sizes
    whole = len(latencies) - len(latencies) % wl.classes or len(latencies)
    timed = latencies[:whole]
    result.update({
        "attempted": len(latencies),
        "failed": failures,
        "op_ms_p50": statistics.median(timed) * 1e3,
        "op_ms_p90": statistics.quantiles(timed, n=10)[-1] * 1e3,
        "ops_per_s": len(timed) / sum(timed),
        "peak_rss_mb": rss_kb / 1024,
    })
    if tracer:
        from tracer import layer_metrics, per_op

        rows = per_op(tracer, len(latencies))
        for entry, row in zip(log, rows):
            entry["step_calls"] = row["counts"]["transducer.step_calls"]
        result["per_layer"] = layer_metrics(tracer, rows, COUNT_OPS)
        result["op_counts"] = [row["counts"] for row in rows]
    with open(out / "instances.log", "w", encoding="utf-8") as fh:
        for entry in log:
            fh.write(json.dumps(entry) + "\n")
    return result


if __name__ == "__main__":
    sys.exit(main())
