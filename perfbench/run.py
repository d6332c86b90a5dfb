"""calmlab benchmark: seeded verdict workloads, end to end and per layer.

    python3 perfbench/run.py --workload closure|ring|barrier --seed N \
        --seconds T --trace 0|1

Run from the root of a checkout. Every measurement happens in a fresh
single-threaded child process (perfbench/child.py) with PYTHONHASHSEED
pinned to 0, so that counts such as ``relspace.db_eq_calls`` repeat exactly.

``--trace 0`` runs one measuring child, then ``SETUP_RUNS - 1`` children
that only set up; ``setup_s`` is the median of the ``SETUP_RUNS`` set-up
times. It prints the end-to-end metrics named in BENCHMARK.json.

``--trace 1`` runs one untraced child and two traced children on the same
seed. It fails unless both traced children give identical per-op counts,
and prints the per-layer metrics of the first traced child, plus
``trace_overhead_frac``, the traced over the untraced ``op_ms_p50``, minus 1.

Outputs land in perfbench/out/<workload>/<child>/: result.json,
instances.log (one line per instance), spans.jsonl for traced children and
failed_example/ when an answer differed from the oracle. The last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
CHILD_GRACE_S = 60


def child(workload: str, seed: int, seconds: int, mode: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=seconds + CHILD_GRACE_S,
                   stdout=sys.stderr)
    return json.loads((out / "result.json").read_text())


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def summary_line(name: str, r: dict) -> str:
    return (f"{name}: {r['attempted']} ops, failed_frac {r['failed'] / r['attempted']:.3f}, "
            f"p50 {r['op_ms_p50']:.2f} ms, p90 {r['op_ms_p90']:.2f} ms, "
            f"{r['ops_per_s']:.2f} ops/s, peak rss {r['peak_rss_mb']:.1f} MB, "
            f"setup {r['setup_s']:.3f} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "calmlab" / "__init__.py").is_file():
        print(f"error: no calmlab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    out = ROOT / "perfbench" / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)

    def run(name, mode):
        r = child(args.workload, args.seed, args.seconds, mode, out / name)
        if mode != "setup":
            print(summary_line(name, r))
        return r

    try:
        return report(args, out, run)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: benchmark child failed: {e}", file=sys.stderr)
        return 1


def report(args, out: Path, run) -> int:
    measured = run("measure", "measure")
    results = [measured]
    if args.trace:
        traced = [run("trace1", "trace"), run("trace2", "trace")]
        results += traced
        a, b = (t["op_counts"] for t in traced)
        common = min(len(a), len(b))
        deterministic = a[:common] == b[:common]
        if not deterministic:
            op = next(i for i in range(common) if a[i] != b[i])
            print(f"counts differ between traced runs at op {op}: {a[op]} vs {b[op]}",
                  file=sys.stderr)
        values = dict(traced[0]["per_layer"])
        values["trace_overhead_frac"] = traced[0]["op_ms_p50"] / measured["op_ms_p50"] - 1
        units = metric_specs("per_layer")
    else:
        deterministic = True
        setups = [measured["setup_s"]]
        setups += [run(f"setup{i}", "setup")["setup_s"] for i in range(1, SETUP_RUNS)]
        values = dict(measured, setup_s=statistics.median(setups))
        units = metric_specs("end_to_end")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
