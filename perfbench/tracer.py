"""Outside-in tracing of calmlab's layers for the benchmark's traced run.

The package is never edited. ``Tracer.install`` rebinds each traced
function where its caller looks it up (``calmlab.netsim.step``,
``calmlab.verdicts.run_schedule``, ``calmlab.config.parse_program``,
``Database.__hash__`` on the class, ...) and ``Tracer.restore`` puts every
original back.

Coarse calls become spans ``[name, start_ns, end_ns, parent, op, value]``
kept in memory. The three hottest leaf calls (``Database.__hash__`` and
``__eq__``, ``NetworkState.semantic_key``) run tens of thousands of times
per op and call no traced function, so they are folded into one record per
(name, parent span): ``[calls, total_ns]``. A span's self time is its
duration minus its child spans and the folded leaves under it.
"""

from __future__ import annotations

import json
import statistics
import time

# span and leaf name -> layer
LAYER = {
    "config.load": "config",
    "calmlang.parse": "calmlang",
    "calmlang.validate": "calmlang",
    "monocheck.stratify": "monocheck",
    "netsim.init_network": "netsim",
    "netsim.run_schedule": "netsim",
    "netsim.enumerate": "netsim",
    "netsim.state_key": "netsim",
    "transducer.step": "transducer",
    "relspace.db_hash": "relspace",
    "relspace.db_eq": "relspace",
    "verdicts.check_confluence": "verdicts",
}

# per-op counts that must repeat exactly for the same seed
COUNTS = (
    "transducer.step_calls",
    "relspace.db_hash_calls",
    "relspace.db_eq_calls",
    "netsim.state_key_calls",
    "netsim.run_schedule_calls",
    "monocheck.stratify_calls",
    "netsim.states_explored",
    "netsim.messages",
    "netsim.enumerate_step_calls",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.leaves: dict = {}  # (name, parent span) -> [calls, total_ns]
        self.stack: list = []
        self.op = -1  # -1 while setting up, then the op index
        self.enabled = True
        self._saved: list = []

    def install(self) -> None:
        from calmlab import config, monocheck, netsim, relspace, verdicts

        self._span(config, "load_config", "config.load")
        self._span(config, "parse_program", "calmlang.parse")
        self._span(config, "validate_program", "calmlang.validate")
        self._span(monocheck, "stratify", "monocheck.stratify")
        for mod in (netsim, verdicts):
            self._span(mod, "init_network", "netsim.init_network")
            self._span(mod, "run_schedule", "netsim.run_schedule",
                       value=lambda r: r.message_count)
        self._span(verdicts, "enumerate_schedules", "netsim.enumerate",
                   value=lambda r: r.states_explored)
        self._span(verdicts, "check_confluence", "verdicts.check_confluence")
        self._span(netsim, "step", "transducer.step")
        self._leaf(relspace.Database, "__hash__", "relspace.db_hash")
        self._leaf(relspace.Database, "__eq__", "relspace.db_eq")
        self._leaf(netsim.NetworkState, "semantic_key", "netsim.state_key")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int, value=None) -> None:
        rec = self.spans[idx]
        rec[2] = time.perf_counter_ns()
        rec[5] = value
        self.stack.pop()

    def _span(self, owner, attr, name, value=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.end(idx, value(result) if value and result is not None else None)

        self._rebind(owner, attr, wrapper)

    def _leaf(self, owner, attr, name) -> None:
        fn = owner.__dict__[attr]
        leaves, stack, clock = self.leaves, self.stack, time.perf_counter_ns

        def wrapper(*args):
            if not self.enabled:
                return fn(*args)
            start = clock()
            result = fn(*args)
            took = clock() - start
            key = (name, stack[-1] if stack else -1)
            acc = leaves.get(key)
            if acc is None:
                leaves[key] = [1, took]
            else:
                acc[0] += 1
                acc[1] += took
            return result

        self._rebind(owner, attr, wrapper)

    def dump(self, path) -> None:
        """Write every span and folded leaf as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, value) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "value": value}) + "\n")
            for (name, parent), (calls, ns) in sorted(self.leaves.items(), key=lambda kv: kv[0][1]):
                fh.write(json.dumps({"leaf": name, "parent": parent, "op": self.spans[parent][4]
                                     if parent >= 0 else -1, "calls": calls, "total_ns": ns}) + "\n")


_CALLS = {
    "transducer.step": "transducer.step_calls",
    "relspace.db_hash": "relspace.db_hash_calls",
    "relspace.db_eq": "relspace.db_eq_calls",
    "netsim.state_key": "netsim.state_key_calls",
    "netsim.run_schedule": "netsim.run_schedule_calls",
    "monocheck.stratify": "monocheck.stratify_calls",
}


def per_op(tracer: Tracer, ops: int) -> list:
    """Counts and times of each op 0..ops-1, derived from the spans."""
    rows = [{"counts": dict.fromkeys(COUNTS, 0), "self_ns": {}, "incl_ns": {}, "op_ns": 0}
            for _ in range(ops)]
    spans = tracer.spans
    child_ns = [0] * len(spans)
    in_enum = [False] * len(spans)
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            in_enum[i] = in_enum[parent] or spans[parent][0] == "netsim.enumerate"
    for (name, parent), (calls, ns) in tracer.leaves.items():
        if parent < 0:
            continue
        child_ns[parent] += ns
        op = spans[parent][4]
        if 0 <= op < ops:
            row = rows[op]
            row["counts"][_CALLS[name]] += calls
            row["self_ns"][name] = row["self_ns"].get(name, 0) + ns
            row["incl_ns"][name] = row["incl_ns"].get(name, 0) + ns
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        if not 0 <= op < ops:
            continue
        row = rows[op]
        if name == "op":
            row["op_ns"] = end - start
            continue
        row["self_ns"][name] = row["self_ns"].get(name, 0) + end - start - child_ns[i]
        row["incl_ns"][name] = row["incl_ns"].get(name, 0) + end - start
        counts = row["counts"]
        if name in _CALLS:
            counts[_CALLS[name]] += 1
        if name == "transducer.step" and in_enum[i]:
            counts["netsim.enumerate_step_calls"] += 1
        if name == "netsim.run_schedule" and value is not None:
            counts["netsim.messages"] += value
        if name == "netsim.enumerate" and value is not None:
            counts["netsim.states_explored"] += value
    return rows


def layer_metrics(tracer: Tracer, rows: list, count_ops: int) -> dict:
    """Per-layer metrics: counts are means over the first ``count_ops`` ops
    (the same instances in every run of a seed), times are means over all."""
    n = len(rows)
    head = rows[:count_ops]

    def count(key):
        return sum(r["counts"][key] for r in head) / len(head)

    def ms(kind, name):
        return sum(r[kind].get(name, 0) for r in rows) / n / 1e6

    def layer_self_ms(layer):
        return sum(v for r in rows for k, v in r["self_ns"].items() if LAYER[k] == layer) / n / 1e6

    steps = [end - start for name, start, end, _, op, _ in tracer.spans
             if name == "transducer.step" and op >= 0]
    states = sum(r["counts"]["netsim.states_explored"] for r in head)
    enum_steps = sum(r["counts"]["netsim.enumerate_step_calls"] for r in head)
    return {
        "trace.op_ms_mean": sum(r["op_ns"] for r in rows) / n / 1e6,
        "transducer.step_calls": count("transducer.step_calls"),
        "transducer.step_ms": ms("incl_ns", "transducer.step"),
        "transducer.step_us_p50": statistics.median(steps) / 1e3 if steps else 0.0,
        "relspace.db_hash_calls": count("relspace.db_hash_calls"),
        "relspace.db_hash_ms": ms("incl_ns", "relspace.db_hash"),
        "relspace.db_eq_calls": count("relspace.db_eq_calls"),
        "relspace.db_eq_ms": ms("incl_ns", "relspace.db_eq"),
        "relspace.self_ms": layer_self_ms("relspace"),
        "netsim.state_key_calls": count("netsim.state_key_calls"),
        "netsim.state_key_ms": ms("incl_ns", "netsim.state_key"),
        "netsim.enumerate_self_ms": ms("self_ns", "netsim.enumerate"),
        "netsim.states_explored": count("netsim.states_explored"),
        "netsim.steps_per_state": enum_steps / states if states else 0.0,
        "netsim.run_schedule_calls": count("netsim.run_schedule_calls"),
        "netsim.run_schedule_self_ms": ms("self_ns", "netsim.run_schedule"),
        "netsim.messages": count("netsim.messages"),
        "netsim.self_ms": layer_self_ms("netsim"),
        "verdicts.self_ms": ms("self_ns", "verdicts.check_confluence"),
        "calmlang.parse_ms": ms("incl_ns", "calmlang.parse"),
        "calmlang.validate_ms": ms("incl_ns", "calmlang.validate"),
        "config.load_ms": ms("incl_ns", "config.load"),
        "monocheck.stratify_calls": count("monocheck.stratify_calls"),
        "monocheck.stratify_ms": ms("incl_ns", "monocheck.stratify"),
    }
