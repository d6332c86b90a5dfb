"""The benchmark's traced run (perfbench/tracer.py) wraps calmlab functions
where their callers look them up. This guards those hook points: a function
bound early (say, a ``stepper=step`` default argument) would hide its calls
from the tracer without failing anything else."""

import importlib.util
import sys
from pathlib import Path

from calmlab import config, corpus, monocheck, netsim, relspace, transducer, verdicts

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_step_under_both_walks_and_restores_everything():
    owners = (config, monocheck, netsim, verdicts, relspace.Database, netsim.NetworkState)
    before = [dict(vars(owner)) for owner in owners]
    step_runs = 0  # every execution of step, however it was reached

    def count_steps(frame, event, arg):
        nonlocal step_runs
        if event == "call" and frame.f_code is transducer.step.__code__:
            step_runs += 1

    tracer = load_tracer().Tracer()
    tracer.install()
    sys.setprofile(count_steps)
    try:
        cfg = config.load_config(corpus.config_path("gc", "check.json"))
        verdicts.check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="exhaustive")
        verdicts.check_confluence(cfg.program, cfg.fixture, cfg.partitioning(), mode="sampled", seeds=2)
        net = netsim.init_network(cfg.program, cfg.fixture, cfg.partitioning())
        netsim.run_schedule(net, netsim.Schedule(seed=0))
    finally:
        sys.setprofile(None)
        tracer.restore()

    spans = tracer.spans
    step_parents = {spans[parent][0] for name, _, _, parent, _, _ in spans
                    if name == "transducer.step"}
    assert {"netsim.enumerate", "netsim.run_schedule"} <= step_parents
    sampled_runs = [parent for name, _, _, parent, _, _ in spans if name == "netsim.run_schedule"
                    and spans[parent][0] == "verdicts.check_confluence"]
    assert len(sampled_runs) == 2
    assert sum(1 for span in spans if span[0] == "transducer.step") == step_runs
    assert any(name == "netsim.state_key" for name, _ in tracer.leaves)
    assert any(span[0] == "monocheck.stratify" for span in spans)
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert all(now[attr] is value for attr, value in snapshot.items()), owner
