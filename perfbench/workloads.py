"""Seeded instance generators and independent oracles for the three workloads.

Nothing here imports calmlab: every expected answer is computed from the
generated graph by plain Python, so a wrong engine cannot agree with itself.

Instances cycle through a fixed list of size classes (op ``i`` uses class
``i % len(classes)``) and draw everything else from the seeded generator.
Every run therefore sees the same mix of sizes, which keeps the latency
percentiles comparable across seeds, while the graphs themselves differ.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

MACHINES = ("m1", "m2", "m3")


@dataclass(frozen=True)
class Instance:
    facts: tuple  # fixture lines
    partitioning: object  # "colocate" or {machine: [fact line, ...]}
    machines: int
    size: int  # edges in the generated graph
    expected: frozenset  # oracle answer, as tuples of symbol names

    def key(self):
        part = self.partitioning
        if isinstance(part, dict):
            part = tuple((m, tuple(sorted(fs))) for m, fs in sorted(part.items()))
        return (frozenset(self.facts), part)


def _assign(rng: random.Random, lines: list) -> dict:
    """Deal the lines to the machines in a seeded order, so every machine
    holds a third of them and only which line goes where varies."""
    order = list(lines)
    rng.shuffle(order)
    return {m: order[i::len(MACHINES)] for i, m in enumerate(MACHINES)}


# --- closure: transitive closure of a chain with forward shortcuts -----------

# (chain nodes, forward shortcuts): 39 to 69 edges. An odd count of classes
# of rising cost puts the median and the 90th percentile inside one class.
CLOSURE_CLASSES = ((26, 14), (31, 9), (31, 19), (36, 14), (36, 24), (41, 19), (41, 29))


def reachable_pairs(edges) -> frozenset:
    """All (x, y) with a path of one or more edges from x to y (BFS)."""
    succ: dict = {}
    for x, y in edges:
        succ.setdefault(x, set()).add(y)
    out = set()
    for start in succ:
        seen: set = set()
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in succ.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        out.update((start, y) for y in seen)
    return frozenset(out)


def closure_instance(rng: random.Random, op: int) -> Instance:
    nodes, shortcuts = CLOSURE_CLASSES[op % len(CLOSURE_CLASSES)]
    names = [f"n{v}" for v in rng.sample(range(1000), nodes)]
    edges = {(names[i], names[i + 1]) for i in range(nodes - 1)}
    while len(edges) < nodes - 1 + shortcuts:
        i, j = sorted(rng.sample(range(nodes), 2))
        if j > i + 1:
            edges.add((names[i], names[j]))
    facts = tuple(f"edge({x}, {y})" for x, y in sorted(edges))
    return Instance(facts, "colocate", 1, len(edges), reachable_pairs(edges))


# --- ring: deadlock detection by gossip on 3 machines ------------------------

# (ring length, extra edge): "chord" closes another cycle, "spur" closes none
# 3 or 4 edges, so 6 or 8 gossip messages and 63 or 255 delivery states
RING_CLASSES = ((2, "spur"), (3, None), (4, None), (3, "chord"), (3, "spur"))


def cycle_edges(edges) -> frozenset:
    """Edges (x, y) that lie on a cycle, i.e. y reaches x."""
    reach = reachable_pairs(edges)
    return frozenset((x, y) for x, y in edges if x == y or (y, x) in reach)


def ring_instance(rng: random.Random, op: int) -> Instance:
    length, extra = RING_CLASSES[op % len(RING_CLASSES)]
    names = [f"t{v}" for v in rng.sample(range(1000), length + 1)]
    ring = names[:length]
    edges = [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    if extra == "chord":
        i = rng.randrange(length)
        edges.append((ring[i], ring[(i + 2) % length]))
    elif extra == "spur":
        edges.append((rng.choice(ring), names[length]))
    lines = [f"local_edge({x}, {y})" for x, y in edges]
    part = _assign(rng, lines)
    for a in MACHINES:
        part[a] += [f"nbr(@{a}, @{b})" for b in MACHINES if b != a]
    facts = tuple(f for a in MACHINES for f in part[a])
    return Instance(facts, part, 3, len(edges), cycle_edges(edges))


# --- barrier: coordinated garbage collection on 3 machines -------------------

BARRIER_CLASSES = (6, 8, 10, 12, 14)  # objects


def unreachable(objects, edges, root: str) -> frozenset:
    reach = {y for x, y in reachable_pairs(edges) if x == root}
    return frozenset((o,) for o in objects if o not in reach)


def barrier_instance(rng: random.Random, op: int) -> Instance:
    count = BARRIER_CLASSES[op % len(BARRIER_CLASSES)]
    objects = [f"o{v}" for v in rng.sample(range(1000), count)]
    # two thirds of the objects hang off the root or an earlier object; the
    # rest start detached, and extra random references may reach them
    edges = set()
    for i in sorted(rng.sample(range(count), 2 * count // 3)):
        edges.add((rng.choice(["root"] + objects[:i]), objects[i]))
    while len(edges) < 2 * count // 3 + count // 3:
        edges.add(tuple(rng.sample(objects, 2)))
    edge_lines = [f"local_edge(e{i}, {x}, {y})" for i, (x, y) in enumerate(sorted(edges))]
    lines = [f"obj({o})" for o in objects] + edge_lines + ["root_input(root)"]
    part = _assign(rng, lines)
    return Instance(tuple(lines), part, 3, len(edges), unreachable(objects, edges, "root"))


@dataclass(frozen=True)
class Workload:
    name: str
    program: str  # path relative to the checkout root
    make: object  # (rng, op index) -> Instance
    classes: int  # size classes that make (rng, i) cycles through
    verb: str  # "run" | "exhaustive" | "sampled"
    output: str  # output relation the oracle predicts
    seeds: int = 64  # schedules per sampled check


WORKLOADS = {
    "closure": Workload(
        "closure", "src/calmlab/corpus/transitive_closure/program.calm",
        closure_instance, len(CLOSURE_CLASSES), "run", "path",
    ),
    "ring": Workload(
        "ring", "src/calmlab/corpus/deadlock/program.calm",
        ring_instance, len(RING_CLASSES), "exhaustive", "cycle",
    ),
    "barrier": Workload(
        "barrier", "perfbench/programs/gc_barrier.calm",
        barrier_instance, len(BARRIER_CLASSES), "sampled", "garbage", seeds=4,
    ),
}


class InstanceStream:
    """Distinct seeded instances of one workload, written as the CLI's files.

    Op ``i`` always gets the same instance for the same seed. An instance
    equal to one already handed out in this process is drawn again, so no
    two ops (or the warm-up) ever see the same input.
    """

    def __init__(self, workload: Workload, seed: int, directory: Path, root: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "program.calm").write_text((root / workload.program).read_text())
        self.seen: set = set()

    def next(self, op: int) -> Instance:
        while True:
            inst = self.workload.make(self.rng, op)
            if inst.key() not in self.seen:
                self.seen.add(inst.key())
                return inst

    def write(self, inst: Instance) -> Path:
        """Write the fixture and config; returns the config path."""
        (self.dir / "instance.facts").write_text("\n".join(inst.facts) + "\n")
        config = {
            "program": "program.calm",
            "fixture": "instance.facts",
            "machines": inst.machines,
            "partitioning": inst.partitioning,
            "seed": 0,
            "seeds": self.workload.seeds,
        }
        path = self.dir / "config.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        return path
