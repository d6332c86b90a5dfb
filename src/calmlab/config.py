"""Run configuration files: JSON documents naming a program, a fixture, the
machine count, a partitioning (explicit map, "hash", or "colocate"), and the
knobs of the run. Paths are resolved relative to the config file. Loading a
config is where fixture facts enter: each must fit the program
(``calmlang.validate.fact_error``), or the error names the fixture file.
Only the verb knows the network it runs on: ``RunConfig.check_network``
rejects a program address constant naming a machine outside it, at its
line and column in the program file, and such a fixture fact, in the
fixture file. Validation keeps addresses out of lattice values, so it
reads only rule terms and the top-level arguments of facts. A
partitioning that does not deal the fixture's facts to the machines is an
error in the config file."""

from __future__ import annotations

import json
from pathlib import Path

from .calmlang import ValidatedProgram, parse_program, validate_program
from .calmlang.syntax import Comparison, Const, Negation, Program
from .calmlang.validate import fact_error
from .errors import CalmlabError, read_text
from .netsim import (
    DEFAULT_ENUM_BOUND,
    DEFAULT_STEP_BUDGET,
    Partitioning,
    PartitioningError,
    colocated,
    hash_partitioning,
    machine_addresses,
    partitioning_from_map,
)
from .relspace import Database, parse_facts
from .values import Address
from .verdicts import DEFAULT_SAMPLED_SEEDS


class ConfigError(CalmlabError):
    """A config file that does not describe a run."""


MODES = ("exhaustive", "sampled")
KEYS = ("program", "fixture", "machines", "partitioning", "seed", "step_budget", "duplicate_every",
        "mode", "enum_bound", "seeds", "schedules_per_partitioning", "partition_cap")


class RunConfig:
    __slots__ = ("path", "program", "fixture_path", "fixture", "machines", "partitioning_spec",
                 "seed", "step_budget", "duplicate_every", "mode", "enum_bound", "seeds",
                 "schedules_per_partitioning", "partition_cap")

    def __init__(self, path: Path, program: ValidatedProgram, fixture_path: Path,
                 fixture: Database, machines: int, partitioning_spec, seed: int,
                 step_budget: int, duplicate_every: int, mode: str, enum_bound: int, seeds: int,
                 schedules_per_partitioning: int, partition_cap: int):
        self.path = path
        self.program = program
        self.fixture_path = fixture_path
        self.fixture = fixture
        self.machines = machines
        self.partitioning_spec = partitioning_spec  # "hash" | "colocate" | dict
        self.seed = seed
        self.step_budget = step_budget
        self.duplicate_every = duplicate_every
        self.mode = mode
        self.enum_bound = enum_bound
        self.seeds = seeds
        self.schedules_per_partitioning = schedules_per_partitioning
        self.partition_cap = partition_cap

    def check_network(self, machines: int) -> None:
        """Every address constant of the program, at its position in the
        program file, and every fixture fact must name only machines of a
        network of ``machines``, the one a verb runs on."""
        addrs = machine_addresses(machines)
        for const in _address_constants(self.program.program):
            if const.value not in addrs:
                raise ConfigError(f"address {const.value} is not in the network", const.pos,
                                  self.program.program.filename)
        if all(not isinstance(a, Address) or a in addrs
               for tuples in self.fixture.relations.values() for args in tuples for a in args):
            return
        for f in self.fixture.facts():  # name the first offending fact, sorted
            for a in f.args:
                if isinstance(a, Address) and a not in addrs:
                    raise ConfigError(
                        f"fixture {self.fixture_path}: {f}: names {a}, which is not in the network"
                    )

    def partitioning(self) -> Partitioning:
        """The fixture dealt to the config's ``machines``."""
        self.check_network(self.machines)
        addrs = machine_addresses(self.machines)
        spec = self.partitioning_spec
        try:
            if spec == "colocate":
                return colocated(self.fixture, addrs)
            if spec == "hash":
                return hash_partitioning(self.fixture, addrs)
            return partitioning_from_map(self.fixture, addrs, spec)
        except PartitioningError as e:
            e.filename = str(self.path)
            raise


def _address_constants(program: Program):
    """The address constants of ``program``'s rules, each head before its body;
    none is a constructor part, which is a scalar."""
    for rule in program.rules:
        terms = list(rule.head.args)
        for elem in rule.body:
            if isinstance(elem, Comparison):
                terms += [elem.left, elem.right]
            else:
                terms += (elem.literal if isinstance(elem, Negation) else elem).args
        yield from (t for t in terms if isinstance(t, Const) and isinstance(t.value, Address))


def _int_field(obj: dict, key: str, default: int, path: Path, least: int | None = None) -> int:
    """A JSON integer field of the config, or ``default`` when absent."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config {path}: {key!r} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"config {path}: {key!r} must be at least {least}, got {value}")
    return value


def _path_field(obj: dict, key: str, path: Path) -> Path:
    """A required file path of the config, relative to the config file."""
    if key not in obj:
        raise ConfigError(f"config {path} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigError(f"config {path}: {key!r} must be a file path, got {value!r}")
    return path.parent / value


def _partitioning_field(obj: dict, path: Path):
    """"colocate", "hash", or a map from machine name to a list of facts."""
    spec = obj.get("partitioning", "colocate")
    if spec in ("colocate", "hash") or isinstance(spec, dict) and all(
        isinstance(facts, list) and all(isinstance(f, str) for f in facts) for facts in spec.values()
    ):
        return spec
    raise ConfigError(
        f"config {path}: 'partitioning' must be \"colocate\", \"hash\" or a map from "
        f"machine names to lists of facts, got {spec!r}"
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        obj = json.loads(read_text(path, "config"))
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deep
        raise ConfigError(f"cannot read config {path}: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {obj!r}")
    program_path = _path_field(obj, "program", path)
    fixture_path = _path_field(obj, "fixture", path)
    for key in obj:
        if key not in KEYS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
    vp = validate_program(parse_program(read_text(program_path, "program"), str(program_path)))
    facts = parse_facts(read_text(fixture_path, "fixture"), str(fixture_path))
    for f in facts:
        error = fact_error(vp, f.relation, f.args)
        if error:
            raise ConfigError(f"fixture {fixture_path}: {f}: {error}")
    mode = obj.get("mode", "exhaustive")
    if mode not in MODES:
        raise ConfigError(f"config {path}: 'mode' must be one of {', '.join(MODES)}, got {mode!r}")
    return RunConfig(
        path=path,
        program=vp,
        fixture_path=fixture_path,
        fixture=Database.from_facts(facts),
        machines=_int_field(obj, "machines", 1, path, least=1),
        partitioning_spec=_partitioning_field(obj, path),
        seed=_int_field(obj, "seed", 0, path),
        step_budget=_int_field(obj, "step_budget", DEFAULT_STEP_BUDGET, path, least=1),
        duplicate_every=_int_field(obj, "duplicate_every", 0, path, least=0),
        mode=mode,
        enum_bound=_int_field(obj, "enum_bound", DEFAULT_ENUM_BOUND, path, least=1),
        seeds=_int_field(obj, "seeds", DEFAULT_SAMPLED_SEEDS, path, least=1),
        schedules_per_partitioning=_int_field(obj, "schedules_per_partitioning", 8, path, least=1),
        partition_cap=_int_field(obj, "partition_cap", 16, path, least=1),
    )
