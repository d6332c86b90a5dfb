"""Run configuration files: JSON documents naming a program, a fixture, the
machine count, a partitioning (explicit map, "hash", or "colocate"), and the
knobs of the run. Paths are resolved relative to the config file."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .calmlang import ValidatedProgram, parse_program, validate_program
from .netsim import (
    Partitioning,
    colocated,
    hash_partitioning,
    machine_addresses,
    partitioning_from_map,
)
from .relspace import Database, load_facts


class ConfigError(Exception):
    pass


MODES = ("exhaustive", "sampled")
KEYS = ("program", "fixture", "machines", "partitioning", "seed", "step_budget", "duplicate_every",
        "mode", "enum_bound", "seeds", "schedules_per_partitioning", "partition_cap")


@dataclass
class RunConfig:
    program: ValidatedProgram
    fixture: Database
    machines: int
    partitioning_spec: object  # "hash" | "colocate" | dict
    seed: int
    step_budget: int
    duplicate_every: int
    mode: str
    enum_bound: int
    seeds: int
    schedules_per_partitioning: int
    partition_cap: int

    def partitioning(self) -> Partitioning:
        addrs = machine_addresses(self.machines)
        spec = self.partitioning_spec
        if spec == "colocate":
            return colocated(self.fixture, addrs, addrs[0])
        if spec == "hash":
            return hash_partitioning(self.fixture, addrs)
        if isinstance(spec, dict):
            return partitioning_from_map(self.fixture, addrs, spec)
        raise ConfigError(f"bad partitioning spec {spec!r}")


def default_seed() -> int:
    env = os.environ.get("CALMLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"CALMLAB_SEED must be an integer, got {env!r}") from None
    return 0


def _int_field(obj: dict, key: str, default: int, path: Path, least: int | None = None) -> int:
    """A JSON integer field of the config, or ``default`` when absent."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config {path}: {key!r} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"config {path}: {key!r} must be at least {least}, got {value}")
    return value


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    base = path.parent
    for key in ("program", "fixture"):
        if key not in obj:
            raise ConfigError(f"config {path} is missing {key!r}")
    for key in obj:
        if key not in KEYS:
            raise ConfigError(f"config {path}: unknown key {key!r}")
    program_path = base / obj["program"]
    fixture_path = base / obj["fixture"]
    try:
        source = program_path.read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read program {program_path}: {e}") from None
    vp = validate_program(parse_program(source, str(program_path)))
    fixture = load_facts(fixture_path)
    for fact in fixture.facts():
        schema = vp.schemas.get(fact.relation)
        if schema is None or not schema.is_input:
            raise ConfigError(
                f"fixture fact {fact} is not in an input-marked relation of the program"
            )
    mode = obj.get("mode", "exhaustive")
    if mode not in MODES:
        raise ConfigError(f"config {path}: 'mode' must be one of {', '.join(MODES)}, got {mode!r}")
    return RunConfig(
        program=vp,
        fixture=fixture,
        machines=_int_field(obj, "machines", 1, path, least=1),
        partitioning_spec=obj.get("partitioning", "colocate"),
        seed=_int_field(obj, "seed", 0, path) if "seed" in obj else default_seed(),
        step_budget=_int_field(obj, "step_budget", 10_000, path, least=1),
        duplicate_every=_int_field(obj, "duplicate_every", 0, path, least=0),
        mode=mode,
        enum_bound=_int_field(obj, "enum_bound", 1_000_000, path, least=1),
        seeds=_int_field(obj, "seeds", 64, path, least=1),
        schedules_per_partitioning=_int_field(obj, "schedules_per_partitioning", 8, path, least=1),
        partition_cap=_int_field(obj, "partition_cap", 16, path, least=1),
    )
