"""Bundled corpus: eight small distributed programs with fixtures, run
configurations, and the verdicts they are expected to produce. Every
expectation here is regression-tested."""

from __future__ import annotations

from importlib import resources

from ..calmlang import ValidatedProgram, parse_program, validate_program
from ..record import Frozen, set_field
from ..relspace import Database, parse_facts


class CorpusEntry(Frozen):
    __slots__ = ("name", "title", "fixtures", "expected_static", "expected_reasons",
                 "expected_dynamic")

    def __init__(self, name: str, title: str, fixtures: tuple, expected_static: str,
                 expected_reasons: frozenset, expected_dynamic: dict):
        set_field(self, "name", name)
        set_field(self, "title", title)
        set_field(self, "fixtures", fixtures)
        set_field(self, "expected_static", expected_static)  # monotone | non-monotone
        set_field(self, "expected_reasons", expected_reasons)
        # config file -> expected outcome/verdict string
        set_field(self, "expected_dynamic", expected_dynamic)


ENTRIES = (
    CorpusEntry(
        name="deadlock",
        title="distributed deadlock detection (monotone gossip)",
        fixtures=("fig1.facts", "edges_only.facts"),
        expected_static="monotone",
        expected_reasons=frozenset(),
        expected_dynamic={
            "check.json": "confluent-on-instance",
            "coordination.json": "coordination-free-on-instance",
        },
    ),
    CorpusEntry(
        name="transitive_closure",
        title="transitive closure (monotone, no channels)",
        fixtures=("chain.facts",),
        expected_static="monotone",
        expected_reasons=frozenset(),
        expected_dynamic={"check.json": "confluent-on-instance"},
    ),
    CorpusEntry(
        name="cart_two_set",
        title="two-set replicated cart (monotone union reconciliation)",
        fixtures=("session.facts",),
        expected_static="monotone",
        expected_reasons=frozenset(),
        expected_dynamic={"check.json": "confluent-on-instance"},
    ),
    CorpusEntry(
        name="tombstone_demo",
        title="two-phase-set tombstones over a lattice column (monotone)",
        fixtures=("basket.facts",),
        expected_static="monotone",
        expected_reasons=frozenset(),
        expected_dynamic={"check.json": "confluent-on-instance"},
    ),
    CorpusEntry(
        name="gc",
        title="distributed garbage collection (bare, race-prone)",
        fixtures=("fig2.facts",),
        expected_static="non-monotone",
        expected_reasons=frozenset({"negation"}),
        expected_dynamic={
            "check.json": "divergent",
            "coordination.json": "coordination-required-on-instance",
        },
    ),
    CorpusEntry(
        name="gc_coordinated",
        title="garbage collection behind a count-and-ack barrier",
        fixtures=("fig2.facts",),
        expected_static="non-monotone",
        expected_reasons=frozenset({"negation", "aggregation", "membership-query"}),
        expected_dynamic={
            "check.json": "confluent-on-instance",
            "coordination.json": "coordination-required-on-instance",
        },
    ),
    CorpusEntry(
        name="cart_naive",
        title="cart with racing add/remove events (divergent)",
        fixtures=("concurrent.facts",),
        expected_static="non-monotone",
        expected_reasons=frozenset({"negation", "ephemeral-join"}),
        expected_dynamic={"check.json": "divergent"},
    ),
    CorpusEntry(
        name="cart_manifest",
        title="cart checkout gated by an update manifest",
        fixtures=("checkout.facts",),
        expected_static="non-monotone",
        expected_reasons=frozenset({"negation"}),
        expected_dynamic={
            "check.json": "confluent-on-instance",
            "coordination.json": "coordination-required-on-instance",
        },
    ),
)

MONOTONE_ENTRIES = tuple(e for e in ENTRIES if e.expected_static == "monotone")
NON_MONOTONE_ENTRIES = tuple(e for e in ENTRIES if e.expected_static == "non-monotone")


def entry(name: str) -> CorpusEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no corpus entry named {name!r}")


def entry_path(name: str):
    """Filesystem path of a corpus entry's directory."""
    return resources.files(__package__) / name


def read_text(name: str, filename: str) -> str:
    return (entry_path(name) / filename).read_text(encoding="utf-8")


def load_program(name: str) -> ValidatedProgram:
    source = read_text(name, "program.calm")
    return validate_program(parse_program(source, f"{name}/program.calm"))


def load_fixture(name: str, filename: str) -> Database:
    text = read_text(name, filename)
    return Database.from_facts(parse_facts(text, f"{name}/{filename}"))


def config_path(name: str, filename: str):
    return entry_path(name) / filename
