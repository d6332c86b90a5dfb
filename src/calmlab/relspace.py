"""Relational core: facts, databases, and the containment order.

A :class:`Database` maps each relation name to the nonempty frozenset of its
argument tuples. That is the one shape the engine reads and writes; a
:class:`Fact` (relation name plus argument tuple) is built only at the edges:
fixture text, JSON, membership tests and the readers ``facts`` and
``relation``. Databases are immutable values and every operation here is a
pure function, so they can be shared between concurrent executors freely.
A database caches its hash, so it is cheap inside the enumerator's state keys.
``db_union`` and ``db_leq`` give the join-semilattice used to state
monotonicity: a program is monotone when growing its input under ``db_leq``
can only grow its output.

External text format (fixture files): one fact per line, ``relname(v1, v2)``,
``#`` starts a comment. A fact is a ground rule head, read by the program
parser (``calmlang.parser.parse_ground_literals``), so fixtures and programs
share one grammar for values. Whether a fact fits a program (declared,
input, arity, column types) is checked once, where a run config loads its
fixture (``calmlang.validate.fact_error``); a database checks nothing.
Canonical JSON serialization sorts relations by name and facts by the total
value order, so equal databases serialize to byte-identical JSON regardless
of construction order.
"""

from __future__ import annotations

import json

from .calmlang.parser import parse_ground_literals
from .errors import ParseError
from .record import Frozen, Record, set_field
from .values import value_sort_key


def _args_key(args: tuple) -> tuple:
    return tuple(value_sort_key(a) for a in args)


class Fact(Record):
    __slots__ = _fields = ("relation", "args")

    def __init__(self, relation: str, args: tuple):
        set_field(self, "relation", relation)
        set_field(self, "args", args)

    def __str__(self) -> str:
        return "%s(%s)" % (self.relation, ", ".join(str(a) for a in self.args))


class Database(Frozen):
    __slots__ = ("relations", "_hash")

    def __init__(self, relations: dict):
        # name -> nonempty frozenset of argument tuples; every constructor
        # keeps empty relations out, so equal databases have equal dicts
        set_field(self, "relations", relations)

    @staticmethod
    def from_facts(facts) -> Database:
        rels: dict[str, set] = {}
        for f in facts:
            rels.setdefault(f.relation, set()).add(f.args)
        return Database({name: frozenset(ts) for name, ts in rels.items()})

    def facts(self):
        for name in sorted(self.relations):
            for args in sorted(self.relations[name], key=_args_key):
                yield Fact(name, args)

    def relation(self, name: str) -> frozenset:
        return frozenset(Fact(name, args) for args in self.relations.get(name, ()))

    def size(self) -> int:
        return sum(len(ts) for ts in self.relations.values())

    def restrict(self, names) -> Database:
        return Database({n: ts for n, ts in self.relations.items() if n in names})

    def __contains__(self, fact: Fact) -> bool:
        return fact.args in self.relations.get(fact.relation, ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.relations == other.relations

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # computed once: databases never change
            set_field(self, "_hash", hash(frozenset(self.relations.items())))
            return self._hash


def db_union(a: Database, b: Database) -> Database:
    """Set union per relation: the least upper bound under db_leq."""
    rels = dict(a.relations)
    for name, ts in b.relations.items():
        rels[name] = rels.get(name, frozenset()) | ts
    return Database(rels)


def db_leq(a: Database, b: Database) -> bool:
    """True iff every fact of ``a`` is in ``b``."""
    for name, ts in a.relations.items():
        if not ts <= b.relations.get(name, frozenset()):
            return False
    return True


# --- text format -----------------------------------------------------------


def parse_facts(text: str, filename: str = "<facts>") -> list[Fact]:
    """Parse the fixture format: one ground literal per line, '#' comments."""
    return [Fact(name, args) for name, args in parse_ground_literals(text, filename)]


def parse_fact(text: str, filename: str = "<fact>") -> Fact:
    facts = parse_facts(text, filename)
    if len(facts) != 1:
        raise ParseError(f"expected one fact, found {len(facts)}", (1, 1), filename)
    return facts[0]


# --- canonical serialization -----------------------------------------------


def db_to_obj(db: Database) -> dict:
    """Relations sorted by name, facts sorted, values in fixture syntax."""
    return {
        name: [[str(a) for a in args] for args in sorted(db.relations[name], key=_args_key)]
        for name in sorted(db.relations)
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
