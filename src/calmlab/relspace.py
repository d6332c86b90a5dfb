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
``#`` starts a comment. Canonical JSON serialization sorts relations by name
and facts by the total value order, so equal databases serialize to
byte-identical JSON regardless of construction order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import lattices
from .lexer import LexError, Token, tokenize
from .values import Address, Int, Symbol, Text, value_sort_key


class SchemaError(Exception):
    """Same relation name used with different arities."""


class FactSyntaxError(Exception):
    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


def _args_key(args: tuple) -> tuple:
    return tuple(value_sort_key(a) for a in args)


@dataclass(frozen=True, slots=True)
class Fact:
    relation: str
    args: tuple

    def __str__(self) -> str:
        return "%s(%s)" % (self.relation, ", ".join(str(a) for a in self.args))


@dataclass(frozen=True)
class Database:
    # name -> nonempty frozenset of argument tuples; every constructor keeps
    # empty relations out, so equal databases have equal dicts
    relations: dict = field(default_factory=dict)

    @staticmethod
    def from_facts(facts) -> Database:
        rels: dict[str, set] = {}
        for f in facts:
            rels.setdefault(f.relation, set()).add(f.args)
        _check_arities(rels)
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
        if "_hash" not in self.__dict__:  # computed once: databases never change
            object.__setattr__(self, "_hash", hash(frozenset(self.relations.items())))
        return self._hash

    def __str__(self) -> str:
        return "\n".join(str(f) for f in self.facts())


def _check_arities(rels: dict) -> None:
    for name, ts in rels.items():
        arities = {len(t) for t in ts}
        if len(arities) > 1:
            raise SchemaError(f"relation {name} used with arities {sorted(arities)}")


def _check_compatible(a: Database, b: Database) -> None:
    for name in a.relations.keys() & b.relations.keys():
        na = len(next(iter(a.relations[name])))
        nb = len(next(iter(b.relations[name])))
        if na != nb:
            raise SchemaError(
                f"relation {name} has arity {na} on one side and {nb} on the other"
            )


def db_union(a: Database, b: Database) -> Database:
    """Set union per relation: the least upper bound under db_leq."""
    _check_compatible(a, b)
    rels = dict(a.relations)
    for name, ts in b.relations.items():
        rels[name] = rels.get(name, frozenset()) | ts
    return Database(rels)


def db_leq(a: Database, b: Database) -> bool:
    """True iff every fact of ``a`` is in ``b``."""
    _check_compatible(a, b)
    for name, ts in a.relations.items():
        if not ts <= b.relations.get(name, frozenset()):
            return False
    return True


# --- text format -----------------------------------------------------------


class _ValueParser:
    """Recursive parser for ground values over a token list."""

    def __init__(self, toks: list[Token], filename: str):
        self.toks = toks
        self.pos = 0
        self.filename = filename

    def peek(self) -> Token:
        return self.toks[self.pos]

    def take(self, kind: str | None = None) -> Token:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            self.fail(f"expected {kind}, found {t.text!r}", t)
        self.pos += 1
        return t

    def fail(self, msg: str, tok: Token):
        raise FactSyntaxError(msg, tok.line, tok.col, self.filename)

    def value(self):
        t = self.peek()
        if t.kind == "INT":
            self.take()
            return Int(int(t.text))
        if t.kind == "STRING":
            self.take()
            return Text(t.text)
        if t.kind == "ADDR":
            self.take()
            return Address(t.text)
        if t.kind == "IDENT":
            if t.text == "gset":
                self.take()
                return lattices.GSet(self.scalar_set())
            if t.text == "maxint":
                self.take()
                self.take("LPAREN")
                n = self.take("INT")
                self.take("RPAREN")
                return lattices.MaxInt(int(n.text))
            if t.text == "boolor":
                self.take()
                self.take("LPAREN")
                b = self.take("IDENT")
                if b.text not in ("true", "false"):
                    self.fail("expected true or false", b)
                self.take("RPAREN")
                return lattices.BoolOr(b.text == "true")
            if t.text == "2p":
                self.take()
                self.take("LBRACE")
                label = self.take("IDENT")
                if label.text != "added":
                    self.fail("expected 'added'", label)
                self.take("COLON")
                added = self.scalar_set()
                self.take("COMMA")
                label = self.take("IDENT")
                if label.text != "tomb":
                    self.fail("expected 'tomb'", label)
                self.take("COLON")
                tomb = self.scalar_set()
                self.take("RBRACE")
                return lattices.TwoPSet(added, tomb)
            self.take()
            return Symbol(t.text)
        self.fail(f"expected a value, found {t.text!r}", t)

    def scalar_set(self) -> frozenset:
        self.take("LBRACE")
        elems = []
        if self.peek().kind != "RBRACE":
            while True:
                v = self.value()
                if lattices.is_lattice(v):
                    self.fail("lattice values cannot nest", self.peek())
                elems.append(v)
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("RBRACE")
        return frozenset(elems)

    def fact(self) -> Fact:
        name = self.take("IDENT")
        self.take("LPAREN")
        args = []
        if self.peek().kind != "RPAREN":
            while True:
                args.append(self.value())
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("RPAREN")
        return Fact(name.text, tuple(args))


def parse_value(text: str):
    toks = tokenize(text)
    p = _ValueParser(toks, "<value>")
    v = p.value()
    p.take("EOF")
    return v


def parse_fact(text: str, filename: str = "<fact>") -> Fact:
    toks = tokenize(text, filename)
    p = _ValueParser(toks, filename)
    f = p.fact()
    p.take("EOF")
    return f


def parse_facts(text: str, filename: str = "<facts>") -> list[Fact]:
    """Parse the fixture format: one fact per line, '#' comments."""
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            toks = tokenize(line, filename)
        except LexError as e:
            raise FactSyntaxError(e.message, lineno, e.col, filename) from None
        # re-anchor token positions to the real line number
        toks = [Token(t.kind, t.text, lineno, t.col) for t in toks]
        p = _ValueParser(toks, filename)
        facts.append(p.fact())
        p.take("EOF")
    return facts


def load_facts(path) -> Database:
    with open(path, encoding="utf-8") as fh:
        return Database.from_facts(parse_facts(fh.read(), filename=str(path)))


# --- canonical serialization -----------------------------------------------


def db_to_obj(db: Database) -> dict:
    """Relations sorted by name, facts sorted, values in fixture syntax."""
    return {
        name: [[str(a) for a in args] for args in sorted(db.relations[name], key=_args_key)]
        for name in sorted(db.relations)
    }


def db_from_obj(obj: dict) -> Database:
    facts = []
    for name, rows in obj.items():
        for row in rows:
            facts.append(Fact(name, tuple(parse_value(cell) for cell in row)))
    return Database.from_facts(facts)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def db_to_json(db: Database) -> str:
    return canonical_json(db_to_obj(db))
