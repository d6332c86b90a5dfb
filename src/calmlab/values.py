"""Scalar values that populate relation columns.

Four carriers: 64-bit signed integers, text strings, interned symbols, and
machine addresses. A single total order covers all of them (type rank first,
then the natural order within the type) so every set of facts can be iterated
and serialized canonically. Lattice values live in :mod:`calmlab.lattices`
and sort after all scalars.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# a bare underscore is the wildcard in rule syntax, never a symbol
_SYMBOL_RE = re.compile(r"(?!_\Z)[a-z_][a-zA-Z0-9_]*\Z")

# a text literal's escapes, by the character after the backslash; the
# parser reads them and Text writes them
ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPING = str.maketrans({c: "\\" + e for e, c in ESCAPES.items()})


class ValueError_(ValueError):
    """Malformed value (bad symbol name, integer out of range, ...)."""


@dataclass(frozen=True, slots=True)
class Int:
    value: int

    def __post_init__(self) -> None:
        if not (INT_MIN <= self.value <= INT_MAX):
            raise ValueError_(f"integer out of 64-bit range: {self.value}")

    def sort_key(self):
        return (0, self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Text:
    value: str

    def sort_key(self):
        return (1, self.value)

    def __str__(self) -> str:
        return '"' + self.value.translate(_ESCAPING) + '"'


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str

    def __post_init__(self) -> None:
        if not _SYMBOL_RE.match(self.name):
            raise ValueError_(f"invalid symbol name: {self.name!r}")

    def sort_key(self):
        return (2, self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Address:
    """Opaque identifier naming a network node. Written ``@name``."""

    name: str

    def __post_init__(self) -> None:
        if not _SYMBOL_RE.match(self.name):
            raise ValueError_(f"invalid machine address: {self.name!r}")

    def sort_key(self):
        return (3, self.name)

    def __str__(self) -> str:
        return "@" + self.name


# Scalar = Int | Text | Symbol | Address; lattice values extend the union
# with sort rank 4 (see calmlab.lattices).
Value = object


def value_sort_key(v) -> tuple:
    return v.sort_key()

