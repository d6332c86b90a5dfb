"""Scalar values that populate relation columns.

Four carriers: 64-bit signed integers, text strings, symbols, and machine
addresses. All four are interned: each class keeps a weak table from
payload to its one live instance, so equal values are the same object, and
equality and hashing are ``object``'s identity defaults, which cost a join,
a set insert or a state key no Python-level call. Every way to make a value
goes through its class's table: the constructor, ``copy.copy``,
``copy.deepcopy`` and ``pickle``. A table holds its values weakly, so it
keeps no value, and no program, alive.

A single total order covers all of them (type rank first, then the natural
order within the type) so every set of facts can be iterated and
serialized canonically. Lattice values live in :mod:`calmlab.lattices` and
sort after all scalars.
"""

from __future__ import annotations

import operator
import re
import weakref

from .record import Frozen

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


class _Scalar(Frozen):
    """An interned, immutable carrier of one payload, stored in the slot
    named ``_field``. ``cls(payload)`` returns the payload's live instance;
    only when there is none does it check the payload (``_check``) and make
    one."""

    __slots__ = ("__weakref__",)
    _field = "value"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._live = weakref.WeakValueDictionary()  # payload -> its one live instance

    def __new__(cls, payload):
        self = cls._live.get(payload)
        if self is None:
            cls._check(payload)
            self = object.__new__(cls)
            object.__setattr__(self, cls._field, payload)
            cls._live[payload] = self
        return self

    @staticmethod
    def _check(payload) -> None:
        pass

    # copies and unpickled values come back through the table
    def __reduce__(self):
        return type(self), (getattr(self, self._field),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({self._field}={getattr(self, self._field)!r})"


class Int(_Scalar):
    __slots__ = ("value",)

    def __new__(cls, value):
        # an int subclass such as bool becomes a plain int: Int(True) is Int(1)
        return super().__new__(cls, operator.index(value))

    @staticmethod
    def _check(value) -> None:
        if not (INT_MIN <= value <= INT_MAX):
            raise ValueError_(f"integer out of 64-bit range: {value}")

    def sort_key(self):
        return (0, self.value)

    def __str__(self) -> str:
        return str(self.value)


class Text(_Scalar):
    __slots__ = ("value",)

    def sort_key(self):
        return (1, self.value)

    def __str__(self) -> str:
        return '"' + self.value.translate(_ESCAPING) + '"'


class Symbol(_Scalar):
    __slots__ = ("name",)
    _field = "name"

    @staticmethod
    def _check(name) -> None:
        if not _SYMBOL_RE.match(name):
            raise ValueError_(f"invalid symbol name: {name!r}")

    def sort_key(self):
        return (2, self.name)

    def __str__(self) -> str:
        return self.name


class Address(_Scalar):
    """Opaque identifier naming a network node. Written ``@name``."""

    __slots__ = ("name",)
    _field = "name"

    @staticmethod
    def _check(name) -> None:
        if not _SYMBOL_RE.match(name):
            raise ValueError_(f"invalid machine address: {name!r}")

    def sort_key(self):
        return (3, self.name)

    def __str__(self) -> str:
        return "@" + self.name


# Scalar = Int | Text | Symbol | Address; lattice values extend the union
# with sort rank 4 (see calmlab.lattices).
Value = object


def value_sort_key(v) -> tuple:
    return v.sort_key()
