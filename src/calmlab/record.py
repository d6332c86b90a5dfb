"""Immutable records as plain classes.

calmlab's records (AST nodes, facts, machine states, reports, ...) are
plain classes with a hand-written ``__init__``, not PEP 557 data classes:
the data class decorator writes and ``exec``s the source of a class's
methods while its module is imported, 0.7-0.9 ms a class on a 2-vCPU
x86-64 VM, so calmlab's 38 of them took 30-40 ms of every CLI verb's
start-up, more than most verbs' own work. A plain class costs about
0.01 ms to create.

A frozen record subclasses ``Frozen`` and fills its fields in ``__init__``
through ``set_field``; a record compared by value subclasses ``Record`` and
names its compared fields in ``_fields``.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # how an __init__ fills a frozen record's fields


class Frozen:
    """A record whose fields never change once ``__init__`` has set them:
    assigning or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Record(Frozen):
    """A frozen record equal to another of its class when the fields named
    in ``_fields`` are equal; it hashes and shows those fields alone."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the compared fields, read in C (a record with none compares its
        # class); an attrgetter is no descriptor, so self._key(self) calls it
        cls._key = attrgetter(*cls._fields or ("__class__",))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
