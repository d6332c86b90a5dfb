"""Built-in lattice value types for replica reconciliation.

Four variants, each with an associative/commutative/idempotent merge and the
matching partial order:

* ``GSet``   -- grow-only set of scalar values, merge = union
* ``MaxInt`` -- integer, merge = max
* ``BoolOr`` -- boolean, merge = or
* ``TwoPSet`` -- pair of grow-only sets (added, tombstoned); an element that
  has ever been tombstoned is permanently hidden from the visible view

Lattice values may appear as fact arguments in persisted relations only.
Facts merge when a machine's iteration commits, not when they are derived:
at commit, the facts that agree on every non-lattice column are replaced by
their column-wise merge (see transducer). A rule passes a lattice value on
only to a head column of its lattice, never as an aggregate's grouping
term, so the unmerged values are unseen.

Textual literals used in fixtures and programs::

    gset{a, b}    maxint(5)    boolor(true)    2p{added:{a, b}, tomb:{b}}
"""

from __future__ import annotations

from .errors import CalmlabError
from .record import Record, set_field
from .values import Int, value_sort_key


class LatticeTypeError(CalmlabError):
    """merge/leq applied across different lattice variants, or to a value
    that is not a lattice value; or maxint made of a non-integer."""


class _Lattice(Record):
    """A lattice value, rebuilt from its fields by copy and pickle."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])


class GSet(_Lattice):
    __slots__ = _fields = ("elems",)

    def __init__(self, elems: frozenset):
        set_field(self, "elems", elems)

    def sort_key(self):
        return (4, "gset", _keys(self.elems))

    def __str__(self) -> str:
        return text("gset", (_texts(self.elems),))


class MaxInt(_Lattice):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)

    def sort_key(self):
        return (4, "maxint", (self.value,))

    def __str__(self) -> str:
        return text("maxint", ((str(self.value),),))


class BoolOr(_Lattice):
    __slots__ = _fields = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)

    def sort_key(self):
        return (4, "boolor", (self.value,))

    def __str__(self) -> str:
        return text("boolor", (("true" if self.value else "false",),))


class TwoPSet(_Lattice):
    __slots__ = _fields = ("added", "tombstoned")

    def __init__(self, added: frozenset, tombstoned: frozenset):
        set_field(self, "added", added)
        set_field(self, "tombstoned", tombstoned)

    def sort_key(self):
        return (4, "2p", (_keys(self.added), _keys(self.tombstoned)))

    def __str__(self) -> str:
        return text("2p", (_texts(self.added), _texts(self.tombstoned)))


LatticeValue = GSet | MaxInt | BoolOr | TwoPSet

VARIANT_NAMES = {GSet: "gset", MaxInt: "maxint", BoolOr: "boolor", TwoPSet: "2p"}


def _keys(elems: frozenset) -> tuple:
    return tuple(sorted(value_sort_key(e) for e in elems))


def _texts(elems: frozenset) -> tuple:
    return tuple(str(e) for e in sorted(elems, key=value_sort_key))


def text(variant: str, parts: tuple) -> str:
    """The constructor form of a ``variant`` value or term, which the parser
    reads back, from the texts of its parts: one tuple of texts per group,
    ``(elems,)`` for gset, ``(added, tomb)`` for 2p, and ``((arg,),)`` for
    maxint and for boolor (``true`` or ``false``)."""
    groups = tuple(", ".join(group) for group in parts)
    if variant == "gset":
        return "gset{%s}" % groups
    if variant == "2p":
        return "2p{added:{%s}, tomb:{%s}}" % groups
    return "%s(%s)" % (variant, *groups)


def make(variant: str, parts: tuple) -> LatticeValue:
    """The ``variant`` value of its parts' values, grouped as in ``text``."""
    if variant == "gset":
        return GSet(frozenset(parts[0]))
    if variant == "2p":
        return TwoPSet(frozenset(parts[0]), frozenset(parts[1]))
    ((arg,),) = parts
    if variant == "boolor":
        return BoolOr(arg)
    if not isinstance(arg, Int):
        raise LatticeTypeError(f"maxint() needs an integer, got {arg}")
    return MaxInt(arg.value)


def is_lattice(v) -> bool:
    return isinstance(v, (GSet, MaxInt, BoolOr, TwoPSet))


def elements(v) -> frozenset:
    """The elements of a set lattice value ``v``; none for any other value."""
    if isinstance(v, TwoPSet):
        return v.added | v.tombstoned
    return v.elems if isinstance(v, GSet) else frozenset()


def variant_name(v) -> str:
    return VARIANT_NAMES[type(v)]


def _require_same_variant(a, b) -> None:
    if not (is_lattice(a) and is_lattice(b)):
        raise LatticeTypeError(f"{b if is_lattice(a) else a} is not a lattice value")
    if type(a) is not type(b):
        raise LatticeTypeError(
            f"cannot combine lattice variants {variant_name(a)} and {variant_name(b)}"
        )


def merge(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Least upper bound of two lattice values of the same variant."""
    _require_same_variant(a, b)
    if isinstance(a, GSet):
        return GSet(a.elems | b.elems)
    if isinstance(a, MaxInt):
        return MaxInt(max(a.value, b.value))
    if isinstance(a, BoolOr):
        return BoolOr(a.value or b.value)
    return TwoPSet(a.added | b.added, a.tombstoned | b.tombstoned)


def leq(a: LatticeValue, b: LatticeValue) -> bool:
    """True iff ``a`` is below-or-equal ``b`` in the variant's partial order."""
    _require_same_variant(a, b)
    if isinstance(a, GSet):
        return a.elems <= b.elems
    if isinstance(a, MaxInt):
        return a.value <= b.value
    if isinstance(a, BoolOr):
        return (not a.value) or b.value
    return a.added <= b.added and a.tombstoned <= b.tombstoned


def twopset_visible(s: TwoPSet) -> GSet:
    """Elements added and never tombstoned. Tombstoning is permanent."""
    return GSet(s.added - s.tombstoned)
