import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from calmlab import lattices
from calmlab.calmlang.syntax import Const, eval_head_term
from calmlab.relspace import parse_fact
from calmlab.values import INT_MAX, INT_MIN, Address, Int, Symbol, Text

NAMES = st.from_regex(r"[a-z_][a-zA-Z0-9_]{0,6}", fullmatch=True).filter(lambda s: s != "_")

SCALARS = st.one_of(
    st.builds(Int, st.integers(INT_MIN, INT_MAX) | st.sampled_from((INT_MIN, INT_MAX, 0, -1))),
    st.builds(Text, st.text(max_size=6) | st.sampled_from(('"', "\\", "\n\r\t", 'a"b\\c', ""))),
    st.builds(Symbol, NAMES),
    st.builds(Address, NAMES),
)


def only(elems):
    (e,) = elems
    return e


def remade(v) -> list:
    """``v`` and the values that every way of making one yields for it."""
    cls, payload = type(v), v.sort_key()[1]
    gset = lattices.make("gset", ((cls(payload),),))
    twop = lattices.make("2p", ((cls(payload),), (cls(payload),)))
    parsed_gset, parsed_twop = parse_fact(f"p(gset{{{v}}}, 2p{{added:{{{v}}}, tomb:{{{v}}}}})").args
    merged = lattices.merge(gset, parsed_gset)
    merged_twop = lattices.merge(twop, parsed_twop)
    copied = copy.deepcopy((v, gset, twop))
    pickled = pickle.loads(pickle.dumps((v, gset, twop)))
    return [
        v,
        parse_fact(f"p({v})").args[0],
        eval_head_term(Const(cls(payload)), {}),
        only(gset.elems), only(twop.added), only(twop.tombstoned),
        only(parsed_gset.elems), only(parsed_twop.added), only(parsed_twop.tombstoned),
        only(merged.elems), only(merged_twop.added), only(merged_twop.tombstoned),
        copy.copy(v), copy.deepcopy(v),
        copied[0], only(copied[1].elems), only(copied[2].added),
        pickle.loads(pickle.dumps(v)),
        pickled[0], only(pickled[1].elems), only(pickled[2].tombstoned),
    ]


@settings(max_examples=200, deadline=None)
@given(st.lists(SCALARS, min_size=1, max_size=4))
def test_values_equal_by_sort_key_are_one_object_on_every_path(values):
    made = [w for v in values for w in remade(v)]
    for a in made:
        for b in made:
            assert (a.sort_key() == b.sort_key()) == (a is b), (a, b)


@pytest.mark.parametrize("v", [Int(3), Text("t"), Symbol("s"), Address("m1")], ids=repr)
def test_values_are_immutable(v):
    field = "value" if isinstance(v, (Int, Text)) else "name"
    with pytest.raises(AttributeError):
        setattr(v, field, getattr(v, field))
    with pytest.raises(AttributeError):
        delattr(v, field)
    with pytest.raises(AttributeError):
        v.other = 1


def test_an_int_subclass_payload_is_a_plain_int():
    assert str(Int(True)) == "1"
    assert repr(Int(False)) == "Int(value=0)"
    assert Int(True) is Int(1)
    assert type(Int(True).value) is int


def test_the_tables_hold_values_weakly():
    name = "a_symbol_no_other_test_names"
    s = Symbol(name)
    assert Symbol._live[name] is s
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None
    assert name not in Symbol._live
