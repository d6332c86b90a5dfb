import random

import pytest
from hypothesis import example, given, strategies as st

from calmlab.calmlang import ParseError
from calmlab.errors import read_text
from calmlab.lattices import BoolOr, GSet, MaxInt, TwoPSet
from calmlab.relspace import (
    Database,
    Fact,
    canonical_json,
    db_leq,
    db_to_obj,
    db_union,
    parse_fact,
    parse_facts,
)
from calmlab.values import Address, Int, Symbol, Text

from conftest import random_database

I1 = Fact("cart", (Symbol("i1"),))
I2 = Fact("cart", (Symbol("i2"),))


def db(*facts):
    return Database.from_facts(facts)


def test_union_identity():
    assert db_union(db(), db()) == db()


def test_union_disjoint():
    assert db_union(db(I1), db(I2)) == db(I1, I2)


def test_union_idempotent_on_random_databases():
    # property harness: union(A, A) = A for 50 generated databases
    rng = random.Random(7)
    for _ in range(50):
        a = random_database(rng)
        assert db_union(a, a) == a


def test_union_is_least_upper_bound():
    rng = random.Random(8)
    for _ in range(50):
        a, b, c = (random_database(rng) for _ in range(3))
        u = db_union(a, b)
        assert db_leq(a, u) and db_leq(b, u)
        assert db_union(a, b) == db_union(b, a)
        assert db_union(db_union(a, b), c) == db_union(a, db_union(b, c))
        # any other upper bound sits above the union
        ub = db_union(u, c)
        assert db_leq(u, ub)


def test_leq_empty_is_bottom():
    rng = random.Random(9)
    for _ in range(20):
        assert db_leq(db(), random_database(rng))


def test_leq_reflexive():
    rng = random.Random(10)
    for _ in range(20):
        a = random_database(rng)
        assert db_leq(a, a)


def test_leq_strict_superset_reversed():
    e12 = Fact("e", (Symbol("t1"), Symbol("t2")))
    e21 = Fact("e", (Symbol("t2"), Symbol("t1")))
    assert not db_leq(db(e12, e21), db(e12))


# --- text format ------------------------------------------------------------


def test_parse_fact_roundtrip_each_value_kind():
    facts = [
        "r(42)",
        "r(-3)",
        'r("hi there")',
        "r(sym)",
        "r(@m1)",
        "r(gset{a, b})",
        "r(maxint(5))",
        "r(boolor(true))",
        "r(2p{added:{a, b}, tomb:{b}})",
        "r(gset, maxint, boolor)",  # bare lattice names are symbols
    ]
    for text in facts:
        f = parse_fact(text)
        assert parse_fact(str(f)) == f


def test_parse_facts_comments_and_blanks():
    text = "# header\n\ncart(i1)  # trailing\ncart(i2)\n"
    fs = parse_facts(text)
    assert fs == [I1, I2]


def test_parse_facts_error_position():
    with pytest.raises(ParseError) as e:
        parse_facts("cart(i1)\ncart(", filename="f.facts")
    assert e.value.line == 2
    assert "f.facts" in str(e.value)


def test_parse_facts_one_fact_per_line():
    with pytest.raises(ParseError) as e:
        parse_facts("cart(i1)\ncart(i2) cart(i3)", filename="f.facts")
    assert (e.value.line, e.value.col) == (2, 10)
    with pytest.raises(ParseError) as e:
        parse_facts("cart(i1,\n i2)")
    assert e.value.line == 2


@pytest.mark.parametrize("text,col", [
    ("r(a, X)", 6),
    ("r(_)", 3),
    ("r(count<X>)", 3),
    ("r(gset{a, X})", 11),
    ("r(maxint(a))", 10),
    ("r(@M1)", 3),
    ("r(9223372036854775808)", 3),
])
def test_parse_fact_rejects_non_values_at_the_token(text, col):
    with pytest.raises(ParseError) as e:
        parse_fact(text, "f.facts")
    assert (e.value.filename, e.value.line, e.value.col) == ("f.facts", 1, col)


@pytest.mark.parametrize("text,message", [
    ("r(a, X)", "f.facts:1:6: expected a value, found 'X'"),
    ("r(_)", "f.facts:1:3: expected a value, found '_'"),
    ("r(count<X>)", "f.facts:1:3: expected a value, found 'count<X>'"),
    ("r(2p{added:{a}, tomb:{X}})", "f.facts:1:23: expected a value, found 'X'"),
    ("r(maxint(5), maxint(a))", "f.facts:1:21: maxint() needs an integer, got a"),
    ("r(boolor(maybe))", "f.facts:1:10: expected 'true' or 'false', found 'maybe'"),
    ("r(gset{gset{a}})", "f.facts:1:8: expected a variable or scalar constant"),
    ("r(min(a))", "f.facts:1:6: expected ')', found '('"),
    ("r(2p)", "f.facts:1:3: invalid symbol name: '2p'"),
    ("r(a,", "f.facts:1:5: expected a term, found ''"),
    ("cart(i1)\ncart(i2) cart(i3)", "f.facts:2:10: expected one fact per line, found 'cart'"),
    ("cart(i1,\n i2)", "f.facts:2:4: a fact must fit on one line"),
])
def test_fixture_parse_errors_name_the_token(text, message):
    with pytest.raises(ParseError) as e:
        parse_facts(text, "f.facts")
    assert str(e.value) == message


def test_value_total_order_is_type_rank_then_natural():
    vals = [Symbol("a"), Int(5), Text("z"), Address("m1"), Int(-1)]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert ordered == [Int(-1), Int(5), Text("z"), Symbol("a"), Address("m1")]


@given(
    st.permutations(
        [
            Fact("b", (Int(1),)),
            Fact("b", (Int(2),)),
            Fact("a", (Symbol("x"), Symbol("y"))),
            Fact("a", (Symbol("y"), Symbol("x"))),
            Fact("c", (Text("s"),)),
        ]
    )
)
def test_canonical_serialization_ignores_construction_order(perm):
    base = canonical_json(db_to_obj(Database.from_facts(perm)))
    assert base == canonical_json(db_to_obj(Database.from_facts(list(reversed(perm)))))


def test_parse_value_lattice_nesting_rejected():
    with pytest.raises(ParseError):
        parse_fact("r(gset{gset{a}})")


scalar_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Int),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
    ).map(Text),
    st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True).map(Symbol),
    st.from_regex(r"[a-z][a-zA-Z0-9_]{0,6}", fullmatch=True).map(Address),
)


lattice_values = st.one_of(
    st.frozensets(scalar_values, max_size=3).map(GSet),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(MaxInt),
    st.booleans().map(BoolOr),
    st.tuples(st.frozensets(scalar_values, max_size=3), st.frozensets(scalar_values, max_size=3)).map(
        lambda at: TwoPSet(*at)
    ),
)


@given(scalar_values)
def test_any_scalar_value_round_trips_through_text(v):
    assert parse_fact(f"r({v})").args == (v,)


@given(st.lists(st.one_of(scalar_values, lattice_values), min_size=0, max_size=4))
@example([Text("a#b")])
@example([Text("a\x0cb")])
@example([Text("a\u2028b")])
@example([Text("a\rb\r\n")])
def test_any_fact_round_trips_through_text(args):
    f = Fact("r", tuple(args))
    assert parse_fact(str(f)) == f
    assert parse_facts(f"{f}\n# comment\n{f}  # trailing\n") == [f, f]


def test_a_raw_cr_in_a_string_ends_it_in_a_file_and_in_text(tmp_path):
    text = 'p("a\rb")\n'
    path = tmp_path / "f.facts"
    path.write_bytes(text.encode("utf-8"))
    errors = []
    for source in (text, read_text(path, "fixture")):
        with pytest.raises(ParseError) as e:
            parse_facts(source, "f.facts")
        errors.append(str(e.value))
    assert errors == ["f.facts:1:3: unterminated string"] * 2
