import re
from pathlib import Path

import pytest

from calmlab import corpus
from calmlab.calmlang import (
    Negation,
    ParseError,
    ValidationError,
    parse_program,
    validate_program,
)
from calmlab.calmlang.printer import rule_to_text

MINI_DECLS = """
rel edge(x, y) [input]
rel path(x, y) [output]
"""


def test_parse_minimal_rule():
    p = parse_program(MINI_DECLS + "path(X, Y) :- edge(X, Y).")
    assert len(p.rules) == 1
    assert not any(isinstance(e, Negation) for e in p.rules[0].body)


def test_parse_deadlock_corpus_has_closure_pair_and_cycle_rule():
    p = parse_program(corpus.read_text("deadlock", "program.calm"))
    texts = [r.head.relation for r in p.rules]
    assert texts.count("path") == 2  # base case + recursive step
    assert "cycle" in texts


def test_parse_negated_literal():
    src = """
rel object(x) [input]
rel reach(x) [input]
rel garbage(x) [output]
garbage(X) :- object(X), !reach(X).
"""
    p = parse_program(src)
    negs = [e for e in p.rules[0].body if isinstance(e, Negation)]
    assert len(negs) == 1
    assert negs[0].literal.relation == "reach"


def test_positions_retained():
    p = parse_program("rel edge(x, y) [input]\nrel path(x, y) [output]\npath(X, Y) :- edge(X, Y).")
    rule = p.rules[0]
    assert rule.pos == (3, 1)
    assert rule.head.args[0].pos == (3, 6)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as e:
        parse_program("rel r(x)\nr(X :- r(X).", filename="bad.calm")
    assert "bad.calm:2" in str(e.value)


# each token shape told apart by where parsing stops, and each tokenizer
# error at its file:line:col
TOKENIZER_CASES = [
    ("p(a).\n  q($).", "f.calm:2:5: unexpected character '$'"),
    ("p(a).\n  q(@ x).", "f.calm:2:5: expected machine name after '@'"),
    ('p("ab\n").', "f.calm:1:3: unterminated string"),
    ('p("ab\\', "f.calm:1:3: unterminated string"),
    ('p("a\\\nb").', "f.calm:1:3: unterminated string"),
    ('p("a\\qb").', "f.calm:1:3: bad escape '\\q'"),
    ('p("a\\\u2028b").', "f.calm:1:3: bad escape '\\' before '\\u2028'"),
    ('p("a\\\rb").', "f.calm:1:3: unterminated string"),
    ('p("a\rb").', "f.calm:1:3: unterminated string"),
    ('p("a\\rb") q', "f.calm:1:11: expected '.', found 'q'"),
    ("r(X) :- X = 2p{.", "f.calm:1:16: expected 'added', found '.'"),
    ("r(X) :- X = 2px.", "f.calm:1:14: expected '.', found 'px'"),
    ("r(X) :- X = 2p_.", "f.calm:1:14: expected '.', found 'p_'"),
    ("r(X) :- X = -3 3.", "f.calm:1:16: expected '.', found '3'"),
    ("r(X) :- X = - 3.", "f.calm:1:13: unexpected character '-'"),
    ("r(X) :- X = _ _x.", "f.calm:1:15: expected '.', found '_x'"),
    ("p(a)\t\rq", "f.calm:2:1: expected '.', found 'q'"),
    ("p(a).\r\n  q($).", "f.calm:2:5: unexpected character '$'"),
    ("p(a)\r\n\r\nq", "f.calm:3:1: expected '.', found 'q'"),
    ("p(a) # c", "f.calm:1:6: expected '.', found 'end of input'"),
]


@pytest.mark.parametrize("text,error", TOKENIZER_CASES)
def test_tokenizer_errors_and_token_boundaries(text, error):
    with pytest.raises(ParseError) as e:
        parse_program(text, filename="f.calm")
    assert str(e.value) == error


def test_parse_error_spells_the_expected_punctuation():
    with pytest.raises(ParseError) as e:
        parse_program("p(2px).", filename="f.calm")
    assert str(e.value) == "f.calm:1:4: expected ')', found 'px'"


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("rel r(x)\nrel r(y)")
    assert "duplicate" in str(e.value)


def test_aggregate_only_in_head():
    with pytest.raises(ParseError):
        parse_program("rel m(x) [input]\nrel n(k)\nn(K) :- m(count<K>).")


# --- validation -------------------------------------------------------------


def test_unsafe_head_variable():
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(MINI_DECLS + "path(X, Z) :- edge(X, Y)."))
    assert "Z" in str(e.value)


def test_unbound_negation():
    src = MINI_DECLS + "rel q(x)\npath(X, X) :- edge(X, X), !q(Z)."
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(src))
    assert "negation" in str(e.value)


def test_head_arity_mismatch():
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(MINI_DECLS + "path(X) :- edge(X, Y)."))
    assert "arity" in str(e.value)


def test_undeclared_relation():
    with pytest.raises(ValidationError):
        validate_program(parse_program(MINI_DECLS + "path(X, Y) :- mystery(X, Y)."))


def test_channel_needs_address_first_column():
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program("chan c(x, y)"))
    assert "address" in str(e.value)


def test_channel_cannot_be_input_or_output():
    with pytest.raises(ValidationError):
        validate_program(parse_program("chan c(@d, x) [input]"))


def test_event_relation_cannot_be_input():
    with pytest.raises(ValidationError):
        validate_program(parse_program("rel e(x) [event, input]"))


def test_lattice_column_not_in_channel():
    with pytest.raises(ValidationError):
        validate_program(parse_program("chan c(@d, s: gset)"))


def test_lattice_relation_not_under_negation():
    src = """
rel items(x) [input]
rel store(s: 2p)
rel out(x) [output]
store(2p{added:{X}, tomb:{}}) :- items(X).
out(X) :- items(X), !store(X).
"""
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(src))
    assert "lattice" in str(e.value)


def test_lattice_constructor_variant_must_match_column():
    src = """
rel items(x) [input]
rel store(s: gset)
store(maxint(1)) :- items(X).
"""
    with pytest.raises(ValidationError):
        validate_program(parse_program(src))


def test_reserved_relations_not_derivable_or_declarable():
    with pytest.raises(ValidationError):
        validate_program(parse_program("rel id(@a)"))
    with pytest.raises(ValidationError):
        validate_program(parse_program("rel q(@a) [input]\nid(X) :- q(X)."))


def test_comparison_needs_bound_variables():
    with pytest.raises(ValidationError):
        validate_program(parse_program(MINI_DECLS + "path(X, X) :- edge(X, X), X < Z."))


def test_wildcard_not_in_head():
    with pytest.raises(ValidationError):
        validate_program(parse_program(MINI_DECLS + "path(X, _) :- edge(X, X)."))


def test_wildcard_not_in_comparison():
    with pytest.raises(ValidationError) as raised:
        validate_program(parse_program(MINI_DECLS + "path(X, X) :- edge(X, X), X != _."))
    assert "wildcard not allowed in a comparison" in str(raised.value)
    assert (raised.value.line, raised.value.col) == (4, 32)


def test_address_constant_only_in_address_columns():
    with pytest.raises(ValidationError):
        validate_program(parse_program(MINI_DECLS + "path(X, @m1) :- edge(X, X)."))


def test_valid_cart_corpus_program():
    validate_program(parse_program(corpus.read_text("cart_two_set", "program.calm")))


@pytest.mark.parametrize("name", [e.name for e in corpus.ENTRIES])
def test_print_parse_roundtrip_on_corpus(name):
    for rule in parse_program(corpus.read_text(name, "program.calm")).rules:
        printed = rule_to_text(rule)
        (again,) = parse_program(printed).rules
        assert again == rule  # positions excluded from equality
        assert rule_to_text(again) == printed


CONSTRUCTOR_RULES = [
    "r(K, gset{}) :- s(K).",
    'r(K, gset{X, a, "s", @m1, 3}) :- s(K, X).',
    "r(K, maxint(N)) :- s(K, N).",
    "r(K, maxint(3)) :- s(K).",
    "r(K, boolor(false)) :- s(K).",
    "r(K, 2p{added:{}, tomb:{X}}) :- s(K, X).",
]


@pytest.mark.parametrize("text", CONSTRUCTOR_RULES)
def test_print_parse_roundtrip_on_each_constructor(text):
    (rule,) = parse_program(text).rules
    printed = rule_to_text(rule)
    assert printed == text
    (again,) = parse_program(printed).rules
    assert again == rule


ACC_DECLS = "rel s(k, x) [input]\nrel acc(k, v: gset)\n"

CONSTRUCTOR_ERRORS = [
    ("acc(K, boolor(maybe)) :- s(K, _).",
     "f.calm:3:15: expected 'true' or 'false', found 'maybe'"),
    ("acc(K, maxint(X)) :- s(K, X).",
     "f.calm:3:8: column v of acc holds gset values, not maxint values"),
    ("acc(K, S) :- s(K, X), acc(K, gset{X}).",
     "f.calm:3:30: lattice constructors are only allowed in rule heads"),
    ("acc(K, gset{gset{X}}) :- s(K, X).",
     "f.calm:3:13: expected a variable or scalar constant"),
    ("acc(K, 2p{added:{}, tame:{}}) :- s(K, _).",
     "f.calm:3:21: expected 'tomb', found 'tame'"),
]


@pytest.mark.parametrize("rule,error", CONSTRUCTOR_ERRORS)
def test_constructor_errors_are_located(rule, error):
    with pytest.raises((ParseError, ValidationError)) as e:
        validate_program(parse_program(ACC_DECLS + rule, filename="f.calm"))
    assert str(e.value) == error


def test_validation_order_independent():
    src = corpus.read_text("gc", "program.calm")
    p = parse_program(src)
    reordered = type(p)(p.decls, tuple(reversed(p.rules)), p.filename)
    vp1 = validate_program(p)
    vp2 = validate_program(reordered)
    assert {r.rule for r in vp1.rules} == {r.rule for r in vp2.rules}


def test_plan_runs_each_filter_once_its_variables_are_bound():
    src = MINI_DECLS + """
rel reach(x)
reach(Y) :- edge(a, X), path(X, Y), X != Y, !reach(Y), !edge(_, Y).
"""
    (reach,) = validate_program(parse_program(src)).rules
    assert [type(e).__name__ for e in reach.plan] == [
        "Literal", "Literal", "Negation", "Negation", "Comparison"]


LATTICE_DECLS = """rel e(x, y) [input]
rel acc(x, s: gset)
rel d1(x, y)
rel g(x, n)
rel h(s: gset, n)
chan msg(@dest, x)
"""

# each variable has the role of the column that first binds it (an address,
# a lattice variant, or a scalar), and each other occurrence of a variable
# or constant must be of a role its use accepts (see "Column roles" in
# docs/language.md)
ROLE_ERRORS = [
    ("d1(X, Y) :- acc(X, S), acc(Y, S).",
     "f.calm:7:31: variable S is joined at gset column s of acc, "
     "but column s of acc holds gset values"),
    ("d1(X, S) :- acc(X, S).",
     "f.calm:7:7: variable S fills column y of d1, but column s of acc holds gset values"),
    ("d1(X, Y) :- acc(X, S), e(S, Y).",
     "f.calm:7:26: variable S is joined at column x of e, but column s of acc holds gset values"),
    ("d1(X, Y) :- e(X, Y), acc(S, S).",
     "f.calm:7:29: variable S is joined at gset column s of acc, "
     "but column x of acc holds scalars"),
    ("d1(X, Y) :- acc(X, S), e(X, Y), !e(Y, S).",
     "f.calm:7:39: variable S fills column y of e, but column s of acc holds gset values"),
    ("d1(X, S) :- acc(X, S), S != X.",
     "f.calm:7:24: variable S is compared with X, but column s of acc holds gset values"),
    ("acc(X, gset{S}) :- acc(X, S).",
     "f.calm:7:13: variable S is a constructor part in gset column s of acc, "
     "but column s of acc holds gset values"),
    ("g(X, count<S>) :- acc(X, S).",
     "f.calm:7:12: variable S is counted in column n of g, but column s of acc holds gset values"),
    ("msg(@m1, S) :- acc(_, S).",
     "f.calm:7:10: variable S fills column x of msg, but column s of acc holds gset values"),
    ("h(S, count<X>) :- acc(X, S).",
     "f.calm:7:3: variable S groups count<X> in gset column s of h, "
     "but column s of acc holds gset values"),
    ("msg(X, Y) :- e(X, Y).",
     "f.calm:7:5: variable X fills address column dest of msg, but column x of e holds scalars"),
    ("msg(count<X>, Y) :- e(X, Y).",
     "f.calm:7:5: column dest of msg holds machine addresses, not scalars"),
    ("d1(D, X) :- msg(D, X).",
     "f.calm:7:4: variable D fills column x of d1, but column dest of msg holds machine addresses"),
    ("g(X, max<D>) :- msg(D, X).",
     "f.calm:7:10: variable D fills column n of g, but column dest of msg holds machine addresses"),
    ("msg(D, D) :- msg(D, _).",
     "f.calm:7:8: variable D fills column x of msg, "
     "but column dest of msg holds machine addresses"),
    ("d1(X, Y) :- msg(D, _), e(X, Y), e(D, Y).",
     "f.calm:7:35: variable D is joined at column x of e, "
     "but column dest of msg holds machine addresses"),
    ("d1(X, Y) :- msg(D, X), e(X, Y), !e(D, Y).",
     "f.calm:7:36: variable D fills column x of e, but column dest of msg holds machine addresses"),
    ("d1(X, Y) :- msg(D, X), e(X, Y), D != a.",
     "f.calm:7:33: variable D is compared with a, "
     "but column dest of msg holds machine addresses"),
    ("d1(X, Y) :- e(X, Y), @m1 = a.",
     "f.calm:7:22: @m1 is compared with a, but it is a machine address"),
    ("acc(X, gset{@m1}) :- e(X, _).",
     "f.calm:7:13: @m1 is a constructor part in gset column s of acc, but it is a machine address"),
    ("acc(X, gset{D}) :- e(X, _), msg(D, _).",
     "f.calm:7:13: variable D is a constructor part in gset column s of acc, "
     "but column dest of msg holds machine addresses"),
]


@pytest.mark.parametrize("rule,error", ROLE_ERRORS)
def test_every_term_has_the_role_of_its_column(rule, error):
    with pytest.raises(ValidationError) as e:
        validate_program(parse_program(LATTICE_DECLS + rule, filename="f.calm"))
    assert str(e.value) == error


@pytest.mark.parametrize("rule", [
    "g(X, count<D>) :- msg(D, X).",
    "d1(X, Y) :- msg(D, X), e(X, Y), D != @m1.",
    "msg(D, X) :- msg(D, X).",
])
def test_an_address_may_be_counted_compared_and_routed_on(rule):
    validate_program(parse_program(LATTICE_DECLS + rule))


def test_the_role_errors_in_the_language_doc_are_the_validators():
    # the table of the Column roles section of docs/language.md
    text = (Path(__file__).resolve().parent.parent / "docs" / "language.md").read_text()
    section = text[text.index("## Column roles"):text.index("## Execution model")]
    decls = re.search(r"```\n(.*?)```", section, re.S).group(1)
    rows = re.findall(r"^\| [^|]+ \| `([^`]+)` \| `([^`]+)` \|$", section, re.M)
    assert len(rows) == 17
    for rule, error in rows:
        with pytest.raises(ValidationError) as e:
            validate_program(parse_program(decls + rule))
        assert e.value.message == error
