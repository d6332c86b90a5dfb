"""Tokenizer and recursive-descent parser for .calm sources and fixture
files. The tokens are those of "Lexical syntax" in docs/language.md.

A fixture file is written in the program grammar: each line holds one
ground rule head, a literal whose terms are all values (no variables,
wildcards or aggregates), and ``#`` starts a comment. Its scalar tokens
are read straight to values; only its lattice constructors go through the
AST, evaluated by the engine's own head-term evaluation.
"""

from __future__ import annotations

import re

from ..errors import ParseError
from ..lattices import VARIANT_NAMES
from ..values import ESCAPES, Address, Int, Symbol, Text
from .printer import term_to_text
from .syntax import (
    ADDR,
    SCALAR,
    AggTerm,
    ColSpec,
    Comparison,
    Const,
    EvalError,
    LatticeTerm,
    Literal,
    Negation,
    Program,
    RelDecl,
    Rule,
    Var,
    Wildcard,
    eval_head_term,
    term_vars,
)

AGG_KINDS = ("count", "min", "max")
LATTICE_NAMES = tuple(VARIANT_NAMES.values())
QUALIFIERS = ("persisted", "event", "input", "output")
COMPARE_OPS = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<="}
# the token after an IDENT that makes it an aggregate or a lattice
# constructor, by the IDENT's text; any other IDENT is a symbol
_OPENS = {**dict.fromkeys(AGG_KINDS, "LT"), "gset": "LBRACE", "2p": "LBRACE",
          "maxint": "LPAREN", "boolor": "LPAREN"}
# the value of a scalar token, by its kind
_SCALARS = {"INT": lambda text: Int(int(text)), "STRING": Text, "ADDR": Address, "IDENT": Symbol}


class Token:
    # not frozen: plain assignment, not the set_field calls of a frozen
    # record, builds a token in about a third of the time (0.19 against
    # 0.58 us), and the tokenizer builds one per token
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # IDENT VAR INT STRING ADDR WILD, a _PUNCT kind, or EOF
        self.text = text
        self.line = line
        self.col = col


_PUNCT = {
    ":-": "ARROW", "!=": "NEQ", "<=": "LE", "(": "LPAREN", ")": "RPAREN",
    "{": "LBRACE", "}": "RBRACE", "[": "LBRACKET", "]": "RBRACKET", ",": "COMMA",
    ".": "DOT", ":": "COLON", "<": "LT", ">": "GT", "=": "EQ", "!": "BANG",
}
_SPELLED = {kind: f"'{sym}'" for sym, kind in _PUNCT.items()}

# each match is one token with the blanks before it, so blanks cost no match
# of their own; a token's shape is the number of its group. No two groups
# start with the same character, except that 2p is tried before an integer
# and the catch-all, last, takes any character but a blank (so trailing
# blanks match nothing); the order puts the commonest shapes first, since
# every group before the one that matches is tried. \w is exactly
# str.isalnum() or '_', and [^\W\d] also takes numerals that are not
# letters, such as '²', which tokenize() rejects
_WORD, _SYMBOL, _NL, _COMMENT, _TWOP, _INT, _ADDR, _STRING, _CLOSE = range(1, 10)
_TOKEN = re.compile(
    r"""[ \t]*(?:
      ([^\W\d]\w*)
    | (:-|!=|<=|[(){}\[\],.:<>=!])
    | (\r\n?|\n)
    | (\#[^\r\n]*)
    | (2p(?!\w))
    | (-?\d+)
    | (@(?:[^\W\d]\w*)?)
    | ("(?:[^"\\\r\n]|\\[^\r\n])*("?))
    | ([^ \t]))""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\(.)")


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """The tokens of ``text``, EOF last; a located ParseError at the first
    character that starts no token."""
    toks: list[Token] = []
    append = toks.append
    line, line_start, m = 1, 0, None
    for m in _TOKEN.finditer(text):
        shape = m.lastindex
        if shape == _COMMENT:
            continue
        if shape == _NL:
            line += 1
            line_start = m.end()
            continue
        word, col = m.group(shape), m.start(shape) - line_start + 1
        if shape == _WORD:
            if not (word[0].isalpha() or word[0] == "_"):
                raise ParseError(f"unexpected character {word[0]!r}", (line, col), filename)
            kind = "WILD" if word == "_" else "VAR" if word[0].isupper() else "IDENT"
        elif shape == _SYMBOL:
            kind = _PUNCT[word]
        elif shape == _INT:
            kind = "INT"
        elif shape == _TWOP:
            kind = "IDENT"
        elif shape == _ADDR:
            if len(word) == 1 or not (word[1].isalpha() or word[1] == "_"):
                raise ParseError("expected machine name after '@'", (line, col), filename)
            kind, word = "ADDR", word[1:]
        elif shape == _STRING:
            closed = m.group(_CLOSE)
            kind, word = "STRING", word[1:-1] if closed else word[1:]
            if "\\" in word:
                word = _ESCAPE.sub(lambda e: _escaped(e[1], (line, col), filename), word)
            if not closed:
                raise ParseError("unterminated string", (line, col), filename)
        else:
            raise ParseError(f"unexpected character {word!r}", (line, col), filename)
        append(Token(kind, word, line, col))
    # after a final comment, EOF sits at the '#'
    end = m.start(_COMMENT) if m is not None and m.lastindex == _COMMENT else len(text)
    append(Token("EOF", "", line, end - line_start + 1))
    return toks


def _escaped(c: str, pos: tuple, filename: str) -> str:
    """The character that a backslash before ``c`` stands for."""
    if c in ESCAPES:
        return ESCAPES[c]
    # a line break such as U+2028 is shown escaped, to keep the error one line
    shown = f"'\\{c}'" if c.splitlines() == [c] else f"'\\' before {c!r}"
    raise ParseError(f"bad escape {shown}", pos, filename)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.toks = tokenize(text, filename)
        self.pos = 0
        self.filename = filename

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.pos + ahead]  # EOF ends every token list

    def take(self, kind: str | None = None, what: str | None = None) -> Token:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            found = t.text if t.kind != "EOF" else "end of input"
            self.fail(f"expected {what or _SPELLED.get(kind, kind)}, found {found!r}", t)
        self.pos += 1
        return t

    def items(self, item, *args) -> list:
        """``item (',' item)*``, each item parsed by ``item(*args)``."""
        out = [item(*args)]
        while self.peek().kind == "COMMA":
            self.take()
            out.append(item(*args))
        return out

    def fail(self, msg: str, tok: Token):
        self.fail_at(msg, (tok.line, tok.col))

    def fail_at(self, msg: str, pos: tuple):
        raise ParseError(msg, pos, self.filename)

    # --- program ---------------------------------------------------------

    def program(self) -> Program:
        decls: list[RelDecl] = []
        rules: list[Rule] = []
        seen: dict[str, RelDecl] = {}
        while self.peek().kind != "EOF":
            t = self.peek()
            if t.kind == "IDENT" and t.text in ("rel", "chan") and self.peek(1).kind == "IDENT":
                d = self.decl()
                if d.name in seen:
                    self.fail(f"duplicate declaration of relation {d.name}", t)
                seen[d.name] = d
                decls.append(d)
            else:
                rules.append(self.rule())
        return Program(tuple(decls), tuple(rules), self.filename)

    def decl(self) -> RelDecl:
        kw = self.take("IDENT")
        channel = kw.text == "chan"
        name = self.take("IDENT", "relation name")
        self.take("LPAREN")
        cols = self.items(self.colspec) if self.peek().kind != "RPAREN" else []
        self.take("RPAREN")
        quals: list[str] = []
        if self.peek().kind == "LBRACKET":
            self.take()
            quals = self.items(self.qualifier)
            self.take("RBRACKET")
        if "persisted" in quals and "event" in quals:
            self.fail("relation cannot be both persisted and event", kw)
        if channel:
            if "persisted" in quals:
                self.fail("channel relations are always event-class", kw)
            persistence = "event"
        else:
            persistence = "event" if "event" in quals else "persisted"
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            self.fail(f"duplicate column name in {name.text}", name)
        return RelDecl(
            name=name.text,
            cols=tuple(cols),
            channel=channel,
            persistence=persistence,
            is_input="input" in quals,
            is_output="output" in quals,
            pos=(kw.line, kw.col),
        )

    def qualifier(self) -> str:
        q = self.take("IDENT", "qualifier")
        if q.text not in QUALIFIERS:
            self.fail(f"unknown qualifier {q.text!r}", q)
        return q.text

    def colspec(self) -> ColSpec:
        t = self.peek()
        if t.kind == "ADDR":
            self.take()
            return ColSpec(t.text, ADDR, (t.line, t.col))
        name = self.take("IDENT", "column name")
        role = SCALAR
        if self.peek().kind == "COLON":
            self.take()
            lt = self.take("IDENT", "lattice variant")
            if lt.text not in LATTICE_NAMES:
                self.fail(f"unknown lattice variant {lt.text!r}", lt)
            role = lt.text
        return ColSpec(name.text, role, (name.line, name.col))

    # --- rules -----------------------------------------------------------

    def rule(self) -> Rule:
        head = self.literal(head=True)
        body: list = []
        if self.peek().kind == "ARROW":
            self.take()
            body = self.items(self.body_elem)
        self.take("DOT")
        return Rule(head, tuple(body), head.pos)

    def body_elem(self):
        t = self.peek()
        if t.kind == "BANG":
            self.take()
            lit = self.literal(head=False)
            return Negation(lit, (t.line, t.col))
        if t.kind == "IDENT" and self.peek(1).kind == "LPAREN":
            return self.literal(head=False)
        # otherwise a comparison
        left = self.term(head=False)
        op_tok = self.peek()
        if op_tok.kind not in COMPARE_OPS:
            self.fail("expected a comparison operator or a literal", op_tok)
        self.take()
        right = self.term(head=False)
        return Comparison(COMPARE_OPS[op_tok.kind], left, right, (op_tok.line, op_tok.col))

    def literal(self, head: bool) -> Literal:
        name, args = self.relation_args(self.term, head)
        return Literal(name.text, args, (name.line, name.col))

    def relation_args(self, item, *args) -> tuple:
        """``relation '(' [item (',' item)*] ')'``, as the relation's name
        token and the tuple of items."""
        name = self.take("IDENT", "relation name")
        self.take("LPAREN")
        out = self.items(item, *args) if self.peek().kind != "RPAREN" else []
        self.take("RPAREN")
        return name, tuple(out)

    def term(self, head: bool):
        t = self.peek()
        if t.kind == "VAR":
            self.take()
            return Var(t.text, (t.line, t.col))
        if t.kind == "WILD":
            self.take()
            return Wildcard((t.line, t.col))
        if t.kind == "IDENT" and self.opens_compound(t):
            self.take()
            if t.text in AGG_KINDS:
                if not head:
                    self.fail("aggregates may appear in rule heads only", t)
                self.take("LT")
                v = self.take("VAR", "aggregate variable")
                self.take("GT")
                return AggTerm(t.text, Var(v.text, (v.line, v.col)), (t.line, t.col))
            if t.text == "gset":
                parts = (self.scalar_term_set(),)
            elif t.text == "2p":
                self.take("LBRACE")
                added = self.labelled_set("added")
                self.take("COMMA")
                parts = (added, self.labelled_set("tomb"))
                self.take("RBRACE")
            else:
                self.take("LPAREN")
                if t.text == "maxint":
                    arg = self.scalar_term()
                else:
                    a = self.take("IDENT", "'true' or 'false'")
                    if a.text not in ("true", "false"):
                        self.fail(f"expected 'true' or 'false', found {a.text!r}", a)
                    arg = Const(a.text == "true", (a.line, a.col))
                self.take("RPAREN")
                parts = ((arg,),)
            return LatticeTerm(t.text, parts, (t.line, t.col))
        return Const(self.scalar(t), (t.line, t.col))

    def opens_compound(self, t: Token) -> bool:
        """Whether ``t``, the token at hand, opens an aggregate or a lattice
        constructor rather than naming a symbol."""
        return t.text in _OPENS and _OPENS[t.text] == self.peek(1).kind

    def scalar(self, t: Token):
        """The value of ``t``, the scalar token at hand; a malformed value
        (an integer out of range, a bad symbol or address name) fails at the
        token."""
        make = _SCALARS.get(t.kind)
        if make is None:
            self.fail(f"expected a term, found {t.text!r}", t)
        self.take()
        try:
            return make(t.text)
        except ValueError as e:
            self.fail(str(e), t)

    def labelled_set(self, label: str) -> tuple:
        """``label: {...}`` inside a 2p constructor."""
        t = self.take("IDENT", f"'{label}'")
        if t.text != label:
            self.fail(f"expected '{label}', found {t.text!r}", t)
        self.take("COLON")
        return self.scalar_term_set()

    def scalar_term(self):
        t = self.peek()
        term = self.term(head=False)
        if not isinstance(term, (Var, Const)):
            self.fail("expected a variable or scalar constant", t)
        return term

    def scalar_term_set(self) -> tuple:
        self.take("LBRACE")
        elems = self.items(self.scalar_term) if self.peek().kind != "RBRACE" else []
        self.take("RBRACE")
        return tuple(elems)

    def ground_literal(self) -> tuple:
        """A rule head whose terms are all values, as (relation, values)."""
        name, values = self.relation_args(self.ground_value)
        return name.text, values

    def ground_value(self):
        """A scalar token read straight to its value, or a lattice
        constructor of scalars evaluated as a rule head's term is."""
        t = self.peek()
        if t.kind in _SCALARS and not self.opens_compound(t):
            return self.scalar(t)
        term = self.term(head=True)
        free = [term] if isinstance(term, (Wildcard, AggTerm)) else term_vars(term)
        if free:
            self.fail_at(f"expected a value, found {term_to_text(free[0])!r}", free[0].pos)
        try:
            return eval_head_term(term, {})
        except EvalError as e:
            self.fail_at(e.message, (e.line, e.col))


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse source text into a Program AST, positions retained."""
    return _Parser(text, filename).program()


def parse_ground_literals(text: str, filename: str = "<input>") -> list:
    """Parse fixture text, one ground literal per line, into (relation,
    values) pairs."""
    p = _Parser(text, filename)
    out = []
    first = p.peek()
    while first.kind != "EOF":
        out.append(p.ground_literal())
        last, nxt = p.toks[p.pos - 1], p.peek()
        if last.line != first.line:
            p.fail("a fact must fit on one line", last)
        if nxt.kind != "EOF" and nxt.line == first.line:
            p.fail(f"expected one fact per line, found {nxt.text!r}", nxt)
        first = nxt
    return out
