"""Recursive-descent parser for .calm sources and fixture files.

A fixture file is written in the program grammar: each line holds one
ground rule head, a literal whose terms are all values (no variables,
wildcards or aggregates), and ``#`` starts a comment. Its lattice
constructors are evaluated by the engine's own head-term evaluation.
"""

from __future__ import annotations

from ..errors import ParseError
from ..lexer import Token, tokenize
from ..values import Address, Int, Symbol, Text
from .printer import term_to_text
from .syntax import (
    AggTerm,
    BoolOrTerm,
    ColSpec,
    Comparison,
    Const,
    EvalError,
    GSetTerm,
    Literal,
    MaxIntTerm,
    Negation,
    Program,
    RelDecl,
    Rule,
    TwoPTerm,
    Var,
    Wildcard,
    eval_head_term,
    term_vars,
)

AGG_KINDS = ("count", "min", "max")
LATTICE_NAMES = ("gset", "maxint", "boolor", "2p")
QUALIFIERS = ("persisted", "event", "input", "output")
COMPARE_OPS = {"EQ": "=", "NEQ": "!=", "LT": "<", "LE": "<="}


class _Parser:
    def __init__(self, text: str, filename: str):
        self.toks = tokenize(text, filename)
        self.pos = 0
        self.filename = filename

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def take(self, kind: str | None = None, what: str | None = None) -> Token:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            found = t.text if t.kind != "EOF" else "end of input"
            self.fail(f"expected {what or kind}, found {found!r}", t)
        self.pos += 1
        return t

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
        cols: list[ColSpec] = []
        if self.peek().kind != "RPAREN":
            while True:
                cols.append(self.colspec())
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("RPAREN")
        quals: list[str] = []
        if self.peek().kind == "LBRACKET":
            self.take()
            while True:
                q = self.take("IDENT", "qualifier")
                if q.text not in QUALIFIERS:
                    self.fail(f"unknown qualifier {q.text!r}", q)
                quals.append(q.text)
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
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

    def colspec(self) -> ColSpec:
        t = self.peek()
        if t.kind == "ADDR":
            self.take()
            return ColSpec(t.text, "addr", None, (t.line, t.col))
        name = self.take("IDENT", "column name")
        lattice = None
        if self.peek().kind == "COLON":
            self.take()
            lt = self.take("IDENT", "lattice variant")
            if lt.text not in LATTICE_NAMES:
                self.fail(f"unknown lattice variant {lt.text!r}", lt)
            lattice = lt.text
        return ColSpec(name.text, "data", lattice, (name.line, name.col))

    # --- rules -----------------------------------------------------------

    def rule(self) -> Rule:
        head = self.literal(head=True)
        body: list = []
        if self.peek().kind == "ARROW":
            self.take()
            while True:
                body.append(self.body_elem())
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("DOT", "'.'")
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
        name = self.take("IDENT", "relation name")
        self.take("LPAREN")
        args: list = []
        if self.peek().kind != "RPAREN":
            while True:
                args.append(self.term(head=head))
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("RPAREN")
        return Literal(name.text, tuple(args), (name.line, name.col))

    def term(self, head: bool):
        t = self.peek()
        if t.kind == "VAR":
            self.take()
            return Var(t.text, (t.line, t.col))
        if t.kind == "WILD":
            self.take()
            return Wildcard((t.line, t.col))
        if t.kind == "INT":
            return self.const(t, lambda text: Int(int(text)))
        if t.kind == "STRING":
            return self.const(t, Text)
        if t.kind == "ADDR":
            return self.const(t, Address)
        if t.kind == "IDENT":
            if t.text in AGG_KINDS and self.peek(1).kind == "LT":
                if not head:
                    self.fail("aggregates may appear in rule heads only", t)
                self.take()
                self.take("LT")
                v = self.take("VAR", "aggregate variable")
                self.take("GT")
                return AggTerm(t.text, Var(v.text, (v.line, v.col)), (t.line, t.col))
            if t.text == "gset" and self.peek(1).kind == "LBRACE":
                self.take()
                return GSetTerm(tuple(self.scalar_term_set()), (t.line, t.col))
            if t.text == "maxint" and self.peek(1).kind == "LPAREN":
                self.take()
                self.take("LPAREN")
                arg = self.scalar_term()
                self.take("RPAREN")
                return MaxIntTerm(arg, (t.line, t.col))
            if t.text == "boolor" and self.peek(1).kind == "LPAREN":
                self.take()
                self.take("LPAREN")
                a = self.take("IDENT", "'true' or 'false'")
                if a.text not in ("true", "false"):
                    self.fail(f"expected 'true' or 'false', found {a.text!r}", a)
                self.take("RPAREN")
                return BoolOrTerm(Const(a.text == "true", (a.line, a.col)), (t.line, t.col))
            if t.text == "2p" and self.peek(1).kind == "LBRACE":
                self.take()
                self.take("LBRACE")
                self.expect_label("added")
                added = self.scalar_term_set()
                self.take("COMMA")
                self.expect_label("tomb")
                tomb = self.scalar_term_set()
                self.take("RBRACE")
                return TwoPTerm(tuple(added), tuple(tomb), (t.line, t.col))
            return self.const(t, Symbol)
        self.fail(f"expected a term, found {t.text!r}", t)

    def const(self, tok: Token, make) -> Const:
        """The constant ``make(tok.text)``; a malformed value (an integer
        out of range, a bad symbol or address name) fails at the token."""
        self.take()
        try:
            return Const(make(tok.text), (tok.line, tok.col))
        except ValueError as e:
            self.fail(str(e), tok)

    def expect_label(self, label: str) -> None:
        t = self.take("IDENT", f"'{label}'")
        if t.text != label:
            self.fail(f"expected '{label}', found {t.text!r}", t)
        self.take("COLON")

    def scalar_term(self):
        t = self.peek()
        term = self.term(head=False)
        if not isinstance(term, (Var, Const)):
            self.fail("expected a variable or scalar constant", t)
        return term

    def scalar_term_set(self) -> list:
        self.take("LBRACE")
        elems: list = []
        if self.peek().kind != "RBRACE":
            while True:
                elems.append(self.scalar_term())
                if self.peek().kind == "COMMA":
                    self.take()
                else:
                    break
        self.take("RBRACE")
        return elems

    def ground_literal(self) -> tuple:
        """A rule head whose terms are all values, as (relation, values)."""
        lit = self.literal(head=True)
        values = []
        for term in lit.args:
            free = [term] if isinstance(term, (Wildcard, AggTerm)) else term_vars(term)
            if free:
                self.fail_at(f"expected a value, found {term_to_text(free[0])!r}", free[0].pos)
            try:
                values.append(eval_head_term(term, {}))
            except EvalError as e:
                self.fail_at(e.message, (e.line, e.col))
        return lit.relation, tuple(values)


def parse_program(text: str, filename: str = "<input>") -> Program:
    """Parse source text into a Program AST, positions retained."""
    return _Parser(text, filename).program()


def parse_ground_literals(text: str, filename: str = "<input>") -> list:
    """Parse fixture text, one ground literal per line, into (relation,
    values) pairs."""
    p = _Parser(text, filename)
    out = []
    while p.peek().kind != "EOF":
        line = p.peek().line
        out.append(p.ground_literal())
        last, nxt = p.toks[p.pos - 1], p.peek()
        if last.line != line:
            p.fail("a fact must fit on one line", last)
        if nxt.kind != "EOF" and nxt.line == line:
            p.fail(f"expected one fact per line, found {nxt.text!r}", nxt)
    return out
