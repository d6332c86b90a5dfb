"""Tokenizer of the program parser, which reads fixture files too."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # IDENT VAR INT STRING ADDR WILD op-kinds EOF
    text: str
    line: int
    col: int


_PUNCT = {
    ":-": "ARROW",
    "!=": "NEQ",
    "<=": "LE",
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ".": "DOT",
    ":": "COLON",
    "<": "LT",
    ">": "GT",
    "=": "EQ",
    "!": "BANG",
}

# identifier characters after the first; \w is exactly str.isalnum() or "_"
_IDENT_REST = re.compile(r"\w*")


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        # '2p' names the two-phase-set variant and must not lex as INT+IDENT
        if text.startswith("2p", i) and (i + 2 >= n or not _is_ident_char(text[i + 2])):
            toks.append(Token("IDENT", "2p", start_line, start_col))
            i += 2
            col += 2
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "@":
            j = i + 1
            if j >= n or not _is_ident_start(text[j]):
                raise ParseError("expected machine name after '@'", (line, col), filename)
            j = _IDENT_REST.match(text, j).end()
            toks.append(Token("ADDR", text[i + 1 : j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            buf: list[str] = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", (start_line, start_col), filename)
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    if esc == "n":
                        buf.append("\n")
                    elif esc == "t":
                        buf.append("\t")
                    elif esc in ('"', "\\"):
                        buf.append(esc)
                    else:
                        raise ParseError(f"bad escape '\\{esc}'", (line, col), filename)
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", (start_line, start_col), filename)
            toks.append(Token("STRING", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if _is_ident_start(c):
            j = _IDENT_REST.match(text, i + 1).end()
            word = text[i:j]
            if word == "_":
                kind = "WILD"
            elif word[0].isupper():
                kind = "VAR"
            else:
                kind = "IDENT"
            toks.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        sym = text[i : i + 2] if text[i : i + 2] in _PUNCT else c  # longest first
        if sym not in _PUNCT:
            raise ParseError(f"unexpected character {c!r}", (line, col), filename)
        toks.append(Token(_PUNCT[sym], sym, start_line, start_col))
        i += len(sym)
        col += len(sym)
    toks.append(Token("EOF", "", line, col))
    return toks
