"""The one error type of user input. Every error that a program, fixture or
config file can cause is a ``CalmlabError``; the CLI prints it as one
``error:`` line and exits 2."""

from __future__ import annotations


class CalmlabError(Exception):
    """A user error at ``pos`` (line, col) of ``filename``, either of which
    may be unknown. Renders as ``file:line:col: message`` without the
    unknown parts; ``filename`` may be set after the error is raised."""

    def __init__(self, message: str, pos: tuple | None = None, filename: str | None = None):
        super().__init__(message)
        self.message = message
        self.line, self.col = pos or (None, None)
        self.filename = filename

    def __str__(self) -> str:
        where = [str(p) for p in (self.filename, self.line, self.col) if p is not None]
        return ":".join(where + [" " + self.message]) if where else self.message


class ParseError(CalmlabError):
    """Malformed program or fixture text, at the offending token."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the user's ``what`` file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CalmlabError(f"cannot read {what} {path}: {e}") from None
