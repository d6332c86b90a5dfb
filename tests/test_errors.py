"""The error contract: every error that user input can raise is a
``CalmlabError``, and the CLI catches exactly those and unreadable files."""

import importlib
import inspect
import pkgutil

import calmlab
from calmlab import calmlang, cli
from calmlab.calmlang import parser
from calmlab.errors import CalmlabError, ParseError
from calmlab.monocheck import UnstratifiableError
from calmlab.values import ValueError_


def exception_classes() -> list:
    """Every exception class defined in a calmlab module."""
    out = []
    for info in pkgutil.walk_packages(calmlab.__path__, "calmlab."):
        module = importlib.import_module(info.name)
        out += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    return out


def test_every_error_class_is_a_calmlab_error():
    classes = exception_classes()
    assert sorted(c.__name__ for c in classes) == [
        "CalmlabError", "ConfigError", "EvalError", "LatticeTypeError", "ParseError",
        "PartitioningError", "ReplayError", "UnstratifiableError",
        "ValidationError", "ValueError_",
    ]
    # a malformed value; the parser reports it as a ParseError at its token
    assert [c for c in classes if not issubclass(c, CalmlabError)] == [ValueError_]
    assert cli.USER_ERRORS == (CalmlabError, OSError)


def test_only_the_base_and_unstratifiable_define_init():
    classes = exception_classes()
    assert {c for c in classes if "__init__" in c.__dict__} == {CalmlabError, UnstratifiableError}


def test_parse_error_is_exported_where_it_was():
    assert parser.ParseError is calmlang.ParseError is ParseError


def test_rendering_leaves_out_what_is_unknown():
    assert str(CalmlabError("m")) == "m"
    assert str(CalmlabError("m", filename="f.calm")) == "f.calm: m"
    assert str(CalmlabError("m", (3, 4))) == "3:4: m"
    e = CalmlabError("m", (3, 4))
    e.filename = "f.calm"
    assert (str(e), e.message, e.line, e.col) == ("f.calm:3:4: m", "m", 3, 4)
