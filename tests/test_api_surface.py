"""The package's settable values and CLI options, pinned so that each new
knob is a choice.

A settable value is a parameter with a default (positional or keyword-only)
of any function or method, or an annotated class attribute with a default.
Adding or removing one changes SETTABLE_VALUES in the same change.  Each
CLI command accepts the options its handler reads and no other; adding or
removing one changes CLI_OPTIONS in the same change.
"""

import argparse
import ast
import pathlib

import fieldforge
from fieldforge.cli import build_parser

SETTABLE_VALUES = 75

CLI_OPTIONS = {
    "eigensolve": {"--potential", "--alpha", "--lam", "--g", "--b", "--file",
                   "--half-width", "--points", "--max-states", "--format"},
    "passage": {"--eps", "--gate-count", "--big-c"},
    "spectrum": {"--omega0", "--kappa", "--big-t", "--amplitude", "--span",
                 "--points", "--format"},
    "calibrate x": {"--g", "--beta", "--target", "--no-idle"},
    "calibrate z": {"--theta", "--lambda-pt", "--tau", "--alpha0"},
    "calibrate entangling": {"--config"},
    "compile": {"--circuit", "--config", "--out", "--format"},
    "verify": {"--circuit", "--config"},
    "hadamard": {"--circuit", "--config", "--part", "--shots", "--seed"},
    "estimate-resources": {"--circuit", "--config"},
}


def _settable(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            for arg in positional[len(positional) - len(args.defaults):]:
                yield f"{node.name}({arg.arg})"
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield f"{node.name}({arg.arg})"
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    yield f"{node.name}.{stmt.target.id}"


def test_settable_value_count():
    package = pathlib.Path(fieldforge.__file__).parent
    found = [f"{path.stem}.{name}"
             for path in sorted(package.glob("*.py"))
             for name in _settable(ast.parse(path.read_text(encoding="utf-8")))]
    assert len(found) == SETTABLE_VALUES, "\n".join(found)


def _commands(parser, name=""):
    """(command, its option strings but --help) for each command that runs."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _commands(sub, f"{name} {word}".strip())
            return
    yield name, {option for action in parser._actions
                 for option in action.option_strings} - {"-h", "--help"}


def test_cli_options():
    assert dict(_commands(build_parser())) == CLI_OPTIONS
