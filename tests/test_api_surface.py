"""The package's settable values, counted so that each new knob is a choice.

A settable value is a parameter with a default (positional or keyword-only)
of any function or method, or an annotated class attribute with a default.
Adding or removing one changes SETTABLE_VALUES in the same change.
"""

import ast
import pathlib

import fieldforge

SETTABLE_VALUES = 75


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
