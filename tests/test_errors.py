"""The package's error policy: input is refused with InvalidInput, the
package's one refusal class, never a builtin one, so that the command line
can tell bad input (exit 2) from an internal error (exit 1) by type alone."""

import ast
import builtins
from pathlib import Path

import pytest

import convlab
from convlab import ConvlabError, InvalidInput, errors

SRC = Path(convlab.__file__).resolve().parent

# Every raise in the package is a ConvlabError, apart from the one PEP 562
# requires: the package's module __getattr__ raises AttributeError for an
# unknown name, which hasattr and `from convlab import x` depend on.
ALLOWED = {("__init__.py", "__getattr__", "AttributeError")}


def builtin_raises(source: str, filename: str) -> set[tuple[str, str, str]]:
    """(file, enclosing function, class) of every raise of a builtin
    exception class in source; a bare re-raise names no class."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(cls, type) and issubclass(cls, BaseException):
                found.add((filename, where, exc.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source, filename=filename), "<module>")
    return found


def test_invalid_input_is_a_package_error_and_a_value_error():
    assert issubclass(InvalidInput, ConvlabError)
    assert issubclass(InvalidInput, ValueError)


def test_taxonomy():
    # one class for every refusal (exit 2), three for honest negative
    # results (exit 3), and their base
    classes = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert classes == {
        "ConvlabError", "InvalidInput", "NotConverged", "ConvergenceFailure", "CeilingViolated"
    }
    assert all(issubclass(getattr(errors, name), ConvlabError) for name in classes)
    exported = {
        name for name in convlab.__all__
        if isinstance(getattr(convlab, name), type)
        and issubclass(getattr(convlab, name), BaseException)
    }
    assert exported == classes


@pytest.mark.parametrize(
    "source,want",
    [
        ("def f(x):\n    if x:\n        raise ValueError('x')\n", {("m.py", "f", "ValueError")}),
        ("raise OverflowError\n", {("m.py", "<module>", "OverflowError")}),
        ("def f():\n    try:\n        g()\n    except OSError:\n        raise\n", set()),
        ("def f(exc):\n    raise InvalidInput('x') from exc\n", set()),
        ("def f(report):\n    raise report.not_converged()\n", set()),
    ],
    ids=["call", "bare-class", "re-raise", "package-class", "expression"],
)
def test_checker(source, want):
    assert builtin_raises(source, "m.py") == want


def test_no_builtin_raise_in_package():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= builtin_raises(path.read_text(), path.name)
    assert found == ALLOWED
