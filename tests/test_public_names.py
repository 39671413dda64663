"""Every public name is read by the package or the benchmark: a name that
only tests read belongs in the tests, so convlab's public surface holds no
such name."""

import ast
from pathlib import Path

import pytest

import convlab

SRC = Path(convlab.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"


def names_read(source: str) -> set[str]:
    """The names source reads: a loaded name, an attribute, an imported
    name, or a string constant (the benchmark wraps functions by name)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


@pytest.mark.parametrize(
    "source,want",
    [
        ("x = f(y)\n", {"f", "y"}),
        ("x = field.integral\n", {"field", "integral"}),
        ("from .field import integral as total\nimport scipy.fft\n", {"integral", "fft"}),
        ("TARGETS = [(field, 'conv_power')]\n", {"field", "conv_power"}),
        ("def f():\n    pass\nclass C:\n    pass\n", set()),
    ],
    ids=["name", "attribute", "import", "string", "definition"],
)
def test_checker(source, want):
    assert names_read(source) == want


def test_every_public_name_is_read():
    assert PERFBENCH.is_dir()
    read = set()
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    for path in paths + sorted(PERFBENCH.glob("*.py")):
        read |= names_read(path.read_text())
    # a name homed as "module.attribute" is that attribute under another name
    unread = {
        name for name, home in convlab._HOME.items() if (home.partition(".")[2] or name) not in read
    }
    assert unread == set()
