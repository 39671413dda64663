"""Every Tolerances field is a slack some check reads: a field that nothing
reads is a knob with no effect, so the tolerance record holds no such field."""

import ast
import dataclasses
from pathlib import Path

import pytest

import convlab
from convlab.config import Tolerances

SRC = Path(convlab.__file__).resolve().parent


def tolerances_read(source: str) -> set[str]:
    """The names read as DEFAULT_TOLS.<name> in source, bare or as a
    module attribute (config.DEFAULT_TOLS.<name>)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "DEFAULT_TOLS":
                found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "source,want",
    [
        ("x = DEFAULT_TOLS.pair_slack\n", {"pair_slack"}),
        ("def f():\n    return config.DEFAULT_TOLS.verify_slack * 2\n", {"verify_slack"}),
        ("tols = Tolerances()\nx = tols.pair_slack\n", set()),
        ("x = 'DEFAULT_TOLS.pair_slack'\n", set()),
    ],
    ids=["bare", "module-attribute", "other-record", "string"],
)
def test_checker(source, want):
    assert tolerances_read(source) == want


def test_every_tolerance_is_read():
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "config.py":
            read |= tolerances_read(path.read_text())
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert fields - read == set()
