"""Only ``bcclab.sim`` builds a ``BccInstance`` or touches its caches.

Every other module derives instances through the public functions and
the one derivation method, ``BccInstance._derive``, so the port-row
format and the cached properties have one owner. The checks walk the
syntax tree of each library module but ``sim.py``.
"""

import ast
from pathlib import Path

import pytest

import bcclab

DERIVE = "_derive"
MODULES = sorted(p for p in Path(bcclab.__file__).parent.glob("*.py") if p.name != "sim.py")


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def violations(tree):
    """(line, what) for each instance construction, private attribute of
    another object and ``__dict__`` use in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "BccInstance":
                yield node.lineno, "builds a BccInstance"
            # getattr(obj, "_name") and its kin reach an attribute by string
            if (name in ("getattr", "setattr", "delattr", "hasattr") and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)):
                yield from attribute(node.lineno, node.args[0], node.args[1].value)
        elif isinstance(node, ast.Attribute):
            yield from attribute(node.lineno, node.value, node.attr)
        elif isinstance(node, ast.Name) and node.id == "__dict__":
            yield node.lineno, "uses __dict__"


def attribute(line, owner, name):
    if name == "__dict__":
        yield line, "uses __dict__"
    elif private(name) and name != DERIVE and not (
            isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
        yield line, f"reads or writes {name} of another object"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_sim_owns_instances(path):
    found = [f"{path.name}:{line}: {what}"
             for line, what in sorted(violations(ast.parse(path.read_text())))]
    assert not found, "\n".join(found)


def test_the_checks_catch_each_break():
    broken = """
crossed = BccInstance(n, mode, ids, edges, rows)
other = sim.BccInstance(n, mode, ids, edges, rows)
crossed.__dict__.update(_rank=instance._rank)
instance._law_rows[v] = row
getattr(instance, "_rewired_rows")
state = crossed.__dict__
"""
    found = sorted(violations(ast.parse(broken)))
    assert [line for line, _ in found] == [2, 3, 4, 4, 5, 6, 7]
    kept = "self._rank\ncls._cache\ninstance._derive(swaps=())\nrun.__class__\n"
    assert list(violations(ast.parse(kept))) == []
