"""The package's modules reach one another only through public names: no
``from .mod import _name`` and no ``mod._name`` on a sibling module."""

import ast
from pathlib import Path

import curved_rs

PACKAGE = Path(curved_rs.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reaches(source: str, filename: str = "<source>") -> list:
    """'file:line name' for each private name the source imports from, or
    reads off, a module of the package."""
    tree = ast.parse(source, filename)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("curved_rs")):
            for alias in node.names:
                if node.module in (None, "curved_rs"):
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append(f"{filename}:{node.lineno} {alias.name}")
        elif isinstance(node, ast.Import):
            siblings.update(alias.asname for alias in node.names
                            if alias.name.startswith("curved_rs.")
                            and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{filename}:{node.lineno} "
                         f"{node.value.id}.{node.attr}")
    return found


def test_modules_use_only_public_names_of_their_siblings():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += private_reaches(path.read_text(), path.name)
    assert found == []


def test_the_guard_sees_both_kinds_of_reach():
    source = ("from .rs_operator import _eps_gamma, eps_gamma\n"
              "from . import rs_operator as rso\n"
              "import curved_rs.gauge as gauge_mod\n"
              "rso._chain_rhs(rso.chain_rhs, gauge_mod._massless)\n"
              "local._private, rso.__name__\n")
    assert private_reaches(source) == [
        "<source>:1 _eps_gamma", "<source>:4 rso._chain_rhs",
        "<source>:4 gauge_mod._massless"]


#: the functions of ``rs_operator`` that sample a field: every other one
#: takes the rows they return
SAMPLERS = {"covariant_rows", "covariant_derivative", "nested_rows"}


def sampling_calls(source: str) -> list:
    """'function:line' for each ``.at(`` or ``covariant_rows`` call made by
    a function outside ``SAMPLERS``."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name in SAMPLERS:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = (callee.attr if isinstance(callee, ast.Attribute)
                    else getattr(callee, "id", None))
            if name in ("at", "covariant_rows"):
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_identity_sides_take_sampled_rows():
    assert sampling_calls((PACKAGE / "rs_operator.py").read_text()) == []


def test_the_sampling_lint_sees_both_kinds_of_call():
    source = ("def covariant_rows(field, frame):\n    return field.at(frame)\n"
              "def side(field, frame):\n"
              "    return covariant_rows(field, frame), field.at(frame)\n"
              "def pure(frame, d):\n    return d\n")
    assert sampling_calls(source) == ["side:4", "side:4"]
