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
SAMPLERS = {"covariant_rows", "covariant_derivative", "covariant_jet"}


def sampling_calls(source: str) -> list:
    """'function:line' for each ``.at(``, ``.jet(`` or ``covariant_rows``
    call made by a function outside ``SAMPLERS``."""
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
            if name in ("at", "jet", "covariant_rows"):
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_identity_sides_take_sampled_rows():
    assert sampling_calls((PACKAGE / "rs_operator.py").read_text()) == []


def test_the_sampling_lint_sees_both_kinds_of_call():
    source = ("def covariant_rows(field, frame):\n    return field.jet(frame)\n"
              "def side(field, frame):\n"
              "    return covariant_rows(field, frame), field.at(frame)\n"
              "def pure(frame, field):\n    return field.jet(frame)\n")
    assert sampling_calls(source) == ["side:4", "side:4", "pure:6"]


def einsum_paths(source: str) -> list:
    """'line' for each call that passes ``optimize=``: a contraction path
    is ``numerics.contract``'s to plan, and none is kept anywhere else."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and any(kw.arg == "optimize" for kw in node.keywords)]


def test_no_module_passes_a_contraction_path():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in einsum_paths(path.read_text())]
    assert found == []


def test_the_path_lint_sees_a_path():
    source = ("np.einsum('ij,jk->ik', a, b)\n"
              "np.einsum('ij,jk->ik', a, b, optimize=True)\n")
    assert einsum_paths(source) == [2]


def _gamma_products(tree) -> set:
    """The names of the cached properties of a class ``GammaSet``."""
    return {func.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GammaSet"
            for func in cls.body if isinstance(func, ast.FunctionDef)
            and any(getattr(d, "id", getattr(d, "attr", None))
                    == "cached_property" for d in func.decorator_list)}


def unread_products(sources: list) -> list:
    """The cached properties of ``GammaSet`` that no attribute read in the
    sources names: products formed for no reader."""
    trees = [ast.parse(source) for source in sources]
    products = set().union(*(_gamma_products(tree) for tree in trees))
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return sorted(products - read)


def test_every_gamma_product_has_a_reader():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_products(sources) == []


def test_the_product_lint_sees_an_unread_product():
    source = ("class GammaSet:\n"
              "    @cached_property\n"
              "    def pairs(self):\n        return 1\n"
              "    @functools.cached_property\n"
              "    def eps_lower(self):\n        return 2\n"
              "    @property\n"
              "    def size(self):\n        return 3\n")
    reader = "def side(gs):\n    return gs.pairs\n"
    assert unread_products([source, reader]) == ["eps_lower"]
    assert unread_products([source]) == ["eps_lower", "pairs"]


def many_operand_einsums(source: str) -> list:
    """'line' for each ``einsum`` call with three or more operands: the
    operator layer writes such a contraction as its pairwise ``contract``
    steps."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = (callee.attr if isinstance(callee, ast.Attribute)
                else getattr(callee, "id", None))
        if name == "einsum" and len(node.args) >= 4:
            found.append(node.lineno)
    return found


def test_the_operator_layer_contracts_pairwise():
    assert many_operand_einsums(
        (PACKAGE / "rs_operator.py").read_text()) == []


def test_the_operand_lint_sees_three_operands():
    source = ("np.einsum('ij,jk->ik', a, b)\n"
              "np.einsum('xab,xaij,xbj->xi', r, g, p)\n"
              "einsum('i,i,i,i->', a, b, c, d)\n"
              "contract('ij,jk->ik', a, b)\n")
    assert many_operand_einsums(source) == [2, 3]
