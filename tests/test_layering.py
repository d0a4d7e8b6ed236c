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


def _cached_properties(cls: ast.ClassDef) -> list:
    """The methods of a class decorated ``cached_property``."""
    return [func for func in cls.body if isinstance(func, ast.FunctionDef)
            and any(getattr(d, "id", getattr(d, "attr", None))
                    == "cached_property" for d in func.decorator_list)]


def _gamma_products(tree) -> set:
    """The names of the cached properties of a class ``GammaSet``."""
    return {func.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GammaSet"
            for func in _cached_properties(cls)}


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
    package writes such a contraction as its pairwise ``contract`` steps."""
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
    """Every module of the package, not only ``rs_operator``."""
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in many_operand_einsums(path.read_text())]
    assert found == []


def test_the_operand_lint_sees_three_operands():
    source = ("np.einsum('ij,jk->ik', a, b)\n"
              "np.einsum('xab,xaij,xbj->xi', r, g, p)\n"
              "einsum('i,i,i,i->', a, b, c, d)\n"
              "contract('ij,jk->ik', a, b)\n")
    assert many_operand_einsums(source) == [2, 3]


def none_indexed_matmuls(source: str) -> list:
    """'line' for each ``@`` with an operand indexed with ``None``: a
    broadcast product over stacked 4x4 blocks, which the package runs as
    one ``numerics.contract`` step, one batched matmul."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if any(isinstance(operand, ast.Subscript) and any(
                    isinstance(n, ast.Constant) and n.value is None
                    for n in ast.walk(operand.slice))
                   for operand in (node.left, node.right)):
                found.append(node.lineno)
    return found


def test_no_module_broadcasts_a_matmul():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in none_indexed_matmuls(path.read_text())]
    assert found == []


def test_the_matmul_lint_sees_a_broadcast_product():
    """The former ``GammaSet.pairs`` is flagged; a contract step, a plain
    matmul and an elementwise product with ``None`` are not."""
    former_pairs = (
        "class GammaSet:\n"
        "    @cached_property\n"
        "    def pairs(self) -> np.ndarray:\n"
        "        return read_only(self.gamma_down[..., :, None, :, :]\n"
        "                         @ self.gamma_up[..., None, :, :, :])\n")
    assert none_indexed_matmuls(former_pairs) == [4]
    source = ("contract('...rij,...sjk->...rsik', gd, gu)\n"
              "a @ b[0]\n"
              "g[:, None] * h\n"
              "x = g0 @ (G[:, :, None] @ gu)\n")
    assert none_indexed_matmuls(source) == [4]


#: each quantity a jet owns -> (class, cached property) of its one owner,
#: the only caller in the package of the function that forms it
OWNERS = {"christoffel": ("MetricJet", "christoffel"),
          "curvature": ("MetricJet", "curvature"),
          "spinor_commutator_curvature": ("Frame", "spinor_curvature")}


def unowned_formations(source: str) -> list:
    """'line name' for each call of a function of ``OWNERS`` made outside
    its owner's cached property."""
    tree = ast.parse(source)
    owned = {id(node)
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for func in _cached_properties(cls)
             for node in ast.walk(func) if isinstance(node, ast.Call)
             and OWNERS.get(_callee(node)) == (cls.name, func.name)}
    calls = sorted((node for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and _callee(node) in OWNERS
                    and id(node) not in owned), key=lambda node: node.lineno)
    return [f"{node.lineno} {_callee(node)}" for node in calls]


def _callee(call: ast.Call):
    callee = call.func
    return (callee.attr if isinstance(callee, ast.Attribute)
            else getattr(callee, "id", None))


def test_each_quantity_is_formed_by_its_owner_only():
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in unowned_formations(path.read_text())]
    assert found == []


def test_the_owner_lint_sees_a_second_formation():
    """A Christoffel formed beside the jet's, a curvature formed in a
    property of another name and a spinor curvature formed in a function
    are flagged; the owners' own calls and attribute reads are not."""
    source = ("class MetricJet:\n"
              "    @cached_property\n"
              "    def christoffel(self):\n"
              "        return christoffel(self.spec, self)\n"
              "    @cached_property\n"
              "    def bundle(self):\n"
              "        return geometry.curvature(self.spec, self)\n"
              "class Frame(MetricJet):\n"
              "    @cached_property\n"
              "    def spinor_curvature(self):\n"
              "        return spinor_commutator_curvature(self)\n"
              "def spin_connection(spec, x):\n"
              "    jet = metric_jet(spec, x)\n"
              "    return christoffel(spec, jet), jet.christoffel\n"
              "def side(frame):\n"
              "    return spinor_commutator_curvature(frame)\n")
    assert unowned_formations(source) == [
        "7 curvature", "14 christoffel", "16 spinor_commutator_curvature"]


#: the numpy calls that fold a side into a size
NORM_CALLS = {"max", "min", "abs"}
#: the one reduction allowed in the sides modules: the benchmark reads it
MEASURE_EXEMPT = {"BlockMatrix16.max_abs"}


def error_measures(source: str) -> list:
    """'line what' for each ``np.max``, ``np.min`` or ``np.abs`` call and
    each dict a function returns (a ``-> dict`` annotation, a dict display
    or comprehension, or a ``dict(...)`` call) outside ``MEASURE_EXEMPT``:
    a module of identity sides returns the sides, and how far apart they
    are is ``identity_suite``'s to measure."""
    tree = ast.parse(source)
    exempt = {id(node)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for func in cls.body if isinstance(func, ast.FunctionDef)
              and f"{cls.name}.{func.name}" in MEASURE_EXEMPT
              for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "np"
                and node.func.attr in NORM_CALLS):
            found.append((node.lineno, f"np.{node.func.attr}"))
        elif isinstance(node, ast.FunctionDef) and getattr(
                node.returns, "id", None) == "dict":
            found.append((node.lineno, "dict"))
        elif isinstance(node, ast.Return) and (
                isinstance(node.value, (ast.Dict, ast.DictComp))
                or isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "dict"):
            found.append((node.lineno, "dict"))
    return [f"{line} {what}" for line, what in sorted(found)]


def test_sides_modules_measure_no_error():
    found = [f"{name}:{line}" for name in ("rs_operator.py", "gauge.py")
             for line in error_measures((PACKAGE / name).read_text())]
    assert found == []


def test_the_measure_lint_sees_both_kinds_of_violation():
    """The former ``flat_reduction_check`` shape (a norm reduction and a
    returned dict) and a ``dict(...)`` return are flagged; the exempt
    ``max_abs``, a method ``.max()`` and the builtin ``abs`` are not."""
    source = ("class BlockMatrix16:\n"
              "    def max_abs(self):\n"
              "        return float(np.max(np.abs(self._dense)))\n"
              "def check(frame) -> dict:\n"
              "    return {'scale': np.max(np.abs(frame), axis=1)}\n"
              "def report(frame):\n"
              "    return dict(raw=frame)\n"
              "def side(frame):\n"
              "    return np.min(frame), frame.max(), abs(frame)\n")
    assert error_measures(source) == [
        "4 dict", "5 dict", "5 np.abs", "5 np.max", "7 dict", "9 np.min"]
