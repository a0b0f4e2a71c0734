"""Every public definition in ``src/khecke`` has a caller in the package, or
is on the list below with its reason.

The check parses each module with ``ast``.  It collects the public module
functions (``module.name``) and the public methods of public classes
(``Class.name``), and every name that occurs in ``src/khecke`` as an
``ast.Name`` or an ``ast.Attribute``, except inside a function of that name:
a recursion does not call a function from outside.  A definition whose name
never occurs is uncalled.  The match is by bare name, so the check cannot
see a method whose name matches a called one: ``SymFunc.one`` went unseen
while ``HeckeElt.one`` and ``LaurentPoly.one`` were called, and
``SymFunc.zero`` and ``TensorElt.zero`` while ``LaurentPoly.zero`` was.  A
helper the package stops calling fails this test until it is deleted or
listed here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "khecke"

UNCALLED = {
    # paper constructions that tests check against the package's own route
    "hecke.y_elt", "hecke.structure_constants_c", "hecke.phi0_tensor",
    "PsiEngine.psi_kk", "PsiEngine.psi_kk_closed", "PsiEngine.diagonal",
    "peterson.l0_membership", "peterson.fomin_stanley_via_linear_system",
    "GrothendieckEngine.cauchy_check", "GrothendieckEngine.varphi",
    "symfunc.hall_pair", "localization.sl2_psi_closed",
    # traced by perfbench/spans.py, which fails on a name that is gone
    "GrothendieckEngine.G_in_G_basis", "peterson.expand_in_fs_basis",
    "peterson.fomin_stanley_elt", "symfunc.coproduct_h",
    # primitives the tests build with
    "HeckeElt.coefficient", "TensorElt.coefficient", "SymFunc.gen",
    "weyl.has_left_descent", "weyl.inverse",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """{qualified name: bare name} of the module's public functions and the
    public methods of its public classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            out.update((f"{node.name}.{item.name}", item.name) for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_"))
    return out


def used_names(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """The ``Name`` ids and ``Attribute`` names under ``node``, leaving out a
    function's references to its own name (``inside``: the enclosing ones)."""
    if isinstance(node, ast.FunctionDef):
        inside = inside | {node.name}
    out = set()
    if isinstance(node, ast.Name) and node.id not in inside:
        out.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in inside:
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        out |= used_names(child, inside)
    return out


def test_every_uncalled_definition_is_listed():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        defined.update(public_definitions(tree, path.stem))
        used |= used_names(tree)
    assert {q for q, name in defined.items() if name not in used} == UNCALLED
