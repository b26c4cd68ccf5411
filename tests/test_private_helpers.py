"""Every module-level private function or class of the package has a library caller."""

import ast
from pathlib import Path

import mkdvlab

PACKAGE = Path(mkdvlab.__file__).parent


def _private_definitions_and_references():
    """(module, name) of each top-level private def, and the names read in the package.

    A name counts as read where it appears as a name or an attribute outside
    the definition of that name; references from tests do not count.
    """
    definitions, references = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                definitions.append((path.name, node.name))
                own[node.name] = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if id(node) not in own.get(name, ()):
                references.add(name)
    return definitions, references


def test_every_private_helper_is_referenced_in_the_package():
    definitions, references = _private_definitions_and_references()
    assert definitions, "no private definitions found"
    unreferenced = [f"{module}: {name}" for module, name in definitions if name not in references]
    assert unreferenced == []
