"""Every module-level private function, class or assigned name of the package has a library reader."""

import ast
from pathlib import Path

import mkdvlab

PACKAGE = Path(mkdvlab.__file__).parent


def _private_definitions_and_references():
    """(module, name) of each top-level private def or assignment, and the names read in the package.

    A name counts as read where it appears as a name or an attribute outside
    the definition of that name (for an assignment, outside its target);
    references from tests do not count.
    """
    definitions, references = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named = [(node.name, node)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                named = [(t.id, t) for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name, owner in named:
                if name.startswith("_") and not name.startswith("__"):
                    definitions.append((path.name, name))
                    own.setdefault(name, set()).update(id(inner) for inner in ast.walk(owner))
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
