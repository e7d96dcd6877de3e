"""The package exports nothing that the package itself does not read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "serretlab"


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _exports(init):
    """(name, defining module) for every name that ``__init__`` imports."""
    return [(alias.asname or alias.name, node.module)
            for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def _reads(stem, tree):
    """(module, name) pairs that module ``stem`` reads: a name it defines or
    imported from a package module, or an attribute of a package module it
    imported.  ``mp.pi`` does not count as a read of ``numkernel.pi``."""
    imported, modules = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            imported[node.name] = (stem, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            reads.add(imported[node.id])
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_every_export_is_used_in_the_package():
    trees = _modules()
    exports = _exports(trees.pop("__init__"))
    assert len(exports) > 40  # the parse found the export list
    used = set().union(*(_reads(stem, tree) for stem, tree in trees.items()))
    unused = sorted(name for name, module in exports if (module, name) not in used)
    # independent routes that only the tests call live in tests/oracles.py
    assert unused == []


def _unread_imports(tree):
    """Names that a module imports but never reads."""
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read_in_its_module():
    trees = _modules()
    trees.pop("__init__")  # its imports are the exports
    unread = {stem: sorted(_unread_imports(tree)) for stem, tree in trees.items()}
    assert {stem: names for stem, names in unread.items() if names} == {}
