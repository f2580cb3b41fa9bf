"""Import structure of the package: every import of a module is at module
level, and the modules' imports of each other form no cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detksat"
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}


def internal_imports(tree):
    """The package modules a module imports from, at any depth (``__init__``
    for a name of the package itself)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
    return out


def test_modules_found():
    assert {"chains", "characteristic", "covering", "table_data", "__init__"} <= set(MODULES)


def test_every_import_at_module_level():
    nested = [
        "%s:%d" % (name, node.lineno)
        for name, tree in MODULES.items()
        for top in tree.body
        for node in ast.walk(top)
        if node is not top and isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


def test_internal_imports_have_no_cycle():
    graph = {name: internal_imports(tree) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: %s" % " -> ".join(path + [name])
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])


def test_chains_is_below_the_table():
    # the chain-type table and its reference rows live in characteristic
    assert not internal_imports(MODULES["chains"]) & {"characteristic", "table_data"}
