"""Every top-level function and class of the package, and every non-dunder
method, is named somewhere in the package outside its own definition, or is
part of the public API (``w2345.__all__``).  Code that only tests call
belongs in the tests."""

import ast
import pathlib

import w2345

PKG = pathlib.Path(w2345.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(qualified name, node) for top-level functions and classes and the
    non-dunder methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(identifier, enclosing definitions) for every name, attribute and
    imported name in a module."""
    out = []

    def visit(node, inside):
        if isinstance(node, ast.Name):
            out.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], inside))
        if isinstance(node, DEFS):
            inside = inside | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def unreferenced_names(pkg=PKG):
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pkg.glob("*.py"))
    }
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    dead = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name in w2345.__all__:
                continue
            if not any(r == name and id(node) not in inside for r, inside in refs):
                dead.append(f"{module[:-3]}.{qualname}")
    return dead


def test_every_definition_is_used_in_the_package():
    assert unreferenced_names() == []
