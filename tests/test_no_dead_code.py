"""Every top-level function, class and assignment of the package, and every
non-dunder method and class-level assignment, is named somewhere in the
package outside its own definition, or is part of the public API
(``w2345.__all__``).  Code that only tests call belongs in the tests.

A top-level name counts as used when its own module loads it, when another
module imports it from that module, or when any module reads an attribute
of that name; so a constant duplicated in a second module is found even
though the first copy is in use.  A read ``module.name`` whose receiver is
an imported package module counts only toward that module's top-level
``name``, so ``exprs.parse_nf`` does not keep a method ``parse_nf`` alive.

Every name a module-level import binds is read in its own module, except
``from __future__`` features and the names ``__init__`` re-exports in
``w2345.__all__``."""

import ast
import pathlib

import w2345

PKG = pathlib.Path(w2345.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
ASSIGNS = (ast.Assign, ast.AnnAssign)


def _names(node):
    """(name, node) for a definition, or for each plain name an assignment
    binds; dunder names are skipped."""
    if isinstance(node, DEFS):
        names = [node.name]
    elif isinstance(node, ASSIGNS):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [
            n.id
            for t in targets
            for n in (t.elts if isinstance(t, ast.Tuple) else [t])
            if isinstance(n, ast.Name)
        ]
    else:
        names = []
    return [(name, node) for name in names if not name.startswith("__")]


def _definitions(tree):
    """(qualified name, name, node, enclosing class or None) for top-level
    definitions and assignments and for the methods and assignments of
    top-level classes."""
    for node in tree.body:
        for name, defn in _names(node):
            yield name, name, defn, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                for name, defn in _names(item):
                    yield f"{node.name}.{name}", name, defn, node


def _module_aliases(tree, modules):
    """Local name -> package module for every ``from . import module``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and not node.module
        for alias in node.names
        if alias.name in modules
    }


def _references(module, tree, modules):
    """(kind, module or None, identifier, enclosing definitions) for every
    loaded name, attribute and imported name of a module.  An imported name,
    and an attribute read on an imported package module, carries the module
    it comes from."""
    aliases = _module_aliases(tree, modules)
    out = []

    def visit(node, inside):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append(("name", module, node.id, inside))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            receiver = node.value.id if isinstance(node.value, ast.Name) else None
            if receiver in aliases:
                out.append(("module", aliases[receiver], node.attr, inside))
            else:
                out.append(("attr", None, node.attr, inside))
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                out.append(("import", source, alias.name, inside))
        if isinstance(node, DEFS + ASSIGNS):
            inside = inside | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _used(module, name, node, cls, refs):
    """A top-level name is used by an attribute read anywhere, a load in its
    own module, an import from it or a read on it as a module; a class member
    by an attribute read on anything but a package module, or a load inside
    its class."""
    for kind, where, ident, inside in refs:
        if ident != name or id(node) in inside:
            continue
        if kind == "attr":
            return True
        if cls is None and where == module:
            return True
        if cls is not None and kind == "name" and id(cls) in inside:
            return True
    return False


def _trees(pkg):
    """Module name -> parsed source, for every module of the package."""
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pkg.glob("*.py"))
    }


def unreferenced_names(pkg=PKG):
    trees = _trees(pkg)
    refs = [ref for module, tree in trees.items() for ref in _references(module, tree, trees)]
    dead = []
    for module, tree in trees.items():
        for qualname, name, node, cls in _definitions(tree):
            if name in w2345.__all__:
                continue
            if not _used(module, name, node, cls, refs):
                dead.append(f"{module}.{qualname}")
    return dead


# Public entry points that no module of the package calls, kept because the
# benchmark harness wraps them by name: ``Session.ope_entry``, one product
# column of a single generator pair, times the mode calculus on its own.
HARNESS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
HARNESS_ENTRY_POINTS = ["walgebra.Session.ope_entry"]


def test_every_definition_is_used_in_the_package():
    assert unreferenced_names() == HARNESS_ENTRY_POINTS


def test_the_harness_entry_points_are_read_by_the_harness():
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {name.rsplit(".", 1)[-1] for name in HARNESS_ENTRY_POINTS} <= read


def _imported_names(tree):
    """The local names the module-level imports of a module bind, except
    ``from __future__`` features."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unread_imports(pkg=PKG):
    dead = []
    for module, tree in _trees(pkg).items():
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for name in _imported_names(tree):
            if name in read or (module == "__init__" and name in w2345.__all__):
                continue
            dead.append(f"{module}.{name}")
    return dead


def test_every_module_level_import_is_read():
    assert unread_imports() == []
