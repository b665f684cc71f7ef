"""The boundary of the mode engine: monomial codes and the raw values of
apply_gen stay inside ``modes`` and the algebras it drives.

Outside ``modes``, the codec ``encode``, ``decode`` and ``decode_state`` may
be imported or loaded only inside the algebra classes ``PBWAlgebra``,
``WAlgebra`` and ``HWModule``, whose hooks run on codes; so may the reads
of ``.apply_gen``, ``._gen_memo`` and ``.word_memo``.  Everywhere else a
generator mode acts through ``modes.apply_modes`` (or ``element_modes``),
which takes and returns tuple-keyed states of domain scalars.  An
``encode`` or ``decode`` attribute read counts only when its receiver is
the ``modes`` module, so ``str.encode`` is no hit.  No module but ``modes``
writes the empty code ``b""``."""

import ast
import pathlib

import w2345

PKG = pathlib.Path(w2345.__file__).parent
CODEC = {"encode", "decode", "decode_state"}
ENGINE_ATTRS = {"apply_gen", "_gen_memo", "word_memo"}
ENGINE_CLASSES = {"PBWAlgebra", "WAlgebra", "HWModule"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(pkg):
    """Module name -> parsed source, for every module of the package but
    ``modes``."""
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pkg.glob("*.py"))
        if path.stem != "modes"
    }


def _modes_aliases(tree):
    """The local names the module binds to the ``modes`` module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:
            out |= {a.asname or a.name for a in node.names if a.name == "modes"}
        elif isinstance(node, ast.Import):
            out |= {a.asname for a in node.names if a.name == "w2345.modes" and a.asname}
    return out


def _hits(module, tree):
    """(place, what) for every engine read of a module outside the engine
    classes; place is the module and its enclosing definitions."""
    aliases = _modes_aliases(tree)
    out = []

    def visit(node, path):
        what = None
        if isinstance(node, ast.ImportFrom) and (node.module or "").rsplit(".", 1)[-1] == "modes":
            names = sorted(a.name for a in node.names if a.name in CODEC)
            what = f"imports {', '.join(names)}" if names else None
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in CODEC:
            what = f"loads {node.id}"
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            on_modes = isinstance(node.value, ast.Name) and node.value.id in aliases
            if node.attr in ENGINE_ATTRS or (on_modes and node.attr in CODEC):
                what = f"reads .{node.attr}"
        if what and not (path and path[0] in ENGINE_CLASSES):
            out.append((".".join([module, *path]), what))
        if isinstance(node, DEFS):
            path = [*path, node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, [])
    return out


def engine_reads(pkg=PKG):
    return sorted({hit for module, tree in _trees(pkg).items() for hit in _hits(module, tree)})


def test_only_the_engine_reads_codes_and_apply_gen():
    assert engine_reads() == []


def test_no_empty_code_literal_outside_modes():
    found = [
        f"{module}:{node.lineno}"
        for module, tree in _trees(PKG).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == b""
    ]
    assert found == []
