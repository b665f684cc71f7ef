"""``walgebra.keep`` keys a kept result on the positional arguments of its
call, so a builder parameter with a default would file ``f()`` and
``f(default)`` under two keys and build the result twice, and a
keyword-only parameter could not be passed at all.  No ``@keep`` builder of
the package has either."""

import ast
import pathlib

import w2345

PKG = pathlib.Path(w2345.__file__).parent


def _is_keep(decorator):
    return (isinstance(decorator, ast.Name) and decorator.id == "keep") or (
        isinstance(decorator, ast.Attribute) and decorator.attr == "keep"
    )


def kept_builders(pkg=PKG):
    """(module.name, function node) for every ``@keep`` function."""
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and any(map(_is_keep, node.decorator_list)):
                yield f"{path.stem}.{node.name}", node


def test_kept_builders_take_plain_positional_parameters():
    builders = dict(kept_builders())
    assert {"report.session", "report.lex_basis", "walgebra.nf_expand", "singular.u0_state"} <= set(builders)
    bad = [
        name
        for name, node in builders.items()
        if node.args.defaults or node.args.kwonlyargs or node.args.kwarg
    ]
    assert bad == []
