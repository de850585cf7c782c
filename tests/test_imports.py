"""Every module-level import of the package is used, read from the source
with ``ast``, so a name left behind by a removed call fails here."""

import ast

import pytest
from conftest import SRC

MODULES = sorted(path for path in (SRC / "insrobust").glob("*.py") if path.name != "__init__.py")

# the tracer's shim: perfbench/spans.py wraps counting.eligible_periods, so
# counting keeps the name bound though no code of its own calls it
SHIMS = {("counting", "eligible_periods")}


def _imported_names(tree: ast.Module) -> list[str]:
    # the names bound by import statements at module level, those under a
    # module-level ``if`` (such as ``if TYPE_CHECKING:``) included
    names = []
    body = list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Import):
            names += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = _imported_names(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    shims = {name for module, name in SHIMS if module == path.stem}
    assert shims <= set(imported)
    assert [name for name in imported if name not in used | shims] == []
