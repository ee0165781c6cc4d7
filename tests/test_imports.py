"""Every import in an lcpmatch module is used there.

A deletion that leaves an import behind (a `partial` whose call is gone, an
index class no function builds) fails here. The only unused imports
allowed are the `noqa` names kept for the benchmark's tracer, which
test_noqa_imports_are_wrapped checks are wrapped in their module.
"""

import ast
from pathlib import Path

import pytest

from test_perfbench_names import tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "lcpmatch"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _imports(tree, lines):
    """(bound name, whether the import statement carries a noqa) per import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            noqa = any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], noqa


def test_modules_found():
    assert {"da", "exact", "geometry", "index", "oracle"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    text = (SRC / f"{module}.py").read_text()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {w.attr for w in tracing.WRAPS if w.owner == f"lcpmatch.{module}"}
    unused = sorted(
        name
        for name, noqa in _imports(tree, text.splitlines())
        if name not in used and not (noqa and name in wrapped)
    )
    assert not unused, f"{module} imports {unused} and never uses them"
