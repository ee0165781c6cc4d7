"""Every import in an lcpmatch module is used there, and every root export
has a caller.

A deletion that leaves an import behind (a `partial` whose call is gone, an
index class no function builds) fails here. The only unused imports
allowed are the `noqa` names kept for the benchmark's tracer, which
test_noqa_imports_are_wrapped checks are wrapped in their module. A name
the package root exports must be used outside its own definition by the
library, by perfbench/ or by a Python example of the README, not only by
the tests.
"""

import ast
from pathlib import Path

import pytest

from reference import tracing

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


ROOT = SRC.parent.parent


def _refs(trees, strings: bool) -> set[str]:
    """Names and attribute names read in `trees`, and string constants when `strings`."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def _root_exports() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


# (name of the function or class it defines, or None; its references) per
# top-level statement of the library's modules.
LIBRARY = [
    (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None, _refs([node], False))
    for module in MODULES
    for node in ast.parse((SRC / f"{module}.py").read_text()).body
]
# perfbench's references, strings included since its tracer wraps library
# names by string, and those of the README's Python examples.
OUTSIDE = _refs(
    [ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")], strings=True
) | _refs(
    [
        ast.parse(block.removeprefix("python"))
        for block in (ROOT / "README.md").read_text().split("```")[1::2]
        if block.startswith("python")
    ],
    strings=False,
)


def test_root_exports_found():
    assert {"da_match", "MatchResult", "generate_instance"} <= set(_root_exports())


@pytest.mark.parametrize("name", _root_exports())
def test_root_export_has_a_caller(name):
    used = name in OUTSIDE or any(name in refs for owner, refs in LIBRARY if owner != name)
    assert used, f"lcpmatch.{name} is used only by the tests"
