"""Every import in an lcpmatch or test module is used there, and every
public library name has a caller.

A deletion that leaves an import behind (a `partial` whose call is gone, an
index class no function builds) fails here. The only unused imports
allowed are the `noqa` names kept for the benchmark's tracer, which
test_noqa_imports_are_wrapped checks are wrapped in their module, and the
`noqa` re-exports of the test modules. A name the package root exports, and
every public top-level function or class of a library module, must be used
outside its own definition by the library, by perfbench/ or by a Python
example of the README, not only by the tests; so must every public method of
a library class, outside that method. The few that are not yet are listed in
PENDING, with the ROADMAP item that gives each a caller or deletes it; that
list can only shrink.
"""

import ast
from pathlib import Path

import pytest

from reference import tracing

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lcpmatch"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
# The file of each library module, and of each test module as tests/<name>.
FILES = {m: SRC / f"{m}.py" for m in MODULES}
FILES |= {f"tests/{p.stem}": p for p in sorted(TESTS.glob("*.py"))}


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


@pytest.mark.parametrize("module", FILES)
def test_every_import_is_used(module):
    test = FILES[module].parent == TESTS
    text = FILES[module].read_text()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = {w.attr for w in tracing.WRAPS if w.owner == f"lcpmatch.{module}"}
    unused = sorted(
        name
        for name, noqa in _imports(tree, text.splitlines())
        if name not in used and not (noqa and (test or name in wrapped))
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


def _has_caller(name, skip=None):
    """Whether `name` is in perfbench/, the README or a library statement
    other than the definition of `skip` (by default `name` itself)."""
    skip = skip or name
    return name in OUTSIDE or any(name in refs for owner, refs in LIBRARY if owner != skip)


@pytest.mark.parametrize("name", _root_exports())
def test_root_export_has_a_caller(name):
    assert _has_caller(name), f"lcpmatch.{name} is used only by the tests"


# The public top-level functions and classes of the library's modules.
PUBLIC = sorted(owner for owner, _ in LIBRARY if owner is not None and not owner.startswith("_"))


def _called_outside(cls, fn):
    """Whether method `fn` of class `cls` is named in perfbench/, the README,
    another member of `cls` or a library statement other than `cls`."""
    rest = [node for node in cls.body if node is not fn]
    return _has_caller(fn.name, cls.name) or fn.name in _refs(rest, False)


# Whether each public top-level name, and each public method of a library
# class as "Class.method", has a caller.
CALLED = {name: _has_caller(name) for name in PUBLIC} | {
    f"{cls.name}.{fn.name}": _called_outside(cls, fn)
    for module in MODULES
    for cls in ast.parse((SRC / f"{module}.py").read_text()).body
    if isinstance(cls, ast.ClassDef)
    for fn in cls.body
    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
}
# Public names and methods that only the tests use today, with the ROADMAP
# item that gives each a caller or deletes it.
PENDING = {
    "dihedral_interval": "items 8 and 13",
    "pigeonhole_triplets": "item 7",
    "bottleneck_distance": "item 12",
    "AngleInterval.contains": "item 8",
}


@pytest.mark.parametrize("name", [name for name in CALLED if name not in PENDING])
def test_public_name_has_a_caller(name):
    assert CALLED[name], f"{name} is used only by the tests"


@pytest.mark.parametrize("name", sorted(PENDING))
def test_pending_name_still_has_no_caller(name):
    assert name in CALLED, f"{name} is gone: drop it from PENDING"
    assert not CALLED[name], f"{name} has a caller now: drop it from PENDING"
