"""Every name the benchmark's tracer wraps still exists in lcpmatch, and
the benchmark's workloads still give their pinned results.

perfbench/tracing.py finds the layers of a match by wrapping library names
in the namespace of their callers. A refactor that deletes or moves one of
them does not fail the benchmark: the tracer skips the name and reports its
per-layer metrics absent. This test fails instead. The workloads' seed-11
digests pin the benchmark's instances and results bit for bit.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as module perfbench_<name>, read and not changed."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("wrap", tracing.WRAPS, ids=lambda w: w.key)
def test_wrapped_name_resolves(wrap):
    # The same lookup Tracer.install makes before it wraps a name.
    owner = tracing.resolve(wrap.owner)
    assert owner is not None, f"{wrap.owner} does not resolve"
    assert callable(vars(owner).get(wrap.attr)), f"{wrap.key} is not a callable attribute"


SRC = Path(__file__).resolve().parent.parent / "src" / "lcpmatch"


@pytest.mark.parametrize("module", ["da", "exact"])
def test_noqa_imports_are_wrapped(module):
    # A `noqa` import keeps a name that no matcher calls, only so that the
    # tracer can wrap it; each such name must be one the tracer wraps there.
    path = SRC / f"{module}.py"
    lines = path.read_text().splitlines()
    wrapped = {w.attr for w in tracing.WRAPS if w.owner == f"lcpmatch.{module}"}
    kept = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    ]
    assert kept
    assert not set(kept) - wrapped, f"{sorted(set(kept) - wrapped)} are not wrapped in {module}"


@pytest.mark.parametrize(
    "name, digest", [("da-sampled", "699d28ee9a047392"), ("exact-family", "78636bf6723e018c")]
)
def test_seed_11_digest(name, digest):
    # The digest `perfbench/run.py --seed 11` prints: the first `cycle`
    # operations, which run on the first cycle_cases() pool cases alone.
    w = workloads.WORKLOADS[name]
    pool = w.make_pool(11, w.cycle_cases())
    hashed = workloads.Digest()
    for j in range(w.cycle):
        case, matcher = w.op(j, len(pool))
        result = matcher.call(pool[case])
        assert not w.check(pool[case], result), (j, matcher.label)
        hashed.add(j, matcher.label, result, None)
    assert hashed.hexdigest() == digest
