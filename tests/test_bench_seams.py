"""The seams the benchmark reaches into: traced functions, hook parameters, imports.

``bench/spans.py`` wraps library functions by name and its count hooks bind
arguments by parameter name. A renamed function or parameter does not fail
the benchmark: it turns a per-layer metric into null. These tests fail
instead.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import risp
from conftest import TINY_DOCS

BENCH = Path(__file__).resolve().parent.parent / "bench"

_spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# The parameter each count hook binds by name. The nonzero_unit_rows hook
# reads only the result.
HOOK_PARAMETERS = {
    "cohort.build_cohort": "cap",
    "storage.crc64": "data",
    "storage.save_index": "path",
    "storage.load_index": "path",
}


def _tracer():
    for module, _, _ in spans.TARGETS:
        importlib.import_module(f"{spans.PACKAGE}.{module}")
    return spans.Tracer()


def test_every_traced_function_exists():
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_the_hook_table_names_every_hook_that_binds_a_parameter():
    hooked = {f"{module}.{attr}" for module, attr, after in spans.TARGETS if after is not None}
    assert hooked == {*HOOK_PARAMETERS, "space.SemanticSpace.nonzero_unit_rows"}


@pytest.mark.parametrize("target, parameter", HOOK_PARAMETERS.items())
def test_each_count_hook_finds_its_parameter(target, parameter):
    module, attr = target.split(".", 1)
    fn = getattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr)
    assert parameter in inspect.signature(fn).parameters


def test_a_traced_lifecycle_records_every_span(tmp_path):
    tracer = _tracer()
    try:  # through the package's names, which the tracer patches
        tracer.install()
        space = risp.build(TINY_DOCS[:8], risp.IngestConfig(min_count=3, max_doc_frequency=1.0),
                           risp.SpaceConfig.create(dim=64))
        risp.update(space, TINY_DOCS[8:])
        path = tmp_path / "space.risp"
        risp.save_index(space, path)
        space = risp.load_index(path)
        space.neighbors("mantle", k=3)
        risp.disambiguate(space, "mantle", force=True)
    finally:
        tracer.uninstall()
    uncalled = [f"{module}.{attr}" for module, attr, _ in spans.TARGETS
                if tracer.spans[f"{module}.{attr}"].calls == 0]
    assert uncalled == []
    for count in ("cohort.members", "space.unit_rows_bytes", "storage.checksum_bytes",
                  "storage.bytes_written", "storage.bytes_read"):
        assert tracer.counts[count] > 0, count


def _bench_imports():
    for script in ("run.py", "selftest.py"):
        for node in ast.walk(ast.parse((BENCH / script).read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "risp":
                for alias in node.names:
                    yield node.module, alias.name


def test_every_name_the_bench_imports_resolves():
    imports = sorted(set(_bench_imports()))
    assert ("risp", "build") in imports  # the scan found the imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
