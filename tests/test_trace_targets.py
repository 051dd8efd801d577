"""Every span target of the benchmark's tracer names a live attribute.

perfbench's tracer looks up each ``(module, attribute)`` of ``TARGETS`` in
``perfbench/spans.py`` by name, so renaming a traced function or method in
``hyperts`` breaks the benchmark; these tests catch that in the main suite.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def trace_targets():
    """``spans.TARGETS``, read from the file without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = trace_targets()


@pytest.mark.parametrize("module,attr,span", TARGETS,
                         ids=[f"{mod}:{attr}" for mod, attr, _ in TARGETS])
def test_target_resolves(module, attr, span):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer wraps the method found in the class's own namespace
        assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr
