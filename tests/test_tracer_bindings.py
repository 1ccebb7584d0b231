"""Every binding the benchmark's span tracer wraps still exists.

``perfbench/tracer.py`` replaces each ``STAGES`` entry by a wrapper under
the module attribute the package looks it up by; a traced run fails if
one of them is gone.  The tracer is imported from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "module_name, attr, span", tracer.STAGES, ids=[f"{m}.{a}" for m, a, _ in tracer.STAGES]
)
def test_stage_binding_resolves(module_name, attr, span):
    owner, last = tracer._resolve(module_name, attr)
    assert callable(getattr(owner, last))
