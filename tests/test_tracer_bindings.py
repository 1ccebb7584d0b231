"""Every binding the benchmark's span tracer wraps still exists, no other
import in the package, the tests or the demos goes unused, and no public
name is reached only by the tests.

``perfbench/tracer.py`` replaces each ``STAGES`` entry by a wrapper under
the module attribute the package looks it up by; a traced run fails if
one of them is gone.  The tracer is imported from its file, unchanged.
An import the package itself never uses is kept only when it is such a
binding and is marked ``noqa: F401``.  Each name in a module's
``__all__`` must be read somewhere in ``src/`` or ``demos/``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(
    p for p in (ROOT / "src" / "factorclust").glob("*.py") if p.name != "__init__.py"
)
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


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


def unused_imports(source: str, module_name: str, bindings: set) -> list[str]:
    """Names imported by ``source`` and never read, less the marked bindings."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        name
        for name, lineno in imported.items()
        if name not in used
        and not (
            "noqa: F401" in lines[lineno - 1] and (module_name, name) in bindings
        )
    )


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=[p.stem for p in MODULES] + [f"{p.parent.name}/{p.stem}" for p in SCRIPTS],
)
def test_no_unused_import(path):
    # the tracer wraps package bindings only: no test or demo import is exempt
    bindings = {(m, a) for m, a, _ in tracer.STAGES} if path in MODULES else set()
    module_name = f"factorclust.{path.stem}"
    assert unused_imports(path.read_text(encoding="utf-8"), module_name, bindings) == []


def test_unused_import_check_catches_unmarked_and_unlisted_names():
    source = (
        "import os\n"
        "from .panel import lag_stack  # noqa: F401\n"
        "from .panel import lag_autocov_sequence  # noqa: F401\n"
        "from .panel import pooled_matrix_from_covs\n"
    )
    bindings = {
        ("factorclust.m", "lag_autocov_sequence"),
        ("factorclust.m", "pooled_matrix_from_covs"),
    }
    assert unused_imports(source, "factorclust.m", bindings) == [
        "lag_stack", "os", "pooled_matrix_from_covs"
    ]


def public_names(source: str) -> list[str]:
    """The names listed in the module-level ``__all__`` of ``source``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def read_names(sources) -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` in ``sources``."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


PUBLIC_MODULES = [
    p for p in sorted((ROOT / "src" / "factorclust").glob("*.py"))
    if public_names(p.read_text(encoding="utf-8"))
]
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))


@pytest.fixture(scope="module")
def names_read_by_callers():
    return read_names(p.read_text(encoding="utf-8") for p in CALLERS)


@pytest.mark.parametrize("path", PUBLIC_MODULES, ids=[p.stem for p in PUBLIC_MODULES])
def test_no_public_name_reached_only_by_tests(path, names_read_by_callers):
    names = public_names(path.read_text(encoding="utf-8"))
    assert [name for name in names if name not in names_read_by_callers] == []


def test_public_name_check_ignores_imports_stores_and_strings():
    module = '__all__ = ["f", "g", "h", "C", "K"]\n'
    callers = [
        "from .m import f\n"
        "g = 1\n"
        "x = 'h'\n"
        "def f(): return m.C\n"
        "print(K)\n"
    ]
    names = read_names(callers)
    assert [n for n in public_names(module) if n not in names] == ["f", "g", "h"]
