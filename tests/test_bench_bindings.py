"""The names the benchmark binds in the package still exist.

``perfbench/tracer.py`` wraps each ``TRACED`` entry by name, and
``perfbench/worker.py`` imports the library functions it times; a deleted
or renamed function would break ``--trace 1`` or the flag-pairs workload
without failing any other test.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("entry", load_tracer().TRACED, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_name_resolves(entry):
    # resolved as Tracer.install does: methods from the class's own dict
    _, module, attr = entry
    owner = importlib.import_module(f"matroid_spheres.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name)).get(meth)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn), f"{module}.{attr}"


def test_benchmark_imports_resolve():
    # every `from matroid_spheres... import name` in perfbench/, run as written
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("matroid_spheres"):
                for alias in node.names:
                    found.append(alias.name)
                    exec(f"from {node.module} import {alias.name}", {})
    # worker.py's library ops and CLI entry
    assert {"all_complete_flags", "default_flag", "poset_map_search", "retraction_map",
            "verify_retraction", "load_matroid_file", "cli"} <= set(found)
