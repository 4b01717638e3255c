"""The names the benchmark binds in the package still exist.

``perfbench/tracer.py`` wraps each ``TRACED`` entry by name, and
``perfbench/worker.py`` imports the library functions it times; a deleted
or renamed function would break ``--trace 1`` or the flag-pairs workload
without failing any other test.
"""

import ast
import json
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_cli_import_loads_every_traced_module():
    # Tracer.install lists the loaded package modules right after importing
    # the CLI, and only then imports each traced function's owner.  An owner
    # the CLI imported lazily would be missing from that list: its binding
    # would stay unwrapped, unreported, and its spans would read 0.
    owners = {f"matroid_spheres.{module}" for _, module, _ in load_tracer().TRACED}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, matroid_spheres.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert owners <= set(loaded), sorted(owners - set(loaded))


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from matroid_spheres import all_complete_flags, retraction_map, uniform_matroid, verify_retraction
from matroid_spheres.cli import main
for args in (["verify", "tests/data/u34.json"], ["om", "embed", "tests/data/u34_vec.json"]):
    try:
        main.main(args=args, prog_name="matroid-spheres", standalone_mode=False)
    except SystemExit as exc:
        assert exc.code in (0, None), (args, exc.code)
lattice = uniform_matroid(3, 4)
flags = all_complete_flags(lattice)
assert verify_retraction(retraction_map(lattice, flags[0], flags[-1])).ok
print(json.dumps(tracer.summary()))
"""


def test_tracer_hooks_read_the_package_as_it_is():
    # the hooks read attributes of what the traced functions take and
    # return (a complex's maximal faces, a representation's flag); one that
    # is gone raises inside a traced call, so the run fails here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(PERFBENCH)], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    summary = json.loads(run.stdout.splitlines()[-1])
    totals, counts, distinct = summary["totals"], summary["counts"], summary["distinct"]
    assert totals["spheres.build"][0] > 0 and distinct["spheres.build"] > 0
    assert totals["topology.order_complex"][0] > 0 and counts["topology.maximal_chains"] > 0
    assert totals["topology.homology"][0] > 0 and distinct["topology.homology"] > 0
    assert totals["maps.verify_retraction"][0] == 1
