"""Recorded CLI outputs: exit code, stdout and stderr of every command on
every file in tests/data, replayed byte for byte.  ``represent`` also
records the text of every file it writes, by name.

A change that means to keep the output identical is checked here.  A change
that alters output on purpose records it again, from the repository root:

    PYTHONPATH=src python tests/test_golden_cli.py

and says in its change notes which outputs changed and why.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from matroid_spheres.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_cli.json"


def inputs():
    """Every data file, as a path relative to the repository root."""
    return sorted(
        p.relative_to(ROOT).as_posix()
        for p in (ROOT / "tests" / "data").glob("*.json")
        if p != GOLDEN
    )


def cases():
    """command name -> argument lists, in a fixed order."""
    files = inputs()
    one_file = {
        "validate": [[], ["--json"]],
        "verify": [[], ["--exact-nerve"], ["--json"], ["--exact-nerve", "--json"]],
        "homology": [[], ["--json"]],
        "om covectors": [[], ["--json"]],
        "om embed": [[], ["--json"]],
    }
    out = {
        name: [[*name.split(), *opts, f] for f in files for opts in variants]
        for name, variants in one_file.items()
    }
    out["represent"] = [["represent", "--json", f] for f in files]
    flag_file = "tests/data/f_1_12.json"
    out["flags compare"] = [
        ["flags", "compare", f, "default", b] for f in files for b in ("default", flag_file)
    ]
    out["weakmap"] = [
        ["weakmap", *opts, m, n]
        for m in files
        for n in files
        for opts in ([], ["--json"], ["--search-poset-map", "--flag", flag_file],
                     ["--search-poset-map", "--flag", flag_file, "--json"])
    ]
    return out


def run(args):
    if args[0] != "represent":
        result = CliRunner().invoke(main, args)
        return {"exit": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}
    with tempfile.TemporaryDirectory() as out:  # written afresh, read back by name
        result = CliRunner().invoke(main, [*args, "--out", out])
        files = {p.name: p.read_bytes().decode() for p in sorted(Path(out).iterdir())}
    return {"exit": result.exit_code, "stdout": result.stdout, "stderr": result.stderr, "files": files}


@pytest.mark.parametrize("command", sorted(cases()))
def test_cli_output_matches_recording(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text())
    recorded = golden[command]
    args_list = cases()[command]
    assert [r["args"] for r in recorded] == args_list, "case list changed: record again"
    for entry, args in zip(recorded, args_list):
        assert run(args) == entry["result"], " ".join(args)


def record():
    os.chdir(ROOT)
    golden = {
        name: [{"args": args, "result": run(args)} for args in args_list]
        for name, args_list in cases().items()
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
