"""Known-answer checker, independent of the program.

Nothing here imports matroid_spheres.  Expected answers come from the
paper's theorems and from small exact computations written here:

- every certificate passes (exit 0) on a valid geometric lattice or a
  full-rank rational configuration;
- S_G is a sphere of dimension corank(G) - 1;
- RP^2 has reduced homology Z/2 in dimension 1 and nothing else;
- n pairwise independent vectors in R^2 have 4n + 1 covectors; a simple
  rank-3 configuration has 3 + 2E covectors, where E = sum over elements e
  of 2 * (lines through e) is the number of edges of its sphere
  arrangement (Euler's formula V - E + F = 2);
- each cocircuit is the sign vector of the normal of its zero set;
- weak-map verdicts follow from rank inequalities known by construction.

``check`` returns ``(status, detail)`` with status ``"ok"``, ``"defect"``
(today's documented wrong outcome of a known defect) or ``"wrong"``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


def det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def det3(a, b, c):
    return sum(x * y for x, y in zip(cross(a, b), c))


def is_simple(cols):
    """No zero column and no two parallel columns (dimension 2 or 3)."""
    if any(not any(c) for c in cols):
        return False
    for a, b in itertools.combinations(cols, 2):
        if (det2(a, b) == 0) if len(a) == 2 else not any(cross(a, b)):
            return False
    return True


def gf2_lines(cols):
    """Three-point lines of a configuration over GF(2), as 1-based labels."""
    return [[str(i + 1), str(j + 1), str(k + 1)]
            for i, j, k in itertools.combinations(range(len(cols)), 3)
            if all((x + y + z) % 2 == 0 for x, y, z in zip(cols[i], cols[j], cols[k]))]


def rank3_lines(cols):
    """Rank-2 flats (lines) of a simple configuration in Z^3."""
    n = len(cols)
    lines = set()
    for i, j in itertools.combinations(range(n), 2):
        lines.add(frozenset([i, j] + [k for k in range(n)
                                      if det3(cols[i], cols[j], cols[k]) == 0]))
    return lines


def covector_counts(cols):
    """Expected counts for a simple configuration of integer columns."""
    n = len(cols)
    if len(cols[0]) == 2:
        return {"columns": cols, "covectors": 4 * n + 1, "cocircuits": 2 * n}
    lines = rank3_lines(cols)
    edges = sum(2 * sum(1 for line in lines if e in line) for e in range(n))
    return {"columns": cols, "covectors": 3 + 2 * edges, "cocircuits": 2 * len(lines)}


def sign(x):
    return "+" if x > 0 else "-" if x < 0 else "0"


def cocircuit_ok(word, cols):
    zeros = [i for i, ch in enumerate(word) if ch == "0"]
    if len(cols[0]) == 2:
        if len(zeros) != 1:
            return False
        c = cols[zeros[0]]
        normal = [-c[1], c[0]]
    else:
        if len(zeros) < 2:
            return False
        normal = cross(cols[zeros[0]], cols[zeros[1]])
    signs = "".join(sign(sum(a * b for a, b in zip(normal, c))) for c in cols)
    flipped = signs.translate(str.maketrans("+-", "-+"))
    return word in (signs, flipped)


def trim(dims):
    dims = [[b, list(t)] for b, t in dims]
    while dims and dims[-1] == [0, []]:
        dims.pop()
    return dims


def sphere(k):
    return [] if k < 0 else [[0, []]] * k + [[1, []]]


def check(op, code, stdout, stderr, workdir: Path, payload=None):
    """Judge one op against its known answer."""
    try:
        status, detail = judge(op, code, stdout, workdir, payload)
    except (KeyError, TypeError, AttributeError) as exc:
        status, detail = "wrong", f"output lacks {exc!r}"
    if status != "ok" and "defect" in op:
        d = op["defect"]
        if code == d["exit"] and d["stderr"] in stderr:
            return "defect", f"known defect: exit {code}, {d['stderr']}"
    return status, detail


def judge(op, code, stdout, workdir, payload):
    want = op["check"]
    if "exit" in want:
        return verdict(code == want["exit"], f"exit {code}, expected {want['exit']}")
    if op["kind"] == "pair":
        return verdict(payload == {"ok": True, "flags": want["flags"]}, f"got {payload}")
    if op["kind"] == "search":
        return verdict(payload is not None and payload["found"] is want["found"],
                       f"got {payload}")
    expect_code = 0 if want.get("weak_map", True) else 1
    if code != expect_code:
        return "wrong", f"exit {code}, expected {expect_code}: {stdout[-200:]}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "wrong", "stdout is not JSON"
    if "report_ok" in want:
        return verdict(out.get("ok") is True, "report not ok")
    if "homology" in want:
        got = trim([d["betti"], d["torsion"]] for d in out["dims"])
        return verdict(got == trim(want["homology"]), f"homology {got}")
    if "sphere" in want:
        got = trim([d["betti"], d["torsion"]] for d in out["dims"])
        return verdict(got == sphere(want["sphere"]), f"homology {got}")
    if "covectors" in want:
        words, cocircs = out["covectors"], out["cocircuits"]
        ok = (len(words) == len(set(words)) == want["covectors"]
              and len(cocircs) == len(set(cocircs)) == want["cocircuits"]
              and all(cocircuit_ok(w, want["columns"]) for w in cocircs))
        return verdict(ok, f"{len(words)} covectors, {len(cocircs)} cocircuits")
    if "flats" in want:
        out_dir = workdir / op["args"][op["args"].index("--out") + 1]
        files = [entry["file"] for entry in out["files"]]
        ok = len(set(files)) == want["flats"] and all((out_dir / f).is_file() for f in files)
        return verdict(ok, f"{len(files)} files, expected {want['flats']}")
    if "weak_map" in want:
        ok = out["weak_map"] is want["weak_map"]
        if want["witness"] is not None:
            ok = ok and want["witness"] in out["witnesses"]
        return verdict(ok, f"weak_map {out['weak_map']}")
    raise ValueError(f"unknown check {want}")


def verdict(ok, detail):
    return ("ok", "") if ok else ("wrong", detail)
