"""Seeded inputs and op lists for the four benchmark workloads.

Every rung is made here, in code, from the workload seed; the program only
ever sees the files written by ``write_plan``.  Each op carries the answer
the known-answer checker (``oracle.py``) expects, computed here without the
program.  README.md says why each rung is in its workload.

An op is a dict:

- ``id``: unique name, ``rung``: the rung it belongs to;
- ``kind``: ``"cli"`` (``args`` for the command line), ``"pair"`` or
  ``"search"`` (library calls, flag-pairs only);
- ``check``: what the output must be (see ``oracle.check``);
- ``defect``: for a known defect, the signature of today's wrong outcome.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("verify-ladder", "embed-ladder", "flag-pairs", "construct")

# The rung whose ops give top_rung_s.
TOP_RUNG = {
    "verify-ladder": "verify U(3,5)",
    "embed-ladder": "embed non-Fano",
    "flag-pairs": "pairs Fano",
    "construct": "validate Q rank 3 n=12",
}

FANO_COLUMNS = [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
N134_FLATS = [[], ["1"], ["2"], ["3"], ["4"], ["1", "2"], ["2", "3"], ["2", "4"],
              ["1", "3", "4"], ["1", "2", "3", "4"]]
# Minimal six-vertex triangulation of the real projective plane.
RP2_FACES = [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
             [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
# Flats that are not closed under meets: not a geometric lattice.
BROKEN_FLATS = [[], ["1", "2"], ["2", "3"], ["1", "2", "3"]]

KNOWN_DEFECTS = {
    "verify B_5": {"exit": 1, "stderr": "limited to 16 maximal faces"},
    "malformed r=x": {"exit": 1, "stderr": "ValueError"},
    "malformed face index": {"exit": 1, "stderr": "IndexError"},
}


# -- matroid specs -------------------------------------------------------------


def labels(n):
    return [str(i) for i in range(1, n + 1)]


def uniform(r, n):
    return {"format": "uniform", "r": r, "n": n}


def uniform_flats(r, n):
    els = labels(n)
    flats = [list(c) for k in range(r) for c in itertools.combinations(els, k)]
    return {"format": "flats", "ground_set": els, "flats": flats + [els]}


def boolean(n):
    els = labels(n)
    return {"format": "flats", "ground_set": els,
            "flats": [list(c) for k in range(n + 1) for c in itertools.combinations(els, k)]}


def fano():
    return {"format": "linear", "field": "GF", "p": 2, "columns": FANO_COLUMNS}


def rational_columns(cols):
    """Columns as exact rational strings; column i is divided by i % 3 + 1,
    which changes no dependency and no sign."""
    return [[str(Fraction(x, i % 3 + 1)) for x in col] for i, col in enumerate(cols)]


def vectors(cols):
    return {"dimension": len(cols[0]), "columns": {str(i + 1): c for i, c in enumerate(cols)}}


def planted_rank3(rng, n, lines):
    """Integer columns in Z^3 whose dependent triples are exactly the
    triples inside one of ``lines`` (1-based element sets)."""
    while True:
        cols = [None] * n
        for line in lines:
            p, q = rand_vec(rng, 3, 4), rand_vec(rng, 3, 4)
            for e in line:
                a, b = rng.choice([-2, -1, 1, 2]), rng.choice([-2, -1, 1, 2])
                cols[e - 1] = [a * x + b * y for x, y in zip(p, q)]
        for i in range(n):
            if cols[i] is None:
                cols[i] = rand_vec(rng, 3)
        want = {frozenset(t) for line in lines for t in itertools.combinations(line, 3)}
        dependent = {frozenset((i + 1, j + 1, k + 1))
                     for i, j, k in itertools.combinations(range(n), 3)
                     if oracle.det3(cols[i], cols[j], cols[k]) == 0}
        if dependent == want and oracle.is_simple(cols):
            return cols


def rank2_lines(rng, n):
    while True:
        cols = [rand_vec(rng, 2) for _ in range(n)]
        if oracle.is_simple(cols):
            return cols


def rand_vec(rng, d, bound=6):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(d)]
        if any(v):
            return v


def rank3_flat_count(n, lines):
    """Flats of a simple rank-3 matroid with the given planted lines."""
    inside = sum(len(line) * (len(line) - 1) // 2 for line in lines)
    return 1 + n + len(lines) + (n * (n - 1) // 2 - inside) + 1


# -- plans ---------------------------------------------------------------------


class Plan:
    """Files to write, CLI ops to run once in setup, and the measured ops."""

    def __init__(self):
        self.files: dict[str, object] = {}
        self.setup: list[dict] = []
        self.ops: list[dict] = []

    def file(self, name, obj):
        self.files[name] = obj
        return name

    def op(self, rung, kind, check, args=(), **extra):
        op = {"id": f"{rung} #{len(self.ops)}", "rung": rung, "kind": kind,
              "args": list(args), "check": check, **extra}
        if rung in KNOWN_DEFECTS:
            op["defect"] = KNOWN_DEFECTS[rung]
        self.ops.append(op)
        return op


def build(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    return {"verify-ladder": verify_ladder, "embed-ladder": embed_ladder,
            "flag-pairs": flag_pairs, "construct": construct}[workload](rng)


def write_plan(plan: Plan, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, obj in plan.files.items():
        (workdir / name).write_text(json.dumps(obj, indent=1))


def verify_ladder(rng) -> Plan:
    plan = Plan()
    ladder = [("U(2,6)", uniform(2, 6)), ("U(2,8)", uniform(2, 8)), ("U(2,10)", uniform(2, 10)),
              ("U(3,4)", uniform(3, 4)), ("U(3,5)", uniform(3, 5)), ("B_3", boolean(3)),
              ("B_4", boolean(4)), ("B_5", boolean(5)), ("Fano", fano()),
              ("non-Fano", {"format": "linear", "field": "Q",
                            "columns": rational_columns(FANO_COLUMNS)})]
    files = {name: plan.file(f"m{i}.json", spec) for i, (name, spec) in enumerate(ladder)}
    for name, _ in ladder:
        plan.op(f"verify {name}", "cli", {"report_ok": True}, ["verify", "--json", files[name]])
    for name in ("U(3,4)", "B_4", "Fano"):
        plan.op(f"verify --exact-nerve {name}", "cli", {"report_ok": True},
                ["verify", "--exact-nerve", "--json", files[name]])

    rp2 = plan.file("rp2.json", {"vertices": list(range(6)), "maximal_faces": RP2_FACES})
    plan.op("homology rp2", "cli", {"homology": [[0, []], [0, [2]], [0, []]]},
            ["homology", "--json", rp2])

    # S_G files of U(3,4) and Fano, written by represent during setup.
    for name, out in (("U(3,4)", "sg_u34"), ("Fano", "sg_fano")):
        plan.setup.append({"id": f"represent {name}",
                           "args": ["represent", files[name], "--out", out, "--json"]})
    atom = rng.choice(labels(4))
    pair = sorted(rng.sample(labels(4), 2), key=int)
    line = sorted(rng.choice(oracle.gf2_lines(FANO_COLUMNS)), key=int)
    for path, corank in ((f"sg_u34/S_0.json", 3), (f"sg_u34/S_{atom}.json", 2),
                         (f"sg_u34/S_{'_'.join(pair)}.json", 1),
                         ("sg_u34/S_1_2_3_4.json", 0), ("sg_fano/S_0.json", 3),
                         (f"sg_fano/S_{'_'.join(line)}.json", 1)):
        plan.op("homology S_G", "cli", {"sphere": corank - 1}, ["homology", "--json", path])
    return plan


def embed_ladder(rng) -> Plan:
    plan = Plan()
    fixed = [("u24", [[1, 0], [0, 1], [1, 1], [1, -1]]),
             ("u34", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
             ("n134", [[1, 0, 0], [0, 0, 1], [0, 1, 0], [1, 1, 0]]),
             ("non-Fano", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1],
                           [1, 1, 1]])]
    seeded = [("rank-2 n=5", rank2_lines(rng, 5)), ("rank-2 n=6", rank2_lines(rng, 6)),
              ("rank-3 n=5", planted_rank3(rng, 5, [(1, 2, 4)])),
              ("U(3,5)", planted_rank3(rng, 5, []))]
    for i, (name, cols) in enumerate(fixed + seeded):
        path = plan.file(f"v{i}.json", vectors(rational_columns(cols)))
        plan.op(f"covectors {name}", "cli", oracle.covector_counts(cols),
                ["om", "covectors", "--json", path])
        if name != "U(3,5)":
            plan.op(f"embed {name}", "cli", {"report_ok": True}, ["om", "embed", "--json", path])
    return plan


def flag_pairs(rng) -> Plan:
    plan = Plan()
    mats = {"U(3,4)": (uniform(3, 4), 12), "B_3": (boolean(3), 6), "B_4": (boolean(4), 24),
            "Fano": (fano(), 21)}
    for name, (spec, nflags) in mats.items():
        path = plan.file(f"m_{name[0]}{nflags}.json", spec)
        pairs = list(itertools.product(range(nflags), repeat=2))
        if name == "Fano":
            # Each flag once as source and once as target, so that the
            # sample's cost hardly depends on the seed.
            targets = list(range(nflags))
            rng.shuffle(targets)
            pairs = list(enumerate(targets))
        for a, b in pairs:
            plan.op(f"pairs {name}", "pair", {"pair_ok": True, "flags": nflags},
                    matroid=path, a=a, b=b)
    m = plan.file("u34.json", uniform(3, 4))
    n = plan.file("n134.json", {"format": "flats", "ground_set": labels(4), "flats": N134_FLATS})
    plan.op("search", "search", {"found": False}, m=m, n=n)
    return plan


def construct(rng) -> Plan:
    plan = Plan()
    planted = {8: [(1, 2, 3), (4, 5, 6)], 10: [(1, 2, 3, 4), (5, 6, 7)],
               12: [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11)]}
    rational = {n: {"format": "linear", "field": "Q",
                    "columns": rational_columns(planted_rank3(rng, n, lines))}
                for n, lines in planted.items()}
    ladder = [("B_6", boolean(6), 64), ("B_7", boolean(7), 128),
              ("U(3,8) flats", uniform_flats(3, 8), 38), ("U(4,8)", uniform(4, 8), 94),
              ("Q rank 3 n=8", rational[8], rank3_flat_count(8, planted[8])),
              ("Q rank 3 n=10", rational[10], rank3_flat_count(10, planted[10])),
              ("Q rank 3 n=12", rational[12], rank3_flat_count(12, planted[12])),
              ("Fano", fano(), 16)]
    files = {}
    for i, (name, spec, nflats) in enumerate(ladder):
        files[name] = path = plan.file(f"m{i}.json", spec)
        plan.op(f"validate {name}", "cli", {"report_ok": True}, ["validate", "--json", path])
        plan.op(f"represent {name}", "cli", {"flats": nflats},
                ["represent", path, "--out", f"rep{i}", "--json"])

    extra = {"U(3,6)": uniform(3, 6), "U(4,7)": uniform(4, 7), "U(3,8)": uniform(3, 8),
             "U(3,10)": uniform(3, 10), "U(3,12)": uniform(3, 12), "U(3,7)": uniform(3, 7),
             "U(3,4)": uniform(3, 4),
             "N134": {"format": "flats", "ground_set": labels(4), "flats": N134_FLATS}}
    for i, (name, spec) in enumerate(extra.items()):
        files[name] = plan.file(f"w{i}.json", spec)
    # (M, N, is M -> N a weak map, a witness that must be listed)
    for m, n, verdict, witness in (
            ("B_6", "U(3,6)", True, None), ("B_7", "U(4,7)", True, None),
            ("U(3,8) flats", "U(4,8)", False, None), ("U(4,8)", "U(3,8) flats", True, None),
            ("Q rank 3 n=8", "U(3,8)", False, ["1", "2", "3"]),
            ("U(3,10)", "Q rank 3 n=10", True, None),
            ("U(3,12)", "Q rank 3 n=12", True, None), ("Fano", "U(3,7)", False, None),
            ("U(3,4)", "N134", True, None), ("N134", "U(3,4)", False, ["1", "3", "4"])):
        plan.op(f"weakmap {m} -> {n}", "cli", {"weak_map": verdict, "witness": witness},
                ["weakmap", "--json", files[m], files[n]])

    bad_rank = plan.file("bad_rank.json", {"format": "uniform", "r": "x", "n": 4})
    bad_index = plan.file("bad_index.json", {"vertices": ["a", "b", "c"],
                                             "maximal_faces": [[0, 1], [1, 7]]})
    broken = plan.file("broken.json", {"format": "flats", "ground_set": labels(3),
                                       "flats": BROKEN_FLATS})
    plan.op("malformed r=x", "cli", {"exit": 2}, ["validate", bad_rank])
    plan.op("malformed face index", "cli", {"exit": 2}, ["homology", bad_index])
    plan.op("broken lattice", "cli", {"exit": 1}, ["validate", broken])
    return plan
