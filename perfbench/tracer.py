"""Spans and counters around the program's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``matroid_spheres`` module that holds it (the defining module, the package
and every module that imported the name), and each traced method on its
class.  The package source is never edited.

A span is (id, parent id, name, start, end, op).  Spans stay in memory;
``write_spans`` writes them out at the end.  Self time is a span's duration
minus the durations of its child spans, kept as running sums per name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (span name, module, attribute; "Class.method" for methods)
TRACED = [
    ("jsonio.read", "jsonio", "read_json"),
    ("jsonio.dump", "jsonio", "dump_json"),
    ("lattice.load", "lattice", "load_matroid"),
    ("lattice.verify_geometric", "lattice", "verify_geometric"),
    ("lattice.closure", "lattice", "GeometricLattice.closure"),
    ("lattice.rank_of_subset", "lattice", "GeometricLattice.rank_of_subset"),
    ("linalg.rank", "linalg", "rank_q"),
    ("linalg.rank", "linalg", "rank_gfp"),
    ("linalg.nullspace", "linalg", "nullspace_q"),
    ("spheres.build", "spheres", "FlagRepresentation.build"),
    ("spheres.verify_arrangement", "spheres", "verify_arrangement"),
    ("spheres.intersection_law", "spheres", "FlagRepresentation.intersection_law_holds"),
    ("spheres.arrangement_flats", "spheres", "arrangement_flats"),
    ("topology.homology", "topology", "reduced_homology"),
    ("topology.full_simplex", "topology", "full_simplex"),
    ("topology.all_faces", "topology", "all_faces"),
    ("topology.snf", "topology", "smith_invariant_factors"),
    ("topology.nerve_iso", "topology", "cross_polytope_nerve_iso"),
    ("topology.carrier", "topology", "carrier_check"),
    ("topology.order_complex", "topology", "order_complex"),
    ("topology.intersection", "topology", "SimplicialComplex.intersection"),
    ("oriented.covectors", "oriented", "covectors_from_vectors"),
    ("oriented.iota", "oriented", "Embedding.iota"),
    ("oriented.build_covers", "oriented", "build_covers"),
    ("oriented.verify_embedding", "oriented", "verify_embedding"),
    ("maps.retraction_map", "maps", "retraction_map"),
    ("maps.verify_retraction", "maps", "verify_retraction"),
    ("maps.search", "maps", "poset_map_search"),
    ("maps.weak_map", "maps", "is_weak_map_matroid"),
]

# metric name -> (unit, source): ("span", span name, "calls"/"total"/"self"),
# ("count", counter), ("distinct", span name) for distinct arguments over
# calls, or ("extra", key) for a value measured outside the traced pass.
PER_LAYER = {
    "cli.startup_s": ("s", ("extra", "cli.startup_s")),
    "jsonio.read_s": ("s", ("span", "jsonio.read", "total")),
    "jsonio.dump_s": ("s", ("span", "jsonio.dump", "total")),
    "jsonio.bytes_out": ("bytes", ("count", "jsonio.bytes_out")),
    "lattice.load_s": ("s", ("span", "lattice.load", "total")),
    "lattice.flats": ("count", ("count", "lattice.flats")),
    "lattice.verify_geometric_s": ("s", ("span", "lattice.verify_geometric", "total")),
    "lattice.closure_calls": ("count", ("span", "lattice.closure", "calls")),
    "lattice.closure_s": ("s", ("span", "lattice.closure", "total")),
    "linalg.rank_calls": ("count", ("span", "linalg.rank", "calls")),
    "linalg.rank_s": ("s", ("span", "linalg.rank", "total")),
    "linalg.nullspace_s": ("s", ("span", "linalg.nullspace", "total")),
    "spheres.build_calls": ("count", ("span", "spheres.build", "calls")),
    "spheres.build_distinct_ratio": ("ratio", ("distinct", "spheres.build")),
    "spheres.build_s": ("s", ("span", "spheres.build", "total")),
    "spheres.verify_arrangement_self_s": ("s", ("span", "spheres.verify_arrangement", "self")),
    "spheres.intersection_law_s": ("s", ("span", "spheres.intersection_law", "total")),
    "spheres.arrangement_flats_s": ("s", ("span", "spheres.arrangement_flats", "total")),
    "topology.homology_calls": ("count", ("span", "topology.homology", "calls")),
    "topology.homology_distinct_ratio": ("ratio", ("distinct", "topology.homology")),
    "topology.homology_self_s": ("s", ("span", "topology.homology", "self")),
    "topology.faces_enumerated": ("count", ("count", "topology.faces_enumerated")),
    "topology.all_faces_s": ("s", ("span", "topology.all_faces", "total")),
    "topology.snf_calls": ("count", ("span", "topology.snf", "calls")),
    "topology.snf_s": ("s", ("span", "topology.snf", "total")),
    "topology.snf_nonzeros": ("count", ("count", "topology.snf_nonzeros")),
    "topology.snf_max_rows": ("count", ("count", "topology.snf_max_rows")),
    "topology.nerve_iso_s": ("s", ("span", "topology.nerve_iso", "total")),
    "topology.carrier_s": ("s", ("span", "topology.carrier", "total")),
    "topology.order_complex_s": ("s", ("span", "topology.order_complex", "total")),
    "topology.maximal_chains": ("count", ("count", "topology.maximal_chains")),
    "topology.intersection_calls": ("count", ("span", "topology.intersection", "calls")),
    "topology.intersection_s": ("s", ("span", "topology.intersection", "total")),
    "oriented.covectors_s": ("s", ("span", "oriented.covectors", "total")),
    "oriented.covectors": ("count", ("count", "oriented.covectors")),
    "oriented.iota_calls": ("count", ("span", "oriented.iota", "calls")),
    "oriented.iota_s": ("s", ("span", "oriented.iota", "total")),
    "oriented.build_covers_s": ("s", ("span", "oriented.build_covers", "total")),
    "oriented.verify_embedding_self_s": ("s", ("span", "oriented.verify_embedding", "self")),
    "maps.retraction_map_s": ("s", ("span", "maps.retraction_map", "total")),
    "maps.verify_retraction_self_s": ("s", ("span", "maps.verify_retraction", "self")),
    "maps.search_s": ("s", ("span", "maps.search", "total")),
    "maps.search_nodes": ("count", ("count", "maps.search_nodes")),
    "maps.weak_map_s": ("s", ("span", "maps.weak_map", "total")),
    "maps.weak_map_subsets": ("count", ("count", "maps.weak_map_subsets")),
    "trace.overhead_ratio": ("ratio", ("extra", "trace.overhead_ratio")),
    "host.calib_ms": ("ms", ("extra", "host.calib_ms")),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, start, child time]
        self.next_id = 0
        self.op = -1
        self.scope = ""  # memo scope: one op for a CLI op, the process for a library op
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.weak_source = None

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self
        name_idx = len(self.names)
        self.names.append(name)
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        hook = HOOKS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            if hook is not None:
                hook(tracer, args, None, before=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[2]
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_name.append(name_idx)
                tracer.span_op.append(tracer.op)
                tracer.span_start.append(frame[1])
                tracer.span_end.append(end)
            if hook is not None:
                hook(tracer, args, result, before=False)
            return result

        return traced

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every module that binds it, then
        check that no module still binds an unwrapped original."""
        pkg = importlib.import_module("matroid_spheres")
        importlib.import_module("matroid_spheres.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "matroid_spheres" or n.startswith("matroid_spheres.")]
        originals = []
        for name, module, attr in TRACED:
            owner = importlib.import_module(f"{pkg.__name__}.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, self.wrap(name, fn))
            else:
                fn = getattr(owner, attr)
                wrapped = self.wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
            originals.append(fn)
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is fn for fn in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} is still unwrapped")

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        return {"totals": self.totals, "counts": self.counts,
                "distinct": {k: len(v) for k, v in self.distinct.items()}}

    def write_spans(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, op, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\top\tstart\tend\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_op[i]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n")


def per_layer_metrics(summary: dict, extra: dict, time_scale: float = 1.0) -> dict:
    """The per-layer metrics of one traced pass, by name and unit; span
    times are multiplied by ``time_scale`` (see ``hostspeed.py``)."""
    totals, counts, distinct = summary["totals"], summary["counts"], summary["distinct"]
    out = {}
    for metric, (unit, how) in PER_LAYER.items():
        if how[0] == "span":
            calls, total, self_ = totals.get(how[1], [0, 0.0, 0.0])
            value = {"calls": calls, "total": total * time_scale,
                     "self": self_ * time_scale}[how[2]]
        elif how[0] == "count":
            value = counts.get(how[1], 0)
        elif how[0] == "distinct":
            calls = totals.get(how[1], [0])[0]
            value = distinct.get(how[1], 0) / calls if calls else 0.0
        else:
            value = extra[how[1]]
        out[metric] = {"value": value, "unit": unit}
    return out


# -- counters read at the span boundaries ---------------------------------------


def _bytes_out(t, args, result, before):
    if not before:
        t.count("jsonio.bytes_out", len(result.encode("utf-8")))


def _flats(t, args, result, before):
    if not before:
        t.count("lattice.flats", len(result.flats))


def _weak_source(t, args, result, before):
    t.weak_source = args[0] if before else None


def _subset(t, args, result, before):
    if before and args[0] is t.weak_source:
        t.count("maps.weak_map_subsets")


def _build(t, args, result, before):
    if before:
        rep, flat = args[0], args[1]
        t.distinct.setdefault("spheres.build", set()).add(
            (t.scope, id(rep.lattice), rep.flag.chain, frozenset(flat)))


def _homology(t, args, result, before):
    if before:
        t.distinct.setdefault("topology.homology", set()).add(
            (t.scope, hash(args[0].maximal_faces)))


def _faces(t, args, result, before):
    if not before:
        t.count("topology.faces_enumerated", len(result))


def _snf(t, args, result, before):
    if before:
        entries, nrows = args[0], args[1]
        t.count("topology.snf_nonzeros", sum(1 for v in entries.values() if v))
        t.counts["topology.snf_max_rows"] = max(t.counts.get("topology.snf_max_rows", 0), nrows)


def _chains(t, args, result, before):
    if not before:
        t.count("topology.maximal_chains", len(result.maximal_faces))


def _covectors(t, args, result, before):
    if not before:
        t.count("oriented.covectors", len(result.covectors))


def _nodes(t, args, result, before):
    if not before:
        t.count("maps.search_nodes", result.nodes)


HOOKS = {
    "jsonio.dump": _bytes_out,
    "lattice.load": _flats,
    "lattice.rank_of_subset": _subset,
    "maps.weak_map": _weak_source,
    "spheres.build": _build,
    "topology.homology": _homology,
    "topology.all_faces": _faces,
    "topology.snf": _snf,
    "topology.order_complex": _chains,
    "oriented.covectors": _covectors,
    "maps.search": _nodes,
}
