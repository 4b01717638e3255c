"""JSON loading and dumping for the documented file formats.

All output is deterministic: canonical orderings, sorted keys, no
environment-dependent content.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .lattice import Flag, GeometricLattice, MatroidInputError, default_flag, load_matroid, make_flag
from .oriented import VectorConfig, vector_config
from .spheres import Vertex
from .topology import SimplicialComplex


def read_json(path: str | Path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MatroidInputError(f"cannot read {path}: {exc}") from exc


def dump_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_matroid_file(path: str | Path, validate: bool = True) -> GeometricLattice:
    return load_matroid(read_json(path), validate=validate)


def load_flag_arg(lattice: GeometricLattice, arg: str | Path) -> Flag:
    """A flag argument is either the literal string \"default\" or a path to
    a flag file {\"chain\": [[...], ...]} (the file may also hold \"default\")."""
    if str(arg) == "default":
        return default_flag(lattice)
    spec = read_json(arg)
    if spec == "default":
        return default_flag(lattice)
    if not isinstance(spec, Mapping) or "chain" not in spec:
        raise MatroidInputError(f"flag file {arg} needs a 'chain' key")
    return make_flag(lattice, spec["chain"])


def vertex_to_json(v: Vertex) -> dict:
    return {"coatom": list(v[0]), "sign": v[1]}


def signed_complex_to_json(complex_: SimplicialComplex) -> dict:
    """Complex over signed-coatom vertices, faces as indices into the vertex list."""
    vpos = {v: i for i, v in enumerate(complex_.vertices)}
    faces = sorted(sorted(vpos[v] for v in m) for m in complex_.maximal_faces)
    return {
        "vertices": [vertex_to_json(v) for v in complex_.vertices],
        "maximal_faces": faces,
    }


def complex_from_json(spec: Mapping) -> SimplicialComplex:
    """Accepts both the signed-vertex form and plain vertex labels."""
    if not isinstance(spec, Mapping) or "vertices" not in spec or "maximal_faces" not in spec:
        raise MatroidInputError("complex file needs 'vertices' and 'maximal_faces'")
    raw, raw_faces = spec["vertices"], spec["maximal_faces"]
    if not isinstance(raw, list) or not isinstance(raw_faces, list):
        raise MatroidInputError("'vertices' and 'maximal_faces' must be lists")
    vertices = []
    for v in raw:
        if isinstance(v, Mapping):
            if not isinstance(v.get("coatom"), list) or "sign" not in v:
                raise MatroidInputError(f"signed vertex {v} needs a 'coatom' list and a 'sign'")
            vertices.append((tuple(str(e) for e in v["coatom"]), str(v["sign"])))
        elif isinstance(v, list):
            raise MatroidInputError(f"vertex label {v} is a list")
        else:
            vertices.append(v)
    faces = []
    for face in raw_faces:
        if not isinstance(face, list) or not all(
            type(i) is int and 0 <= i < len(vertices) for i in face
        ):
            raise MatroidInputError(
                f"maximal face {face!r} needs integer vertex indices in 0..{len(vertices) - 1}"
            )
        faces.append([vertices[i] for i in face])
    return SimplicialComplex(faces, vertex_order=vertices)


def vector_config_from_json(spec: Mapping) -> VectorConfig:
    if not isinstance(spec, Mapping) or "columns" not in spec:
        raise MatroidInputError("vector config needs a 'columns' mapping")
    columns = spec["columns"]
    if not isinstance(columns, Mapping):
        raise MatroidInputError("'columns' must map element labels to vectors")
    elements = [str(e) for e in columns]
    cols = []
    for e in elements:
        try:
            cols.append([Fraction(str(x)) for x in columns[e]])
        except (ValueError, ZeroDivisionError) as exc:
            raise MatroidInputError(f"bad rational entry for element {e}: {exc}") from exc
    cfg = vector_config(cols, elements)
    if "dimension" in spec and int(spec["dimension"]) != cfg.dimension:
        raise MatroidInputError("declared dimension does not match the columns")
    return cfg


def load_vector_config_file(path: str | Path) -> VectorConfig:
    return vector_config_from_json(read_json(path))


def flat_filename(lattice: GeometricLattice, flat: frozenset) -> str:
    if flat == lattice.bottom:
        return "S_0.json"
    return "S_" + "_".join(lattice.sorted_elements(flat)) + ".json"
