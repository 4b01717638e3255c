"""JSON loading and dumping for the documented file formats.

All output is deterministic: canonical orderings, sorted keys, no
environment-dependent content.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .lattice import (Flag, GeometricLattice, MatroidInputError, _int_field, default_flag, load_matroid,
                      make_flag)
from .oriented import VectorConfig, vector_config
from .topology import SimplicialComplex, _bits


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
    chain = spec["chain"]
    if not isinstance(chain, list) or not all(isinstance(f, list) for f in chain):
        raise MatroidInputError(f"flag file {arg}: 'chain' must be a list of lists of element labels")
    return make_flag(lattice, chain)


def vertex_to_json(lattice: GeometricLattice, v: int) -> dict:
    coatom, sign = lattice.vertex_label(v)
    return {"coatom": list(coatom), "sign": sign}


def signed_complex_to_json(lattice: GeometricLattice, complex_: SimplicialComplex) -> dict:
    """Complex over the lattice's signed vertices, faces as indices into the
    list of the vertices some face uses."""
    used = list(_bits(complex_.support))
    index = {p: i for i, p in enumerate(used)}
    faces = sorted(sorted(map(index.__getitem__, _bits(m))) for m in complex_.maximal_faces)
    return {
        "vertices": [vertex_to_json(lattice, complex_.vertices[p]) for p in used],
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
    if len(set(vertices)) != len(vertices):  # 1, 1.0 and true are one label
        raise MatroidInputError("vertex labels must be distinct")
    faces = []
    for face in raw_faces:
        if not isinstance(face, list) or not all(
            type(i) is int and 0 <= i < len(vertices) for i in face
        ):
            raise MatroidInputError(
                f"maximal face {face!r} needs integer vertex indices in 0..{len(vertices) - 1}"
            )
        if len(set(face)) != len(face):
            raise MatroidInputError(f"maximal face {face!r} repeats a vertex index")
        faces.append(sum(1 << i for i in face))
    return SimplicialComplex(vertices, faces)


def vector_config_from_json(spec: Mapping) -> VectorConfig:
    if not isinstance(spec, Mapping) or "columns" not in spec:
        raise MatroidInputError("vector config needs a 'columns' mapping")
    columns = spec["columns"]
    if not isinstance(columns, Mapping):
        raise MatroidInputError("'columns' must map element labels to vectors")
    elements = [str(e) for e in columns]
    cols = []
    for e in elements:
        if not isinstance(columns[e], list):  # a string would be read digit by digit
            raise MatroidInputError(f"the column of element {e} must be a list of entries")
        try:
            cols.append([Fraction(str(x)) for x in columns[e]])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise MatroidInputError(f"bad rational entry for element {e}: {exc}") from exc
    cfg = vector_config(cols, elements)
    if "dimension" in spec and _int_field(spec, "dimension") != cfg.dimension:
        raise MatroidInputError("declared dimension does not match the columns")
    return cfg


def load_vector_config_file(path: str | Path) -> VectorConfig:
    return vector_config_from_json(read_json(path))


def flat_filename(lattice: GeometricLattice, flat: frozenset) -> str:
    if flat == lattice.bottom:
        return "S_0.json"
    return "S_" + "_".join(lattice.sorted_elements(flat)) + ".json"
