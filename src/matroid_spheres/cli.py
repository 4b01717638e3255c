"""Command-line front end: loaders, construction, verification, reports.

Exit codes: 0 all checks passed / object produced, 1 verification failure,
2 input error or exceeded search or resource bound, 3 internal error (any other
exception, reported on one line of stderr, never as a traceback).  All
output is deterministic for identical inputs.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from . import jsonio, maps, oriented, spheres, topology
from .jsonio import dump_json
from .lattice import GeometricLattice, MatroidInputError, verify_geometric
from .maps import SearchCapExceeded
from .report import ValidationReport


def _echo_report(rep: ValidationReport, as_json: bool, header: str = "") -> None:
    if as_json:
        click.echo(dump_json(rep.to_json()), nl=False)
    else:
        if header:
            click.echo(header)
        for line in rep.lines():
            click.echo(line)


def _finish(ok: bool) -> None:
    sys.exit(0 if ok else 1)


def input_errors(cmd):
    @functools.wraps(cmd)
    def wrapped(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except MatroidInputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(2)
        except SearchCapExceeded as exc:
            click.echo(f"search bound exceeded: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # exit 1 is kept for failed certificates
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)

    return wrapped


@click.group()
def main() -> None:
    """Sphere representations of matroids and their verification."""


@main.command()
@click.argument("matroid", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True, help="machine-readable report")
@input_errors
def validate(matroid: str, as_json: bool) -> None:
    """Check that a matroid file describes a geometric lattice."""
    lattice = jsonio.load_matroid_file(matroid, validate=False)
    rep = verify_geometric(lattice)
    _echo_report(rep, as_json, f"validate {matroid}")
    _finish(rep.ok)


@main.command()
@click.argument("matroid", type=click.Path(exists=True))
@click.option("--flag", "flag_arg", default="default", help="flag file or 'default'")
@click.option("--out", "out_dir", type=click.Path(), default=".", help="output directory")
@click.option("--json", "as_json", is_flag=True)
@input_errors
def represent(matroid: str, flag_arg: str, out_dir: str, as_json: bool) -> None:
    """Write the sphere complex of every flat as JSON files."""
    lattice = jsonio.load_matroid_file(matroid)
    flag = jsonio.load_flag_arg(lattice, flag_arg)
    rep = spheres.representation(lattice, flag)
    out = Path(out_dir)
    index = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for flat in lattice.flats:
            built = rep.construct(flat)  # each S_G is written once: cache none
            name = jsonio.flat_filename(lattice, flat)
            (out / name).write_text(dump_json(jsonio.signed_complex_to_json(lattice, built)))
            index.append(
                {
                    "flat": list(lattice.sorted_elements(flat)),
                    "file": name,
                    "maximal_faces": len(built.maximal_faces),
                    "vertices": built.support.bit_count(),
                }
            )
    except OSError as exc:  # a bad --out is bad input: exit 2, not 3
        raise MatroidInputError(f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc
    summary = {"files": index, "rank": lattice.r}
    if as_json:
        click.echo(dump_json(summary), nl=False)
    else:
        for entry in index:
            click.echo(
                f"{entry['file']}: {entry['vertices']} vertices, "
                f"{entry['maximal_faces']} maximal faces"
            )
    sys.exit(0)


@main.command()
@click.argument("matroid", type=click.Path(exists=True))
@click.option("--flag", "flag_arg", default="default")
@click.option("--exact-nerve", is_flag=True,
              help="only add the nerve-iso-all-flats line, read from checks verify runs anyway")
@click.option("--json", "as_json", is_flag=True)
@input_errors
def verify(matroid: str, flag_arg: str, exact_nerve: bool, as_json: bool) -> None:
    """Run the full arrangement certification for one matroid and flag."""
    lattice = jsonio.load_matroid_file(matroid)
    flag = jsonio.load_flag_arg(lattice, flag_arg)
    rep = spheres.representation(lattice, flag)
    report = spheres.verify_arrangement(rep)
    report.add(
        "intersection-law",
        rep.intersection_law_holds(),
        "S_G n S_H = S_{G v H} over all flat pairs",
    )

    recovered = spheres.arrangement_flats(rep)
    report.add("flats-roundtrip", spheres.roundtrip_isomorphic(lattice, recovered))

    if exact_nerve:
        nerve_ok = all(rep.spheres.values())
        report.add("nerve-iso-all-flats", nerve_ok, f"{len(lattice.flats)} flats")
    _echo_report(report, as_json, f"verify {matroid}")
    _finish(report.ok)


@main.command()
@click.argument("complex_file", type=click.Path(exists=True))
@click.option("--max-faces", type=click.IntRange(min=0), default=2**20, show_default=True,
              help="exit 2 when the sum of 2^|facet| over the strong-collapse core is larger")
@click.option("--json", "as_json", is_flag=True)
@input_errors
def homology(complex_file: str, max_faces: int, as_json: bool) -> None:
    """Reduced integer homology of a complex file."""
    complex_ = jsonio.complex_from_json(jsonio.read_json(complex_file))
    faces = sum(1 << m.bit_count() for m in topology.strong_collapse_core(complex_).maximal_faces)
    if faces > max_faces:  # the homology holds every face of the core in memory
        click.echo(f"resource bound exceeded: the core has up to {faces} faces, "
                   f"above --max-faces {max_faces}", err=True)
        sys.exit(2)
    profile = topology.reduced_homology(complex_)
    if as_json:
        click.echo(dump_json(profile.to_json()), nl=False)
    else:
        if not profile.dims:
            click.echo("empty complex: all reduced homology trivial")
        for d, (betti, torsion) in enumerate(profile.dims):
            click.echo(f"dim {d}: betti {betti}, torsion {list(torsion)}")
    sys.exit(0)


@main.group()
def om() -> None:
    """Oriented-matroid commands (rational vector configurations)."""


@om.command()
@click.argument("vectors", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
@input_errors
def covectors(vectors: str, as_json: bool) -> None:
    """Enumerate cocircuits and covectors of a configuration."""
    cfg = jsonio.load_vector_config_file(vectors)
    cs = oriented.covectors_from_vectors(cfg)
    n = len(cs.elements)
    cocircs = sorted(oriented.render(x, n) for x in cs.cocircuits)
    covecs = sorted(oriented.render(x, n) for x in cs.covectors)
    if as_json:
        click.echo(
            dump_json(
                {
                    "elements": list(cs.elements),
                    "cocircuits": cocircs,
                    "covectors": covecs,
                }
            ),
            nl=False,
        )
    else:
        click.echo(f"elements: {' '.join(cs.elements)}")
        click.echo(f"{len(covecs)} covectors, {len(cocircs)} cocircuits")
        for x in covecs:
            click.echo(x)
    sys.exit(0)


@om.command()
@click.argument("vectors", type=click.Path(exists=True))
@click.option("--flag", "flag_arg", default="default")
@click.option("--pivots", default=None, help="comma-separated pivot elements")
@click.option("--json", "as_json", is_flag=True)
@input_errors
def embed(vectors: str, flag_arg: str, pivots: str | None, as_json: bool) -> None:
    """Verify the covector-poset embedding and its carrier covers."""
    cfg = jsonio.load_vector_config_file(vectors)
    cs = oriented.covectors_from_vectors(cfg)
    flag = jsonio.load_flag_arg(cs.lattice, flag_arg)
    pivot_list = pivots.split(",") if pivots else None
    emb = oriented.build_embedding(cs, flag, pivot_list)
    report = oriented.verify_embedding(emb)
    carriers_ok = all(
        topology.carrier_check(emb.images, *oriented.build_covers(emb, flat)).ok
        for flat in emb.lattice.flats
    )
    detail = "all flats, maximal vertex stars, each distinct intersection once"
    report.add("carrier-covers", carriers_ok, detail)
    _echo_report(report, as_json, f"om embed {vectors}")
    _finish(report.ok)


@main.group(name="flags")
def flags_group() -> None:
    """Change-of-flag commands."""


@flags_group.command()
@click.argument("matroid", type=click.Path(exists=True))
@click.argument("flag_a")
@click.argument("flag_b")
@click.option("--json", "as_json", is_flag=True)
@input_errors
def compare(matroid: str, flag_a: str, flag_b: str, as_json: bool) -> None:
    """Cross-coatom selection and retraction between two flags."""
    lattice = jsonio.load_matroid_file(matroid)
    fa = jsonio.load_flag_arg(lattice, flag_a)
    fb = jsonio.load_flag_arg(lattice, flag_b)
    desc = maps.retraction_map(lattice, fa, fb)
    report = verify_retraction_with_selection(desc)
    _echo_report(report, as_json, f"flags compare {matroid}")
    _finish(report.ok)


def verify_retraction_with_selection(desc) -> ValidationReport:
    report = maps.verify_retraction(desc)
    lattice = desc.source.lattice
    picked = [",".join(lattice.vertex_label(2 * k)[0]) for k in desc.selection.coatoms]
    report.add("selection", True, "coatoms " + "; ".join(picked))
    return report


@main.command()
@click.argument("matroid_m", type=click.Path(exists=True))
@click.argument("matroid_n", type=click.Path(exists=True))
@click.option("--search-poset-map", is_flag=True)
@click.option("--flag", "flag_arg", default="default")
@click.option("--max-assignments", type=click.IntRange(min=0), default=10**7)
@click.option("--json", "as_json", is_flag=True)
@input_errors
def weakmap(
    matroid_m: str,
    matroid_n: str,
    search_poset_map: bool,
    flag_arg: str,
    max_assignments: int,
    as_json: bool,
) -> None:
    """Decide the weak map M -> N; optionally search for an induced map."""
    m = jsonio.load_matroid_file(matroid_m)
    n = jsonio.load_matroid_file(matroid_n)
    wm = maps.is_weak_map_matroid(m, n)
    payload: dict = {
        "weak_map": wm.verdict,
        "witnesses": [list(w) for w in wm.witnesses],
    }
    ok = wm.verdict
    search_json = None
    if search_poset_map:
        flag = jsonio.load_flag_arg(m, flag_arg)
        result = maps.poset_map_search(m, n, flag, max_assignments=max_assignments)
        search_json = search_result_to_json(m, n, result)
        payload["search"] = search_json
    if as_json:
        click.echo(dump_json(payload), nl=False)
    else:
        click.echo(f"WEAK MAP: {'yes' if wm.verdict else 'no'}")
        for w in wm.witnesses:
            click.echo(f"  witness subset: {list(w)}")
        if search_json is not None:
            if search_json["found"]:
                click.echo("poset map: FOUND")
            else:
                click.echo("poset map: NONE")
                obstruction = search_json["obstruction"]
                if obstruction:
                    click.echo(f"  obstruction face: {obstruction['face']}")
                    click.echo(f"  reason: {obstruction['reason']}")
    _finish(ok)


def search_result_to_json(m: GeometricLattice, n: GeometricLattice, result: maps.SearchResult) -> dict:
    """The search result with source vertices rendered by m and images by
    n, each source in label order."""
    vjson = jsonio.vertex_to_json

    def obstruction_json(face, forced, reason) -> dict:
        return {
            "face": [vjson(m, v) for v in sorted(face, key=m.vertex_label)],
            "forced_images": [vjson(n, v) for v in forced],
            "reason": reason,
        }

    mapping = None
    if result.vertex_map is not None:
        mapping = [
            [vjson(m, src), vjson(n, result.vertex_map[src])]
            for src in sorted(result.vertex_map, key=m.vertex_label)
        ]
    return {
        "found": result.found,
        "map": mapping,
        "obstruction": None if result.obstruction is None else obstruction_json(*result.obstruction),
        "obstructions": [obstruction_json(*o) for o in result.obstructions],
        "stats": {"nodes": result.nodes},
    }


if __name__ == "__main__":
    main()
