"""Value semantics of the package's records.

The records are plain slotted classes on ``report.Record``.  Each is built
here from real fixtures (U(3,4), B_4 and ``u34_vec.json``) and checked for
what callers rely on: equality and hash by type and fields, a
dataclass-style repr, immutability (``ValidationReport`` apart), the
cached properties, and the trailing-zero equality of ``HomologyProfile``.
"""

import inspect
from pathlib import Path

import pytest

from matroid_spheres import (
    CovectorSet,
    CoverFamily,
    Embedding,
    HomologyProfile,
    ValidationReport,
    WeakMapReport,
    all_complete_flags,
    build_covers,
    build_embedding,
    covectors_from_vectors,
    is_weak_map_matroid,
    poset_map_search,
    reduced_homology,
    retraction_map,
    sphere_profile,
    uniform_matroid,
    verify_retraction,
)
from matroid_spheres.jsonio import load_vector_config_file
from matroid_spheres.maps import SearchResult
from matroid_spheres.report import CheckResult, Record
from conftest import boolean_matroid

DATA = Path(__file__).parent / "data"

# ValidationReport is mutable; a retraction descriptor holds a selection
# and two representations, which hash by identity, so it hashes
UNHASHABLE = {"ValidationReport"}


def fixtures():
    u34 = uniform_matroid(3, 4)
    b4 = boolean_matroid("1234")
    flags = all_complete_flags(u34)
    desc = retraction_map(u34, flags[0], flags[-1])
    report = verify_retraction(desc)
    config = load_vector_config_file(DATA / "u34_vec.json")
    emb = build_embedding(covectors_from_vectors(config))
    atom = min(emb.lattice.atoms(), key=emb.lattice.key)
    return {
        "Flag": flags[0],
        "CrossSelection": desc.selection,
        "RetractDescriptor": desc,
        "WeakMapReport": is_weak_map_matroid(u34, b4),
        "SearchResult": poset_map_search(b4, u34, all_complete_flags(b4)[0]),
        "VectorConfig": config,
        "CovectorSet": emb.cs,
        "Embedding": emb,
        "CheckResult": report.checks[0],
        "ValidationReport": report,
        "HomologyProfile": reduced_homology(desc.source.build(u34.bottom)),
        "CoverFamily": build_covers(emb, atom)[0],
    }


RECORDS = fixtures()
FROZEN = sorted(set(RECORDS) - {"ValidationReport"})


def fields(record):
    return tuple(getattr(record, f) for f in type(record)._fields)


def test_every_record_is_built():
    assert len(RECORDS) == 12
    assert all(type(r).__name__ == name for name, r in RECORDS.items())
    assert all(isinstance(r, Record) for r in RECORDS.values())


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    record = RECORDS[name]
    twin = type(record)(*fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert repr(twin) == repr(record)
    assert record.__eq__(fields(record)) is NotImplemented
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)


def test_a_differing_field_gives_unequal_records():
    check = RECORDS["CheckResult"]
    assert CheckResult(check.name, not check.passed, check.detail) != check
    assert CheckResult(check.name, check.passed, check.detail + "!") != check
    report = RECORDS["WeakMapReport"]
    assert WeakMapReport(report.verdict, report.witnesses[1:]) != report


def test_repr_is_dataclass_style():
    assert repr(CheckResult("a", True)) == "CheckResult(name='a', passed=True, detail='')"
    assert repr(RECORDS["Flag"]) == f"Flag(chain={RECORDS['Flag'].chain!r})"


def test_constructor_defaults():
    assert CheckResult("a", True).detail == ""
    assert WeakMapReport(True).witnesses == ()
    result = SearchResult(True, None, None)
    assert (result.obstructions, result.nodes, result.reason) == ((), 0, "")
    cover = RECORDS["CoverFamily"]
    assert CoverFamily(cover.ambient, cover.members).poset is None
    empty = ValidationReport()
    assert empty.checks == [] and empty.checks is not ValidationReport().checks


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment_deletion_and_new_attributes(name):
    record = RECORDS[name]
    for f in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, f, getattr(record, f))
        with pytest.raises(AttributeError):
            delattr(record, f)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "extra")


def test_validation_report_is_mutable_unhashable_and_compares_by_checks():
    report = RECORDS["ValidationReport"]
    copy = ValidationReport(list(report.checks))
    assert copy == report and copy != ValidationReport()
    with pytest.raises(TypeError):
        hash(copy)
    copy.add("extra", False)
    assert copy != report and not copy.ok
    copy.checks = list(report.checks)
    assert copy == report


def test_lattice_and_images_are_computed_once_and_cached():
    cs = RECORDS["CovectorSet"]
    fresh = CovectorSet(*fields(cs))
    assert "lattice" not in vars(fresh)
    lattice = fresh.lattice
    assert vars(fresh)["lattice"] is lattice and fresh.lattice is lattice
    assert set(lattice.flats) == set(cs.lattice.flats)

    emb = RECORDS["Embedding"]
    fresh = Embedding(*fields(emb))
    assert "images" not in vars(fresh)
    images = fresh.images
    assert vars(fresh)["images"] is images and fresh.images is images
    assert images == emb.images


def test_embedding_caches_stay_out_of_equality_repr_and_constructor():
    emb = RECORDS["Embedding"]
    assert list(inspect.signature(Embedding).parameters) == list(type(emb)._fields)
    fresh = Embedding(*fields(emb))
    emb.delta(emb.lattice.bottom)
    assert emb._posets and emb._deltas and not fresh._posets and not fresh._deltas
    assert fresh == emb and hash(fresh) == hash(emb)
    assert "_posets" not in repr(emb) and "_deltas" not in repr(emb)


def test_homology_profile_ignores_trailing_zero_dimensions():
    profile = RECORDS["HomologyProfile"]
    assert profile == sphere_profile(2)
    padded = HomologyProfile(profile.dims + ((0, ()), (0, ())))
    assert padded == profile and hash(padded) == hash(profile)
    assert HomologyProfile(()) == HomologyProfile(((0, ()),))
    assert HomologyProfile(profile.dims + ((1, ()),)) != profile
    assert HomologyProfile(((0, (2,)),)) != HomologyProfile(())
