"""No production path builds a table of the flat order.

Closures, covers, flags and cover steps read the lattice's one per-element
table, ``holding``, through ``up`` and ``down``; only ``verify_geometric``
builds the up- and down-set of every flat, as a ``topology.Poset`` of its
own.  Every ``Poset`` construction is counted while a command runs in
process: ``verify``'s chain, ``flags compare`` and ``weakmap
--search-poset-map`` build none, ``om embed`` builds covector posets only,
and a ``flats`` spec builds one, the validation's.
"""

import json

import pytest
from click.testing import CliRunner

from matroid_spheres import (
    GeometricLattice,
    arrangement_flats,
    default_flag,
    load_matroid,
    representation,
    roundtrip_isomorphic,
    uniform_matroid,
    verify_arrangement,
)
from matroid_spheres.cli import main
from matroid_spheres.topology import Poset
from conftest import DATA


@pytest.fixture()
def posets_built(monkeypatch):
    """The element tuples of every ``Poset`` built while the test runs."""
    built, init = [], Poset.__init__

    def counting(self, elements, masks):
        built.append(tuple(elements))
        init(self, elements, masks)

    monkeypatch.setattr(Poset, "__init__", counting)
    return built


def uniform_spec(tmp_path, r, n):
    spec = tmp_path / f"u{r}{n}.json"
    spec.write_text(json.dumps({"format": "uniform", "r": r, "n": n}))
    return str(spec)


def test_the_order_reads_leave_no_table_behind():
    for name in ("order", "join"):
        assert not hasattr(GeometricLattice, name), name
    for name in ("index", "holding"):
        assert not hasattr(Poset, name), name


@pytest.mark.parametrize("r, n", [(4, 7), (8, 8)], ids=["U(4,7)", "B_8"])
def test_verify_chain_builds_no_flat_table(posets_built, r, n):
    lattice = uniform_matroid(r, n)
    rep = representation(lattice, default_flag(lattice))
    assert verify_arrangement(rep).ok
    assert rep.intersection_law_holds()
    assert roundtrip_isomorphic(lattice, arrangement_flats(rep))
    assert posets_built == []


def test_flags_compare_and_weakmap_search_build_no_flat_table(posets_built, tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["flags", "compare", uniform_spec(tmp_path, 4, 7), "default", "default"])
    assert result.exit_code == 0, result.output
    u35 = uniform_spec(tmp_path, 3, 5)
    result = runner.invoke(main, ["weakmap", "--search-poset-map", u35, u35])
    assert result.exit_code == 0, result.output
    assert "poset map: FOUND" in result.output
    assert posets_built == []


def test_om_embed_builds_covector_posets_only(posets_built):
    result = CliRunner().invoke(main, ["om", "embed", str(DATA / "u34_vec.json")])
    assert result.exit_code == 0, result.output
    assert posets_built  # one per flat, each over int covectors
    assert all(isinstance(x, int) for elements in posets_built for x in elements)


def test_a_flats_spec_builds_the_validation_table_once(posets_built):
    lattice = load_matroid(json.loads((DATA / "bool3.json").read_text()))
    assert posets_built == [lattice.flats]
    representation(lattice, default_flag(lattice)).intersection_law_holds()
    assert len(posets_built) == 1
