"""The verification harness itself."""

import dataclasses

import pytest

from mckaycuts import verify
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.verify import run_verification
from conftest import instance


def test_all_named_instances_pass(named_instance):
    spec, emb, _ = named_instance
    result = run_verification(emb, spec=spec, budget=6)
    assert result["passed"], result["failures"]


def test_budget_zero_skips_and_passes():
    spec, emb, _ = instance("third_111")
    result = run_verification(emb, spec=spec, budget=0)
    assert result["passed"]
    statuses = {c["name"]: c["status"] for c in result["checks"]}
    assert statuses["divisibility_conditions_complete"] == "skipped"
    assert statuses["construct_cut_every_type"] == "pass"


def test_corrupted_cut_reports_uncovered_cycle():
    spec, emb, quiver_unused = instance("third_111")
    result = run_verification(
        emb, spec=spec, budget=6, cut_arrows=frozenset({(2, 1), (2, 2)})
    )
    assert not result["passed"]
    failure = next(c for c in result["checks"] if c["name"] == "cut_file")
    assert failure["status"] == "fail"
    assert "elementary cycle uncovered" in failure["detail"]


def test_doubly_covered_cut_reported():
    spec, emb, _ = instance("half_11")
    result = run_verification(
        emb, spec=spec, cut_arrows=frozenset({(0, 1), (1, 2)})
    )
    failure = next(c for c in result["checks"] if c["name"] == "cut_file")
    assert failure["status"] == "fail"
    assert "covered 2 times" in failure["detail"]


def test_valid_cut_file_passes():
    spec, emb, _ = instance("half_11")
    result = run_verification(
        emb, spec=spec, cut_arrows=frozenset({(1, 1), (1, 2)})
    )
    assert result["passed"]
    check = next(c for c in result["checks"] if c["name"] == "cut_file")
    assert "valid cut of type (1, 1)" in check["detail"]


def _swap_middle(lattice, field):
    """Swap two entries of a field, neither of them an extreme element."""
    items = list(getattr(lattice, field))
    ends = (lattice.min_index, lattice.max_index)
    i, j = [k for k in range(len(items)) if k not in ends][:2]
    items[i], items[j] = items[j], items[i]
    return dataclasses.replace(lattice, **{field: tuple(items)})


def _drop_middle(lattice):
    """Drop a non-extreme cut with its vector and renumber the edges.

    Every remaining vector, edge and extreme is genuine, so only the
    unit-step closure of the vectors can notice the hole.
    """
    k = next(
        k for k in range(len(lattice.cuts))
        if k not in (lattice.min_index, lattice.max_index)
    )

    def renumber(i):
        return i - (i > k)

    return dataclasses.replace(
        lattice,
        cuts=lattice.cuts[:k] + lattice.cuts[k + 1 :],
        v_vectors=lattice.v_vectors[:k] + lattice.v_vectors[k + 1 :],
        hasse_edges=tuple(
            (renumber(lo), renumber(hi), x)
            for lo, hi, x in lattice.hasse_edges
            if k not in (lo, hi)
        ),
        max_index=renumber(lattice.max_index),
        min_index=renumber(lattice.min_index),
    )


DOCTORS = {
    "none": lambda lat: lat,
    "swap_cuts": lambda lat: _swap_middle(lat, "cuts"),
    "swap_vectors": lambda lat: _swap_middle(lat, "v_vectors"),
    "drop_edge": lambda lat: dataclasses.replace(
        lat, hasse_edges=lat.hasse_edges[1:]
    ),
    "min_to_max_edge": lambda lat: dataclasses.replace(
        lat, hasse_edges=lat.hasse_edges + ((lat.min_index, lat.max_index, 1),)
    ),
    "drop_middle_cut": _drop_middle,
    # The origin is never mutated, so this edge duplicates no real one.
    "min_to_max_edge_at_origin": lambda lat: dataclasses.replace(
        lat, hasse_edges=lat.hasse_edges + ((lat.min_index, lat.max_index, 0),)
    ),
}


@pytest.mark.parametrize("doctor", sorted(DOCTORS))
def test_doctored_lattice_fails(monkeypatch, doctor):
    # Lattices of 1/12(1,2,9) with at least four cuts are doctored on the
    # way into the harness; only the mutation-lattice checks may notice.
    real = verify.enumerate_cut_lattice

    def doctored(quiver, cut_type):
        lattice = real(quiver, cut_type)
        return DOCTORS[doctor](lattice) if len(lattice.cuts) >= 4 else lattice

    monkeypatch.setattr(verify, "enumerate_cut_lattice", doctored)
    spec = GroupSpec.make(2, [(12, (1, 2, 9))])
    result = run_verification(embedding_from_spec(spec), spec=spec, budget=6)
    lattice_checks = {
        c["status"]
        for c in result["checks"]
        if c["name"].startswith("mutation_lattice_")
    }
    failed = {c["name"] for c in result["failures"]}
    if doctor == "none":
        assert not failed and lattice_checks == {"pass"}
    else:
        assert "fail" in lattice_checks
        assert all(name.startswith("mutation_lattice_") for name in failed)
