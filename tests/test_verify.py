"""The verification harness itself."""

import types

import pytest

from mckaycuts import heights, verify
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.mutation import MutationLattice
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


def test_cut_file_accepts_arrows_as_lists():
    # is_cut and make_cut accept [vertex, type] lists; so does the check.
    spec, emb, _ = instance("half_11")

    def cut_file_entry(arrows):
        result = run_verification(emb, spec=spec, cut_arrows=arrows)
        return next(c for c in result["checks"] if c["name"] == "cut_file")

    entry = cut_file_entry([[1, 1], [1, 2]])
    assert entry == cut_file_entry([(1, 1), (1, 2)])
    assert entry["status"] == "pass"


def _rebuild(lattice, **changes):
    """A copy of the lattice, built by its constructor, with some fields changed."""
    fields = {
        "cut_type": lattice.cut_type,
        "v_vectors": lattice.v_vectors,
        "hasse_edges": lattice.hasse_edges,
        "max_index": lattice.max_index,
        "min_index": lattice.min_index,
        "bounds": lattice.bounds,
    }
    return MutationLattice(**{**fields, **changes})


def _middle_pair(lattice):
    """Two indices, neither of them an extreme element."""
    ends = (lattice.min_index, lattice.max_index)
    return [k for k in range(len(lattice.v_vectors)) if k not in ends][:2]


def _swap_vectors(lattice):
    """Swap two middle vectors, and with them the cuts read off them."""
    vecs = list(lattice.v_vectors)
    i, j = _middle_pair(lattice)
    vecs[i], vecs[j] = vecs[j], vecs[i]
    return _rebuild(lattice, v_vectors=tuple(vecs))


def _swap_cuts(lattice):
    """Read the cuts of two middle vectors off each other's vector.

    The vectors, edges and extremes stay genuine; only the read-off
    cuts disagree with their vectors.
    """
    a, b = (lattice.v_vectors[k] for k in _middle_pair(lattice))
    swap = {a: b, b: a}
    read_off = lattice.bounds.cut
    bounds = types.SimpleNamespace(cut=lambda v: read_off(swap.get(v, v)))
    return _rebuild(lattice, bounds=bounds)


def _drop_middle(lattice):
    """Drop a non-extreme vector, and so its cut, and renumber the edges.

    Every remaining vector, edge and extreme is genuine, so only the
    unit-step closure of the vectors can notice the hole.
    """
    k = next(
        k for k in range(len(lattice.cuts))
        if k not in (lattice.min_index, lattice.max_index)
    )

    def renumber(i):
        return i - (i > k)

    return _rebuild(
        lattice,
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
    "swap_cuts": _swap_cuts,
    "swap_vectors": _swap_vectors,
    "drop_edge": lambda lat: _rebuild(lat, hasse_edges=lat.hasse_edges[1:]),
    "min_to_max_edge": lambda lat: _rebuild(
        lat, hasse_edges=lat.hasse_edges + ((lat.min_index, lat.max_index, 1),)
    ),
    "drop_middle_cut": _drop_middle,
    # The origin is never mutated, so this edge duplicates no real one.
    "min_to_max_edge_at_origin": lambda lat: _rebuild(
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
        # A doctor the lattice cannot take fails inside the harness for
        # the wrong reason.
        assert not any(
            c["detail"].startswith("TypeError") for c in result["failures"]
        )


def test_missing_oracle_bucket_fails_its_lattice_check(monkeypatch):
    # Within budget a type the search found no cut of has an empty bucket,
    # so its lattice check compares against no cuts and fails.
    spec, emb, _ = instance("sixth_123")
    real = verify.brute_force_cuts

    def dropped(quiver):
        buckets = real(quiver)
        del buckets[1, 2, 3]
        return buckets

    monkeypatch.setattr(verify, "brute_force_cuts", dropped)
    result = run_verification(emb, spec=spec, budget=6)
    assert [c["name"] for c in result["failures"]] == ["mutation_lattice_1_2_3"]


def test_off_by_one_l1_value_fails_the_round_trip(monkeypatch):
    # The round trip reads the type back off the L1 values, so it checks
    # them: one value off by one breaks it.
    real = heights._l1_values

    def mutant(embedding, cut_type):
        first, *rest = real(embedding, cut_type)
        return (first + 1, *rest)

    monkeypatch.setattr(heights, "_l1_values", mutant)
    spec, emb, _ = instance("sixth_123")
    result = run_verification(emb, spec=spec, budget=6)
    status = {c["name"]: c["status"] for c in result["checks"]}
    assert status["height_bijection_round_trip"] == "fail"
