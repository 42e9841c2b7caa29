"""The verification harness itself."""

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


def _rebuild(lattice, packed):
    """A copy of the lattice with other ints, built by its constructor."""
    return MutationLattice(lattice.cut_type, packed, lattice.bounds)


class _OtherEdges:
    """A lattice as the harness reads it, but with other Hasse edges.

    The lattice stores no edges, so a doctor of its edges hands the
    harness this stand-in: ``hasse_edges`` is the doctored tuple, and
    every other attribute is the lattice's own.
    """

    def __init__(self, lattice, hasse_edges):
        self.lattice = lattice
        self.hasse_edges = hasse_edges

    def __getattr__(self, name):
        return getattr(self.lattice, name)


def _middle_pair(lattice):
    """Two indices, neither of them an extreme element."""
    ends = (lattice.min_index, lattice.max_index)
    return [k for k in range(len(lattice.packed)) if k not in ends][:2]


def _swap_vectors(lattice):
    """Swap two middle ints, and with their vectors the cuts read off them.

    The edges read off the swapped ints are genuine for their new order,
    so only the sort of the vectors, on which the extremes rest, can
    notice.
    """
    packed = list(lattice.packed)
    i, j = _middle_pair(lattice)
    packed[i], packed[j] = packed[j], packed[i]
    return _rebuild(lattice, tuple(packed))


def _swap_cuts(lattice):
    """Swap the masks of two middle ints, keeping their vectors.

    The vectors, edges and extremes stay genuine; only the cuts read off
    the ints disagree with their vectors.  Edges read off the swapped
    masks would already differ, so the harness gets the genuine ones.
    """
    packed = list(lattice.packed)
    i, j = _middle_pair(lattice)
    flip = (packed[i] ^ packed[j]) & lattice.bounds.all_bits
    packed[i] ^= flip
    packed[j] ^= flip
    return _OtherEdges(_rebuild(lattice, tuple(packed)), lattice.hasse_edges)


def _moved_vector(lattice):
    """Add one to a middle int at vertex 1's digit, keeping its mask.

    The digit of vertex x sits ``8 * size * (m - 1 - x)`` bits above the
    mask (see ``_Bounds``), so the vector moves up by one at vertex 1 and
    its cut, read off the old mask, disagrees with it by one step there.
    Edges read off the moved int would name the missing vector, so the
    harness gets the genuine ones.
    """
    bounds = lattice.bounds
    packed = list(lattice.packed)
    k = _middle_pair(lattice)[0]
    packed[k] += 1 << bounds.low + 8 * bounds.size * (bounds.quiver.m - 2)
    return _OtherEdges(_rebuild(lattice, tuple(packed)), lattice.hasse_edges)


def _drop_middle(lattice):
    """Drop a non-extreme int, and so its vector and cut, and renumber the edges.

    Every remaining vector, edge and extreme is genuine, so only the
    unit-step closure of the vectors can notice the hole.  Edges read
    off the remaining ints would name it (a ValueError), so the harness
    gets the edges that survive, renumbered.
    """
    k = _middle_pair(lattice)[0]

    def renumber(i):
        return i - (i > k)

    return _OtherEdges(
        _rebuild(lattice, lattice.packed[:k] + lattice.packed[k + 1 :]),
        tuple(
            (renumber(lo), renumber(hi), x)
            for lo, hi, x in lattice.hasse_edges
            if k not in (lo, hi)
        ),
    )


DOCTORS = {
    "none": lambda lat: lat,
    "swap_cuts": _swap_cuts,
    "swap_vectors": _swap_vectors,
    "drop_edge": lambda lat: _OtherEdges(lat, lat.hasse_edges[1:]),
    "min_to_max_edge": lambda lat: _OtherEdges(
        lat, lat.hasse_edges + ((lat.min_index, lat.max_index, 1),)
    ),
    "drop_middle_cut": _drop_middle,
    "moved_vector": _moved_vector,
    # The origin is never mutated, so this edge duplicates no real one.
    "min_to_max_edge_at_origin": lambda lat: _OtherEdges(
        lat, lat.hasse_edges + ((lat.min_index, lat.max_index, 0),)
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


@pytest.mark.parametrize("side", [0, 1], ids=["source", "sink"])
def test_mutable_vertices_missing_one_vertex_fails(monkeypatch, side):
    # Summed over the cuts, the nonzero sources and sinks each number the
    # Hasse edges, so one vertex dropped from one cut fails its lattice.
    real = verify.mutable_vertices
    dropped = []

    def mutant(quiver, cut):
        ends = list(real(quiver, cut))
        nonzero = [v for v in ends[side] if v]
        if nonzero and not dropped:
            dropped.append(nonzero[-1])
            ends[side] = tuple(v for v in ends[side] if v != nonzero[-1])
        return tuple(ends)

    monkeypatch.setattr(verify, "mutable_vertices", mutant)
    spec = GroupSpec.make(2, [(12, (1, 2, 9))])
    result = run_verification(embedding_from_spec(spec), spec=spec, budget=6)
    assert dropped
    (failure,) = result["failures"]
    assert failure["name"].startswith("mutation_lattice_")
    assert failure["detail"].startswith("AssertionError")


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
