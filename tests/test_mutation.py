"""Cut mutation, mutation lattices, and extremal elements."""

import json
import re
import tracemalloc
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mckaycuts import mutation
from mckaycuts.construct import construct_cut
from mckaycuts.errors import SearchBoundExceededError
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.heights import height_from_cut
from mckaycuts.mutation import (
    MutationLattice,
    enumerate_cut_lattice,
    join,
    max_element,
    max_via_p,
    meet,
    min_element,
    mutable_vertices,
    mutate_sink,
    mutate_source,
    relative_height_vector,
)
from mckaycuts.quiver import (
    build_mckay,
    cut_quiver,
    make_cut,
    sinks,
    sources,
    type_of,
)
from mckaycuts.typesimplex import enumerate_types
from mckaycuts.verify import brute_force_cuts
from conftest import NAMED_SPECS, assert_same_text, instance, oracle_extremes
from oracles import all_cuts_exhaustive, walk_lattice_by_slacks


def cyclic_quiver(m, weights):
    """McKay quiver of the cyclic group 1/m(weights)."""
    spec = GroupSpec.make(len(weights) - 1, [(m, weights)])
    return build_mckay(embedding_from_spec(spec))


def class_moves(quiver, cut_type, vectors):
    """(lower, upper, vertex) for the vector pairs one class move apart.

    A class is a component of the arrows whose type has count 0, taken
    undirected.  The move adds 1 on one class other than the origin's and
    is labelled by its least vertex.  Moves between members of a cut
    lattice are its covers: v is constant on classes, so nothing lies
    strictly between a and a + 1 on one class.
    """
    zero = [t for t in quiver.types if cut_type[t - 1] == 0]
    neighbours = [[] for _ in range(quiver.m)]
    for u in range(quiver.m):
        for t in zero:
            w = quiver.targets[u][t - 1]
            neighbours[u].append(w)
            neighbours[w].append(u)
    seen, classes = set(), []
    for start in range(quiver.m):
        if start not in seen:
            seen.add(start)
            group = [start]
            for u in group:
                for w in neighbours[u]:
                    if w not in seen:
                        seen.add(w)
                        group.append(w)
            if 0 not in group:
                classes.append(set(group))
    index = {vec: i for i, vec in enumerate(vectors)}
    moves = set()
    for i, vec in enumerate(vectors):
        for members in classes:
            up = tuple(x + (k in members) for k, x in enumerate(vec))
            if up in index:
                moves.add((i, index[up], min(members)))
    return moves


def assert_hasse_edges_are_class_moves(quiver, lattice):
    moves = class_moves(quiver, lattice.cut_type, lattice.v_vectors)
    assert set(lattice.hasse_edges) == moves
    assert len(lattice.hasse_edges) == len(moves)
    assert bool(moves) == (len(lattice.cuts) > 1)


def lattice_instances():
    """(quiver, positive type) pairs across the named groups."""
    for name in ("half_11", "third_111", "quarter_112", "sixth_123",
                 "quarter_1111", "fifth_1112"):
        _, emb, quiver = instance(name)
        for cut_type in enumerate_types(emb).positive_types:
            yield name, quiver, cut_type


@lru_cache(maxsize=None)
def small_group_quivers():
    """The named groups and every faithful 1/m(a,b,c) with m <= 12.

    One quiver per distinct lattice: 121 of them, with 995 admissible
    types, nonpositive ones included.
    """
    specs = [instance(name)[0] for name in sorted(NAMED_SPECS)]
    specs += [
        GroupSpec.make(2, [(m, (a, b, (-a - b) % m))])
        for m in range(2, 13)
        for a in range(m)
        for b in range(m)
        if gcd(gcd(a, b), m) == 1
    ]
    quivers = {}
    for spec in specs:
        emb = embedding_from_spec(spec)
        if (emb.n, emb.hnf) not in quivers:
            quivers[emb.n, emb.hnf] = build_mckay(emb)
    return tuple(quivers.values())


class TestMutableVertices:
    def test_kronecker(self):
        _, _, quiver = instance("half_11")
        cut = make_cut(quiver, {(1, 1), (1, 2)})
        cut_sources, cut_sinks = mutable_vertices(quiver, cut)
        assert cut_sources == (0,)
        assert cut_sinks == (1,)

    def test_third_111(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        cut_sources, cut_sinks = mutable_vertices(quiver, cut)
        assert cut_sources == (0,)
        assert cut_sinks == (2,)

    def test_trivial_group_has_no_mutable_vertex(self):
        from mckaycuts.intlat import LatticeEmbedding
        from mckaycuts.quiver import build_mckay

        quiver = build_mckay(LatticeEmbedding.identity(2))
        cut = construct_cut(quiver, (1, 0, 0))
        cut_sources, cut_sinks = mutable_vertices(quiver, cut)
        assert [v for v in cut_sources + cut_sinks if v != 0] == []

    @staticmethod
    def read_off_cut_quiver(quiver, cut):
        """The sources and sinks of the cut quiver, built from all m(n+1) arrows."""
        sub = cut_quiver(quiver, cut)
        return sources(sub), sinks(sub)

    def assert_every_cut_agrees(self, quiver):
        for cut_type in enumerate_types(quiver.embedding).all_types:
            for cut in enumerate_cut_lattice(quiver, cut_type).cuts:
                expected = self.read_off_cut_quiver(quiver, cut)
                assert mutable_vertices(quiver, cut) == expected, cut.arrows

    def test_every_cut_of_every_type_of_small_groups(self):
        # Nonpositive types included: their cuts hold every arrow of some
        # type at some vertices and none at others.
        specs = [instance(name)[0] for name in sorted(NAMED_SPECS)]
        for spec in (*specs, GroupSpec.make(2, [(12, (1, 2, 9))])):
            self.assert_every_cut_agrees(build_mckay(embedding_from_spec(spec)))

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_every_cut_with_loops(self, m):
        # 1/m(1, m-1, 0): every arrow of type 3 is a loop.
        self.assert_every_cut_agrees(cyclic_quiver(m, (1, m - 1, 0)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cuts_along_random_mutations_of_cyclic_groups(self, data):
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(2, 16))
        head = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        weights = (*head, -sum(head) % m)
        assume(gcd(m, *weights) == 1)
        quiver = cyclic_quiver(m, weights)
        types = enumerate_types(quiver.embedding).all_types
        cut = construct_cut(quiver, data.draw(st.sampled_from(types)))
        for _ in range(8):
            ends = self.read_off_cut_quiver(quiver, cut)
            assert mutable_vertices(quiver, cut) == ends
            moves = [
                (mutate, v)
                for mutate, side in zip((mutate_source, mutate_sink), ends)
                for v in side
            ]
            if not moves:
                break
            mutate, v = data.draw(st.sampled_from(moves))
            cut = mutate(quiver, cut, v)


class TestMutate:
    def test_sink_mutation_walks_the_chain(self):
        _, _, quiver = instance("third_111")
        cut2 = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        cut1 = mutate_sink(quiver, cut2, 2)
        assert cut1.arrows == {(1, 1), (1, 2), (1, 3)}

    def test_half_11_sink_mutation(self):
        _, _, quiver = instance("half_11")
        cut_at_1 = make_cut(quiver, {(1, 1), (1, 2)})
        cut_at_0 = mutate_sink(quiver, cut_at_1, 1)
        assert cut_at_0.arrows == {(0, 1), (0, 2)}

    def test_mutations_are_involutive(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        down = mutate_sink(quiver, cut, 2)
        assert mutate_source(quiver, down, 2) == cut

    def test_rejects_non_mutable_vertex(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        with pytest.raises(ValueError, match="not a sink"):
            mutate_sink(quiver, cut, 1)
        with pytest.raises(ValueError, match="not a source"):
            mutate_source(quiver, cut, 2)

    @pytest.mark.parametrize("v, error", [(-3, ValueError), (3, ValueError),
                                          (1.5, TypeError)])
    def test_rejects_vertex_outside_range(self, v, error):
        # -3 used to wrap round to the origin, a source of the maximum.
        _, _, quiver = instance("third_111")
        for cut in (max_element(quiver, (1, 1, 1)), min_element(quiver, (1, 1, 1))):
            with pytest.raises(error):
                mutate_source(quiver, cut, v)
            with pytest.raises(error):
                mutate_sink(quiver, cut, v)

    def test_type_preserved(self):
        for _, quiver, cut_type in lattice_instances():
            cut = construct_cut(quiver, cut_type)
            cut_sources, cut_sinks = mutable_vertices(quiver, cut)
            for v in cut_sources:
                assert type_of(mutate_source(quiver, cut, v)) == cut_type
            for v in cut_sinks:
                assert type_of(mutate_sink(quiver, cut, v)) == cut_type

    def test_source_mutation_raises_height_by_n_plus_one(self):
        for _, quiver, cut_type in lattice_instances():
            n = quiver.n
            cut = construct_cut(quiver, cut_type)
            cut_sources, _ = mutable_vertices(quiver, cut)
            before = height_from_cut(quiver, cut)
            for v in cut_sources:
                if v == 0:
                    continue
                after = height_from_cut(quiver, mutate_source(quiver, cut, v))
                assert after.l1_values == before.l1_values
                for w in range(quiver.m):
                    expected = before.values[w] + (n + 1 if w == v else 0)
                    assert after.values[w] == expected


class TestRelativeHeightAndMeetJoin:
    def test_idempotent(self):
        _, _, quiver = instance("third_111")
        cut = construct_cut(quiver, (1, 1, 1))
        assert meet(cut, cut) == cut
        assert join(cut, cut) == cut

    def test_half_11_example(self):
        _, _, quiver = instance("half_11")
        cut0 = make_cut(quiver, {(0, 1), (0, 2)})
        cut1 = make_cut(quiver, {(1, 1), (1, 2)})
        assert relative_height_vector(cut0, cut0) == (0, 0)
        assert relative_height_vector(cut1, cut0) == (0, 1)
        assert meet(cut0, cut1) == cut0
        assert join(cut0, cut1) == cut1

    def test_type_mismatch_rejected(self):
        _, _, quiver = instance("third_111")
        a = construct_cut(quiver, (1, 1, 1))
        b = construct_cut(quiver, (3, 0, 0))
        with pytest.raises(ValueError, match="same type"):
            meet(a, b)
        with pytest.raises(ValueError, match="same type"):
            relative_height_vector(a, b)

    def test_cuts_of_different_quivers_rejected(self):
        # Both groups have the type (2, 2, 2), so only the quiver differs.
        a = construct_cut(cyclic_quiver(6, (1, 1, 4)), (2, 2, 2))
        b = construct_cut(cyclic_quiver(6, (1, 4, 1)), (2, 2, 2))
        for combine in (meet, join, relative_height_vector):
            with pytest.raises(ValueError, match="same quiver"):
                combine(a, b)

    def test_meet_join_are_componentwise_min_max(self):
        for _, quiver, cut_type in lattice_instances():
            lattice = enumerate_cut_lattice(quiver, cut_type)
            ref = lattice.cuts[0]
            for a in lattice.cuts:
                for b in lattice.cuts:
                    va = relative_height_vector(a, ref)
                    vb = relative_height_vector(b, ref)
                    v_meet = relative_height_vector(meet(a, b), ref)
                    v_join = relative_height_vector(join(a, b), ref)
                    assert v_meet == tuple(map(min, zip(va, vb)))
                    assert v_join == tuple(map(max, zip(va, vb)))


class TestEnumerateLattice:
    def test_chain_sizes(self):
        for name, size in (("half_11", 2), ("third_111", 3), ("quarter_1111", 4)):
            _, emb, quiver = instance(name)
            positive = (1,) * (emb.n + 1)
            lattice = enumerate_cut_lattice(quiver, positive)
            assert len(lattice.cuts) == size
            # a chain: consecutive v-vectors differ in exactly one slot
            assert len(lattice.hasse_edges) == size - 1

    def test_completeness_against_exhaustive_oracle(self):
        for _, quiver, cut_type in lattice_instances():
            lattice = enumerate_cut_lattice(quiver, cut_type)
            oracle = all_cuts_exhaustive(quiver, cut_type)
            assert {c.arrows for c in lattice.cuts} == set(oracle)

    def test_hasse_edges_match_cover_relations(self):
        for _, quiver, cut_type in lattice_instances():
            lattice = enumerate_cut_lattice(quiver, cut_type)
            vecs = lattice.v_vectors
            covers = set()
            for i, low in enumerate(vecs):
                for j, high in enumerate(vecs):
                    if i == j or not all(a <= b for a, b in zip(low, high)):
                        continue
                    strictly_between = any(
                        k not in (i, j)
                        and all(a <= b for a, b in zip(low, vecs[k]))
                        and all(a <= b for a, b in zip(vecs[k], high))
                        for k in range(len(vecs))
                    )
                    if not strictly_between:
                        covers.add((i, j))
            assert covers == {(lo, hi) for lo, hi, _ in lattice.hasse_edges}

    def test_hasse_edges_change_one_coordinate(self):
        for _, quiver, cut_type in lattice_instances():
            lattice = enumerate_cut_lattice(quiver, cut_type)
            for lo, hi, vx in lattice.hasse_edges:
                diff = [
                    b - a
                    for a, b in zip(lattice.v_vectors[lo], lattice.v_vectors[hi])
                ]
                assert sum(diff) == 1 and diff[vx] == 1
                assert vx != 0

    def test_closure_and_distributivity(self):
        for _, quiver, cut_type in lattice_instances():
            lattice = enumerate_cut_lattice(quiver, cut_type)
            members = {c.arrows for c in lattice.cuts}
            cuts = lattice.cuts
            for a in cuts:
                for b in cuts:
                    assert meet(a, b).arrows in members
                    assert join(a, b).arrows in members
            for a in cuts:
                for b in cuts:
                    for c in cuts:
                        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
                        assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))

    def test_nonpositive_fallback(self):
        _, emb, quiver = instance("quarter_112")
        lattice = enumerate_cut_lattice(quiver, (2, 2, 0))
        assert len(lattice.cuts) == 2
        assert len(lattice.hasse_edges) == 1
        assert_hasse_edges_are_class_moves(quiver, lattice)
        oracle = all_cuts_exhaustive(quiver, (2, 2, 0))
        assert {c.arrows for c in lattice.cuts} == set(oracle)

    @pytest.mark.parametrize("m, weights, cut_type, n_cuts", (
        (8, (1, 3, 4), (4, 4, 0), 6),
        (10, (1, 4, 5), (4, 6, 0), 10),
        (12, (1, 5, 6), (6, 6, 0), 20),
    ))
    def test_nonpositive_beyond_m_6(self, m, weights, cut_type, n_cuts):
        # Class moves reach every cut; no exhaustive search, no refusal.
        quiver = cyclic_quiver(m, weights)
        lattice = enumerate_cut_lattice(quiver, cut_type)
        oracle = all_cuts_exhaustive(quiver, cut_type)
        assert {c.arrows for c in lattice.cuts} == set(oracle)
        assert len(lattice.cuts) == n_cuts
        assert_hasse_edges_are_class_moves(quiver, lattice)

    def test_v_vectors_are_relative_heights_on_every_type_of_small_groups(self):
        # The walk never computes heights; tie its vectors to the bijection.
        n_cuts = 0
        for quiver in small_group_quivers():
            for cut_type in enumerate_types(quiver.embedding).all_types:
                lattice = enumerate_cut_lattice(quiver, cut_type)
                seed = construct_cut(quiver, cut_type)
                for cut, vec in zip(lattice.cuts, lattice.v_vectors):
                    assert vec == relative_height_vector(cut, seed), cut_type
                # The walk writes its edges in order and never sorts them.
                edges = lattice.hasse_edges
                assert edges == tuple(sorted(edges)), cut_type
                n_cuts += len(lattice.cuts)
        assert n_cuts == 31_314

    def test_deterministic_output(self):
        _, _, quiver = instance("sixth_123")
        first = enumerate_cut_lattice(quiver, (1, 2, 3))
        second = enumerate_cut_lattice(quiver, (1, 2, 3))
        assert first.to_json() == second.to_json()


class TestBruteForce:
    def test_matches_exhaustive_oracle_on_every_simplex_point(
        self, named_instance
    ):
        # admissible or not: a point with no cut has no bucket; every
        # named instance has m <= 6, small enough to search
        _, emb, quiver = named_instance
        buckets = brute_force_cuts(quiver)
        points = set()
        for bars in combinations_with_replacement(range(emb.m + 1), emb.n):
            edges = (0, *bars, emb.m)
            point = tuple(b - a for a, b in zip(edges, edges[1:]))
            found = [c.arrows for c in buckets.get(point, [])]
            assert len(found) == len(set(found))
            assert set(found) == set(all_cuts_exhaustive(quiver, point)), point
            points.add(point)
        assert set(buckets) <= points


class TestExtremes:
    def test_half_11_max(self):
        _, _, quiver = instance("half_11")
        assert max_element(quiver, (1, 1)).arrows == {(1, 1), (1, 2)}

    def test_third_111_max(self):
        _, _, quiver = instance("third_111")
        assert max_element(quiver, (1, 1, 1)).arrows == {(2, 1), (2, 2), (2, 3)}

    def test_max_has_unique_source_at_origin(self):
        for _, quiver, cut_type in lattice_instances():
            maximum = max_element(quiver, cut_type)
            assert sources(cut_quiver(quiver, maximum)) == (0,)
            lattice = enumerate_cut_lattice(quiver, cut_type)
            with_origin_source = [
                c
                for c in lattice.cuts
                if sources(cut_quiver(quiver, c)) == (0,)
            ]
            assert with_origin_source == [maximum]
            assert lattice.cuts[lattice.max_index] == maximum

    def test_min_is_dual(self):
        for _, quiver, cut_type in lattice_instances():
            minimum = min_element(quiver, cut_type)
            lattice = enumerate_cut_lattice(quiver, cut_type)
            assert lattice.cuts[lattice.min_index] == minimum
            from mckaycuts.quiver import sinks as sink_set

            assert sink_set(cut_quiver(quiver, minimum)) == (0,)

    @pytest.mark.parametrize("m, weights, cut_type", [
        (4, (1, 1, 2), (2, 2, 0)),
        (12, (1, 5, 6), (6, 6, 0)),
        (6, (1, 2, 3), (3, 0, 3)),
    ], ids=["1/4(1,1,2)", "1/12(1,5,6)", "1/6(1,2,3)"])
    def test_nonpositive_type_matches_oracle_ends(self, m, weights, cut_type):
        quiver = cyclic_quiver(m, weights)
        top, bottom = oracle_extremes(quiver, cut_type)
        assert max_element(quiver, cut_type).arrows == top
        assert min_element(quiver, cut_type).arrows == bottom

    def test_every_admissible_type_of_small_groups(self):
        quivers = small_group_quivers()
        for quiver in quivers:
            for cut_type in enumerate_types(quiver.embedding).all_types:
                lattice = enumerate_cut_lattice(quiver, cut_type)
                maximum = max_element(quiver, cut_type)
                assert maximum == lattice.cuts[lattice.max_index], cut_type
                assert maximum == max_via_p(quiver, cut_type), cut_type
                minimum = min_element(quiver, cut_type)
                assert minimum == lattice.cuts[lattice.min_index], cut_type
        assert len(quivers) == 121

    def test_read_off_refuses_a_vector_breaking_a_bound(self, monkeypatch):
        # The out-arrows of the origin keep v[w] - v[0] in {-1, 0, 1}, so
        # a jump of 2 breaks their bounds.
        quiver = instance("third_111")[2]
        monkeypatch.setattr(
            mutation, "_distances", lambda adjacency: [0] + [2] * (len(adjacency) - 1)
        )
        with pytest.raises(ValueError, match="not a height function"):
            max_element(quiver, (1, 1, 1))


class TestMaxViaP:
    def test_half_11(self):
        _, _, quiver = instance("half_11")
        cut = max_via_p(quiver, (1, 1))
        height = height_from_cut(quiver, cut)
        assert height.values == (0, 1)
        assert cut.arrows == {(1, 1), (1, 2)}

    def test_third_111(self):
        _, _, quiver = instance("third_111")
        assert max_via_p(quiver, (1, 1, 1)).arrows == {(2, 1), (2, 2), (2, 3)}

    def test_agrees_with_greedy_everywhere(self):
        for _, quiver, cut_type in lattice_instances():
            assert max_via_p(quiver, cut_type) == max_element(quiver, cut_type)

    def test_nonpositive_type_still_produces_the_type(self):
        _, _, quiver = instance("quarter_112")
        cut = max_via_p(quiver, (2, 2, 0))
        assert type_of(cut) == (2, 2, 0)

    def test_trivial_type_gives_trivial_cut(self):
        _, emb, quiver = instance("third_111")
        cut = max_via_p(quiver, (3, 0, 0))
        assert cut.arrows == {(v, 1) for v in range(emb.m)}

    def test_failed_certification_raises(self, monkeypatch):
        def refuse(quiver, cut_type, potential):
            raise ValueError("not a height function")

        monkeypatch.setattr(mutation, "_cut_steps", refuse)
        _, _, quiver = instance("third_111")
        with pytest.raises(SearchBoundExceededError, match="certification"):
            max_via_p(quiver, (1, 1, 1))


# The lattice benchmark instances: group weights, type, cuts and covers.
BENCHMARK_LATTICES = (
    (18, (1, 5, 12), (5, 7, 6), 378, 1037),
    (18, (1, 5, 12), (8, 4, 6), 270, 680),
    (24, (1, 5, 18), (6, 6, 12), 1272, 4048),
    (24, (1, 5, 18), (7, 11, 6), 1824, 6141),
)


class TestBenchmarkLattices:
    @pytest.mark.parametrize("m, weights, cut_type, n_cuts, n_covers",
                             BENCHMARK_LATTICES)
    def test_against_oracle(self, m, weights, cut_type, n_cuts, n_covers):
        quiver = cyclic_quiver(m, weights)
        lattice = enumerate_cut_lattice(quiver, cut_type)
        oracle = all_cuts_exhaustive(quiver, cut_type)
        assert {c.arrows for c in lattice.cuts} == set(oracle)
        assert len(lattice.cuts) == n_cuts
        assert len(lattice.hasse_edges) == n_covers
        for lo, hi, vx in lattice.hasse_edges:
            diff = [
                b - a
                for a, b in zip(lattice.v_vectors[lo], lattice.v_vectors[hi])
            ]
            assert vx != 0
            assert diff == [1 if v == vx else 0 for v in range(m)]

    @pytest.mark.parametrize("m, weights, cut_type, n_cuts, n_covers",
                             BENCHMARK_LATTICES)
    def test_counts_invariant_under_coordinate_permutation(
        self, m, weights, cut_type, n_cuts, n_covers
    ):
        perm = (2, 0, 1)
        quiver = cyclic_quiver(m, tuple(weights[i] for i in perm))
        lattice = enumerate_cut_lattice(quiver, tuple(cut_type[i] for i in perm))
        assert len(lattice.cuts) == n_cuts
        assert len(lattice.hasse_edges) == n_covers


@st.composite
def cyclic_positive_types(draw):
    """A cyclic group 1/m(a, b, -a-b) with m <= 16 and one positive type."""
    m = draw(st.integers(2, 16))
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(0, m - 1))
    assume(gcd(gcd(a, b), m) == 1)
    quiver = cyclic_quiver(m, (a, b, -a - b))
    positive = enumerate_types(quiver.embedding).positive_types
    assume(positive)
    return quiver, draw(st.sampled_from(positive))


class TestLatticeProperties:
    @settings(max_examples=25, deadline=None)
    @given(cyclic_positive_types(), st.data())
    def test_lattice_matches_oracle_and_extremes(self, instance, data):
        quiver, cut_type = instance
        lattice = enumerate_cut_lattice(quiver, cut_type)
        oracle = all_cuts_exhaustive(quiver, cut_type)
        assert {c.arrows for c in lattice.cuts} == set(oracle)
        maximum = lattice.cuts[lattice.max_index]
        assert maximum == max_element(quiver, cut_type)
        assert maximum == max_via_p(quiver, cut_type)
        assert lattice.cuts[lattice.min_index] == min_element(quiver, cut_type)

        index_of = {c.arrows: i for i, c in enumerate(lattice.cuts)}
        members = st.integers(0, len(lattice.cuts) - 1)
        i, j = data.draw(members), data.draw(members)
        a, b = lattice.cuts[i], lattice.cuts[j]
        va, vb = lattice.v_vectors[i], lattice.v_vectors[j]
        v_meet = lattice.v_vectors[index_of[meet(a, b).arrows]]
        v_join = lattice.v_vectors[index_of[join(a, b).arrows]]
        assert v_meet == tuple(map(min, va, vb))
        assert v_join == tuple(map(max, va, vb))


@st.composite
def cyclic_types_with_zero(draw):
    """A cyclic group 1/m(a, b, -a-b) with m <= 16 and an admissible type with a 0."""
    m = draw(st.integers(2, 16))
    a = draw(st.integers(1, m - 1))
    b = draw(st.integers(0, m - 1))
    assume(gcd(gcd(a, b), m) == 1)
    quiver = cyclic_quiver(m, (a, b, -a - b))
    types = enumerate_types(quiver.embedding).all_types
    return quiver, draw(st.sampled_from([t for t in types if 0 in t]))


class TestNonpositiveLatticeProperties:
    @settings(max_examples=40, deadline=None)
    @given(cyclic_types_with_zero(), st.data())
    def test_lattice_matches_oracle(self, instance, data):
        quiver, cut_type = instance
        lattice = enumerate_cut_lattice(quiver, cut_type)
        oracle = all_cuts_exhaustive(quiver, cut_type)
        assert {c.arrows for c in lattice.cuts} == set(oracle)
        assert len(lattice.cuts) == len(oracle)
        assert_hasse_edges_are_class_moves(quiver, lattice)
        vecs = lattice.v_vectors
        assert list(vecs) == sorted(set(vecs))
        assert vecs[lattice.max_index] == tuple(map(max, zip(*vecs)))
        assert vecs[lattice.min_index] == tuple(map(min, zip(*vecs)))
        assert max_via_p(quiver, cut_type) == lattice.cuts[lattice.max_index]
        assert max_element(quiver, cut_type) == lattice.cuts[lattice.max_index]
        assert min_element(quiver, cut_type) == lattice.cuts[lattice.min_index]

        members = st.integers(0, len(vecs) - 1)
        i, j = data.draw(members), data.draw(members)
        a, b = lattice.cuts[i], lattice.cuts[j]
        low, high = (tuple(map(f, vecs[i], vecs[j])) for f in (min, max))
        assert meet(a, b) == lattice.cuts[vecs.index(low)]
        assert join(a, b) == lattice.cuts[vecs.index(high)]
        assert relative_height_vector(a, lattice.cuts[0]) == tuple(
            x - y for x, y in zip(vecs[i], vecs[0])
        )


class TestHasseTransitiveReduction:
    """Hasse edges against networkx's transitive reduction of the v-vector order."""

    @pytest.mark.parametrize("name", (*sorted(NAMED_SPECS), "1/12(1,2,9)"))
    def test_edges_are_the_covers(self, name):
        nx = pytest.importorskip("networkx")
        if name == "1/12(1,2,9)":
            quiver = cyclic_quiver(12, (1, 2, 9))
        else:
            quiver = instance(name)[2]
        for cut_type in enumerate_types(quiver.embedding).all_types:
            lattice = enumerate_cut_lattice(quiver, cut_type)
            vecs = lattice.v_vectors
            order = nx.DiGraph()
            order.add_nodes_from(range(len(vecs)))
            order.add_edges_from(
                (i, j)
                for i, a in enumerate(vecs)
                for j, b in enumerate(vecs)
                if i != j and all(p <= q for p, q in zip(a, b))
            )
            reduction = set(nx.transitive_reduction(order).edges)
            assert len(lattice.hasse_edges) == len(reduction)
            assert {(lo, hi) for lo, hi, _ in lattice.hasse_edges} == reduction


def rebuilt(lattice, packed, bounds):
    """``lattice`` with other packed cuts and bounds, through the constructor."""
    return MutationLattice(lattice.cut_type, packed, bounds)


def dumped(lattice) -> str:
    """``to_json`` text of the lattice with every cut read off its slacks.

    New seed bounds pack each vector afresh, its mask read off the step
    check of its potential, so comparing this with the lattice's own
    stream checks the walk's masks against the slacks.
    """
    fresh = mutation._Bounds(lattice.bounds.quiver, lattice.cut_type)
    packed = tuple(map(fresh.pack, lattice.v_vectors))
    tree = rebuilt(lattice, packed, fresh).to_json()
    return json.dumps(tree, indent=2) + "\n"


def assert_views_act_as_tuples(quiver, lattice):
    """``v_vectors`` and ``cuts`` behave like tuples read off the ints."""
    bounds = mutation._Bounds(quiver, lattice.cut_type)
    vectors = tuple(map(bounds.vector, lattice.packed))
    cuts = tuple(map(bounds.cut, map(bounds.pack, vectors)))
    assert all(type_of(c) == lattice.cut_type for c in cuts)
    for view, expected in ((lattice.v_vectors, vectors), (lattice.cuts, cuts)):
        size = len(expected)
        assert len(view) == size and tuple(view) == expected
        assert (view[-1], view[-size]) == (expected[-1], expected[0])
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                view[i]
        assert view[:2] + view[-2:] == expected[:2] + expected[-2:]
        assert view[::-3] == expected[::-3] and type(view[1:1]) is tuple
        with pytest.raises(TypeError):
            view[0] = expected[0]


class TestLatticeJsonChunks:
    def test_matches_to_json_on_every_type_of_small_groups(self):
        nonpositive = single = 0
        for quiver in small_group_quivers():
            for cut_type in enumerate_types(quiver.embedding).all_types:
                lattice = enumerate_cut_lattice(quiver, cut_type)
                text = "".join(lattice.json_chunks())
                assert_same_text(text, dumped(lattice), cut_type)
                assert_views_act_as_tuples(quiver, lattice)
                nonpositive += not all(cut_type)
                single += len(lattice.cuts) == 1
        # Both edge cases occur: nonpositive types and one-cut lattices.
        assert nonpositive > 0 and single > 0

    def test_a_copy_reads_its_cuts_off_its_own_vectors(self):
        # 1/6(1,2,3), type (1,2,3): a copy packed from the vectors reversed,
        # as tuples or as lists, streams the same text as its tree, with
        # the cuts reversed too.
        lattice = enumerate_cut_lattice(cyclic_quiver(6, (1, 2, 3)), (1, 2, 3))
        reverse = tuple(lattice.v_vectors)[::-1]
        for vectors in (reverse, [list(v) for v in reverse]):
            packed = tuple(map(lattice.bounds.pack, vectors))
            copy = rebuilt(lattice, packed, lattice.bounds)
            assert tuple(copy.v_vectors) == reverse
            assert tuple(copy.cuts) == tuple(lattice.cuts)[::-1]
            text = "".join(copy.json_chunks())
            assert_same_text(text, json.dumps(copy.to_json(), indent=2) + "\n")
            assert_same_text(text, dumped(copy))
        for view in ("cuts", "v_vectors"):
            with pytest.raises(AttributeError):
                setattr(copy, view, tuple(getattr(copy, view)))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_matches_to_json_on_random_cyclic_groups(self, data):
        m = data.draw(st.integers(2, 16))
        a = data.draw(st.integers(0, m - 1))
        b = data.draw(st.integers(0, m - 1))
        assume(gcd(gcd(a, b), m) == 1)
        quiver = cyclic_quiver(m, (a, b, -a - b))
        types = enumerate_types(quiver.embedding).all_types
        cut_type = data.draw(st.sampled_from(types))
        lattice = enumerate_cut_lattice(quiver, cut_type)
        assert_same_text("".join(lattice.json_chunks()), dumped(lattice))
        assert_views_act_as_tuples(quiver, lattice)

    def test_a_vector_off_the_bounds_is_refused(self):
        # 1/6(1,2,3), type (1,2,3): raising one coordinate of a vector by 2
        # breaks the bound of some arrow at that vertex.
        lattice = enumerate_cut_lattice(cyclic_quiver(6, (1, 2, 3)), (1, 2, 3))
        vector = list(lattice.v_vectors[2])
        vector[3] += 2
        with pytest.raises(ValueError, match="not a height function"):
            lattice.bounds.pack(vector)

    def test_a_vector_of_the_wrong_length_or_origin_is_refused(self):
        # 1/6(1,2,3), type (1,2,3): one entry too many or too few is refused
        # with the length, not read as the cut of its first m entries.  A
        # whole vector moved up by one keeps every slack but not v[0] = 0.
        lattice = enumerate_cut_lattice(cyclic_quiver(6, (1, 2, 3)), (1, 2, 3))
        pack = lattice.bounds.pack
        for v in lattice.v_vectors:
            for wrong in ((*v, 0), v[:-1]):
                with pytest.raises(ValueError, match=f"6 entries, not {len(wrong)}"):
                    pack(wrong)
            with pytest.raises(ValueError, match=r"v\[0\] = 1, not 0"):
                pack([x + 1 for x in v])

    def test_a_mask_of_the_wrong_type_is_refused(self):
        # Flipping bits 0 and 1, the arrows of types 1 and 2 out of vertex
        # 0, changes the count of type 1.
        lattice = enumerate_cut_lattice(cyclic_quiver(6, (1, 2, 3)), (1, 2, 3))
        packed = list(lattice.packed)
        packed[1] ^= 0b11
        copy = rebuilt(lattice, tuple(packed), lattice.bounds)
        with pytest.raises(AssertionError):
            copy.cuts[1]
        with pytest.raises(AssertionError):
            "".join(copy.json_chunks())

    def test_a_copy_missing_an_upper_end_is_refused(self):
        # 1/6(1,2,3), type (1,2,3): with a middle int dropped, some cut
        # rises to the missing vector.  Reading the edges names it; no
        # KeyError, and no edge to another cut's index.
        lattice = enumerate_cut_lattice(cyclic_quiver(6, (1, 2, 3)), (1, 2, 3))
        k = len(lattice.packed) // 2
        assert 0 < k < lattice.max_index
        missing = re.escape(f"v = {lattice.v_vectors[k]}, which the lattice lacks")
        copy = rebuilt(
            lattice, lattice.packed[:k] + lattice.packed[k + 1 :], lattice.bounds
        )
        for read in (
            lambda: copy.hasse_edges,
            copy.to_json,
            lambda: "".join(copy.json_chunks()),
            lambda: "".join(copy.hasse_dot()),
        ):
            with pytest.raises(ValueError, match=missing):
                read()


@st.composite
def cyclic_groups_with_any_type(draw):
    """A cyclic group 1/m(w) with n = 2-4, m <= 16 and any admissible type."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 16))
    head = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    weights = (*head, -sum(head) % m)
    assume(gcd(*weights, m) == 1)
    quiver = cyclic_quiver(m, weights)
    types = enumerate_types(quiver.embedding).all_types
    return quiver, draw(st.sampled_from(types))


def assert_walk_matches_oracle(quiver, lattice):
    seed = construct_cut(quiver, lattice.cut_type).arrows
    vectors, edges = walk_lattice_by_slacks(quiver, lattice.cut_type, seed)
    assert tuple(lattice.v_vectors) == vectors
    assert lattice.hasse_edges == tuple(sorted(lattice.hasse_edges))
    assert lattice.hasse_edges == edges


class TestPackedWalk:
    """The walk on masks and packed vectors against the tuple walk."""

    @settings(max_examples=40, deadline=None)
    @given(cyclic_groups_with_any_type())
    def test_matches_the_tuple_walk_on_random_cyclic_groups(self, instance):
        quiver, cut_type = instance
        assert_walk_matches_oracle(quiver, enumerate_cut_lattice(quiver, cut_type))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_more_types_than_one_byte_holds(self, n):
        # 1/(n+1)(1,...,1), type (1,...,1): 8, 9 and 10 arrows per vertex,
        # so from n = 8 on a vertex's arrows straddle two bytes of a mask.
        quiver = cyclic_quiver(n + 1, (1,) * (n + 1))
        lattice = enumerate_cut_lattice(quiver, (1,) * (n + 1))
        assert len(lattice.v_vectors) == n + 1
        assert [(lo, hi) for lo, hi, _ in lattice.hasse_edges] == [
            (i, i + 1) for i in range(n)
        ]
        assert_same_text("".join(lattice.json_chunks()), dumped(lattice))
        assert_views_act_as_tuples(quiver, lattice)
        assert_walk_matches_oracle(quiver, lattice)

    def test_the_lattice_holds_under_90_bytes_per_cut(self):
        # 1/30(1,5,24), type (8,10,12): 14,955 cuts.  The packed ints alone
        # hold about 81 bytes per cut, and about 101 if each vertex's arrow
        # bits were padded to whole bytes.
        quiver = cyclic_quiver(30, (1, 5, 24))
        tracemalloc.start()
        try:
            lattice = enumerate_cut_lattice(quiver, (8, 10, 12))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(lattice.packed) == 14955
        assert held / len(lattice.packed) < 90

    def test_two_byte_vector_digits(self):
        # m = 130: a digit v[x] + m reaches 2m - 1 = 259, past one byte.
        quiver = cyclic_quiver(130, (1, 5, 124))
        lattice = enumerate_cut_lattice(quiver, (1, 5, 124))
        assert len(lattice.v_vectors) == 130
        assert_same_text("".join(lattice.json_chunks()), dumped(lattice))
        assert_views_act_as_tuples(quiver, lattice)
        assert_walk_matches_oracle(quiver, lattice)
