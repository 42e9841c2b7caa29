"""McKay quiver construction, elementary cycles, cuts, and acyclicity."""

import operator
from itertools import combinations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mckaycuts.errors import NonFaithfulSpecError, NotACutError
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.heights import height_from_cut
from mckaycuts.intlat import LatticeEmbedding
from mckaycuts.quiver import (
    build_mckay,
    cut_quiver,
    first_cut_violation,
    is_acyclic,
    is_cut,
    make_cut,
    quiver_to_dot,
    quiver_to_json,
    sinks,
    sources,
    type_of,
)
from conftest import instance
from oracles import quiver_cycle_constraints


class TestBuild:
    def test_trivial_group_gives_loops(self):
        quiver = build_mckay(LatticeEmbedding.identity(2))
        assert quiver.vertices == ((0, 0),)
        assert quiver.targets == ((0, 0, 0),)

    def test_half_11_doubled_arrows(self):
        _, _, quiver = instance("half_11")
        assert quiver.vertices == ((0,), (1,))
        # both step directions coincide mod 2: each type gives 0->1 and 1->0
        assert quiver.targets == ((1, 1), (0, 0))

    def test_third_111_three_cycle(self):
        _, _, quiver = instance("third_111")
        assert quiver.vertices == ((0, 0), (1, 0), (2, 0))
        for v in range(3):
            assert quiver.targets[v] == ((v + 1) % 3,) * 3

    def test_regular_degrees(self, named_instance):
        _, emb, quiver = named_instance
        n, m = emb.n, emb.m
        indeg = [0] * m
        for v, t in quiver.arrows():
            indeg[quiver.target(v, t)] += 1
        assert all(len(quiver.out_arrows(v)) == n + 1 for v in range(m))
        assert all(d == n + 1 for d in indeg)
        assert all(len(quiver.in_arrows(v)) == n + 1 for v in range(m))

    def test_origin_first_lexicographic(self, named_instance):
        _, emb, quiver = named_instance
        assert quiver.vertices[0] == (0,) * emb.n
        assert list(quiver.vertices) == sorted(quiver.vertices)


@st.composite
def faithful_embeddings(draw):
    """A faithful diagonal group: n <= 4, 1-3 generators of order <= 6."""
    n = draw(st.integers(1, 4))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.integers(1, 6))
        head = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
        gens.append((order, (*head, -sum(head) % order)))
    try:
        return embedding_from_spec(GroupSpec.make(n, gens))
    except NonFaithfulSpecError:
        assume(False)


class TestVertexMap:
    @settings(max_examples=100, deadline=None)
    @given(faithful_embeddings(), st.data())
    def test_vertex_numbers_cosets_and_in_arrows(self, emb, data):
        for i, rep in enumerate(emb.fundamental_domain()):
            assert emb.vertex(rep) == i
        x = data.draw(st.lists(st.integers(-50, 50), min_size=emb.n, max_size=emb.n))
        for column in emb.basis_columns():
            assert emb.vertex(map(operator.add, x, column)) == emb.vertex(x)
        # The arrows into each vertex, rebuilt from the target table.
        quiver = build_mckay(emb)
        into = [set() for _ in range(emb.m)]
        for u, row in enumerate(quiver.targets):
            for t, w in zip(quiver.types, row):
                into[w].add((u, t))
        for v in range(emb.m):
            arrows = quiver.in_arrows(v)
            assert len(arrows) == emb.n + 1 and set(arrows) == into[v]


class TestElementaryCycles:
    def test_counts(self, named_instance):
        _, emb, quiver = named_instance
        count = sum(1 for _ in quiver.elementary_cycles())
        assert count == emb.m * factorial(emb.n)

    def test_trivial_group_single_cycle(self):
        quiver = build_mckay(LatticeEmbedding.identity(1))
        assert tuple(quiver.elementary_cycles()) == (((0, 1), (0, 2)),)

    def test_half_11_two_cycles(self):
        _, _, quiver = instance("half_11")
        assert set(quiver.elementary_cycles()) == {
            ((0, 1), (1, 2)),
            ((1, 1), (0, 2)),
        }

    def test_each_starts_with_type_one(self, named_instance):
        _, emb, quiver = named_instance
        for cycle in quiver.elementary_cycles():
            types = [t for _, t in cycle]
            assert types[0] == 1
            assert sorted(types) == list(range(1, emb.n + 2))

    def test_matches_oracle_walk(self, named_instance):
        _, _, quiver = named_instance
        assert tuple(quiver.elementary_cycles()) == tuple(
            quiver_cycle_constraints(quiver)
        )


class TestIsCut:
    def test_trivial_type_cut(self, named_instance):
        _, emb, quiver = named_instance
        for t in quiver.types:
            assert is_cut(quiver, {(v, t) for v in range(emb.m)})

    def test_vertex_star_cut_in_half_11(self):
        _, _, quiver = instance("half_11")
        assert is_cut(quiver, {(0, 1), (0, 2)})
        assert not is_cut(quiver, {(0, 1), (1, 2)})

    def test_make_cut_validates(self):
        _, _, quiver = instance("half_11")
        cut = make_cut(quiver, {(1, 1), (1, 2)})
        assert type_of(cut) == (1, 1)
        with pytest.raises(NotACutError, match="elementary cycle"):
            make_cut(quiver, {(0, 1), (1, 2)})

    def test_agrees_with_height_based_test_small(self):
        # dual route: an arrow set is a cut iff a consistent height exists
        for name in ("half_11", "third_111", "quarter_112", "klein_sl3"):
            _, emb, quiver = instance(name)
            arrows = list(quiver.arrows())
            for subset in combinations(arrows, emb.m):
                by_cycles = is_cut(quiver, subset)
                assert (first_cut_violation(quiver, subset) is None) == by_cycles
                try:
                    height_from_cut(quiver, frozenset(subset))
                    by_heights = True
                except NotACutError:
                    by_heights = False
                assert by_cycles == by_heights, subset


class TestTypeOf:
    def test_trivial_cut_type(self):
        _, emb, quiver = instance("third_111")
        cut = make_cut(quiver, {(v, 1) for v in range(3)})
        assert type_of(cut) == (3, 0, 0)

    def test_vertex_star_has_all_types(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        assert type_of(cut) == (1, 1, 1)

    def test_loop_cut_for_trivial_group(self):
        quiver = build_mckay(LatticeEmbedding.identity(2))
        cut = make_cut(quiver, {(0, 2)})
        assert type_of(cut) == (0, 1, 0)

    def test_every_cut_has_m_arrows(self, named_instance):
        _, emb, quiver = named_instance
        for t in quiver.types:
            cut = make_cut(quiver, {(v, t) for v in range(emb.m)})
            assert len(cut.arrows) == emb.m
            assert sum(type_of(cut)) == emb.m


class TestCutQuiver:
    def test_trivial_cut_removes_one_type(self):
        _, emb, quiver = instance("third_111")
        cut = make_cut(quiver, {(v, 1) for v in range(3)})
        sub = cut_quiver(quiver, cut)
        assert len(sub.arrows) == 6
        assert all(t != 1 for _, t in sub.arrows)

    def test_linear_quiver(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, t) for t in (1, 2, 3)})
        sub = cut_quiver(quiver, cut)
        assert is_acyclic(sub)
        assert sources(sub) == (0,)
        assert sinks(sub) == (2,)

    def test_kronecker(self):
        _, _, quiver = instance("half_11")
        cut = make_cut(quiver, {(1, 1), (1, 2)})
        sub = cut_quiver(quiver, cut)
        assert sub.arrows == ((0, 1), (0, 2))
        assert is_acyclic(sub)
        assert sources(sub) == (0,)
        assert sinks(sub) == (1,)

    def test_full_quiver_is_cyclic(self, named_instance):
        _, _, quiver = named_instance
        from mckaycuts.quiver import Subquiver

        sub = Subquiver(quiver=quiver, arrows=tuple(quiver.arrows()))
        assert not is_acyclic(sub)


class TestExports:
    def test_json_mirrors_fields(self):
        _, emb, quiver = instance("half_11")
        payload = quiver_to_json(quiver)
        assert payload["m"] == 2 and payload["n"] == 1
        assert len(payload["arrows"]) == 4

    def test_dot_marks_cut_arrows(self):
        _, _, quiver = instance("half_11")
        cut = make_cut(quiver, {(1, 1), (1, 2)})
        dot = quiver_to_dot(quiver, cut)
        assert dot.count("style=dashed") == 2
        assert dot.startswith("digraph")
