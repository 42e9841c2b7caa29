"""Type simplex enumeration, hollowness, junior elements, central degrees."""

import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from mckaycuts.errors import NonFaithfulSpecError
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.intlat import LatticeEmbedding
from mckaycuts.typesimplex import (
    enumerate_types,
    has_preprojective_cut,
    is_admissible_type,
    juniors_cyclic,
    monomial_degree,
    require_admissible,
    trivial_types,
)
from conftest import instance
from oracles import random_unimodular


def simplex_points(n, m):
    for bars in combinations_with_replacement(range(m + 1), n):
        cuts = (0, *bars, m)
        yield tuple(cuts[i + 1] - cuts[i] for i in range(n + 1))


def brute_force_types(emb):
    """All simplex points passing the divisibility test, checked directly."""
    cols = tuple(zip(*emb.bprime))
    found = []
    for point in simplex_points(emb.n, emb.m):
        if all(
            sum(g * c for g, c in zip(point, col)) % emb.m == 0 for col in cols
        ):
            found.append(point)
    return sorted(found)


class TestEnumerateTypes:
    def test_half_11(self):
        _, emb, _ = instance("half_11")
        report = enumerate_types(emb)
        assert set(report.all_types) == {(2, 0), (0, 2), (1, 1)}
        assert report.positive_types == ((1, 1),)
        assert not report.hollow

    def test_third_111(self):
        _, emb, _ = instance("third_111")
        report = enumerate_types(emb)
        assert set(report.all_types) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
        assert report.positive_types == ((1, 1, 1),)

    def test_klein_sl3_hollow(self):
        _, emb, _ = instance("klein_sl3")
        report = enumerate_types(emb)
        assert set(report.all_types) == {
            (4, 0, 0),
            (0, 4, 0),
            (0, 0, 4),
            (2, 2, 0),
            (2, 0, 2),
            (0, 2, 2),
        }
        assert report.positive_types == ()
        assert report.hollow

    def test_matches_brute_force(self, named_instance):
        _, emb, _ = named_instance
        report = enumerate_types(emb)
        assert list(report.all_types) == brute_force_types(emb)

    def test_vertices_are_types(self, named_instance):
        _, emb, _ = named_instance
        report = enumerate_types(emb)
        assert set(trivial_types(emb)) <= set(report.all_types)

    def test_types_sum_to_m(self, named_instance):
        _, emb, _ = named_instance
        for t in enumerate_types(emb).all_types:
            assert sum(t) == emb.m
            assert all(g >= 0 for g in t)

    def test_hollow_invariant_under_unimodular_action(self):
        rng = random.Random(11)
        for name in ("third_111", "klein_sl3", "sixth_123"):
            _, emb, _ = instance(name)
            report = enumerate_types(emb)
            for _ in range(5):
                u = random_unimodular(emb.n, rng)
                basis = (Matrix(emb.bprime) * Matrix(u)).tolist()
                other = LatticeEmbedding.from_basis(basis)
                other_report = enumerate_types(other)
                assert other_report.hollow == report.hollow
                assert other_report.all_types == report.all_types


def random_group(rng):
    """A faithful diagonal group: 1-3 generators, n <= 3, order <= 40."""
    while True:
        n = rng.randint(1, 3)
        gens, bound = [], 40
        for _ in range(rng.randint(1, 3)):
            order = rng.randint(1, bound)
            bound //= order
            weights = [rng.randrange(order) for _ in range(n)]
            gens.append((order, (*weights, -sum(weights) % order)))
        try:
            return embedding_from_spec(GroupSpec.make(n, gens))
        except NonFaithfulSpecError:
            continue


class TestCongruenceStep:
    """The congruence-stepping search against the simplex scan.

    The HNF diagonal of a cyclic group starts with m itself (a = 0 mod
    m), and groups such as (Z/2)^2 have diagonal entries sharing a
    factor with m, so both special cases of the step are drawn.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_brute_force_on_random_groups(self, rng):
        emb = random_group(rng)
        assert list(enumerate_types(emb).all_types) == brute_force_types(emb)

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_brute_force_on_other_bases(self, rng):
        emb = random_group(rng)
        u = random_unimodular(emb.n, rng) if emb.n > 1 else ((1,),)
        basis = (Matrix(emb.bprime) * Matrix(u)).tolist()
        other = LatticeEmbedding.from_basis(basis)
        assert list(enumerate_types(other).all_types) == brute_force_types(other)

    @pytest.mark.parametrize(
        "n, order, weights, count",
        [
            (2, 2000, (1, 5, 1994), 1005),
            (6, 5000, (1, 2, 3, 4, 5, 6, 4979), 245),
        ],
        ids=["n2_m2000", "n6_m5000"],
    )
    def test_large_cyclic_groups_match_juniors(self, n, order, weights, count):
        spec = GroupSpec.make(n, [(order, weights)])
        emb = embedding_from_spec(spec)
        report = enumerate_types(emb)
        assert len(report.all_types) == count
        vertices = set(trivial_types(emb))
        non_vertex = [t for t in report.all_types if t not in vertices]
        assert non_vertex == sorted(juniors_cyclic(spec))

    def test_coordinate_order_keeps_count(self):
        spec = GroupSpec.make(2, [(2000, (5, 1, 1994))])
        assert len(enumerate_types(embedding_from_spec(spec)).all_types) == 1005


class TestHasPreprojectiveCut:
    def test_trivial_group_empty(self):
        assert has_preprojective_cut(LatticeEmbedding.identity(2)) is None

    def test_third_111(self):
        _, emb, _ = instance("third_111")
        assert has_preprojective_cut(emb) == (1, 1, 1)

    def test_klein_sl3_empty(self):
        _, emb, _ = instance("klein_sl3")
        assert has_preprojective_cut(emb) is None


class TestJuniorsCyclic:
    def test_half_11(self):
        spec, _, _ = instance("half_11")
        assert juniors_cyclic(spec) == [(1, 1)]

    def test_third_111(self):
        spec, _, _ = instance("third_111")
        assert juniors_cyclic(spec) == [(1, 1, 1)]

    def test_quarter_112(self):
        spec, _, _ = instance("quarter_112")
        assert juniors_cyclic(spec) == [(1, 1, 2), (2, 2, 0)]

    def test_requires_single_generator(self):
        spec, _, _ = instance("klein_sl3")
        with pytest.raises(ValueError, match="single-generator"):
            juniors_cyclic(spec)

    def test_matches_non_vertex_types(self):
        for name in ("half_11", "third_111", "quarter_112", "sixth_123",
                     "quarter_1111", "fifth_1112"):
            spec, emb, _ = instance(name)
            juniors = set(juniors_cyclic(spec))
            report = enumerate_types(emb)
            assert juniors == set(report.all_types) - set(trivial_types(emb))


class TestMonomialDegree:
    def test_product_of_variables_has_degree_one(self, named_instance):
        _, emb, _ = named_instance
        ones = (1,) * (emb.n + 1)
        for t in enumerate_types(emb).all_types:
            assert monomial_degree(emb, ones, t) == 1

    def test_examples(self):
        _, emb, _ = instance("third_111")
        assert monomial_degree(emb, (3, 0, 0), (1, 1, 1)) == 1
        assert monomial_degree(emb, (3, 0, 0), (3, 0, 0)) == 3

    def test_pure_powers_reconstruct_type(self, named_instance):
        _, emb, _ = named_instance
        n, m = emb.n, emb.m
        for t in enumerate_types(emb).all_types:
            recovered = tuple(
                monomial_degree(
                    emb, tuple(m if j == i else 0 for j in range(n + 1)), t
                )
                for i in range(n + 1)
            )
            assert recovered == t

    def test_rejects_non_invariant_monomial(self):
        _, emb, _ = instance("third_111")
        with pytest.raises(ValueError, match="invariant"):
            monomial_degree(emb, (1, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match="length 3"):
            monomial_degree(emb, (3, 0), (1, 1, 1))


class TestAdmissibility:
    def test_sixth_123_table(self):
        _, emb, _ = instance("sixth_123")
        assert is_admissible_type(emb, (1, 2, 3))
        assert is_admissible_type(emb, (3, 0, 3))
        assert not is_admissible_type(emb, (2, 2, 2))
        assert not is_admissible_type(emb, (1, 2, 2))  # wrong sum
        assert not is_admissible_type(emb, (7, 2, -3))  # negative entry
        assert not is_admissible_type(emb, (1, 2, 3, 0))  # wrong length
        assert not is_admissible_type(emb, (1, 2))

    def test_non_integer_entries_rejected(self):
        # (1.5, 1, 1) truncates to the admissible (1, 1, 1)
        _, emb, _ = instance("third_111")
        with pytest.raises(TypeError):
            is_admissible_type(emb, (1.5, 1, 1))
        with pytest.raises(TypeError):
            require_admissible(emb, (1.5, 1, 1))
