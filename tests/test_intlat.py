"""Exact linear algebra: normal forms, coset reduction, membership, orders."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from mckaycuts.errors import SingularMatrixError
from mckaycuts.intlat import (
    LatticeEmbedding,
    as_matrix,
    det,
    hnf,
    identity_matrix,
    snf,
)
from oracles import in_lattice, matrix_product, random_unimodular, same_lattice


def columns(mat):
    return tuple(zip(*mat))


class TestHnf:
    def test_identity_is_fixed(self):
        ident = identity_matrix(2)
        h, u = hnf(ident)
        assert h == ident
        assert u == ident

    def test_sum_zero_mod_three_lattice(self):
        # Lattice generated by (3,0), (0,3), (1,2): all v with v1+v2 = 0 mod 3.
        # Assembled as a basis from two of the generators.
        basis = as_matrix([(0, 1), (3, 2)])  # columns (0,3) and (1,2)
        h, u = hnf(basis)
        assert h == ((3, 2), (0, 1))
        assert Matrix(basis) * Matrix(u) == Matrix(h)
        assert abs(det(u)) == 1
        generators = [(3, 0), (0, 3), (1, 2)]
        assert same_lattice(columns(h), generators)

    def test_already_canonical(self):
        mat = as_matrix([(2, 0), (0, 2)])
        h, u = hnf(mat)
        assert h == mat
        assert u == identity_matrix(2)

    def test_transform_is_unimodular(self):
        for rows in [
            [(4, 1, 0), (-2, 3, 5), (7, 0, 2)],
            [(1, 5), (3, 3)],  # equal pivots in the last row
            [(1, 5), (6, 3)],  # the pivot 3 divides its partner 6
            [(0, 1), (1, 0)],  # zero pivot
            [(-2, 1), (0, -3)],  # negative diagonal
        ]:
            mat = as_matrix(rows)
            n = len(mat)
            h, u = hnf(mat)
            assert Matrix(mat) * Matrix(u) == Matrix(h)
            assert abs(det(u)) == 1
            assert math.prod(h[i][i] for i in range(n)) == abs(det(mat))
            # canonical shape
            for i in range(n):
                assert h[i][i] > 0
                for j in range(n):
                    if j < i:
                        assert h[i][j] == 0
                    else:
                        assert 0 <= h[i][j] < h[i][i] or j == i

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            hnf(as_matrix([(1, 1), (1, 1)]))

    @pytest.mark.parametrize(
        "call, reason",
        [
            (lambda: as_matrix([(1, 2), (3,)]), "ragged"),
            (lambda: det(((1, 2),)), "square"),
            (lambda: hnf(((1, 2),)), "square"),
            (lambda: LatticeEmbedding.from_basis([(1, 2)]), "square"),
        ],
        ids=["as_matrix", "det", "hnf", "from_basis"],
    )
    def test_shape_errors_rejected(self, call, reason):
        with pytest.raises(ValueError, match=reason):
            call()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.randoms(use_true_random=False))
    def test_canonicity_under_unimodular_action(self, n, rng):
        mat = tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)
        )
        if det(mat) == 0:
            return
        u = random_unimodular(n, rng)
        h1, _ = hnf(mat)
        h2, _ = hnf(matrix_product(mat, u))
        assert h1 == h2


class TestSnf:
    def test_identity(self):
        ident = identity_matrix(3)
        s, u, v = snf(ident)
        assert s == ident and u == ident and v == ident

    def test_already_diagonal_with_chain(self):
        mat = as_matrix([(2, 0), (0, 4)])
        s, u, v = snf(mat)
        assert s == mat
        assert Matrix(u) * Matrix(mat) * Matrix(v) == Matrix(s)

    def test_one_by_two(self):
        mat = as_matrix([(2, 3)])
        s, u, v = snf(mat)
        assert s == ((1, 0),)
        assert Matrix(u) * Matrix(mat) * Matrix(v) == Matrix(s)
        assert abs(det(v)) == 1 and abs(det(u)) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                min_size=1,
                max_size=3,
            )
        )
    )
    # Loops forever if Euclid runs from (a, b), which swaps two equal entries.
    @example([(-4, 3), (-1, -5), (5, -4)])
    @example([(2, 2), (2, 6)])  # equal pivots
    @example([(2, 4), (6, 3)])  # a pivot that divides its partner
    @example([(0, 0), (0, 7)])  # zero pivot, pulled up from below
    @example([(-3, 0), (0, 6)])  # negative diagonal
    def test_snf_properties(self, entries):
        mat = as_matrix(entries)
        rows, cols = len(mat), len(mat[0])
        s, u, v = snf(mat)
        assert Matrix(u) * Matrix(mat) * Matrix(v) == Matrix(s)
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


class TestReduce:
    def test_zero(self):
        emb = LatticeEmbedding.from_basis([(3, 2), (0, 1)])
        assert emb.reduce((0, 0)) == (0, 0)

    def test_example_against_coset_table(self):
        emb = LatticeEmbedding.from_basis([(3, 2), (0, 1)])
        assert emb.reduce((1, 1)) == (2, 0)
        cols = columns(emb.bprime)
        for x in [(1, 1), (-2, 5), (4, -3), (0, 7)]:
            rep = emb.reduce(x)
            diff = tuple(a - b for a, b in zip(x, rep))
            assert in_lattice(cols, diff)
            assert all(0 <= c < d for c, d in zip(rep, emb.diagonal))

    def test_identity_embedding_reduces_to_zero(self):
        emb = LatticeEmbedding.identity(2)
        assert emb.m == 1
        for x in [(5, -3), (0, 0), (-7, 11)]:
            assert emb.reduce(x) == (0, 0)

    def test_domain_size_and_injectivity(self, named_instance):
        _, emb, _ = named_instance
        domain = emb.fundamental_domain()
        assert len(domain) == emb.m
        assert len(set(domain)) == emb.m
        assert all(emb.reduce(rep) == rep for rep in domain)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_constant_on_orbits(self, rng):
        emb = LatticeEmbedding.from_basis([(4, 3), (0, 2)])
        x = tuple(rng.randint(-9, 9) for _ in range(2))
        coeffs = [rng.randint(-3, 3) for _ in range(2)]
        shift = tuple(
            sum(c * emb.bprime[r][k] for k, c in enumerate(coeffs))
            for r in range(2)
        )
        y = tuple(a + b for a, b in zip(x, shift))
        assert emb.reduce(x) == emb.reduce(y)

    def test_dimension_mismatch(self):
        emb = LatticeEmbedding.identity(2)
        with pytest.raises(ValueError):
            emb.reduce((1, 2, 3))


class TestMembershipAndOrder:
    def test_membership_examples(self):
        emb = LatticeEmbedding.from_basis([(3, 2), (0, 1)])
        assert emb.in_sublattice((2, 1))
        assert not emb.in_sublattice((1, 1))
        assert emb.in_sublattice((0, 0))

    def test_membership_iff_reduces_to_zero(self, named_instance):
        _, emb, _ = named_instance
        samples = [(1, 0, 2), (2, 2, -1), (-1, 3, 0), (0, 0, 0), (5, -5, 4)]
        origin = (0,) * emb.n
        for p in samples:
            p = p[: emb.n]
            assert emb.in_sublattice(p) == (emb.reduce(p) == origin)

    def test_order_examples(self):
        third = LatticeEmbedding.from_basis([(3, 2), (0, 1)])
        assert third.element_order((0, 0)) == 1
        assert third.element_order((1, 0)) == 3
        klein = LatticeEmbedding.from_basis([(2, 0), (0, 2)])
        assert klein.element_order((1, 0)) == 2

    def test_order_divides_m(self, named_instance):
        _, emb, _ = named_instance
        for rep in emb.fundamental_domain():
            order = emb.element_order(rep)
            assert emb.m % order == 0
            assert emb.in_sublattice(tuple(order * c for c in rep))
            for smaller in range(1, order):
                assert not emb.in_sublattice(tuple(smaller * c for c in rep))


class TestEmbeddingConstruction:
    def test_negative_determinant_rejected(self):
        with pytest.raises(ValueError):
            LatticeEmbedding.from_basis([(0, 1), (3, 2)])

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            LatticeEmbedding.from_basis([(1, 2), (2, 4)])

    def test_non_integer_entries_rejected(self):
        # truncates to an index-3 lattice
        with pytest.raises(TypeError):
            LatticeEmbedding.from_basis([[1.5, 0], [0, 3]])

    def test_determinant_is_index(self):
        emb = LatticeEmbedding.from_basis([(1, 0), (2, 3)])
        assert emb.m == 3
        assert emb.hnf == ((3, 2), (0, 1))


class TestSympyCrossCheck:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_hnf_and_snf_match_sympy(self, rows):
        mat = as_matrix(rows)
        assume(det(mat) != 0)
        size = len(rows)
        expected = hermite_normal_form(Matrix(rows))
        assert hnf(mat)[0] == tuple(map(tuple, expected.tolist()))
        smith = smith_normal_form(Matrix(rows), domain=ZZ)
        assert [abs(snf(mat)[0][i][i]) for i in range(size)] == [
            abs(smith[i, i]) for i in range(size)
        ]
