"""Group descriptions to canonical lattice embeddings."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

from mckaycuts.errors import NonFaithfulSpecError
from mckaycuts.groups import GroupSpec, embedding_from_spec, group_order, parse_input
from mckaycuts.intlat import as_matrix, hnf, identity_matrix, snf
from oracles import in_lattice


def brute_kernel_basis(n, generators, box=8):
    """Kernel lattice of the weight map, found by scanning a box.

    Collects every vector killed by all generators, then verifies a
    candidate basis generates them all.
    """
    points = [
        p for p in product(range(-box, box + 1), repeat=n) if killed(generators, p)
    ]
    return points


def killed(generators, p):
    """Whether every generator acts trivially on the n-vector p."""
    return all(
        sum(w * c for w, c in zip(weights, p)) % order == 0
        for order, weights in generators
    )


def smith_route(n, generators):
    """The HNF after each generator, cut out through Smith normal forms.

    With H the HNF so far, x = H y meets the congruence of (r, w) exactly
    when (y, k) lies in the integer kernel of the row [w H mod r, -r] for
    some k.  That row is nonzero, so the last n columns of the V of its
    Smith form span the kernel; their first n entries, K, span the y's,
    and the next HNF is that of H K.  Yields H after every generator.
    """
    h = identity_matrix(n)
    for r, weights in generators:
        if r > 1:
            row = [sum(w * c for w, c in zip(weights, col)) % r for col in zip(*h)]
            _, _, v = snf(((*row, -r),))
            kernel = Matrix([v[i][1:] for i in range(n)])
            h = hnf(as_matrix((Matrix(h) * kernel).tolist()))[0]
        yield h


@st.composite
def many_generators(draw):
    """(n, generators) with n <= 6 and 1-8 generators of order <= 40."""
    n = draw(st.integers(1, 6))
    gens = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.integers(1, 40))
        head = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
        gens.append((order, (*head, -sum(head) % order)))
    return n, gens


@st.composite
def specs(draw):
    """(n, generators) with n <= 3 and 1-3 generators of order <= 6."""
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.integers(1, 6))
        head = draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n))
        gens.append((order, (*head, -sum(head) % order)))
    return n, gens


class TestEmbeddingFromSpec:
    def test_empty_generators(self):
        emb = embedding_from_spec(GroupSpec.make(2, []))
        assert emb.bprime == ((1, 0), (0, 1))
        assert emb.m == 1

    def test_third_111_kernel(self):
        emb = embedding_from_spec(GroupSpec.make(2, [(3, (1, 1, 1))]))
        assert emb.bprime == ((3, 2), (0, 1))
        assert emb.m == 3
        kernel_points = brute_kernel_basis(2, [(3, (1, 1, 1))], box=4)
        cols = tuple(zip(*emb.bprime))
        # basis columns lie in the kernel, and every kernel point they span
        assert all(sum(col) % 3 == 0 for col in cols)
        assert all(in_lattice(cols, p) for p in kernel_points)

    def test_klein_four_kernel(self):
        spec = GroupSpec.make(2, [(2, (1, 1, 0)), (2, (1, 0, 1))])
        emb = embedding_from_spec(spec)
        assert emb.bprime == ((2, 0), (0, 2))
        assert emb.m == 4
        kernel_points = brute_kernel_basis(
            2, [(2, (1, 1, 0)), (2, (1, 0, 1))], box=3
        )
        assert set(kernel_points) == {
            p for p in product(range(-3, 4), repeat=2) if p[0] % 2 == 0 and p[1] % 2 == 0
        }

    def test_group_order(self):
        assert group_order(GroupSpec.make(2, [])) == 1
        assert group_order(GroupSpec.make(2, [(3, (1, 1, 1))])) == 3
        assert group_order(GroupSpec.make(2, [(2, (1, 1, 0)), (2, (1, 0, 1))])) == 4

    def test_sl_condition_rejected(self):
        with pytest.raises(ValueError, match="invalid weights"):
            GroupSpec.make(2, [(3, (1, 1, 2))])

    def test_weights_normalised_mod_order(self):
        spec = GroupSpec.make(2, [(3, (4, 4, 4))])
        assert spec.generators[0].weights == (1, 1, 1)

    def test_wrong_weight_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            GroupSpec.make(2, [(3, (1, 1))])

    @pytest.mark.parametrize(
        "n, generators, reason",
        [(0, [], "at least 1"), (2, [(0, (0, 0, 0))], "positive")],
        ids=["n_0", "order_0"],
    )
    def test_nonpositive_n_or_order_rejected(self, n, generators, reason):
        with pytest.raises(ValueError, match=reason):
            GroupSpec.make(n, generators)

    @pytest.mark.parametrize(
        "n, generators",
        [
            (2, [(3.9, (1, 1, 1))]),
            (2, [(3, (1.2, 1, 1))]),
            (2.0, [(3, (1, 1, 1))]),
        ],
        ids=["float_order", "float_weight", "float_n"],
    )
    def test_non_integers_rejected(self, n, generators):
        # each truncates to a valid description of 1/3(1, 1, 1)
        with pytest.raises(TypeError):
            GroupSpec.make(n, generators)

    def test_redundant_generators_rejected(self):
        spec = GroupSpec.make(2, [(2, (1, 1, 0)), (2, (1, 1, 0))])
        with pytest.raises(NonFaithfulSpecError, match="stated group order 4"):
            embedding_from_spec(spec)

    def test_overstated_order_rejected(self):
        # 1/4(2,2,0) is really an order-2 element.
        spec = GroupSpec.make(2, [(4, (2, 2, 0))])
        with pytest.raises(NonFaithfulSpecError, match="lattice index 2"):
            embedding_from_spec(spec)

    def test_reordering_generators_keeps_embedding(self):
        a = (2, (1, 1, 0))
        b = (4, (1, 0, 3))
        emb1 = embedding_from_spec(GroupSpec.make(2, [a, b]))
        emb2 = embedding_from_spec(GroupSpec.make(2, [b, a]))
        assert emb1 == emb2

    @settings(max_examples=60, deadline=None)
    @given(specs())
    def test_random_specs_match_the_brute_force_kernel(self, drawn):
        # L Z^n lies in the kernel K for L the lcm of the orders, so K
        # has L^n / [Z^n : K] points in the box [0, L)^n.
        n, generators = drawn
        box = math.lcm(*(order for order, _ in generators))
        count = sum(killed(generators, p) for p in product(range(box), repeat=n))
        index = box**n // count
        spec = GroupSpec.make(n, generators)
        if index != math.prod(order for order, _ in generators):
            with pytest.raises(NonFaithfulSpecError):
                embedding_from_spec(spec)
            return
        emb = embedding_from_spec(spec)
        assert emb.m == index
        # n columns in K spanning a sublattice of index m span all of K.
        assert all(killed(generators, col) for col in zip(*emb.hnf))

    @settings(max_examples=150, deadline=None)
    @given(many_generators())
    def test_bordered_hnf_matches_the_smith_route(self, drawn):
        # Every prefix of the generators is checked: the two routes give
        # the same HNF while the prefix is faithful, and both refuse it
        # once it is not.
        n, generators = drawn
        for k, h in enumerate(smith_route(n, generators), 1):
            spec = GroupSpec.make(n, generators[:k])
            stated = math.prod(order for order, _ in generators[:k])
            if stated != math.prod(h[i][i] for i in range(n)):
                with pytest.raises(NonFaithfulSpecError):
                    embedding_from_spec(spec)
                return
            assert embedding_from_spec(spec).hnf == h

    def test_coprime_power_keeps_embedding(self):
        rng = random.Random(7)
        for _ in range(20):
            order = rng.choice([2, 3, 4, 5, 6])
            w = [rng.randrange(order) for _ in range(2)]
            weights = (*w, (-sum(w)) % order)
            spec = GroupSpec.make(2, [(order, weights)])
            try:
                emb = embedding_from_spec(spec)
            except NonFaithfulSpecError:
                continue
            for k in range(2, order):
                if math.gcd(k, order) != 1:
                    continue
                powered = GroupSpec.make(
                    2, [(order, tuple((k * x) % order for x in weights))]
                )
                assert embedding_from_spec(powered) == emb


class TestParseInput:
    def test_generator_schema(self):
        emb, spec = parse_input(
            {"n": 2, "generators": [{"order": 3, "weights": [1, 1, 1]}]}
        )
        assert emb.m == 3
        assert spec is not None and spec.generators[0].order == 3

    def test_bprime_schema(self):
        emb, spec = parse_input({"n": 2, "bprime": [[3, 2], [0, 1]]})
        assert emb.m == 3
        assert spec is None
        with pytest.raises(ValueError, match="n x n"):
            parse_input({"n": 2, "bprime": [[3, 2]]})

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            parse_input({"generators": []})
        with pytest.raises(ValueError):
            parse_input({"n": 2})
        with pytest.raises(ValueError):
            parse_input([1, 2, 3])

    @pytest.mark.parametrize(
        "generators", [{}, [{"order": 2, "weights": [1, 1]}]], ids=["malformed", "valid"]
    )
    def test_bprime_and_generators_together_rejected(self, generators):
        # bprime used to win, with the generators never read.
        with pytest.raises(ValueError, match="exactly one"):
            parse_input({"n": 1, "bprime": [[2]], "generators": generators})

    @pytest.mark.parametrize(
        "generators", [{}, {"x": 1}, "abc", 3], ids=["empty_object", "object", "string", "number"]
    )
    def test_generators_must_be_an_array(self, generators):
        # An empty object used to read as "no generators", the trivial group.
        with pytest.raises(ValueError, match="JSON array"):
            parse_input({"n": 2, "generators": generators})
