"""Cut <-> height function bijection and height arithmetic."""

import gc
import operator
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mckaycuts.construct import construct_cut
from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.heights import (
    HeightFunction,
    cut_from_height,
    h_gamma,
    height_from_cut,
    types_equal_iff_h_equal,
)
from mckaycuts.intlat import LatticeEmbedding, det
from mckaycuts.quiver import build_mckay, is_cut, make_cut, type_of
from mckaycuts.typesimplex import enumerate_types, monomial_degree
from conftest import instance
from oracles import all_cuts_exhaustive, box_vertices, walk_heights


class TestHeightFromCut:
    def test_origin_is_zero(self, named_instance):
        _, emb, quiver = named_instance
        cut = make_cut(quiver, {(v, 1) for v in range(emb.m)})
        height = height_from_cut(quiver, cut)
        assert height.values[0] == 0

    def test_half_11_star_at_origin(self):
        _, emb, quiver = instance("half_11")
        cut = make_cut(quiver, {(0, 1), (0, 2)})
        height = height_from_cut(quiver, cut)
        assert height.values == (0, -1)
        assert height.l1_values == (0,)

    def test_third_111_staircase(self):
        _, _, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        height = height_from_cut(quiver, cut)
        assert height.values == (0, 1, 2)

    def test_rejects_non_cut(self):
        from mckaycuts.errors import NotACutError

        _, _, quiver = instance("half_11")
        with pytest.raises(NotACutError):
            height_from_cut(quiver, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(NotACutError):
            height_from_cut(quiver, frozenset({(0, 1)}))
        # Six arrows of counts (2, 2, 2), which is not a cut type of 1/6(1,2,3).
        quiver = instance("sixth_123")[2]
        inadmissible = {(v, t) for v in (0, 1) for t in (1, 2, 3)}
        with pytest.raises(NotACutError, match="divisibility"):
            height_from_cut(quiver, frozenset(inadmissible))

    def test_rejects_every_non_cut_of_an_admissible_type(self):
        # Right arrow count and an admissible type, so only the step check
        # of every arrow can refuse these sets.
        from itertools import combinations

        from mckaycuts.errors import NotACutError

        _, emb, quiver = instance("sixth_123")
        admissible = set(enumerate_types(emb).all_types)
        refused = 0
        for arrows in combinations(list(quiver.arrows()), emb.m):
            counts = tuple(sum(1 for _, t in arrows if t == s) for s in quiver.types)
            if counts not in admissible or is_cut(quiver, arrows):
                continue
            with pytest.raises(NotACutError):
                height_from_cut(quiver, frozenset(arrows))
            refused += 1
        assert refused > 0

    def test_equivariant_evaluation(self):
        _, emb, quiver = instance("third_111")
        cut = make_cut(quiver, {(2, 1), (2, 2), (2, 3)})
        height = height_from_cut(quiver, cut)
        # value_at(x + b) == value_at(x) + l1 value of basis column b
        for v, rep in enumerate(quiver.vertices):
            for k, col in enumerate(emb.basis_columns()):
                shifted = tuple(a + b for a, b in zip(rep, col))
                assert height.value_at(shifted) == (
                    height.values[v] + height.l1_values[k]
                )

    def test_cycles_lift_to_zero_increment(self, named_instance):
        _, emb, quiver = named_instance
        n = emb.n
        cut = make_cut(quiver, {(v, 1) for v in range(emb.m)})
        for cycle in quiver.elementary_cycles():
            increments = sum(-n if a in cut.arrows else 1 for a in cycle)
            assert increments == 0


class TestCutFromHeight:
    def test_round_trip_trivial(self, named_instance):
        _, emb, quiver = named_instance
        for t in quiver.types:
            cut = make_cut(quiver, {(v, t) for v in range(emb.m)})
            assert cut_from_height(quiver, height_from_cut(quiver, cut)) == cut

    def test_half_11_drop_positions(self):
        _, _, quiver = instance("half_11")
        cut = make_cut(quiver, {(0, 1), (0, 2)})
        recovered = cut_from_height(quiver, height_from_cut(quiver, cut))
        assert recovered.arrows == {(0, 1), (0, 2)}

    def test_loop_height_for_trivial_group(self):
        # slope +1 along alpha_1 makes the type-2 loop the unique drop
        emb = LatticeEmbedding.identity(1)
        quiver = build_mckay(emb)
        height = HeightFunction(embedding=emb, values=(0,), l1_values=(1,))
        cut = cut_from_height(quiver, height)
        assert cut.arrows == {(0, 2)}

    def test_round_trips_on_all_brute_forced_cuts(self):
        for name in ("half_11", "third_111", "quarter_112", "klein_sl3"):
            _, emb, quiver = instance(name)
            for arrows in all_cuts_exhaustive(quiver):
                cut = make_cut(quiver, arrows)
                height = height_from_cut(quiver, cut)
                assert cut_from_height(quiver, height) == cut
                expected_l1 = tuple(
                    h_gamma(emb, col, type_of(cut))
                    for col in emb.basis_columns()
                )
                assert height.l1_values == expected_l1
                # and the opposite composition fixes the height function
                again = height_from_cut(quiver, cut_from_height(quiver, height))
                assert again.values == height.values
                assert again.l1_values == height.l1_values

    def test_rejects_bad_height(self):
        _, emb, quiver = instance("half_11")
        bad = HeightFunction(embedding=emb, values=(0, 2), l1_values=(0,))
        with pytest.raises(ValueError):
            cut_from_height(quiver, bad)
        not_zero = HeightFunction(
            embedding=emb, values=(1, 0), l1_values=(0,)
        )
        with pytest.raises(ValueError, match="origin"):
            cut_from_height(quiver, not_zero)
        no_l1 = HeightFunction(embedding=emb, values=(0, -1), l1_values=())
        with pytest.raises(ValueError, match="L1 values"):
            cut_from_height(quiver, no_l1)
        no_type = HeightFunction(embedding=emb, values=(0, -1), l1_values=(1,))
        with pytest.raises(ValueError, match="fit no integer type"):
            cut_from_height(quiver, no_type)
        short = HeightFunction(embedding=emb, values=(0,), l1_values=(0,))
        with pytest.raises(ValueError, match="canonical representatives"):
            cut_from_height(quiver, short)
        _, other, _ = instance("third_111")
        foreign = HeightFunction(embedding=other, values=(0, -1), l1_values=(0,))
        with pytest.raises(ValueError, match="different embedding"):
            cut_from_height(quiver, foreign)
        # On 1/4(1,1,2), (4h - <x_v, w>) / 3 must be an integer.
        _, emb, quiver = instance("quarter_112")
        fractional = HeightFunction(
            embedding=emb, values=(0, 2, 2, 3), l1_values=(1, 1)
        )
        with pytest.raises(ValueError, match="not integral"):
            cut_from_height(quiver, fractional)


class TestWalkOracle:
    """Height values against a walk over lattice points, not the quotient."""

    @staticmethod
    def points(emb, quiver):
        box = [range(-d, 2 * d) for d in emb.diagonal]
        return box_vertices(list(zip(*emb.bprime)), quiver.vertices, box)

    def test_heights_equal_the_walk_on_every_cut(self, named_instance):
        _, emb, quiver = named_instance
        points = self.points(emb, quiver)
        cuts = all_cuts_exhaustive(quiver)
        assert cuts
        for arrows in cuts:
            walk = walk_heights(points, emb.n, arrows)
            assert walk is not None and len(walk) == len(points)
            height = height_from_cut(quiver, arrows)
            assert height.values == tuple(walk[rep] for rep in quiver.vertices)
            for x, value in walk.items():
                assert height.value_at(x) == value, (arrows, x)

    def test_walk_refuses_a_non_cut(self):
        _, emb, quiver = instance("half_11")
        points = self.points(emb, quiver)
        assert walk_heights(points, 1, {(0, 1), (1, 2)}) is None


def test_quiver_keeps_no_per_type_state():
    # One round trip per type of 1/240(1,5,234) leaves the live quiver
    # as small as it was: no table per type is kept.
    spec = GroupSpec.make(2, [(240, (1, 5, 234))])
    quiver = build_mckay(embedding_from_spec(spec))
    types = enumerate_types(quiver.embedding).all_types
    assert len(types) == 127
    tracemalloc.start()
    try:
        for cut_type in types:
            cut = construct_cut(quiver, cut_type)
            assert cut_from_height(quiver, height_from_cut(quiver, cut)) == cut
        del cut
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


class TestHGamma:
    def test_zero_vector(self):
        _, emb, _ = instance("third_111")
        assert h_gamma(emb, (0, 0), (1, 1, 1)) == 0

    def test_half_11_basis_value(self):
        _, emb, _ = instance("half_11")
        assert h_gamma(emb, (2,), (1, 1)) == 0

    def test_trivial_type_on_multiple(self):
        # type (m, 0, ..., 0) on y = m * alpha_1 gives m - (n+1)m = -nm
        for name in ("half_11", "third_111", "quarter_1111"):
            _, emb, _ = instance(name)
            n, m = emb.n, emb.m
            y = (m,) + (0,) * (n - 1)
            trivial = (m,) + (0,) * n
            assert h_gamma(emb, y, trivial) == -n * m

    def test_rejects_outside_l1(self):
        _, emb, _ = instance("third_111")
        with pytest.raises(ValueError, match="not in the sublattice"):
            h_gamma(emb, (1, 0), (1, 1, 1))

    def test_rejects_invalid_type(self):
        # needs gcd(n+1, m) = 1 so a bad type actually breaks integrality
        _, emb, _ = instance("quarter_112")
        assert emb.in_sublattice((3, 1))
        with pytest.raises(ValueError, match="not a valid cut type"):
            h_gamma(emb, (3, 1), (1, 0, 3))
        with pytest.raises(ValueError, match="length 3"):
            h_gamma(emb, (3, 1), (1, 3))


class TestTypesEqualIffHEqual:
    def test_equal_types(self):
        _, emb, _ = instance("third_111")
        assert types_equal_iff_h_equal(emb, (1, 1, 1), (1, 1, 1))

    def test_distinct_types_third(self):
        _, emb, _ = instance("third_111")
        assert not types_equal_iff_h_equal(emb, (1, 1, 1), (3, 0, 0))

    def test_distinct_types_half(self):
        _, emb, _ = instance("half_11")
        assert not types_equal_iff_h_equal(emb, (2, 0), (0, 2))

    def test_agrees_with_equality_on_all_pairs(self, named_instance):
        _, emb, _ = named_instance
        types = enumerate_types(emb).all_types
        for a in types:
            for b in types:
                assert types_equal_iff_h_equal(emb, a, b) == (a == b)


@st.composite
def heights_and_points(draw):
    """A height function, two vectors x and c, and a nonzero coset
    representative (None when m = 1).

    The lattice has a random basis with n <= 3, entries in [-3, 3] and
    index at most 40; the height function is that of the constructed cut
    of a random admissible type.
    """
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    index = det(rows)
    assume(1 <= abs(index) <= 40)
    if index < 0:
        rows = [[-r[0], *r[1:]] for r in rows]
    emb = LatticeEmbedding.from_basis(rows)
    quiver = build_mckay(emb)
    cut_type = draw(st.sampled_from(enumerate_types(emb).all_types))
    height = height_from_cut(quiver, construct_cut(quiver, cut_type))
    vector = st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple)
    rep = draw(st.sampled_from(emb.fundamental_domain()[1:])) if emb.m > 1 else None
    return height, draw(vector), draw(vector), rep


@settings(max_examples=150, deadline=None)
@given(heights_and_points())
def test_one_division_serves_membership_and_equivariance(drawn):
    # x = H c + rep: the quotient of the division is c exactly when rep is
    # 0, and the height function adds the L1 values weighted by c.
    height, x, c, rep = drawn
    emb = height.embedding
    lattice_point = tuple(sum(map(operator.mul, row, c)) for row in emb.hnf)
    assert emb.l1_coefficients(lattice_point) == c
    if rep is not None:
        off = tuple(map(operator.add, lattice_point, rep))
        assert emb.l1_coefficients(off) is None
        assert not emb.in_sublattice(off)
    shifted = tuple(map(operator.add, x, lattice_point))
    step = sum(map(operator.mul, c, height.l1_values))
    assert height.value_at(shifted) == height.value_at(x) + step


def _third_height():
    _, _, quiver = instance("third_111")
    return height_from_cut(quiver, make_cut(quiver, {(2, 1), (2, 2), (2, 3)}))


# Each entry point with a float where an integer belongs; all of them
# used to truncate it silently (reduce((1.9, 0.5)) gave (1, 0)).
NON_INTEGER_CALLS = {
    "reduce": lambda emb, q: emb.reduce((1.9, 0.5)),
    "l1_coefficients": lambda emb, q: emb.l1_coefficients((3.2, 0)),
    "in_sublattice": lambda emb, q: emb.in_sublattice((3.2, 0)),
    "element_order": lambda emb, q: emb.element_order((1.5, 0)),
    "h_gamma_vector": lambda emb, q: h_gamma(emb, (3.0, 0), (1, 1, 1)),
    "h_gamma_type": lambda emb, q: h_gamma(emb, (3, 0), (1.0, 1, 1)),
    "value_at": lambda emb, q: _third_height().value_at((1.7, 0)),
    "monomial_degree": lambda emb, q: monomial_degree(emb, (3.7, 0, 0), (1, 1, 1)),
    "make_cut": lambda emb, q: make_cut(q, {(2.5, 1), (2, 2), (2, 3)}),
    "is_cut": lambda emb, q: is_cut(q, {(2, 1), (2, 2.0), (2, 3)}),
    "height_from_cut": lambda emb, q: height_from_cut(q, {(2.0, 1), (2, 2), (2, 3)}),
}


@pytest.mark.parametrize("site", sorted(NON_INTEGER_CALLS))
def test_non_integers_rejected(site):
    _, emb, quiver = instance("third_111")
    with pytest.raises(TypeError):
        NON_INTEGER_CALLS[site](emb, quiver)
