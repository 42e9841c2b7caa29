"""The decreasing-arrow cut construction and degree-zero presentations."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mckaycuts.construct import (
    _indented,
    _json_array,
    construct_cut,
    cut_from_json,
    cut_to_json,
    degree_zero_presentation,
    xi_gamma,
)
from mckaycuts.errors import InadmissibleTypeError
from mckaycuts.heights import h_gamma, height_from_cut
from mckaycuts.intlat import LatticeEmbedding
from mckaycuts.mutation import _Bounds
from mckaycuts.quiver import (
    build_mckay,
    cut_quiver,
    is_acyclic,
    is_cut,
    sinks,
    sources,
    type_of,
)
from mckaycuts.typesimplex import enumerate_types
from conftest import instance


class TestXiGamma:
    def test_origin(self):
        _, emb, _ = instance("third_111")
        assert xi_gamma(emb, (0, 0), (1, 1, 1)) == 0

    def test_third_111(self):
        _, emb, _ = instance("third_111")
        assert xi_gamma(emb, (2, 0), (1, 1, 1)) == 2

    def test_half_11(self):
        _, emb, _ = instance("half_11")
        assert xi_gamma(emb, (1,), (1, 1)) == 1

    def test_constant_on_cosets(self):
        _, emb, _ = instance("sixth_123")
        for t in enumerate_types(emb).all_types:
            for rep in emb.fundamental_domain():
                for col in emb.basis_columns():
                    shifted = tuple(a + b for a, b in zip(rep, col))
                    assert xi_gamma(emb, shifted, t) == xi_gamma(emb, rep, t)

    def test_rejects_inadmissible(self):
        _, emb, _ = instance("third_111")
        with pytest.raises(InadmissibleTypeError):
            xi_gamma(emb, (0, 0), (2, 1, 0))


class TestConstructCut:
    def test_trivial_types_give_trivial_cuts(self, named_instance):
        _, emb, quiver = named_instance
        n, m = emb.n, emb.m
        for i in range(n + 1):
            trivial = tuple(m if j == i else 0 for j in range(n + 1))
            cut = construct_cut(quiver, trivial)
            assert cut.arrows == {(v, i + 1) for v in range(m)}

    def test_third_111_cuts_at_last_label(self):
        _, _, quiver = instance("third_111")
        cut = construct_cut(quiver, (1, 1, 1))
        assert cut.arrows == {(2, 1), (2, 2), (2, 3)}

    def test_half_11_cuts_at_vertex_one(self):
        _, _, quiver = instance("half_11")
        cut = construct_cut(quiver, (1, 1))
        assert cut.arrows == {(1, 1), (1, 2)}

    def test_every_admissible_type_realised(self, named_instance):
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).all_types:
            cut = construct_cut(quiver, t)
            assert is_cut(quiver, cut.arrows)
            assert type_of(cut) == t

    def test_positive_types_give_acyclic_quivers(self, named_instance):
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).positive_types:
            sub = cut_quiver(quiver, construct_cut(quiver, t))
            assert is_acyclic(sub)
            assert sources(sub) and sinks(sub)

    def test_nonpositive_types_give_cyclic_quivers(self, named_instance):
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).all_types:
            if all(g > 0 for g in t):
                continue
            sub = cut_quiver(quiver, construct_cut(quiver, t))
            assert not is_acyclic(sub)

    def test_exactly_one_decreasing_arrow_per_cycle(self, named_instance):
        _, emb, quiver = named_instance
        from math import gcd

        for t in enumerate_types(emb).all_types:
            d = gcd(*t)
            m_prime = emb.m // d
            if m_prime == 1:
                continue
            labels = [xi_gamma(emb, rep, t) // d for rep in quiver.vertices]
            cut = construct_cut(quiver, t)
            for cycle in quiver.elementary_cycles():
                decreasing = [
                    (v, ty)
                    for v, ty in cycle
                    if labels[v] > (labels[v] + t[ty - 1] // d) % m_prime
                ]
                assert len(decreasing) == 1
                assert set(decreasing) <= cut.arrows

    def test_height_l1_values_match_h_gamma(self, named_instance):
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).all_types:
            height = height_from_cut(quiver, construct_cut(quiver, t))
            expected = tuple(
                h_gamma(emb, col, t) for col in emb.basis_columns()
            )
            assert height.l1_values == expected

    def test_gcd_collapse_case(self):
        # type (2,2,0) in 1/4(1,1,2): labels collapse to {0, 1}
        _, emb, quiver = instance("quarter_112")
        cut = construct_cut(quiver, (2, 2, 0))
        assert type_of(cut) == (2, 2, 0)
        assert is_cut(quiver, cut.arrows)
        labels = [xi_gamma(emb, rep, (2, 2, 0)) // 2 for rep in quiver.vertices]
        assert labels == [0, 1, 0, 1]

    def test_rejects_inadmissible(self):
        _, _, quiver = instance("third_111")
        with pytest.raises(InadmissibleTypeError):
            construct_cut(quiver, (2, 1, 0))

    def test_lattice_bounds_hold_the_constructed_cut(self, named_instance):
        # Both read the seed off xi; the arrows at low 0 are its cut.
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).all_types:
            seed = {(u, ty) for u, ty, _, low in _Bounds(quiver, t).arrows if not low}
            assert seed == construct_cut(quiver, t).arrows, t


class TestDegreeZeroPresentation:
    def test_kronecker_has_no_relations(self):
        _, _, quiver = instance("half_11")
        cut = construct_cut(quiver, (1, 1))
        sub, relations = degree_zero_presentation(quiver, cut)
        assert len(sub.arrows) == 2
        assert relations == ()

    def test_beilinson_style_squares(self):
        _, _, quiver = instance("third_111")
        cut = construct_cut(quiver, (1, 1, 1))
        sub, relations = degree_zero_presentation(quiver, cut)
        assert len(sub.arrows) == 6
        assert len(relations) == 3
        for a_i, a_j, b_j, b_i in relations:
            assert a_i[0] == b_j[0] == 0  # all start at the source vertex
            assert a_i[1] == b_i[1] and a_j[1] == b_j[1]

    def test_trivial_group_loops_commute(self):
        for n in (2, 3):
            quiver = build_mckay(LatticeEmbedding.identity(n))
            cut = construct_cut(quiver, (1,) + (0,) * n)
            sub, relations = degree_zero_presentation(quiver, cut)
            assert len(sub.arrows) == n
            assert len(relations) == n * (n - 1) // 2

    def test_relations_avoid_cut_arrows(self, named_instance):
        _, emb, quiver = named_instance
        for t in enumerate_types(emb).positive_types:
            cut = construct_cut(quiver, t)
            _, relations = degree_zero_presentation(quiver, cut)
            for square in relations:
                assert all(arrow not in cut.arrows for arrow in square)
                a_i, a_j, b_j, b_i = square
                # both paths end at the same vertex
                end1 = quiver.target(a_j[0], a_j[1])
                end2 = quiver.target(b_i[0], b_i[1])
                assert end1 == end2


class TestCutJson:
    def test_round_trip(self):
        _, _, quiver = instance("sixth_123")
        cut = construct_cut(quiver, (1, 2, 3))
        payload = cut_to_json(cut)
        assert payload["type"] == [1, 2, 3]
        arrows = cut_from_json(quiver, payload)
        assert arrows == cut.arrows

    @pytest.mark.parametrize(
        "arrows", [{}, {"x": 1}, "abc"], ids=["empty_object", "object", "string"]
    )
    def test_arrows_must_be_an_array(self, arrows):
        # An empty object used to read as the empty arrow set.
        _, _, quiver = instance("sixth_123")
        with pytest.raises(ValueError, match="JSON array"):
            cut_from_json(quiver, {"type": [1, 2, 3], "arrows": arrows})


def dumped(obj, depth):
    """``json.dumps(obj, indent=2)`` re-indented to sit ``depth`` levels deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


class TestJsonFragments:
    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            (),
            [[]],
            {"a": {}},
            [{}, [], ()],
            {"a": {"b": []}, "c": [{}]},
            True,
            False,
            None,
            [True, None, False, 0],
            [1, -2, 3 ** 80],
            "plain",
            "h\u00e9llo \u2603 \U0001f600 \"q\" \\ \n\t",
            {"\u00fc": ["x\ny", "\u00e9"]},
            (1, 2),
            ((1,), [2, (3,)]),
            {"source": (0, 1), "arrow_type": 2},
            # both take the json.dumps fallback
            {1: "a", "b": [2]},
            1.5,
            [1.5, 2],
            {"outer": {2: [1, {"x": 0.25}]}},
        ],
    )
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_matches_json_dumps(self, obj, depth):
        assert _indented(obj, depth) == dumped(obj, depth)

    @settings(max_examples=200, deadline=None)
    @given(json_values, st.integers(0, 4))
    def test_matches_json_dumps_on_random_values(self, obj, depth):
        assert _indented(obj, depth) == dumped(obj, depth)

    @pytest.mark.parametrize("items", [[], [[1, 2]], [{"a": None}, [], "s"]])
    def test_array_layout(self, items):
        texts = [_indented(item, 2) for item in items]
        assert "".join(_json_array(texts, 1)) == dumped(items, 1)
