"""Shared instances for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

from mckaycuts.groups import GroupSpec, embedding_from_spec
from mckaycuts.heights import height_from_cut
from mckaycuts.quiver import build_mckay
from oracles import all_cuts_exhaustive

NAMED_SPECS = {
    "half_11": (1, [(2, (1, 1))]),
    "third_111": (2, [(3, (1, 1, 1))]),
    "quarter_112": (2, [(4, (1, 1, 2))]),
    "sixth_123": (2, [(6, (1, 2, 3))]),
    "klein_sl3": (2, [(2, (1, 1, 0)), (2, (1, 0, 1))]),
    "quarter_1111": (3, [(4, (1, 1, 1, 1))]),
    "fifth_1112": (3, [(5, (1, 1, 1, 2))]),
}


@lru_cache(maxsize=None)
def instance(name: str):
    """(spec, embedding, quiver) for one of the named groups."""
    n, gens = NAMED_SPECS[name]
    spec = GroupSpec.make(n, gens)
    embedding = embedding_from_spec(spec)
    return spec, embedding, build_mckay(embedding)


@pytest.fixture(params=sorted(NAMED_SPECS))
def named_instance(request):
    return instance(request.param)


def oracle_extremes(quiver, cut_type):
    """(max, min) arrow sets among the exhaustive oracle's cuts of a type.

    The ends are the cuts whose height functions are the componentwise
    maximum and minimum of all of them.
    """
    heights = {
        arrows: height_from_cut(quiver, arrows).values
        for arrows in all_cuts_exhaustive(quiver, cut_type)
    }

    def end(pick):
        target = tuple(pick(column) for column in zip(*heights.values()))
        (found,) = [a for a, h in heights.items() if h == target]
        return found

    return end(max), end(min)
