"""Shared instances for the test suite."""

from __future__ import annotations

import hashlib
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


def assert_same_text(actual: str, expected: str, what: object = "texts") -> None:
    """Assert that two texts are equal, byte for byte, without a long diff.

    Lengths and sha256 digests are compared first.  On a mismatch the
    message names ``what`` and gives both, the first differing offset
    and a few characters on each side of it; pytest's own rendering of
    a diff of megabytes of text would take minutes.
    """
    sizes = len(actual), len(expected)
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in (actual, expected)]
    if sizes[0] == sizes[1] and digests[0] == digests[1] and actual == expected:
        return
    at = next(
        (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), min(sizes)
    )
    window = slice(max(at - 40, 0), at + 40)
    raise AssertionError(
        f"{what} differ: lengths {sizes[0]} and {sizes[1]}, sha256 "
        f"{digests[0][:12]} and {digests[1][:12]}, first at offset {at}: "
        f"{actual[window]!r} != {expected[window]!r}"
    )
