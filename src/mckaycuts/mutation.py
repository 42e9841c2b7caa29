"""Cut mutation and the distributive lattice of cuts of a fixed type.

Mutating a cut at a source (sink) of its cut quiver swaps the cut
status of the arrows at that vertex and raises (lowers) the height
function there by n+1.  Identifying each cut with its relative height
vector turns the cuts of a fixed positive type into a finite
distributive sublattice of Z^m whose cover relations are exactly the
mutations away from the origin vertex; closing any seed cut under
nonzero mutations therefore enumerates the whole lattice.

The lattice walk and the greedy extremes run on integer height vectors
rather than on arrow sets (the push-one-vertex walk of Propp, "Lattice
structure for orientations of graphs", arXiv:math/0209005).  The height
of the seed cut is computed once.  Vertex x is a source of the cut
quiver when every arrow out of x steps +1 and every arrow into x steps
-n, a sink when the signs are swapped, and mutating there adds (or
subtracts) n+1 to ``h[x]``.  Cuts are read off the final heights with
the same step check as :func:`mckaycuts.heights.cut_from_height`.
``mutable_vertices``, ``mutate_source``/``mutate_sink`` and
``relative_height_vector`` remain as the cut-level API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .construct import construct_cut, cut_to_json
from .errors import SearchBoundExceededError, UnsupportedLatticeError
from .heights import (
    HeightFunction,
    _l1_values,
    cut_from_height,
    drops,
    height_from_cut,
)
from .intlat import Vec
from .quiver import (
    Cut,
    McKayQuiver,
    cut_quiver,
    first_violated_cycle,
    sinks,
    sources,
    type_of,
)
from .typesimplex import require_admissible


def mutable_vertices(
    quiver: McKayQuiver, cut: Cut
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sources, sinks) of the cut quiver; vertex 0 is the origin."""
    sub = cut_quiver(quiver, cut)
    return sources(sub), sinks(sub)


def mutate_source(quiver: McKayQuiver, cut: Cut, v: int) -> Cut:
    """Swap the incoming cut arrows of a source for its outgoing arrows."""
    incoming = frozenset(quiver.in_arrows(v))
    outgoing = frozenset(quiver.out_arrows(v))
    if not incoming <= cut.arrows or outgoing & cut.arrows:
        raise ValueError(f"vertex {v} is not a source of the cut quiver")
    return Cut(quiver=quiver, arrows=(cut.arrows - incoming) | outgoing)


def mutate_sink(quiver: McKayQuiver, cut: Cut, v: int) -> Cut:
    """Swap the outgoing cut arrows of a sink for its incoming arrows."""
    incoming = frozenset(quiver.in_arrows(v))
    outgoing = frozenset(quiver.out_arrows(v))
    if not outgoing <= cut.arrows or incoming & cut.arrows:
        raise ValueError(f"vertex {v} is not a sink of the cut quiver")
    return Cut(quiver=quiver, arrows=(cut.arrows - outgoing) | incoming)


def relative_height_vector(cut: Cut, reference: Cut) -> Vec:
    """Per-vertex height difference against a reference cut, over n+1."""
    quiver = cut.quiver
    if type_of(cut) != type_of(reference):
        raise ValueError("relative heights require cuts of the same type")
    h = height_from_cut(quiver, cut)
    h_ref = height_from_cut(quiver, reference)
    return _relative(h.values, h_ref.values, quiver.n + 1)


def _relative(values, reference, rise: int) -> Vec:
    out = []
    for a, b in zip(values, reference):
        assert (a - b) % rise == 0
        out.append((a - b) // rise)
    return tuple(out)


def _extremal_height(cut_a: Cut, cut_b: Cut, pick) -> HeightFunction:
    quiver = cut_a.quiver
    if type_of(cut_a) != type_of(cut_b):
        raise ValueError("meet and join require cuts of the same type")
    h_a = height_from_cut(quiver, cut_a)
    h_b = height_from_cut(quiver, cut_b)
    assert h_a.l1_values == h_b.l1_values
    return HeightFunction(
        embedding=quiver.embedding,
        values=tuple(map(pick, h_a.values, h_b.values)),
        l1_values=h_a.l1_values,
    )


def meet(cut_a: Cut, cut_b: Cut) -> Cut:
    """Cut of the pointwise minimum of the two height functions."""
    return cut_from_height(cut_a.quiver, _extremal_height(cut_a, cut_b, min))


def join(cut_a: Cut, cut_b: Cut) -> Cut:
    """Cut of the pointwise maximum of the two height functions."""
    return cut_from_height(cut_a.quiver, _extremal_height(cut_a, cut_b, max))


@dataclass(frozen=True, eq=False)
class MutationLattice:
    """All cuts of one type, ordered by relative height vectors.

    ``cuts`` are sorted by their vectors lexicographically, so output is
    deterministic; ``hasse_edges`` are (lower index, upper index, vertex)
    triples and are only populated for positive types, where covers are
    mutations.
    """

    cut_type: Vec
    cuts: tuple[Cut, ...]
    v_vectors: tuple[Vec, ...]
    hasse_edges: tuple[tuple[int, int, int], ...]
    max_index: int
    min_index: int

    def to_json(self) -> dict:
        quiver = self.cuts[0].quiver
        return {
            "type": list(self.cut_type),
            "cuts": [cut_to_json(c) for c in self.cuts],
            "v_vectors": [list(v) for v in self.v_vectors],
            "hasse_edges": [
                {
                    "lower": lo,
                    "upper": hi,
                    "vertex": list(quiver.vertices[vx]),
                }
                for lo, hi, vx in self.hasse_edges
            ],
            "max_index": self.max_index,
            "min_index": self.min_index,
        }

    def hasse_dot(self) -> str:
        quiver = self.cuts[0].quiver
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, vec in enumerate(self.v_vectors):
            label = ",".join(str(c) for c in vec)
            lines.append(f'  c{i} [label="v=({label})"];')
        for lo, hi, vx in self.hasse_edges:
            rep = ",".join(str(c) for c in quiver.vertices[vx])
            lines.append(f'  c{lo} -> c{hi} [label="{rep}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def brute_force_cuts_of_type(quiver: McKayQuiver, cut_type) -> list[Cut]:
    """Exhaustive search over arrow subsets with the given type counts.

    Works for any nonnegative counts summing to m, admissible or not;
    for inadmissible counts the result is provably empty, which is what
    the verification harness checks.  The elementary cycles are walked
    once per call and every candidate subset is tested against them.
    """
    cut_type = tuple(int(g) for g in cut_type)
    by_type = [
        [(v, t) for v in range(quiver.m)] for t in quiver.types
    ]
    pools = [
        list(combinations(by_type[t - 1], cut_type[t - 1])) for t in quiver.types
    ]
    cycles = tuple(quiver.elementary_cycles())
    found = []
    for chosen in product(*pools):
        arrows = frozenset(a for group in chosen for a in group)
        if first_violated_cycle(cycles, arrows) is None:
            found.append(Cut(quiver=quiver, arrows=arrows))
    return found


def _dominant_index(vectors: tuple[Vec, ...], extreme) -> int:
    """Index of the componentwise max (or min); a member by lattice closure."""
    target = tuple(extreme(coords) for coords in zip(*vectors))
    for i, vec in enumerate(vectors):
        if vec == target:
            return i
    raise AssertionError("cut lattice is not closed under meet/join")


class _HeightSteps:
    """Source and sink tests on the height vectors of one cut type."""

    def __init__(self, quiver: McKayQuiver, l1_values) -> None:
        lifts = quiver.arrow_lifts(l1_values)
        self.quiver = quiver
        self.lifts = lifts
        self.out = tuple(
            tuple(zip(row, lifts[v])) for v, row in enumerate(quiver.targets)
        )
        self.into = tuple(
            tuple((u, lifts[u][t - 1]) for u, t in quiver.in_arrows(v))
            for v in range(quiver.m)
        )

    def direction(self, h, x: int) -> int:
        """+1 if x is a source of the cut quiver, -1 if a sink, else 0.

        A source has every out-arrow step +1 (kept) and every in-arrow
        step -n (cut); a sink the reverse.  A loop steps the same way
        in and out, so a vertex with a loop is neither.
        """
        n = self.quiver.n
        hx = h[x]
        out = self.out[x]
        head, head_lift = out[0]
        first = h[head] + head_lift - hx
        if first == 1:
            up, down = 1, -n
        elif first == -n:
            up, down = -n, 1
        else:
            return 0
        if all(h[w] + lift - hx == up for w, lift in out) and all(
            hx + lift - h[u] == down for u, lift in self.into[x]
        ):
            return 1 if up == 1 else -1
        return 0

    def cut(self, h) -> Cut:
        return Cut(quiver=self.quiver, arrows=drops(self.quiver, h, self.lifts))


def _walk_lattice(steps: _HeightSteps, start: Vec):
    """Close a height vector under nonzero source and sink mutations.

    Returns the set of heights reached and the covers as
    ``(lower, upper, vertex)`` triples of heights.  Each cover is a
    source mutation of its lower end, so recording only those lists it
    exactly once.
    """
    rise = steps.quiver.n + 1
    vertices = range(1, steps.quiver.m)
    seen = {start}
    stack = [start]
    covers = []
    while stack:
        h = stack.pop()
        for x in vertices:
            sign = steps.direction(h, x)
            if not sign:
                continue
            moved = list(h)
            moved[x] += sign * rise
            moved = tuple(moved)
            if sign > 0:
                covers.append((h, moved, x))
            if moved not in seen:
                seen.add(moved)
                stack.append(moved)
    return seen, covers


def enumerate_cut_lattice(
    quiver: McKayQuiver, cut_type, brute_budget: int = 6
) -> MutationLattice:
    """The full lattice of cuts of one type.

    Positive types are enumerated by closing the height vector of a
    constructed seed cut under nonzero source and sink mutations, which
    is complete because mutations realise all cover relations.
    Nonpositive types have no mutable vertices, so they fall back to
    exhaustive subset search, which is refused beyond ``brute_budget``
    (an upper bound on m).
    """
    embedding = quiver.embedding
    cut_type = require_admissible(embedding, cut_type)
    seed = construct_cut(quiver, cut_type)
    seed_height = height_from_cut(quiver, seed)
    if all(g > 0 for g in cut_type):
        steps = _HeightSteps(quiver, seed_height.l1_values)
        heights, covers = _walk_lattice(steps, seed_height.values)
        by_height = {h: steps.cut(h) for h in heights}
        assert all(type_of(c) == cut_type for c in by_height.values())
    else:
        if quiver.m > brute_budget:
            raise UnsupportedLatticeError(
                f"nonpositive type {cut_type} needs exhaustive search, "
                f"unsupported beyond m = {brute_budget}"
            )
        by_height = {
            height_from_cut(quiver, c).values: c
            for c in brute_force_cuts_of_type(quiver, cut_type)
        }
        covers = []
    rise = quiver.n + 1
    vectors = {
        h: _relative(h, seed_height.values, rise) for h in by_height
    }
    ordered = sorted(by_height, key=vectors.__getitem__)
    order = {h: i for i, h in enumerate(ordered)}
    v_vectors = tuple(vectors[h] for h in ordered)
    hasse = tuple(sorted((order[lo], order[hi], vx) for lo, hi, vx in covers))
    return MutationLattice(
        cut_type=cut_type,
        cuts=tuple(by_height[h] for h in ordered),
        v_vectors=v_vectors,
        hasse_edges=hasse,
        max_index=_dominant_index(v_vectors, max),
        min_index=_dominant_index(v_vectors, min),
    )


def _require_positive(quiver: McKayQuiver, cut_type) -> Vec:
    cut_type = require_admissible(quiver.embedding, cut_type)
    if not all(g > 0 for g in cut_type):
        raise UnsupportedLatticeError(
            f"extremal elements by mutation require a positive type, got {cut_type}"
        )
    return cut_type


def _greedy_extreme(quiver: McKayQuiver, cut_type, sign: int) -> Cut:
    """Mutate the lowest nonzero source (sign +1) or sink (sign -1) until none is left."""
    cut_type = _require_positive(quiver, cut_type)
    seed_height = height_from_cut(quiver, construct_cut(quiver, cut_type))
    steps = _HeightSteps(quiver, seed_height.l1_values)
    h = list(seed_height.values)
    rise = sign * (quiver.n + 1)
    for _ in range(10_000 * quiver.m):
        x = next(
            (x for x in range(1, quiver.m) if steps.direction(h, x) == sign),
            None,
        )
        if x is None:
            assert steps.direction(h, 0) == sign
            return steps.cut(h)
        h[x] += rise
    kind = "source" if sign > 0 else "sink"
    raise AssertionError(f"{kind} mutation failed to terminate")


def max_element(quiver: McKayQuiver, cut_type) -> Cut:
    """Greedy maximum: mutate nonzero sources until only the origin is one."""
    return _greedy_extreme(quiver, cut_type, 1)


def min_element(quiver: McKayQuiver, cut_type) -> Cut:
    """Greedy minimum: mutate nonzero sinks until only the origin is one."""
    return _greedy_extreme(quiver, cut_type, -1)


def _support_feasible(embedding, cut_type, u: Vec, radius: int) -> bool:
    """Whether some lattice point of the comparison lattice lies below u.

    The comparison lattice is the image of L1 under
    ``y -> (y, 0) - (<y, type>/m) * 1``; its points pair to zero with
    the type vector, so coordinates with a positive type entry are
    bounded below inside ``{w <= u}`` and are enumerated exactly, while
    coordinates with a zero entry are truncated at ``-radius``.
    """
    n, m = embedding.n, embedding.m
    total = n + 1
    ranges = []
    for i in range(total):
        upper = u[i]
        if cut_type[i] > 0:
            other = sum(
                cut_type[j] * max(u[j], 0) for j in range(total) if j != i
            )
            lower = -(other // cut_type[i]) - 1
        else:
            lower = -radius
        if lower > upper:
            return False
        ranges.append(range(lower, upper + 1))
    for head in product(*ranges[:n]):
        partial = sum(g * w for g, w in zip(cut_type, head))
        if cut_type[n] > 0:
            if partial % cut_type[n] != 0:
                continue
            tail = -partial // cut_type[n]
            if tail not in ranges[n]:
                continue
            candidates = (tail,)
        else:
            if partial != 0:
                continue
            candidates = ranges[n]
        for tail in candidates:
            t = -tail
            y = tuple(w + t for w in head)
            if sum(g * c for g, c in zip(cut_type, y)) != t * m:
                continue
            if embedding.in_sublattice(y):
                return True
    return False


def _support_max(embedding, cut_type, x: Vec, radius: int) -> int:
    """Largest z such that ``(x, 0) - z * 1`` dominates a comparison-lattice point."""
    assert all(c >= 0 for c in x)
    for z in range(sum(x), -1, -1):
        u = tuple(c - z for c in x) + (-z,)
        if _support_feasible(embedding, cut_type, u, radius):
            return z
    raise AssertionError("z = 0 is always feasible for nonnegative x")


def max_via_p(quiver: McKayQuiver, cut_type) -> Cut:
    """Maximal cut by direct construction of its height function.

    Every height value is ``<x, 1> - (n+1) * p(x)`` where p(x) is the
    largest downward shift keeping ``(x, 0)`` above the comparison
    lattice.  The search over that lattice is truncated at a generous
    radius in the unbounded directions, and the result is certified to
    be a valid height function of the requested type; an insufficient
    radius therefore surfaces as an error, never as a wrong answer.
    """
    embedding = quiver.embedding
    cut_type = require_admissible(embedding, cut_type)
    n, m = embedding.n, embedding.m
    norm = max(
        (abs(c) for rep in quiver.vertices for c in rep), default=0
    )
    radius = m * (norm + m + n + 1)
    values = tuple(
        sum(rep) - (n + 1) * _support_max(embedding, cut_type, rep, radius)
        for rep in quiver.vertices
    )
    height = HeightFunction(
        embedding=embedding,
        values=values,
        l1_values=_l1_values(embedding, cut_type),
    )
    try:
        cut = cut_from_height(quiver, height)
    except ValueError as exc:
        raise SearchBoundExceededError(
            f"candidate maximum failed certification ({exc}); "
            f"the search radius {radius} was insufficient"
        ) from exc
    if type_of(cut) != cut_type:
        raise SearchBoundExceededError(
            f"candidate maximum has type {type_of(cut)} instead of {cut_type}; "
            f"the search radius {radius} was insufficient"
        )
    return cut
