"""Cut mutation and the distributive lattice of cuts of a fixed type.

Mutating a cut at a source (sink) of its cut quiver swaps the cut
status of the arrows at that vertex and raises (lowers) the height
function there by n+1.  Identifying each cut with its height vector
relative to a seed cut of the same type turns the cuts of any
admissible type into a finite distributive sublattice of Z^m: the
integer points of one difference constraint per arrow (the height
picture of Propp, "Lattice structure for orientations of graphs",
arXiv:math/0209005).

One walk enumerates every type.  It runs on integer height vectors,
starting from the seed's height, computed once.  Arrows of a type with
count 0 are never cut, so heights are constant along them and the walk
moves whole classes (connected components of those arrows) by n+1: up
when every arrow out of the class steps +1 and every arrow into it
steps -n, down when the signs are swapped.  For a positive type every
class is a single vertex and the moves are exactly the mutations at
nonzero sources and sinks, which are the covers of the lattice.  Cuts
are read off the final heights with the same step check as
:func:`mckaycuts.heights.cut_from_height`.  ``mutable_vertices``,
``mutate_source``/``mutate_sink`` and ``relative_height_vector`` remain
as the cut-level API.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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


def _dominant_index(vectors: tuple[Vec, ...], extreme) -> int:
    """Index of the componentwise max (or min); a member by lattice closure."""
    target = tuple(extreme(coords) for coords in zip(*vectors))
    for i, vec in enumerate(vectors):
        if vec == target:
            return i
    raise AssertionError("cut lattice is not closed under meet/join")


class _HeightSteps:
    """Class moves on the height vectors of one cut type.

    A class is a connected component of the arrows whose type has count
    0; those arrows are never cut, so heights move a whole class at once.
    Every class is a single vertex when the type is positive.  Class 0
    holds the origin and never moves.
    """

    def __init__(self, quiver: McKayQuiver, l1_values, cut_type) -> None:
        lifts = quiver.arrow_lifts(l1_values)
        zero = [t - 1 for t in quiver.types if cut_type[t - 1] == 0]
        # Each count-0 arrow lies on a cycle of its own type, so following
        # out-arrows alone finds the components.
        label = [-1] * quiver.m
        members = []
        for start in range(quiver.m):
            if label[start] < 0:
                label[start] = len(members)
                group = [start]
                for v in group:
                    for w in (quiver.targets[v][t] for t in zero):
                        if label[w] < 0:
                            label[w] = label[start]
                            group.append(w)
                members.append(tuple(group))
        # Arrows crossing each class boundary, as (tail, head, lift).
        self.out = [[] for _ in members]
        self.into = [[] for _ in members]
        for u, row in enumerate(quiver.targets):
            for w, lift in zip(row, lifts[u]):
                if label[u] != label[w]:
                    self.out[label[u]].append((u, w, lift))
                    self.into[label[w]].append((u, w, lift))
        self.quiver = quiver
        self.lifts = lifts
        self.rise = quiver.n + 1
        self.members = tuple(members)

    def direction(self, h, c: int) -> int:
        """+1 if class c can rise by n+1, -1 if it can fall, else 0.

        It can rise when every arrow out of it steps +1 and every arrow
        into it steps -n, and fall in the reverse case; for a single
        vertex these are a source and a sink of the cut quiver.  Arrows
        inside the class, loops included, keep their steps.
        """
        u, w, lift = self.out[c][0]
        up = h[w] + lift - h[u]
        down = 1 - self.quiver.n - up  # steps are +1 and -n
        if all(h[w] + lift - h[u] == up for u, w, lift in self.out[c]) and all(
            h[w] + lift - h[u] == down for u, w, lift in self.into[c]
        ):
            return 1 if up == 1 else -1
        return 0

    def moved(self, h, c: int, sign: int) -> tuple[int, ...]:
        out = list(h)
        for x in self.members[c]:
            out[x] += sign * self.rise
        return tuple(out)

    def cut(self, h) -> Cut:
        return Cut(quiver=self.quiver, arrows=drops(self.quiver, h, self.lifts))


def _walk_lattice(steps: _HeightSteps, start: Vec):
    """Close a height vector under moves of the classes other than 0.

    Returns the set of heights reached and the rises as ``(lower,
    upper, vertex)`` triples of heights, the vertex being the first
    member of the class that moved.  Each rise is recorded once, from
    its lower end.
    """
    classes = range(1, len(steps.members))
    seen = {start}
    stack = [start]
    rises = []
    while stack:
        h = stack.pop()
        for c in classes:
            sign = steps.direction(h, c)
            if not sign:
                continue
            moved = steps.moved(h, c, sign)
            if sign > 0:
                rises.append((h, moved, steps.members[c][0]))
            if moved not in seen:
                seen.add(moved)
                stack.append(moved)
    return seen, rises


def enumerate_cut_lattice(quiver: McKayQuiver, cut_type) -> MutationLattice:
    """The full lattice of cuts of one admissible type.

    Write g for the type and let v be a cut's height vector relative to
    the constructed seed cut s.  The cuts of type g are exactly the
    integer vectors with ``v[0] = 0`` and, along every non-loop arrow
    u -> w, ``v[w] - v[u]`` in {0, 1} if s cuts the arrow and in
    {-1, 0} otherwise: adding (n+1)*v keeps the L1 values, hence the
    type, and keeps each step at +1 or -n.  An arrow of a type with
    g_t = 0 is never cut and its orbit is a cycle, so v is constant on
    each class (a component of those arrows).  The set is closed under
    componentwise min and max, so it is a distributive lattice.

    Every cover a < b moves one class by one.  With T the classes where
    b - a is largest, a + 1_T lies in the set, so b = a + 1_T.  If no
    single class of T could move, each would be blocked by another
    class of T: a cut arrow out of it or an uncut arrow into it.
    Following blockers, joined inside classes by arrows with g_t = 0,
    gives a nonempty closed walk.  It lifts to a path x -> x + y with
    y = sum c_t alpha_t in L1, c_t counting type-t arrows walked forward
    minus backward.  Its height change is h_gamma(y) = sum c_t -
    (n+1)/m sum c_t g_t, and also sum c_t - (n+1) (cut arrows walked
    forward minus backward).  Hence the sum of g_t - m over the forward
    cut crossings equals the sum of g_t over the backward uncut ones.
    Every term on the left is <= 0 and every term on the right > 0, so
    the walk only crosses cut arrows of a type with g_t = m.  Then the
    other n types have count 0 and link every vertex into class 0,
    which never moves, so T is empty.  The walk from the seed through
    single class moves, down to a meet and up again, reaches every cut.

    For a positive type each class is one vertex, its moves are the
    mutations at nonzero sources and sinks, and each cover is a Hasse
    edge.  Nonpositive types report no Hasse edges, because their
    covers move whole classes rather than single vertices.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    seed_height = height_from_cut(quiver, construct_cut(quiver, cut_type))
    steps = _HeightSteps(quiver, seed_height.l1_values, cut_type)
    heights, rises = _walk_lattice(steps, seed_height.values)
    by_height = {h: steps.cut(h) for h in heights}
    assert all(type_of(c) == cut_type for c in by_height.values())
    covers = rises if all(g > 0 for g in cut_type) else ()
    vectors = {
        h: _relative(h, seed_height.values, steps.rise) for h in by_height
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
    steps = _HeightSteps(quiver, seed_height.l1_values, cut_type)
    h = seed_height.values
    classes = range(1, len(steps.members))
    for _ in range(10_000 * quiver.m):
        x = next((c for c in classes if steps.direction(h, c) == sign), None)
        if x is None:
            assert steps.direction(h, 0) == sign
            return steps.cut(h)
        h = steps.moved(h, x, sign)
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
