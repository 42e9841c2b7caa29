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
:func:`mckaycuts.heights.cut_from_height`.

The extremes of every admissible type, nonpositive ones included, are
shortest-path distances, each from one pass of the same Dijkstra
helper.  ``max_element`` and ``min_element`` run it over the seed cut's
difference constraints; ``max_via_p``, the paper's direct construction
of the maximum, runs it over the quiver with an arrow of type t
weighing the type's t-th entry.  The two maxima are independent and
cross-check each other.  ``mutable_vertices``,
``mutate_source``/``mutate_sink`` and ``relative_height_vector`` remain
as the cut-level API.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cache
from heapq import heappop, heappush

from .construct import _arrow_json, construct_cut, cut_to_json
from .errors import SearchBoundExceededError
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


def _mutate(quiver: McKayQuiver, cut: Cut, v, kind: str) -> Cut:
    v = operator.index(v)
    if not 0 <= v < quiver.m:
        raise ValueError(f"vertex {v} is not in range({quiver.m})")
    # A source's in-arrows leave the cut and its out-arrows enter it.
    leave, enter = frozenset(quiver.in_arrows(v)), frozenset(quiver.out_arrows(v))
    if kind == "sink":
        leave, enter = enter, leave
    if not leave <= cut.arrows or enter & cut.arrows:
        raise ValueError(f"vertex {v} is not a {kind} of the cut quiver")
    return Cut(quiver=quiver, arrows=(cut.arrows - leave) | enter)


def mutate_source(quiver: McKayQuiver, cut: Cut, v: int) -> Cut:
    """Swap the incoming cut arrows of a source for its outgoing arrows."""
    return _mutate(quiver, cut, v, "source")


def mutate_sink(quiver: McKayQuiver, cut: Cut, v: int) -> Cut:
    """Swap the outgoing cut arrows of a sink for its incoming arrows."""
    return _mutate(quiver, cut, v, "sink")


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
    mutations.  ``to_json`` builds the JSON tree; ``json_chunks`` writes
    the same tree's ``indent=2`` text piece by piece without building
    it, which is how the ``lattice`` command prints it.
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

    def json_chunks(self):
        """Yield ``json.dumps(self.to_json(), indent=2) + "\\n"`` in pieces.

        The text is written about one cut at a time and neither the dict
        tree nor the whole string is built.  An arrow's object depends
        only on (vertex, type), and every cut has the lattice's type, so
        each fragment is encoded once by re-indenting ``json.dumps`` and
        then reused.
        """
        quiver = self.cuts[0].quiver
        arrow = cache(lambda a: _indented(_arrow_json(quiver, *a), 4))
        vertex = cache(lambda vx: _indented(list(quiver.vertices[vx]), 3))
        cut_head = (
            '{\n      "type": ' + _indented(list(self.cut_type), 3)
            + ',\n      "arrows": '
        )
        cut_texts = (
            cut_head
            + "".join(_json_array(map(arrow, c.sorted_arrows()), 3))
            + "\n    }"
            for c in self.cuts
        )
        edge_texts = (
            f'{{\n      "lower": {lo},\n      "upper": {hi},\n'
            f'      "vertex": {vertex(vx)}\n    }}'
            for lo, hi, vx in self.hasse_edges
        )
        yield '{\n  "type": ' + _indented(list(self.cut_type), 1) + ',\n  "cuts": '
        yield from _json_array(cut_texts, 1)
        yield ',\n  "v_vectors": '
        yield from _json_array((_indented(list(v), 2) for v in self.v_vectors), 1)
        yield ',\n  "hasse_edges": '
        yield from _json_array(edge_texts, 1)
        yield (
            f',\n  "max_index": {self.max_index},'
            f'\n  "min_index": {self.min_index}\n}}\n'
        )

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


def _indented(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads nested ``depth`` levels deep."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _json_array(texts, depth: int):
    """Yield a JSON array ``depth`` levels deep, one chunk per item.

    The items come encoded for depth ``depth + 1``; the layout is that
    of ``json.dumps(..., indent=2)``, including ``[]`` for no items.
    """
    pad = "\n" + "  " * (depth + 1)
    empty = True
    for text in texts:
        yield ("[" if empty else ",") + pad + text
        empty = False
    yield "[]" if empty else pad[:-2] + "]"


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


def _distances(adjacency) -> list[int]:
    """Shortest-path lengths from vertex 0; ``adjacency[u]`` lists (w, weight).

    One ``heapq`` Dijkstra pass over nonnegative integer weights.  Every
    graph passed here contains the out-arrows of the quotient quiver,
    which is strongly connected, so every vertex is reached.
    """
    dist: list[int | None] = [None] * len(adjacency)
    heap = [(0, 0)]
    while heap:
        d, u = heappop(heap)
        if dist[u] is None:
            dist[u] = d
            for w, weight in adjacency[u]:
                if dist[w] is None:
                    heappush(heap, (d + weight, w))
    assert None not in dist, "quotient quiver must be strongly connected"
    return dist


def _extreme(quiver: McKayQuiver, cut_type, sign: int) -> Cut:
    """Maximal (sign +1) or minimal (sign -1) cut of an admissible type.

    Let s be the seed cut and v a cut's height vector relative to it, so
    its heights are ``h_s + (n+1) v``.  The cuts of the type are the
    integer v with ``v[0] = 0`` and, along each arrow u -> w, ``v[w] -
    v[u]`` in {0, 1} if s cuts it and in {-1, 0} if not (see
    :func:`enumerate_cut_lattice`).  Each bound is an edge of a graph: a
    cut arrow gives u -> w of weight 1 and w -> u of weight 0, an uncut
    arrow the weights swapped.  Summing the bounds along a shortest path
    from 0 gives ``v[x] <= dist(x)`` for every cut, and dist satisfies
    every bound (the triangle inequality) with ``dist(0) = 0``, so dist
    is the componentwise maximum: the top of the lattice.  The bottom is
    the same argument for -v, whose bounds are the two weights swapped
    again.  A loop gives edges from a vertex to itself, which change no
    distance.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    seed = construct_cut(quiver, cut_type)
    seed_height = height_from_cut(quiver, seed)
    adjacency = [[] for _ in range(quiver.m)]
    for u, row in enumerate(quiver.targets):
        for t, w in enumerate(row, start=1):
            forward = int(((u, t) in seed.arrows) == (sign > 0))
            adjacency[u].append((w, forward))
            adjacency[w].append((u, 1 - forward))
    rise, dist = sign * (quiver.n + 1), _distances(adjacency)
    heights = [h + rise * d for h, d in zip(seed_height.values, dist)]
    lifts = quiver.arrow_lifts(seed_height.l1_values)
    cut = Cut(quiver=quiver, arrows=drops(quiver, heights, lifts))
    assert type_of(cut) == cut_type, (type_of(cut), cut_type)
    return cut


def max_element(quiver: McKayQuiver, cut_type) -> Cut:
    """Maximal cut of any admissible type: one shortest-path pass."""
    return _extreme(quiver, cut_type, 1)


def min_element(quiver: McKayQuiver, cut_type) -> Cut:
    """Minimal cut of any admissible type: one shortest-path pass."""
    return _extreme(quiver, cut_type, -1)


def max_via_p(quiver: McKayQuiver, cut_type) -> Cut:
    """Maximal cut by direct construction of its height function.

    Write g for the type, g' for its first n entries and D(x) for the
    least type-weighted length of a path from vertex 0 to vertex x, an
    arrow of type t weighing g_t.  The maximal height is
    ``h*(x) = <x, 1> - (n+1) * p(x)`` with ``p(x) = (<x, g'> - D(x)) / m``,
    exact for every admissible type, nonpositive ones included:

    - A path from 0 to x with type counts Z lifts to x + l with l in
      L1, so every height function h of type g has h(x) = <x, 1> +
      (n+1) (<Z, g> - <x, g'>) / m - (n+1) (cut arrows on the path).
      A shortest path gives h(x) <= h*(x).  Admissibility makes
      <l, g'> a multiple of m, so m divides <x, g'> - D(x).
    - h* is itself a height function.  Along u -> w of type t,
      D(w) <= D(u) + g_t, and D(u) <= D(w) + m - g_t because the other
      n arrows of an elementary cycle lead back.  So every step of h*,
      1 - (n+1) times an integer, lies in [-n, 1]: it is +1 or -n.

    D comes from one Dijkstra pass over the quotient quiver.  The result
    is still certified to be a height function of the requested type,
    and a failure raises SearchBoundExceededError.
    """
    embedding = quiver.embedding
    cut_type = require_admissible(embedding, cut_type)
    n, m = embedding.n, embedding.m
    dist = _distances([tuple(zip(row, cut_type)) for row in quiver.targets])
    values = []
    for rep, d in zip(quiver.vertices, dist):
        # rep has n entries, so zip pairs it with g'.
        shift = sum(x * g for x, g in zip(rep, cut_type)) - d
        assert shift % m == 0, (rep, cut_type)
        values.append(sum(rep) - (n + 1) * (shift // m))
    height = HeightFunction(
        embedding=embedding,
        values=tuple(values),
        l1_values=_l1_values(embedding, cut_type),
    )
    try:
        cut = cut_from_height(quiver, height)
    except ValueError as exc:
        raise SearchBoundExceededError(
            f"candidate maximum failed certification ({exc})"
        ) from exc
    if type_of(cut) != cut_type:
        raise SearchBoundExceededError(
            f"candidate maximum has type {type_of(cut)} instead of {cut_type}"
        )
    return cut
