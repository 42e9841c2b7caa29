"""Cut mutation and the distributive lattice of cuts of a fixed type.

Mutating a cut at a source (sink) of its cut quiver swaps the cut
status of the arrows at that vertex and raises (lowers) the height
function there by n+1.  Identifying each cut with its v-vector, its
heights minus those of a seed cut of the same type over n+1, turns the
cuts of any admissible type into a finite distributive sublattice of
Z^m: the integer points of one difference constraint per arrow (the
height picture of Propp, "Lattice structure for orientations of
graphs", arXiv:math/0209005).

The seed is the constructed cut, the cut of the vertex potential
``xi(v) = <x_v, type'> mod m`` (see :mod:`mckaycuts.construct`).  The
lattice walk and both extremes work on those constraints alone, which
``_Bounds`` reads straight off xi; height functions and L1 values stay
in :mod:`mckaycuts.heights`.  One walk enumerates every type.  It runs
on v-vectors, starting from the seed's, zero.  Arrows of a type with
count 0 are never cut, so v is constant along them and the walk moves
whole classes (connected components of those arrows) by one: up when
every bound leaving the class has slack 1, down when every one has
slack 0.  These moves are the covers of the lattice, its Hasse
edges, for every type; for a positive type every class is a single
vertex and the moves are exactly the mutations at nonzero sources and
sinks.  A cut is read off its vector as the arrows whose difference is
at its lower bound.  The vectors are the lattice: it keeps no cut, and
``MutationLattice.cuts`` is a read-only property, a sequence that reads
each cut off its vector through the seed's bounds when it is accessed.

The extremes of every admissible type, nonpositive ones included, are
shortest-path distances, each from one pass of the same Dijkstra
helper.  ``max_element`` and ``min_element`` run it over the seed cut's
difference constraints; ``max_via_p``, the paper's direct construction
of the maximum, runs it over the quiver with an arrow of type t
weighing the type's t-th entry and hands the distances, which are the
vertex potential of the maximal height function, to the step check of
:mod:`mckaycuts.heights`.  The two maxima are independent and
cross-check each other.  ``mutable_vertices`` and
``mutate_source``/``mutate_sink`` remain as the cut-level API on arrow
sets.  ``relative_height_vector`` and ``meet``/``join`` remain as the
cut-level API on vertex potentials: two cuts of one type differ in
height by (n+1)/m times the difference of their potentials, so they
read each cut's potential, combine the two vertex by vertex and build
no height function.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import cache
from heapq import heappop, heappush
from itertools import compress

from .construct import _arrow_json, _indented, _json_array, cut_to_json
from .errors import SearchBoundExceededError
from .heights import _cut_potential, _cut_steps, _seed_potential
from .intlat import Vec, _Record
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


def _pointwise(cut_a: Cut, cut_b: Cut, combine, what: str):
    """``combine`` applied vertex by vertex to the potentials of two cuts.

    Returns the quiver, the cuts' shared type and the combined values.
    Refuses cuts of two different groups or of two types.
    """
    quiver = cut_a.quiver
    if cut_b.quiver.embedding.hnf != quiver.embedding.hnf:
        raise ValueError(f"{what} require cuts of the same quiver")
    cut_type, g_a = _cut_potential(quiver, cut_a)
    type_b, g_b = _cut_potential(quiver, cut_b)
    if cut_type != type_b:
        raise ValueError(f"{what} require cuts of the same type")
    return quiver, cut_type, list(map(combine, g_a, g_b))


def relative_height_vector(cut: Cut, reference: Cut) -> Vec:
    """Per-vertex height difference against a reference cut, over n+1."""
    quiver, _, diff = _pointwise(cut, reference, operator.sub, "relative heights")
    assert all(d % quiver.m == 0 for d in diff)
    return tuple(d // quiver.m for d in diff)


def meet(cut_a: Cut, cut_b: Cut) -> Cut:
    """Cut of the pointwise minimum of the two height functions."""
    quiver, cut_type, low = _pointwise(cut_a, cut_b, min, "meet and join")
    return Cut(quiver=quiver, arrows=_cut_steps(quiver, cut_type, low))


def join(cut_a: Cut, cut_b: Cut) -> Cut:
    """Cut of the pointwise maximum of the two height functions."""
    quiver, cut_type, high = _pointwise(cut_a, cut_b, max, "meet and join")
    return Cut(quiver=quiver, arrows=_cut_steps(quiver, cut_type, high))


class MutationLattice(_Record):
    """All cuts of one type, ordered by relative height vectors.

    ``v_vectors`` are sorted lexicographically, so output is
    deterministic.  ``bounds`` are the seed cut's difference constraints
    (see :class:`_Bounds`).  ``cuts`` is a read-only property: a sequence
    in the order of ``v_vectors`` that holds no ``Cut``.  Indexing or
    iterating it reads each cut off its vector through ``bounds`` (a
    slice gives a tuple of cuts), so read a cut once where it is used
    often.  The vectors are stored once, so a copy made with other
    vectors reads off their cuts.  ``hasse_edges`` are the covers as
    (lower index, upper index, vertex) triples, the vertex being the
    first of the class that moves (for a positive type, the vertex
    mutated).  ``to_json`` builds the JSON tree; ``json_chunks`` writes
    the same tree's ``indent=2`` text piece by piece without building
    it, which is how the ``lattice`` command prints it.  The fragment
    encoder ``_indented`` and the array layout ``_json_array`` it uses
    live in ``construct``, next to ``_arrow_json``, and also serve the
    ``construct`` command.
    """

    cut_type: Vec
    v_vectors: tuple[Vec, ...]
    hasse_edges: tuple[tuple[int, int, int], ...]
    max_index: int
    min_index: int
    bounds: _Bounds
    _fields = (
        "cut_type", "v_vectors", "hasse_edges", "max_index", "min_index", "bounds"
    )
    _hidden = ("bounds",)

    @property
    def cuts(self) -> Sequence[Cut]:
        return _LatticeCuts(self.bounds, self.v_vectors, self.cut_type)

    def to_json(self) -> dict:
        quiver = self.bounds.quiver
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
        tree nor the whole string is built, nor any ``Cut``.  Each cut's
        arrows are read straight off its v-vector: the seed cut's bounds
        list every arrow in sorted order, and the cut holds those of
        slack 0.  An arrow's object depends only on (vertex, type), so
        each fragment is encoded once and then reused.
        """
        bounds = self.bounds
        quiver = bounds.quiver
        k = quiver.n + 1
        # An item of a cut's "arrows" array, with the line break before it;
        # a cut holds m >= 1 arrows, so no array is empty.
        arrows = [
            "\n        " + _indented(_arrow_json(quiver, u, t), 4)
            for u, t, _, _ in bounds.arrows
        ]
        vertex = cache(lambda vx: _indented(quiver.vertices[vx], 3))
        cut_head = (
            '{\n      "type": ' + _indented(self.cut_type, 3)
            + ',\n      "arrows": ['
        )

        def cut_text(v):
            slack = bounds.slack(v)
            # The arrows of type t + 1 sit at the indices t mod k.
            counts = tuple(slack[t::k].count(0) for t in range(k))
            assert counts == self.cut_type, (counts, self.cut_type)
            held = compress(arrows, map(operator.not_, slack))
            return cut_head + ",".join(held) + "\n      ]\n    }"

        edge_texts = (
            f'{{\n      "lower": {lo},\n      "upper": {hi},\n'
            f'      "vertex": {vertex(vx)}\n    }}'
            for lo, hi, vx in self.hasse_edges
        )
        yield '{\n  "type": ' + _indented(self.cut_type, 1) + ',\n  "cuts": '
        yield from _json_array(map(cut_text, self.v_vectors), 1)
        yield ',\n  "v_vectors": '
        yield from _json_array((_indented(v, 2) for v in self.v_vectors), 1)
        yield ',\n  "hasse_edges": '
        yield from _json_array(edge_texts, 1)
        yield (
            f',\n  "max_index": {self.max_index},'
            f'\n  "min_index": {self.min_index}\n}}\n'
        )

    def hasse_dot(self) -> str:
        quiver = self.bounds.quiver
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for i, vec in enumerate(self.v_vectors):
            label = ",".join(str(c) for c in vec)
            lines.append(f'  c{i} [label="v=({label})"];')
        for lo, hi, vx in self.hasse_edges:
            rep = ",".join(str(c) for c in quiver.vertices[vx])
            lines.append(f'  c{lo} -> c{hi} [label="{rep}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class _Bounds:
    """The cuts of one type as difference constraints on v-vectors.

    Everything is read off the seed potential xi, whose cut s is the
    constructed cut: s cuts an arrow u -> w of type t exactly where
    ``xi[u] + type_t`` wraps past m.  Along each such arrow a cut's
    v-vector keeps ``low <= v[w] - v[u] <= low + 1``, with low =
    ``(xi[u] + type_t) // m - 1``, which is 0 if s cuts the arrow and -1
    if not, and the cut holds the arrow exactly when the difference is
    at its lower bound (see :func:`enumerate_cut_lattice`).  ``arrows``
    lists these as (u, t, w, low), t being the arrow's type, sorted by
    (u, t), so the arrows of type t sit at the indices i = t - 1 mod
    n + 1;
    ``pairs`` holds the arrows (u, t) themselves, shared by every cut.
    ``edges[x]`` lists the pairs (y, low) that bound ``v[y] - v[x]`` to
    {low, low + 1}: the arrow gives (w, low) at u and (u, -1 - low) at w.

    A class is a connected component of the arrows whose type has count
    0; s holds none of them and no cut does, so v is constant on each
    class.  Every class is a single vertex when the type is positive.
    ``classes`` holds, for every class but the origin's, its members and
    the edges (x, y, low) leaving it.
    """

    def __init__(self, quiver: McKayQuiver, cut_type) -> None:
        xi = _seed_potential(quiver.embedding, cut_type)
        m = quiver.m
        self.quiver = quiver
        self.arrows = [
            (u, t, w, (xi[u] + g) // m - 1)
            for u, row in enumerate(quiver.targets)
            for t, w, g in zip(quiver.types, row, cut_type)
        ]
        self.pairs = [(u, t) for u, t, _, _ in self.arrows]
        self.edges = [[] for _ in range(m)]
        for u, _, w, low in self.arrows:
            self.edges[u].append((w, low))
            self.edges[w].append((u, -1 - low))
        zero = [t for t, g in zip(quiver.types, cut_type) if not g]
        # Each count-0 arrow lies on a cycle of its own type, so following
        # out-arrows alone finds the components.
        label = [-1] * quiver.m
        self.classes = []
        for start in range(quiver.m):
            if label[start] < 0:
                label[start] = start
                group = [start]
                for v in group:
                    for w in (quiver.targets[v][t - 1] for t in zero):
                        if label[w] < 0:
                            label[w] = start
                            group.append(w)
                # The class is complete, so the edges leaving it are known.
                leaving = [
                    (x, y, low)
                    for x in group
                    for y, low in self.edges[x]
                    if label[y] != start
                ]
                if start:
                    self.classes.append((group, leaving))

    def slack(self, v) -> list[int]:
        """``v[w] - v[u] - low`` for each of ``arrows``, in that order.

        The cut of v holds exactly the arrows of slack 0.
        """
        return [v[w] - v[u] - low for u, _, w, low in self.arrows]

    def cut(self, v) -> Cut:
        """The cut holding the arrows whose difference is at its lower bound.

        Raises ValueError when some difference leaves its two values,
        that is, when v belongs to no cut of the type.
        """
        slack = self.slack(v)
        if not set(slack) <= {0, 1}:
            raise ValueError(f"{tuple(v)} leaves the seed cut's bounds")
        return Cut(
            quiver=self.quiver,
            arrows=frozenset(compress(self.pairs, map(operator.not_, slack))),
        )


class _LatticeCuts(Sequence):
    """The cuts of a lattice, read off its sorted v-vectors on access.

    Holds only the vectors and the seed cut's bounds; each item access
    builds one ``Cut`` and checks its type, and a slice is a tuple of
    cuts.  The sequence is read-only.
    """

    __slots__ = ("bounds", "vectors", "cut_type")

    def __init__(self, bounds: _Bounds, vectors: tuple[Vec, ...], cut_type: Vec):
        self.bounds = bounds
        self.vectors = vectors
        self.cut_type = cut_type

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        cut = self.bounds.cut(self.vectors[index])
        assert type_of(cut) == self.cut_type, (type_of(cut), self.cut_type)
        return cut


def _walk_lattice(bounds: _Bounds):
    """Close the seed's v-vector, zero, under moves of the classes.

    A class can rise by one when every edge leaving it has slack 1 (its
    difference at the upper bound) and fall by one when every such edge
    has slack 0; for a single vertex these are a source and a sink of
    the cut quiver.  Edges inside a class, loops included, keep their
    slack.  Returns the vectors reached and the rises as ``(lower, k)``
    pairs, k indexing ``bounds.classes``; the upper end is not kept.
    Each rise is recorded once, from its lower end.
    """
    start = (0,) * bounds.quiver.m
    seen = {start}
    stack = [start]
    rises = []
    while stack:
        v = stack.pop()
        for k, (members, leaving) in enumerate(bounds.classes):
            x, y, low = leaving[0]
            slack = v[y] - v[x] - low
            for x, y, low in leaving:
                if v[y] - v[x] - low != slack:
                    break
            else:
                moved = list(v)
                for u in members:
                    moved[u] += 2 * slack - 1
                moved = tuple(moved)
                if slack:
                    rises.append((v, k))
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
    return seen, rises


def enumerate_cut_lattice(quiver: McKayQuiver, cut_type) -> MutationLattice:
    """The full lattice of cuts of one admissible type.

    Write g for the type and let v be a cut's height vector relative to
    the constructed seed cut s, over n+1.  The cuts of type g are exactly
    the integer vectors with ``v[0] = 0`` and, along every arrow u -> w,
    ``v[w] - v[u]`` in {0, 1} if s cuts the arrow and in {-1, 0}
    otherwise, the arrow being cut at the lower value: adding (n+1)*v
    to the seed's heights keeps the L1 values, hence the type, and keeps
    each step at +1 or -n.  A loop's difference is 0, which is allowed
    whether s cuts it or not.  An arrow of a type with g_t = 0 is never
    cut and its orbit is a cycle, so v is constant on each class (a
    component of those arrows).  The set is closed under componentwise
    min and max, so it is a distributive lattice.

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
    which never moves, so T is empty.  The walk on v-vectors from the
    seed's, zero, through single class moves, down to a meet and up
    again, reaches every cut, and each cut is read off its vector; no
    height function is computed.

    Each cover is a Hasse edge, labelled by the first vertex of the
    class that moved.  For a positive type each class is one vertex and
    its moves are the mutations at nonzero sources and sinks.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    bounds = _Bounds(quiver, cut_type)
    vectors, rises = _walk_lattice(bounds)
    v_vectors = tuple(sorted(vectors))
    del vectors
    order = {v: i for i, v in enumerate(v_vectors)}
    edges = []
    # Popping frees each rise once its edge is numbered, so the rises and
    # the edges, the two largest lists, are never held in full together.
    while rises:
        lower, k = rises.pop()
        members = bounds.classes[k][0]
        upper = list(lower)
        for u in members:
            upper[u] += 1
        edges.append((order[lower], order[tuple(upper)], members[0]))
    edges.sort()
    # The componentwise max (min) of a set closed under max (min) is
    # above (below) every member, so it is also the lexicographically
    # last (first) of the sorted vectors.
    return MutationLattice(
        cut_type=cut_type,
        v_vectors=v_vectors,
        hasse_edges=tuple(edges),
        max_index=len(v_vectors) - 1,
        min_index=0,
        bounds=bounds,
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

    The cuts of the type are the integer v-vectors with ``v[0] = 0``
    and ``low <= v[y] - v[x] <= low + 1`` for every pair (y, low) in
    ``edges[x]`` of the seed cut's bounds (see :class:`_Bounds`).  Read
    the upper bounds as edges x -> y of weight low + 1, which is 0 or 1.
    Summing them along a shortest path from 0 gives ``v[x] <= dist(x)``
    for every cut, and dist satisfies every bound (the triangle
    inequality; each lower bound is the upper bound of the partner pair
    (x, -1 - low) at y) with ``dist(0) = 0``, so dist is the
    componentwise maximum: the top of the lattice.  The bottom is the
    same argument for -v, whose upper bounds ``v[x] - v[y] <= -low``
    weigh the edges x -> y by -low: the maximum's edges reversed.  The
    cut is read off ``sign * dist``; a loop gives edges from a vertex to
    itself, which change no distance.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    bounds = _Bounds(quiver, cut_type)
    dist = _distances(
        [
            [(y, low + 1 if sign > 0 else -low) for y, low in row]
            for row in bounds.edges
        ]
    )
    cut = bounds.cut([sign * d for d in dist])
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

    D comes from one Dijkstra pass over the quotient quiver.  It is the
    vertex potential of h*, h* = (<x, w> + (n+1) D(x)) / m with w_i = m -
    (n+1) g_i, so the cut is read off D by the step check of
    :mod:`mckaycuts.heights`, which certifies that D is the potential of
    a height function of the requested type; a failure raises
    SearchBoundExceededError.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    dist = _distances([tuple(zip(row, cut_type)) for row in quiver.targets])
    try:
        cut = Cut(quiver=quiver, arrows=_cut_steps(quiver, cut_type, dist))
    except ValueError as exc:
        raise SearchBoundExceededError(
            f"candidate maximum failed certification ({exc})"
        ) from exc
    if type_of(cut) != cut_type:
        raise SearchBoundExceededError(
            f"candidate maximum has type {type_of(cut)} instead of {cut_type}"
        )
    return cut
