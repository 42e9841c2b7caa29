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
in :mod:`mckaycuts.heights`.  One walk enumerates every type.  Arrows
of a type with count 0 are never cut, so v is constant along them and
the walk moves whole classes (connected components of those arrows) by
one.  These moves are the covers of the lattice, its Hasse edges, for
every type; for a positive type every class is a single vertex and the
moves are exactly the mutations at nonzero sources and sinks.

The walk runs on ints.  A cut is the bit mask of the arrows it holds,
arrow (u, t) at bit ``slot * u + t - 1`` with ``slot`` = n+1 rounded
up to whole bytes.  A class rises when it holds every arrow into it
from another class and none out of it, ``held & flip == into`` with
``flip = into | out``, falls when that AND equals ``out``, and either
move is ``held ^ flip``: one AND decides each move.  The walk starts at
the bottom of the lattice, one shortest-path pass as for
``min_element``, and only rises.  Each v-vector is packed into one int,
the digit ``v[x] + m`` of each vertex in whole bytes with vertex 0 the
most significant, so that int order is lexicographic order.  Digits
never carry, because |v[x]| <= m - 1: v[0] = 0, v changes by at most 1
along each arrow, and the quiver is strongly connected with m
vertices.  The walk keeps each cut as its packed vector above its mask,
so a rise is one addition.  It records only the ints it reaches; the
Hasse edges are read back off the sorted ints with the same AND, and
come out in order.  The mask is the cut: ``_Bounds.held`` is
the one place a v-vector becomes a cut, and it checks the cut's type
once.  It returns the walk's mask for a vector the walk reached and
reads any other off the step check of its potential ``xi + m * v``,
which cuts the arrows whose difference is at its lower bound.  The
lattice JSON reads each cut's arrows off that mask, a table of arrow
texts per byte, and ``_Bounds.cut`` reads a ``Cut`` off it.  The
vectors are the lattice: it keeps no cut, and ``MutationLattice.cuts``
is a read-only property, a sequence that reads each cut off its
vector's mask when it is accessed, so it holds the same arrows that the
``lattice`` command prints.

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
from heapq import heappop, heappush
from itertools import compress, islice

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
    often.  The vectors are stored once, and ``bounds`` keeps the walk's
    mask of each.  Both ``cuts`` and ``json_chunks`` read a cut off its
    vector's mask (``bounds.held``), so they give the same arrows; a
    copy made with other vectors reads off their cuts, through the
    walk's masks or, for a vector it never reached, through the step
    check.
    ``hasse_edges`` are the covers as (lower index, upper index, vertex)
    triples, the vertex being the first of the class that moves (for a
    positive type, the vertex mutated).  ``to_json`` builds the JSON
    tree; ``json_chunks`` writes the same tree's ``indent=2`` text piece
    by piece without building it, which is how the ``lattice`` command
    prints it.  The fragment encoder ``_indented`` and the array layout
    ``_json_array`` it uses live in ``construct``, next to
    ``_arrow_json``, and also serve the ``construct`` command.
    """

    cut_type: Vec
    v_vectors: tuple[Vec, ...]
    hasse_edges: tuple[tuple[int, int, int], ...]
    max_index: int
    min_index: int
    bounds: _Bounds
    _hidden = ("bounds",)

    @property
    def cuts(self) -> Sequence[Cut]:
        return _LatticeCuts(self.bounds, self.v_vectors)

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

        The text is written about one cut at a time, and the vectors and
        edges 64 to a chunk; neither the dict tree nor the whole string is
        built, nor any ``Cut``.  Each cut's arrows are read off its mask
        (``bounds.held``, which also checks the cut's type): the mask's
        little-endian bytes list the arrows in sorted order, and each
        byte position has a table of the text of the arrows a byte value
        holds, so a cut's array is one join over its bytes.  An arrow's
        object depends only on (vertex, type), so each fragment is
        encoded once and then reused.
        """
        bounds = self.bounds
        quiver = bounds.quiver
        k, size = quiver.n + 1, bounds.slot // 8
        width = quiver.m * size
        # Byte p holds the types 8j+1, ..., 8j+8 (j = p mod size) of the
        # arrows out of vertex p // size.  Each item of a cut's "arrows"
        # array comes with the separator before it; a cut holds m >= 1
        # arrows, so the first separator is dropped from a nonempty text.
        tables = [
            _ArrowTexts(
                [
                    ",\n        " + _indented(_arrow_json(quiver, p // size, t), 4)
                    for t in range(8 * (p % size) + 1, min(8 * (p % size) + 8, k) + 1)
                ]
            )
            for p in range(width)
        ]
        cut_head = (
            '{\n      "type": ' + _indented(self.cut_type, 3)
            + ',\n      "arrows": ['
        )

        def cut_text(v):
            held = bounds.held(v).to_bytes(width, "little")
            arrows = "".join(map(_ArrowTexts.__getitem__, tables, held))
            return f"{cut_head}{arrows[1:]}\n      ]\n    }}"

        # |v[x]| < m, and a table lookup is faster than ``str``.
        digits = {x: str(x) for x in range(1 - quiver.m, quiver.m)}.__getitem__
        pad = "\n      "
        vector_sep = "," + pad

        def vector_text(v):
            return "[" + pad + vector_sep.join(map(digits, v)) + "\n    ]"

        vertices = [_indented(x, 3) for x in quiver.vertices]
        edge_texts = (
            f'{{\n      "lower": {lo},\n      "upper": {hi},\n'
            f'      "vertex": {vertices[vx]}\n    }}'
            for lo, hi, vx in self.hasse_edges
        )
        yield '{\n  "type": ' + _indented(self.cut_type, 1) + ',\n  "cuts": '
        yield from _json_array(map(cut_text, self.v_vectors), 1)
        yield ',\n  "v_vectors": '
        yield from _json_array(_blocks(map(vector_text, self.v_vectors)), 1)
        yield ',\n  "hasse_edges": '
        yield from _json_array(_blocks(edge_texts), 1)
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


def _blocks(texts, size: int = 64):
    """The items of a JSON array one level deep, ``size`` to a chunk.

    Joined with the array's separator, a block reads as that many items
    to ``_json_array``, so the text is the same and is written in a
    size-th of the chunks.
    """
    texts = iter(texts)
    while block := list(islice(texts, size)):
        yield ",\n    ".join(block)


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
    n + 1.  ``pairs`` holds the arrows (u, t) themselves, shared by
    every cut.

    A cut is an int, the mask of the arrows it holds: arrow (u, t) is
    bit ``slot * u + t - 1``, ``slot`` being n+1 rounded up to whole
    bytes, so the little-endian bytes of a mask fall into whole bytes
    per vertex, in the order of ``arrows``; ``bits`` lists each arrow's
    bit in that order, and ``type_masks[t - 1]`` holds the bits of the
    arrows of type t.  ``held(v)`` is the one place a vector becomes a
    mask, and the one place a cut's type is checked.  ``walked`` maps
    each vector the lattice walk reached to the walk's int for it, whose
    low ``m * slot`` bits (``all_bits``) are the mask; any other
    vector's mask is read off the step check of its potential.
    ``cut(v)`` is the ``Cut`` of that mask, so a lattice's ``cuts`` and
    its printed JSON read the same masks.

    A class is a connected component of the arrows whose type has count
    0; s holds none of them and no cut does, so v is constant on each
    class.  Every class is a single vertex when the type is positive.
    ``classes()`` gives each class but the origin's with the masks of
    the arrows between it and the other classes, built in one pass over
    the arrows; only the walk asks for them, not the extremes.
    """

    def __init__(self, quiver: McKayQuiver, cut_type) -> None:
        xi = _seed_potential(quiver.embedding, cut_type)
        m, k = quiver.m, quiver.n + 1
        self.quiver = quiver
        self.cut_type = cut_type
        self.xi = xi
        self.arrows = [
            (u, t, w, (xi[u] + g) // m - 1)
            for u, row in enumerate(quiver.targets)
            for t, w, g in zip(quiver.types, row, cut_type)
        ]
        self.pairs = [(u, t) for u, t, _, _ in self.arrows]
        self.slot = 8 * -(-k // 8)
        self.bits = [1 << self.slot * u + t - 1 for u, t in self.pairs]
        self.all_bits = (1 << m * self.slot) - 1
        # The arrows of type t + 1 are bit t of every vertex's slot.
        self.type_masks = [
            int.from_bytes((1 << t).to_bytes(self.slot // 8, "little") * m, "little")
            for t in range(k)
        ]
        self.walked: dict[Vec, int] = {}

    def classes(self) -> list[tuple[list[int], int, int]]:
        """(members, into, out) for every class but the origin's.

        ``into`` is the mask of the arrows from other classes into the
        class and ``out`` that of the arrows leaving it; arrows inside a
        class, loops included, are in neither.  Classes come in order of
        their first vertex, which is the first of their members.
        """
        quiver = self.quiver
        zero = [t for t, g in zip(quiver.types, self.cut_type) if not g]
        # Each count-0 arrow lies on a cycle of its own type, so following
        # out-arrows alone finds the components.
        label = [-1] * quiver.m
        members = {}
        for start in range(quiver.m):
            if label[start] < 0:
                label[start] = start
                group = members[start] = [start]
                for v in group:
                    for w in (quiver.targets[v][t - 1] for t in zero):
                        if label[w] < 0:
                            label[w] = start
                            group.append(w)
        into = dict.fromkeys(members, 0)
        out = dict.fromkeys(members, 0)
        for bit, (u, _, w, _) in zip(self.bits, self.arrows):
            if label[u] != label[w]:
                out[label[u]] |= bit
                into[label[w]] |= bit
        return [(group, into[c], out[c]) for c, group in members.items() if c]

    def extreme(self, sign: int) -> Vec:
        """The top (sign +1) or bottom (sign -1) v-vector of the lattice.

        The cuts of the type are the integer v-vectors with ``v[0] = 0``
        and ``low <= v[w] - v[u] <= low + 1`` along every arrow (u, t, w,
        low).  Read each upper bound as an edge of weight 0 or 1: u -> w
        of weight low + 1, and w -> u of weight -low, from the lower
        bound ``v[u] - v[w] <= -low``.  Summing them along a shortest
        path from 0 gives ``v[x] <= dist(x)`` for every cut, and dist
        satisfies every bound (the triangle inequality) with ``dist(0) =
        0``, so dist is the componentwise maximum: the top of the
        lattice.  The bottom is the same argument for -v, whose upper
        bounds are the lower bounds of v: the same edges with the weights
        swapped.  The vector is ``sign * dist``; a loop gives edges from
        a vertex to itself, which change no distance.
        """
        adjacency = [[] for _ in range(self.quiver.m)]
        for u, _, w, low in self.arrows:
            ahead, back = (low + 1, -low) if sign > 0 else (-low, low + 1)
            adjacency[u].append((w, ahead))
            adjacency[w].append((u, back))
        return tuple(sign * d for d in _distances(adjacency))

    def held(self, v) -> int:
        """The mask of the arrows the cut of v holds, its type checked.

        This is the one place a v-vector becomes a cut.  A vector the
        walk reached has its mask in ``walked``; any other is the cut of
        the potential ``xi + m * v``, read off the one step check
        ``_cut_steps``.  Along an arrow (u, t, w, low) that potential
        steps by ``type_t + m * (slack - 1)``, the slack being ``v[w] -
        v[u] - low``, so slack 0 is a cut step, slack 1 an uncut one,
        and any other slack raises ValueError: v belongs to no cut of
        the type.  The mask's popcount on each of ``type_masks`` must be
        the type's count.
        """
        v = tuple(v)
        mask = self.walked.get(v)
        if mask is None:
            m, slot = self.quiver.m, self.slot
            potential = [x + m * d for x, d in zip(self.xi, v)]
            steps = _cut_steps(self.quiver, self.cut_type, potential)
            mask = sum(1 << slot * u + t - 1 for u, t in steps)
        else:
            mask &= self.all_bits
        counts = tuple(map(int.bit_count, map(mask.__and__, self.type_masks)))
        assert counts == self.cut_type, (counts, self.cut_type)
        return mask

    def cut(self, v) -> Cut:
        """The ``Cut`` of v, the arrows of its mask (see :meth:`held`)."""
        arrows = compress(self.pairs, map(self.held(v).__and__, self.bits))
        return Cut(quiver=self.quiver, arrows=frozenset(arrows))


class _ArrowTexts(dict):
    """The JSON text of the arrows at one byte of a mask, by byte value.

    ``texts[i]`` is the text of the arrow at bit i of the byte, with the
    separator before it.  A byte value's text is joined the first time a
    cut has it, so only the values that occur are built: a table of every
    value would hold 2^(n+1) texts per vertex.
    """

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]) -> None:
        super().__init__()
        self.texts = texts

    def __missing__(self, byte: int) -> str:
        text = self[byte] = "".join(
            t for i, t in enumerate(self.texts) if byte >> i & 1
        )
        return text


class _LatticeCuts(Sequence):
    """The cuts of a lattice, read off its sorted v-vectors on access.

    Holds only the vectors and the seed cut's bounds; each item access
    builds one ``Cut`` off the vector's mask (``_Bounds.cut``), and a
    slice is a tuple of cuts.  The sequence is read-only.
    """

    __slots__ = ("bounds", "vectors")

    def __init__(self, bounds: _Bounds, vectors: tuple[Vec, ...]):
        self.bounds = bounds
        self.vectors = vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        return self.bounds.cut(self.vectors[index])


def _walk_lattice(bounds: _Bounds):
    """Climb from the bottom of the lattice by rises of single classes.

    A class can rise by one when every arrow into it from another class
    is held and every arrow out of it to another class is free: each of
    their differences is at the bound the rise leaves.  Arrows inside a
    class, loops included, keep their difference.  For a single vertex
    this is a source of the cut quiver.  On the masks of
    :class:`_Bounds`, with ``flip = into | out``, the class rises when
    ``held & flip == into``, so one AND decides it, and the rise is
    ``held ^ flip``.  (It falls in the mirror case, ``held & flip ==
    out``, which the climb never needs: every cut lies above the bottom
    by a chain of covers.)

    Each vector is packed into one int, vertex 0 as its most significant
    digit, the digit of x being ``v[x] + m`` in d bits, d the bit length
    of 2m rounded up to whole bytes.  Every |v[x]| is at most m - 1:
    v[0] = 0, v changes by at most 1 along each arrow, and the quiver is
    strongly connected with m vertices.  So digits lie in [1, 2m - 1],
    int order is lexicographic order, and a rise adds the class's ones.
    The walk keeps each cut as one int, its packed vector above its
    mask.  A rise takes the into-arrows out of the mask and puts the
    out-arrows in, so it adds the class's constant ``step``, and no
    carry crosses from one digit or mask bit to the next.

    The climb records only the ints it has seen.  Sorting them numbers
    the cuts, and one pass over the sorted cuts then reads every cover
    back with the same AND: from cut i, each class that can rise gives
    the Hasse edge (i, index of ``cut + step``, first vertex of the
    class).  The pass writes the edges already sorted.  For one lower
    end, a class with a smaller first vertex has the larger ``ones``,
    since vertex 0 is the most significant digit, the classes are
    disjoint and digits never carry; a step's mask part ``out - into``
    lies below the ``low`` bits, so the vector part orders the upper
    ends.  Taking the classes from last to first thus gives increasing
    upper ends, and no (lower, upper) pair comes from two classes.

    Returns the sorted vectors, the walk's int of each in that order and
    the sorted Hasse edges (lower index, upper index, first vertex of the
    class).
    """
    m = bounds.quiver.m
    size = -(-(2 * m).bit_length() // 8)
    low = m * bounds.slot
    moves = []
    for members, into, out in reversed(bounds.classes()):
        ones = sum(1 << 8 * size * (m - 1 - x) for x in members)
        moves.append((into | out, into, (ones << low) + out - into, members[0]))
    bottom = bounds.extreme(-1)
    start = int.from_bytes(
        b"".join((x + m).to_bytes(size, "big") for x in bottom), "big"
    )
    start = start << low | bounds.held(bottom)
    seen = {start: None}
    stack = [start]
    while stack:
        cut = stack.pop()
        for flip, into, step, _ in moves:
            if cut & flip == into:
                moved = cut + step
                if moved not in seen:
                    seen[moved] = None
                    stack.append(moved)
    packed = sorted(seen)
    for i, cut in enumerate(packed):
        seen[cut] = i
    edges = []
    for i, cut in enumerate(packed):
        for flip, into, step, vertex in moves:
            if cut & flip == into:
                edges.append((i, seen[cut + step], vertex))
    del seen
    # One int object per value, shared by every vector.
    values = [x - m for x in range(2 * m)]
    width = m * size + low // 8

    def unpack(cut: int) -> Vec:
        raw = cut.to_bytes(width, "big")
        if size == 1:
            return tuple(map(values.__getitem__, raw[:m]))
        return tuple(
            values[int.from_bytes(raw[i : i + size], "big")]
            for i in range(0, m * size, size)
        )

    return tuple(map(unpack, packed)), packed, tuple(edges)


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
    which never moves, so T is empty.  So every cut lies above the
    bottom (:meth:`_Bounds.extreme`) by a chain of single class rises,
    and the climb of :func:`_walk_lattice` from the bottom reaches every
    cut.  It works on each cut's mask and packed vector; no height
    function is computed.  The climb keeps only the cuts it has seen;
    sorting them numbers the cuts, and one pass over the sorted cuts
    reads every cover back with the AND that found it.

    Each cover is a Hasse edge (lower index, upper index), labelled by
    the first vertex of the class that moved.  The edges come out in
    that order with no sort: for one lower end, a class with a smaller
    first vertex adds more to the packed vector, so taking the classes
    from last to first gives increasing upper ends.  For a positive type
    each class is one vertex and its moves are the mutations at nonzero
    sources and sinks.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    bounds = _Bounds(quiver, cut_type)
    v_vectors, walked, edges = _walk_lattice(bounds)
    bounds.walked = dict(zip(v_vectors, walked))
    # The componentwise max (min) of a set closed under max (min) is
    # above (below) every member, so it is also the lexicographically
    # last (first) of the sorted vectors.
    return MutationLattice(
        cut_type=cut_type,
        v_vectors=v_vectors,
        hasse_edges=edges,
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
    """Maximal (sign +1) or minimal (sign -1) cut of an admissible type."""
    cut_type = require_admissible(quiver.embedding, cut_type)
    bounds = _Bounds(quiver, cut_type)
    return bounds.cut(bounds.extreme(sign))


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
