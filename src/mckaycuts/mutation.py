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
bit i holding arrow i of the arrows sorted by vertex and then type.
A class rises when it holds every arrow into it
from another class and none out of it, ``held & flip == into`` with
``flip = into | out``, falls when that AND equals ``out``, and either
move is ``held ^ flip``: one AND decides each move.  The walk starts at
the bottom of the lattice, one shortest-path pass as for
``min_element``, and only rises.  Each cut is one int, its packed
v-vector above its mask: the digit ``v[x] + m`` of each vertex in whole
bytes with vertex 0 the most significant, so that int order is
lexicographic order, and digits never carry, so a rise is one addition
(``_Bounds`` says why).  The walk records only the ints it reaches, and
the sorted ints are the lattice: ``MutationLattice`` keeps nothing else.
Its ``v_vectors`` and ``cuts`` are read-only sequences that read a
vector or a ``Cut`` off each int when it is accessed, its extremes are
the first and last int, and its Hasse edges are read off the sorted
ints with the same AND whenever they are asked for: a lattice's covers
are fixed by its members, each one a single-class rise.  They come out
in order with no sort (see ``_walk_lattice``).  ``_Bounds`` owns the
layout.  ``_Bounds.pack`` is the one way in: it reads the mask of any
vector off the step check of its potential ``xi + m * v``, which cuts
the arrows whose difference is at its lower bound.  ``_Bounds.mask``
reads a mask back and checks the cut's type on every read; ``vector``
and ``cut`` read the rest.  The lattice JSON reads each cut's arrows
off its mask, a table of arrow texts per byte of eight arrows, so
``cuts`` holds the same arrows that the ``lattice`` command prints.

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
sets; ``mutable_vertices`` counts the cut's m arrows into and out of
each vertex and builds no cut quiver.  ``relative_height_vector`` and
``meet``/``join`` remain as the cut-level API on vertex potentials:
two cuts of one type differ in height by (n+1)/m times the difference
of their potentials, so they read each cut's potential, combine the
two vertex by vertex and build no height function.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import compress, islice

from .construct import _arrow_text, _indented, _json_array, cut_to_json
from .errors import SearchBoundExceededError
from .heights import _cut_potential, _cut_steps, _seed_potential
from .intlat import Vec, _Record
from .quiver import Cut, McKayQuiver, _vertex_label
from .typesimplex import require_admissible


def mutable_vertices(
    quiver: McKayQuiver, cut: Cut
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sources, sinks) of the cut quiver; vertex 0 is the origin.

    A vertex is a source when the cut holds all n+1 arrows into it, and a
    sink when it holds all n+1 arrows out of it.  An elementary cycle
    runs through any arrow into v followed by an arrow of any other type
    out of v, and holds exactly one cut arrow; so a cut that holds one
    whole side of v holds nothing on the other side.  The m arrows of
    the cut are read once and no cut quiver is built.
    """
    into, out = [0] * quiver.m, [0] * quiver.m
    for u, t in cut.arrows:
        out[u] += 1
        into[quiver.targets[u][t - 1]] += 1
    full = quiver.n + 1
    return (
        tuple(v for v, k in enumerate(into) if k == full),
        tuple(v for v, k in enumerate(out) if k == full),
    )


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

    The hidden field ``packed`` is the lattice: the walk's int of each
    cut, its packed v-vector above its arrow mask, sorted, which sorts
    the vectors lexicographically, so output is deterministic.
    ``bounds`` are the seed cut's difference constraints and own that
    layout (see :class:`_Bounds`).  Everything else is read off
    ``packed``.  ``v_vectors`` and ``cuts`` are read-only properties:
    sequences in the order of ``packed`` that hold no vector and no
    ``Cut``.  Indexing or iterating one reads each item off its int
    through ``bounds`` (a slice gives a tuple), so read an item once
    where it is used often.  Both ``cuts`` and ``json_chunks`` read a cut
    off its int's mask (``bounds.mask``, which checks its type), so they
    give the same arrows.  A copy with other vectors is built from their
    ints, which must strictly increase, as the walk's do:
    ``tuple(sorted(map(bounds.pack, vectors)))``.  ``max_index`` is the
    last index and ``min_index`` is 0.  ``hasse_edges`` are the covers
    as (lower index, upper index, vertex) triples, the vertex being the
    first of the class that moves (for a positive type, the vertex
    mutated); each access reads them off the sorted ints into a new
    tuple, so read them once, and raises ValueError on ints out of
    order.  ``to_json`` builds the JSON tree; ``json_chunks``
    writes the same tree's ``indent=2`` text piece by piece without
    building it, which is how the ``lattice`` command prints it, and
    ``hasse_dot`` writes the DOT text line by line.  The arrow formatter
    ``_arrow_text``, the fragment encoder ``_indented`` and the array
    layout ``_json_array`` that ``json_chunks`` uses live in
    ``construct``, next to ``_arrow_json`` of ``to_json``'s tree, and also
    write the ``construct`` command's output.
    """

    cut_type: Vec
    packed: tuple[int, ...]
    bounds: _Bounds
    _hidden = ("packed", "bounds")
    # The componentwise min (max) of a set closed under min (max) lies
    # below (above) every member, so it is also the lexicographically
    # first (last) of the sorted vectors.
    min_index = 0

    @property
    def max_index(self) -> int:
        return len(self.packed) - 1

    @property
    def hasse_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(self._covers())

    @property
    def v_vectors(self) -> Sequence[Vec]:
        return _ReadOff(self.bounds.vector, self.packed)

    @property
    def cuts(self) -> Sequence[Cut]:
        return _ReadOff(self.bounds.cut, self.packed)

    def _covers(self):
        """Yield the Hasse edges, read off ``packed``, in sorted order.

        From cut i, each class that can rise gives the edge (i, index of
        ``cut + step``, first vertex of the class); ``_walk_lattice`` says
        why they come out sorted.  No index of the ints is built: the
        upper end lies above cut i in the sorted ints, and each class
        keeps the offset from lower to upper index of its last edge, which
        most edges of a class repeat.  One comparison checks that guess,
        and a miss bisects the ints above cut i.  That needs the ints
        sorted: a copy whose ints do not strictly increase raises
        ValueError before the first edge, and so does, when it is reached,
        a rise whose upper end a copy lacks.
        """
        packed = self.packed
        if not all(map(operator.lt, packed, islice(packed, 1, None))):
            raise ValueError("the lattice's ints do not strictly increase")
        size = len(packed)
        moves = [[*move, 1] for move in self.bounds.classes()]
        for i, cut in enumerate(packed):
            for move in moves:
                flip, into, step, vertex, ahead = move
                if cut & flip == into:
                    upper = cut + step
                    j = i + ahead
                    if j >= size or packed[j] != upper:
                        j = bisect_left(packed, upper, i + 1)
                        if j == size or packed[j] != upper:
                            raise ValueError(
                                f"cut {i} rises at vertex {vertex} to v = "
                                f"{self.bounds.vector(upper)}, which the "
                                "lattice lacks"
                            )
                        move[4] = j - i
                    yield i, j, vertex

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
                for lo, hi, vx in self._covers()
            ],
            "max_index": self.max_index,
            "min_index": self.min_index,
        }

    def json_chunks(self):
        """Yield ``json.dumps(self.to_json(), indent=2) + "\\n"`` in pieces.

        Each array is written in chunks of about 16 KiB of text (see
        ``_json_array``); neither the dict tree nor the whole string is
        built, nor any ``Cut``.  Each cut's arrows are read off its int's
        mask (``bounds.mask``, which also checks the cut's type).  Bit i
        is arrow i of ``bounds.pairs``, in sorted order, so byte j of the
        mask's little-endian bytes holds arrows 8j to 8j + 7, and each
        byte position has a table of the text of the arrows a byte value
        holds: a cut's array is one join over its bytes.  An arrow's
        object depends only on (vertex, type), so each is written once, by
        ``_arrow_text``, and then reused.
        """
        bounds = self.bounds
        quiver = bounds.quiver
        # Each item of a cut's "arrows" array comes with the separator
        # before it; a cut holds m >= 1 arrows, so the first separator is
        # dropped from a nonempty text.
        arrow = _arrow_text(quiver, 4)
        texts = [",\n        " + arrow(u, t) for u, t in bounds.pairs]
        tables = [_ArrowTexts(texts[i : i + 8]) for i in range(0, len(texts), 8)]
        cut_head = (
            '{\n      "type": ' + _indented(self.cut_type, 3)
            + ',\n      "arrows": ['
        )

        def cut_text(packed):
            held = bounds.mask(packed).to_bytes(len(tables), "little")
            arrows = "".join(map(_ArrowTexts.__getitem__, tables, held))
            return f"{cut_head}{arrows[1:]}\n      ]\n    }}"

        digits = bounds.digit_text
        pad = "\n      "
        vector_sep = "," + pad

        def vector_text(packed):
            v = bounds.vector(packed)
            return "[" + pad + vector_sep.join(map(digits, v)) + "\n    ]"

        vertices = [_indented(x, 3) for x in quiver.vertices]
        edge_texts = (
            f'{{\n      "lower": {lo},\n      "upper": {hi},\n'
            f'      "vertex": {vertices[vx]}\n    }}'
            for lo, hi, vx in self._covers()
        )
        yield '{\n  "type": ' + _indented(self.cut_type, 1) + ',\n  "cuts": '
        yield from _json_array(map(cut_text, self.packed), 1)
        yield ',\n  "v_vectors": '
        yield from _json_array(map(vector_text, self.packed), 1)
        yield ',\n  "hasse_edges": '
        yield from _json_array(edge_texts, 1)
        yield (
            f',\n  "max_index": {self.max_index},'
            f'\n  "min_index": {self.min_index}\n}}\n'
        )

    def hasse_dot(self):
        """Yield the DOT text of the Hasse diagram line by line."""
        bounds = self.bounds
        vertices = list(map(_vertex_label, bounds.quiver.vertices))
        yield "digraph hasse {\n  rankdir=BT;\n"
        for i, vec in enumerate(map(bounds.vector, self.packed)):
            yield f'  c{i} [label="v=({",".join(map(bounds.digit_text, vec))})"];\n'
        for lo, hi, vx in self._covers():
            yield f'  c{lo} -> c{hi} [label="{vertices[vx]}"];\n'
        yield "}\n"


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

    A cut is one int, its packed v-vector above its mask, and this class
    owns that layout.  Bit i of the mask is arrow i of ``arrows``, and
    ``bits`` lists each arrow's bit in that order: the one statement of
    the mask's layout.  ``type_masks[t - 1]`` holds the bits of the
    arrows of type t, every (n+1)-th from bit t - 1.  The mask is the low
    ``low = (n+1) * m`` bits (``all_bits``).
    Above it each vertex has a digit ``v[x] + m`` of ``size`` whole
    bytes, enough for 2m, with vertex 0 the most significant.  Every
    |v[x]| is at most m - 1: v[0] = 0, v changes by at most 1 along each
    arrow, and the quiver is strongly connected with m vertices.  So
    digits lie in [1, 2m - 1], int order is lexicographic order of the
    vectors, and adding one to some digits carries into no other digit.
    ``pack(v)`` is the one way a vector becomes an int; ``vector``,
    ``mask`` and ``cut`` read one back, and ``mask`` checks the cut's
    type on every read, so a lattice's ``cuts`` and its printed JSON
    read the same checked masks.

    A class is a connected component of the arrows whose type has count
    0; s holds none of them and no cut does, so v is constant on each
    class.  Every class is a single vertex when the type is positive.
    ``classes()`` gives the rise of each class but the origin's, built
    in one pass over the arrows; the walk and the reading of the Hasse
    edges off the ints ask for them, not the extremes.
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
        self.bits = [1 << i for i in range(len(self.arrows))]
        self.low = len(self.arrows)
        self.all_bits = (1 << self.low) - 1
        self.size = -(-(2 * m).bit_length() // 8)
        # One int object per digit value, shared by every vector read, and
        # the text of each value: |v[x]| < m, and a lookup beats ``str``.
        self.values = [x - m for x in range(2 * m)]
        self.digit_text = {x: str(x) for x in range(1 - m, m)}.__getitem__
        self.type_masks = [sum(self.bits[t::k]) for t in range(k)]

    def classes(self) -> list[tuple[int, int, int, int]]:
        """(flip, into, step, first vertex) of every class but the origin's.

        ``into`` is the mask of the arrows from other classes into the
        class and ``flip`` also holds those leaving it, ``out``; arrows
        inside a class, loops included, are in neither.  The class can
        rise when a cut's ``packed & flip == into``, and ``step`` is the
        rise, added to the int: it takes ``into`` out of the mask, puts
        ``out`` in and adds one to the digit of each member.  Classes come
        in reverse order of their first vertex, the order in which their
        rises grow (see ``_walk_lattice``).
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
        into, out, rise = (dict.fromkeys(members, 0) for _ in range(3))
        for bit, (u, _, w, _) in zip(self.bits, self.arrows):
            if label[u] != label[w]:
                out[label[u]] |= bit
                into[label[w]] |= bit
        for x, c in enumerate(label):
            rise[c] += 1 << self.low + 8 * self.size * (quiver.m - 1 - x)
        return [
            (into[c] | out[c], into[c], rise[c] + out[c] - into[c], c)
            for c in reversed(members)
            if c
        ]

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

    def pack(self, v) -> int:
        """The int of the cut of v, its type checked: the one way in.

        The mask is that of the cut of the potential ``xi + m * v``, read
        off the one step check ``_cut_steps``.  Along an arrow (u, t, w,
        low) that potential steps by ``type_t + m * (slack - 1)``, the
        slack being ``v[w] - v[u] - low``, so slack 0 is a cut step,
        slack 1 an uncut one, and any other slack raises ValueError: v
        belongs to no cut of the type.  So does a v with ``v[0] != 0``,
        or of any length but m.
        """
        v = tuple(v)
        m = self.quiver.m
        if len(v) != m:
            raise ValueError(f"a v-vector has m = {m} entries, not {len(v)}")
        if v[0]:
            raise ValueError(f"not a height function: v[0] = {v[0]}, not 0")
        potential = [x + m * d for x, d in zip(self.xi, v)]
        steps = _cut_steps(self.quiver, self.cut_type, potential)
        mask = sum(compress(self.bits, map(steps.__contains__, self.pairs)))
        digits = b"".join((x + m).to_bytes(self.size, "big") for x in v)
        # ``mask`` checks the type of a bare mask too.
        return int.from_bytes(digits, "big") << self.low | self.mask(mask)

    def vector(self, packed: int) -> Vec:
        """The v-vector of a packed cut, read off its digits."""
        raw = (packed >> self.low).to_bytes(self.quiver.m * self.size, "big")
        if self.size == 1:
            return tuple(map(self.values.__getitem__, raw))
        return tuple(
            self.values[int.from_bytes(raw[i : i + self.size], "big")]
            for i in range(0, len(raw), self.size)
        )

    def mask(self, packed: int) -> int:
        """The mask of the arrows a packed cut holds, its type checked.

        The mask's popcount on each of ``type_masks`` must be the type's
        count; this runs on every read of a mask.
        """
        mask = packed & self.all_bits
        counts = tuple(map(int.bit_count, map(mask.__and__, self.type_masks)))
        assert counts == self.cut_type, (counts, self.cut_type)
        return mask

    def cut(self, packed: int) -> Cut:
        """The ``Cut`` of a packed cut, the arrows of its mask."""
        arrows = compress(self.pairs, map(self.mask(packed).__and__, self.bits))
        return Cut(quiver=self.quiver, arrows=frozenset(arrows))


class _ArrowTexts(dict):
    """The JSON text of the arrows at one byte of a mask, by byte value.

    ``texts[i]`` is the text of the arrow at bit i of the byte, with the
    separator before it.  A byte value's text is joined the first time a
    cut has it, so only the values that occur are built: a table of every
    value would hold 256 texts per byte.
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


class _ReadOff(Sequence):
    """A lattice's vectors or cuts: ``read`` of each of its packed ints.

    Holds only the ints and the reader (``_Bounds.vector`` or
    ``_Bounds.cut``); each item access reads one item off its int, and a
    slice is a tuple.  The sequence is read-only.
    """

    __slots__ = ("read", "packed")

    def __init__(self, read, packed) -> None:
        self.read = read
        self.packed = packed

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.read, self.packed[index]))
        return self.read(self.packed[index])


def _walk_lattice(bounds: _Bounds) -> tuple[int, ...]:
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

    The walk keeps each cut as its packed int (see :class:`_Bounds`),
    starting from ``pack`` of the bottom.  A rise takes the into-arrows
    out of the mask, puts the out-arrows in and adds one to the digit of
    each member, so it adds the class's constant ``step``, and no carry
    crosses from one digit or mask bit to the next.

    The climb goes rank by rank.  Every cover raises one class by one,
    so the rank of a cut, the sum over classes of its value less the
    bottom's, is the length of every chain of covers up from the bottom,
    and the cuts of rank r + 1 are exactly the rises of the cuts of rank
    r.  Only the next rank is deduplicated, in a set; each rank is
    appended to one list, which is sorted once at the end, and the sorted
    ints number the cuts.  Nothing else is kept, so the walk peaks at the
    ints plus a set of one rank.  The Hasse edges are read back off the
    sorted ints with the same AND (``MutationLattice._covers``): from cut
    i, each class that can rise gives the edge (i, index of ``cut +
    step``, first vertex of the class).  That pass writes the edges
    already sorted.  For one lower end, a class with a smaller first
    vertex has the larger rise, since vertex 0 is the most significant
    digit, the classes are disjoint and digits never carry; a step's mask
    part ``out - into`` lies below the digits, so the vector part orders
    the upper ends.  Taking the classes from last to first, as
    ``_Bounds.classes`` gives them, thus gives increasing upper ends, and
    no (lower, upper) pair comes from two classes.
    """
    moves = bounds.classes()
    rank = [bounds.pack(bounds.extreme(-1))]
    cuts = []
    while rank:
        cuts += rank
        rank = {
            cut + step
            for cut in rank
            for flip, into, step, _ in moves
            if cut & flip == into
        }
    cuts.sort()
    return tuple(cuts)


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
    function is computed.

    Each cover is a Hasse edge (lower index, upper index), labelled by
    the first vertex of the class that moved.  The lattice stores no
    edge: they are read off the sorted cuts in that order with no sort
    whenever they are asked for (:func:`_walk_lattice` says why).  For a
    positive type each class is one vertex and its moves are the
    mutations at nonzero sources and sinks.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    bounds = _Bounds(quiver, cut_type)
    return MutationLattice(cut_type, _walk_lattice(bounds), bounds)


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
    return bounds.cut(bounds.pack(bounds.extreme(sign)))


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
    SearchBoundExceededError.  No type recount is needed: the m arrows of
    type t permute the vertices, so D's steps along them sum to 0, and
    with every step g_t or g_t - m exactly g_t of them are cut.
    """
    cut_type = require_admissible(quiver.embedding, cut_type)
    dist = _distances([tuple(zip(row, cut_type)) for row in quiver.targets])
    try:
        arrows = _cut_steps(quiver, cut_type, dist)
    except ValueError as exc:
        raise SearchBoundExceededError(
            f"candidate maximum failed certification ({exc})"
        ) from exc
    return Cut(quiver=quiver, arrows=arrows)
