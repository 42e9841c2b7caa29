"""Constructing a concrete cut for each admissible type.

The construction gives every vertex the residue ``xi(v) = <x_v, type'>
mod m`` (type' being the first n entries), well defined on cosets for
an admissible type.  Along an arrow of type t, xi steps by ``type_t``,
or by ``type_t - m`` where ``xi(v) + type_t`` wraps past m, so xi is a
vertex potential of the type in the sense of :mod:`mckaycuts.heights`,
and the cut is the arrows where it wraps, read off by the same step
check that reads every cut off its potential.  Every other cut of the
type is measured against this one, the seed of the lattice walk in
:mod:`mckaycuts.mutation`.
"""

from __future__ import annotations

import json
from itertools import combinations
from json.encoder import encode_basestring_ascii

from .groups import _json_int, _json_list
from .heights import _cut_steps, _seed_potential
from .intlat import LatticeEmbedding
from .quiver import Cut, McKayQuiver, Subquiver, cut_quiver, type_of
from .typesimplex import require_admissible


def xi_gamma(embedding: LatticeEmbedding, x, cut_type) -> int:
    """Residue mod m of ``<canonical rep of x, first n type entries>``.

    Constant on cosets exactly because the type satisfies the
    divisibility conditions, which are therefore checked up front.
    """
    cut_type = require_admissible(embedding, cut_type)
    rep = embedding.reduce(x)
    return sum(r * g for r, g in zip(rep, cut_type)) % embedding.m


def construct_cut(quiver: McKayQuiver, cut_type) -> Cut:
    """A cut of the given admissible type: the arrows where xi wraps past m."""
    cut_type = require_admissible(quiver.embedding, cut_type)
    xi = _seed_potential(quiver.embedding, cut_type)
    return Cut(quiver=quiver, arrows=_cut_steps(quiver, cut_type, xi))


RelationSquare = tuple[tuple[int, int], ...]


def degree_zero_presentation(
    quiver: McKayQuiver, cut: Cut
) -> tuple[Subquiver, tuple[RelationSquare, ...]]:
    """Cut quiver plus the commutativity squares that survive the cut.

    The squares are those of ``_relation_squares``, collected into a
    tuple; together with the cut quiver they present the degree-zero part
    of the graded algebra.  The ``construct`` command streams the same
    squares from the generator and builds neither the tuple nor a tree.
    """
    return cut_quiver(quiver, cut), tuple(_relation_squares(quiver, cut))


def _relation_squares(quiver: McKayQuiver, cut: Cut):
    """Yield the commutativity squares that survive the cut.

    Each is the four arrows ``(a_i, a_j, b_j, b_i)`` with
    ``a_i a_j = b_j b_i``, for a vertex v and types i < j in that order,
    kept only when none of the four is a cut arrow.
    """
    for v, row in enumerate(quiver.targets):
        for i, j in combinations(quiver.types, 2):
            square = ((v, i), (row[i - 1], j), (v, j), (row[j - 1], i))
            if cut.arrows.isdisjoint(square):
                yield square


def _arrow_json(quiver: McKayQuiver, v: int, t: int) -> dict:
    """The JSON object of the arrow of type t out of vertex v."""
    return {"source": list(quiver.vertices[v]), "arrow_type": t}


def _arrow_text(quiver: McKayQuiver, depth: int):
    """(v, t) -> ``_indented(_arrow_json(quiver, v, t), depth)``.

    The text of every arrow object the streamed outputs print: constant
    pieces for the depth around one join of the source's coordinates (a
    vertex has n >= 1 of them), with no dict built.
    """
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad + "  "
    head = "{" + pad + '"source": [' + sep[1:]
    middle = pad + "]," + pad + '"arrow_type": '
    tail = pad[:-2] + "}"

    def text(v: int, t: int) -> str:
        return head + sep.join(map(str, quiver.vertices[v])) + middle + str(t) + tail

    return text


def _indented(obj, depth: int) -> str:
    """``json.dumps(obj, indent=2)`` as it reads nested ``depth`` levels deep.

    Dicts with string keys, lists, tuples, ints, strings, bools and None
    are encoded here, a list of plain ints in one join; anything else (a
    float, a non-string key, a subclass) is left to ``json.dumps`` and
    re-indented.  This is the fragment encoder of the streamed outputs and
    of every JSON payload the CLI prints.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    pad = "\n" + "  " * (depth + 1)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(str, obj)
        else:
            items = (_indented(x, depth + 1) for x in obj)
        return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        items = (
            encode_basestring_ascii(key) + ": " + _indented(value, depth + 1)
            for key, value in obj.items()
        )
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


# The text length at which ``_json_array`` yields a chunk: large enough
# that writes stay few, small enough that the copies of one chunk alive
# at once (its items, their join and the bytes written) stay small.
_CHUNK_CHARS = 1 << 14


def _json_array(texts, depth: int):
    """Yield a JSON array ``depth`` levels deep in chunks of about 16 KiB.

    The items come encoded for depth ``depth + 1``; the layout is that
    of ``json.dumps(..., indent=2)``, including ``[]`` for no items.
    Items are joined, each with the separator or bracket before it,
    until the text reaches ``_CHUNK_CHARS``, so a chunk holds at most
    that many characters plus one item, however large the items are;
    the closing bracket is a chunk of its own.
    """
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    head, block, size = "[" + pad, [], 0
    for text in texts:
        block.append(text)
        size += len(sep) + len(text)
        if size >= _CHUNK_CHARS:
            yield head + sep.join(block)
            head, block, size = sep, [], 0
    if block:
        yield head + sep.join(block)
        head = sep
    yield "[]" if head[0] == "[" else pad[:-2] + "]"


def cut_to_json(cut: Cut) -> dict:
    quiver = cut.quiver
    return {
        "type": list(type_of(cut)),
        "arrows": [_arrow_json(quiver, v, t) for v, t in cut.sorted_arrows()],
    }


def cut_from_json(quiver: McKayQuiver, obj: dict) -> frozenset[tuple[int, int]]:
    """Arrow set from the cut JSON format (not validated as a cut).

    ``arrows`` must be a JSON array, and every ``source`` entry and
    ``arrow_type`` a JSON integer; anything else is refused with
    ``ValueError``.
    """
    arrows = set()
    for entry in _json_list(obj["arrows"], "arrows"):
        source = tuple(_json_int(c, "source") for c in entry["source"])
        arrow_type = _json_int(entry["arrow_type"], "arrow_type")
        arrows.add((quiver.embedding.vertex(source), arrow_type))
    return frozenset(arrows)
