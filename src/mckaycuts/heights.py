"""Height functions and their bijection with periodic cuts.

A height function assigns h(0) = 0 and changes by +1 or -n along every
arrow of the covering quiver; the equivariant ones (h(x+y) = h(x)+h(y)
for y in L1) correspond one-to-one with cuts, the cut being exactly the
arrows where h drops by n.  A height function is stored as an integer
vector indexed by vertex (its values on the m canonical coset
representatives, in the quiver's vertex order) together with the
homomorphism values on the HNF basis of L1; everything else follows by
equivariance.

Every height function of type gamma is built from the type-weighted
vertex potential, as in the paper's construction of the maximal cut:
with ``w_i = m - (n+1) * gamma_i`` for the first n entries,

    h(x_v) = (<x_v, w> + (n+1) * g(v)) / m,

where g is an integer potential on the m vertices with g(0) = 0.  Along
an arrow of type t, g steps by gamma_t if the arrow is uncut and by
gamma_t - m if it is cut, which is a step of h by +1 or -n.  Cut ->
potential assigns g breadth-first and checks each arrow as it goes
(``_cut_potential``), and ``height_from_cut`` applies the formula to it;
height -> cut recovers gamma from the L1 values and g from the heights,
and reads the cut off the step check of g, ``_cut_steps``.  The
cut-level API of :mod:`mckaycuts.mutation` works on g alone and builds
no height function: ``max_via_p`` hands its shortest-path distances,
which are g, straight to the step check, and ``meet``, ``join`` and
``relative_height_vector`` take the pointwise min, max and difference
of two cuts' potentials.  The seed cut is the cut of the potential
``xi(v) = <x_v, gamma'> mod m``, gamma' being the first n entries:
``construct_cut`` reads it off the same step check, and the lattice
walk and the extremes in :mod:`mckaycuts.mutation` read their bounds
off xi and then work on relative height vectors alone.  ``<x_v, w>``
and xi both come from ``_pairings`` over the representatives of
``LatticeEmbedding.fundamental_domain``, which is the vertex order, and
a height is evaluated anywhere through ``LatticeEmbedding.vertex``.
Neither the quiver nor this module keeps per-type state: the L1 values
are computed once for each height function, after the step check over
all m(n+1) arrows, and a type failing divisibility is refused before
the walk by ``is_admissible_type``, which needs no L1 values.
"""

from __future__ import annotations

import operator

from .errors import NotACutError
from .intlat import LatticeEmbedding, Vec, _Record
from .quiver import Arrow, Cut, McKayQuiver, _vertex_label, check_arrows
from .typesimplex import is_admissible_type


def h_gamma(embedding: LatticeEmbedding, y, cut_type) -> int:
    """Value on ``y in L1`` of the height homomorphism of a given type.

    Computed exactly as ``(m*<y,1> - (n+1)*<y,type>) / m``; a non-integer
    result means the type vector is not a valid cut type for this
    embedding, and ``y`` outside L1 is rejected.
    """
    y = tuple(map(operator.index, y))
    if not embedding.in_sublattice(y):
        raise ValueError(f"{y} is not in the sublattice")
    n, m = embedding.n, embedding.m
    cut_type = tuple(map(operator.index, cut_type))
    if len(cut_type) != n + 1:
        raise ValueError(f"type vector must have length {n + 1}")
    numerator = m * sum(y) - (n + 1) * sum(a * b for a, b in zip(y, cut_type))
    if numerator % m != 0:
        raise ValueError(
            f"{cut_type} is not a valid cut type for this embedding"
        )
    return numerator // m


def types_equal_iff_h_equal(embedding: LatticeEmbedding, type_a, type_b) -> bool:
    """Whether two types induce the same homomorphism on the HNF basis of L1."""
    cols = embedding.basis_columns()
    return all(
        h_gamma(embedding, col, type_a) == h_gamma(embedding, col, type_b)
        for col in cols
    )


def _l1_values(embedding: LatticeEmbedding, cut_type: Vec) -> Vec:
    """The height homomorphism of a type on the HNF basis of L1."""
    return tuple(
        h_gamma(embedding, col, cut_type) for col in embedding.basis_columns()
    )


class HeightFunction(_Record):
    """An equivariant height function: one value per vertex, plus L1 values.

    ``values[v]`` is the height at the canonical representative
    ``embedding.fundamental_domain()[v]``, which is vertex ``v`` of the
    McKay quiver.
    """

    embedding: LatticeEmbedding
    values: tuple[int, ...]
    l1_values: tuple[int, ...]
    _hidden = ("values",)

    def value_at(self, x) -> int:
        """Evaluate at any lattice point via equivariance.

        One division ``x = hnf @ q + rep`` gives ``h(x) = h(rep) + sum_i
        q_i * l1_values[i]``.
        """
        coeffs, rep = self.embedding._divide(x)
        return self.values[self.embedding.vertex(rep)] + sum(
            c * v for c, v in zip(coeffs, self.l1_values)
        )

    def to_json(self) -> dict:
        return {
            "values": {
                _vertex_label(rep): value
                for rep, value in zip(
                    self.embedding.fundamental_domain(), self.values
                )
            },
            "l1_values": list(self.l1_values),
        }


def _pairings(embedding: LatticeEmbedding, weights) -> list[int]:
    """``<x_v, w>`` for every vertex v, w being the first n ``weights``."""
    return [
        sum(map(operator.mul, rep, weights))
        for rep in embedding.fundamental_domain()
    ]


def _seed_potential(embedding: LatticeEmbedding, cut_type: Vec) -> list[int]:
    """The potential ``xi(v) = <x_v, type'> mod m`` of the constructed cut.

    Along an arrow of type t it steps by ``type_t``, or by ``type_t - m``
    where ``xi(v) + type_t`` wraps past m.  An admissible type makes
    ``<x, type'> mod m`` constant on cosets, so xi is a potential of the
    type, and ``construct_cut`` reads its cut off the step check.
    """
    return [p % embedding.m for p in _pairings(embedding, cut_type)]


def _cut_steps(quiver: McKayQuiver, cut_type: Vec, potential) -> frozenset[Arrow]:
    """Arrows of type t along which the potential steps by ``type_t - m``.

    Raises ValueError when some step is neither ``type_t`` nor ``type_t
    - m``, that is, when the potential belongs to no cut of the type.
    """
    m, types = quiver.m, quiver.types
    out = []
    for u, row in enumerate(quiver.targets):
        base = potential[u]
        for t, w, g in zip(types, row, cut_type):
            # The step minus type_t is 0 on an uncut arrow, -m on a cut one.
            excess = potential[w] - base - g
            if excess:
                if excess != -m:
                    raise ValueError(
                        f"not a height function: potential step of "
                        f"{excess + g} along arrow {(u, t)} of weight {g}"
                    )
                out.append((u, t))
    return frozenset(out)


def _cut_potential(quiver: McKayQuiver, cut) -> tuple[Vec, list[int]]:
    """The type of a cut and its vertex potential g, with g(0) = 0.

    Works on the quotient: one breadth-first pass along out-arrows, in
    which g steps by ``type_t - m`` along the given arrows and by
    ``type_t`` along the others.  Each arrow either assigns the potential
    of its target or is checked against it.  Any failure (unknown arrow,
    wrong arrow count, type failing divisibility, or two paths
    disagreeing) means the input is not a cut, and raises NotACutError.
    """
    arrows = cut.arrows if isinstance(cut, Cut) else check_arrows(quiver, cut)
    n, m = quiver.n, quiver.m
    counts = [0] * (n + 1)
    for _, t in arrows:
        counts[t - 1] += 1
    if sum(counts) != m:
        raise NotACutError(
            f"a cut has exactly m = {m} arrows, got {sum(counts)}"
        )
    cut_type = tuple(counts)
    # The step check alone would refuse such a type too, since a
    # consistent potential forces admissibility; refusing it before the
    # walk names the reason.
    if not is_admissible_type(quiver.embedding, cut_type):
        raise NotACutError(f"type {cut_type} fails the divisibility condition")

    # Out-arrows alone reach every vertex: each step generates a finite
    # cyclic subgroup of L0/L1, so the quotient is strongly connected.
    types, targets = quiver.types, quiver.targets
    potential: list[int | None] = [None] * m
    potential[0] = 0
    order = [0]
    for v in order:
        base = potential[v]
        for t, w, g in zip(types, targets[v], cut_type):
            step = base + g - m * ((v, t) in arrows)
            if potential[w] is None:
                potential[w] = step
                order.append(w)
            elif potential[w] != step:
                raise NotACutError(f"inconsistent height increment at arrow {(v, t)}")
    assert len(order) == m, "quotient Cayley graph must be connected"
    return cut_type, potential


def height_from_cut(quiver: McKayQuiver, cut) -> HeightFunction:
    """Height function of a cut; rejects arrow sets that are not cuts.

    The heights are ``(<x_v, w> + (n+1) * g(v)) / m`` for the cut's
    type and vertex potential g (see ``_cut_potential``, which raises
    NotACutError on an arrow set that is not a cut).
    """
    cut_type, potential = _cut_potential(quiver, cut)
    embedding = quiver.embedding
    m, rise = quiver.m, quiver.n + 1
    parts = _pairings(embedding, [m - rise * g for g in cut_type])
    scaled = [a + rise * g for a, g in zip(parts, potential)]
    values = [x // m for x in scaled]
    assert [h * m for h in values] == scaled, cut_type
    return HeightFunction(
        embedding=embedding,
        values=tuple(values),
        l1_values=_l1_values(embedding, cut_type),
    )


def _type_of_l1_values(embedding: LatticeEmbedding, l1_values) -> Vec:
    """The type whose height homomorphism has these values on the HNF basis.

    Column j of the upper triangular HNF ends at entry j, and
    ``l1_j = sum(col_j) - (n+1) * <col_j, type'> / m``, so forward
    substitution gives the first n entries; the last makes the sum m.
    Raises ValueError when the solution is not integral.
    """
    m, rise = embedding.m, embedding.n + 1
    head: list[int] = []
    for j, (col, value) in enumerate(zip(embedding.basis_columns(), l1_values)):
        known = sum(c * g for c, g in zip(col, head))
        entry, rest = divmod(m * (sum(col) - value) - rise * known, rise * col[j])
        if rest:
            raise ValueError(f"L1 values {tuple(l1_values)} fit no integer type")
        head.append(entry)
    return (*head, m - sum(head))


def cut_from_height(quiver: McKayQuiver, height: HeightFunction) -> Cut:
    """The cut whose arrows are exactly the drops of the height function.

    The type comes from the L1 values, the potential from
    ``g = (m * h - <x_v, w>) / (n+1)``, and the cut from the step check.
    """
    embedding = quiver.embedding
    if height.embedding.hnf != embedding.hnf:
        raise ValueError("height function belongs to a different embedding")
    if len(height.values) != quiver.m:
        raise ValueError("height values must cover all canonical representatives")
    if len(height.l1_values) != quiver.n:
        raise ValueError(f"a height function has {quiver.n} L1 values")
    if height.values[0] != 0:
        raise ValueError("a height function must vanish at the origin")
    cut_type = _type_of_l1_values(embedding, height.l1_values)
    m, rise = quiver.m, quiver.n + 1
    parts = _pairings(embedding, [m - rise * g for g in cut_type])
    scaled = [m * h - a for h, a in zip(height.values, parts)]
    potential = [x // rise for x in scaled]
    if [g * rise for g in potential] != scaled:
        raise ValueError("not a height function: its potential is not integral")
    return Cut(quiver=quiver, arrows=_cut_steps(quiver, cut_type, potential))
