"""Height functions and their bijection with periodic cuts.

A height function assigns h(0) = 0 and changes by +1 or -n along every
arrow of the covering quiver; the equivariant ones (h(x+y) = h(x)+h(y)
for y in L1) correspond one-to-one with cuts, the cut being exactly the
arrows where h drops by n.  A height function is stored as an integer
vector indexed by vertex (its values on the m canonical coset
representatives, in the quiver's vertex order) together with the
homomorphism values on the HNF basis of L1; everything else follows by
equivariance.

The step of h along the arrow ``(u, t)`` to ``w`` is
``h[w] + lift[u][t-1] - h[u]``, where the lift is the height of the
arrow's L1 wrap: ``McKayQuiver.arrow_wraps`` (computed once per quiver)
dotted with the L1 values, as ``McKayQuiver.arrow_lifts`` gives it.
Cut -> height and height -> cut read steps this way.  The lattice walk
and the extremes in :mod:`mckaycuts.mutation` work on relative height
vectors and never see a step or a lift.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NotACutError
from .intlat import LatticeEmbedding, Vec
from .quiver import Arrow, Cut, McKayQuiver


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


@lru_cache(maxsize=64)
def _l1_values(embedding: LatticeEmbedding, cut_type: Vec) -> Vec:
    """The height homomorphism of a type on the HNF basis of L1.

    Cached, because every cut of one type needs it; the keys are values,
    so the cache holds no quiver.
    """
    return tuple(
        h_gamma(embedding, col, cut_type) for col in embedding.basis_columns()
    )


@dataclass(frozen=True, eq=False)
class HeightFunction:
    """An equivariant height function: one value per vertex, plus L1 values.

    ``values[v]`` is the height at the canonical representative
    ``embedding.fundamental_domain()[v]``, which is vertex ``v`` of the
    McKay quiver.
    """

    embedding: LatticeEmbedding
    values: tuple[int, ...] = field(repr=False)
    l1_values: tuple[int, ...]

    def value_at(self, x) -> int:
        """Evaluate at any lattice point via equivariance."""
        x = tuple(map(operator.index, x))
        rep = self.embedding.reduce(x)
        coeffs = self.embedding.l1_coefficients(
            tuple(a - b for a, b in zip(x, rep))
        )
        assert coeffs is not None
        # The fundamental domain is the box of the HNF diagonal in
        # lexicographic order, so a representative's position in it is
        # its mixed-radix value.
        vertex = 0
        for c, d in zip(rep, self.embedding.diagonal):
            vertex = vertex * d + c
        return self.values[vertex] + sum(
            c * v for c, v in zip(coeffs, self.l1_values)
        )

    def to_json(self) -> dict:
        return {
            "values": {
                ",".join(str(c) for c in rep): value
                for rep, value in zip(
                    self.embedding.fundamental_domain(), self.values
                )
            },
            "l1_values": list(self.l1_values),
        }


def drops(quiver: McKayQuiver, values, lifts) -> frozenset[Arrow]:
    """Arrows along which the heights fall by n.

    Raises ValueError when some step is neither +1 nor -n, that is, when
    the vector is not a height function.
    """
    n = quiver.n
    out = []
    for u, row in enumerate(quiver.targets):
        base = values[u]
        for t, (w, lift) in enumerate(zip(row, lifts[u]), start=1):
            delta = values[w] + lift - base
            if delta == -n:
                out.append((u, t))
            elif delta != 1:
                raise ValueError(
                    f"not a height function: step of {delta} along arrow {(u, t)}"
                )
    return frozenset(out)


def height_from_cut(quiver: McKayQuiver, cut) -> HeightFunction:
    """Height function of a cut; rejects arrow sets that are not cuts.

    Works on the quotient: breadth-first assignment of values along
    out-arrows, each step corrected by the lift of the arrow's L1 wrap,
    followed by the :func:`drops` check of every arrow: the heights
    must drop exactly along the given arrows.  Any failure (wrong
    arrow count, type failing divisibility, or two paths disagreeing)
    means the input is not a cut.
    """
    arrows = cut.arrows if isinstance(cut, Cut) else frozenset(cut)
    embedding = quiver.embedding
    n, m = quiver.n, quiver.m
    counts = [0] * (n + 1)
    for arrow in arrows:
        v, t = arrow
        if not (0 <= v < m and 1 <= t <= n + 1):
            raise NotACutError(f"unknown arrow {arrow!r}")
        counts[t - 1] += 1
    if sum(counts) != m:
        raise NotACutError(
            f"a cut has exactly m = {m} arrows, got {sum(counts)}"
        )
    try:
        l1_values = _l1_values(embedding, tuple(counts))
    except ValueError as exc:
        raise NotACutError(str(exc)) from exc
    lifts = quiver.arrow_lifts(l1_values)

    # Out-arrows alone reach every vertex: each step generates a finite
    # cyclic subgroup of L0/L1, so the quotient is strongly connected.
    values: list[int | None] = [None] * m
    values[0] = 0
    order = [0]
    for v in order:
        base = values[v]
        for t, (w, lift) in enumerate(zip(quiver.targets[v], lifts[v]), start=1):
            if values[w] is None:
                values[w] = base + (-n if (v, t) in arrows else 1) - lift
                order.append(w)
    assert len(order) == m, "quotient Cayley graph must be connected"
    try:
        consistent = drops(quiver, values, lifts) == arrows
    except ValueError as exc:
        raise NotACutError(str(exc)) from exc
    if not consistent:
        raise NotACutError(
            "height increments are inconsistent: the heights do not drop "
            "exactly along the given arrows, so the arrow set is not a cut"
        )
    return HeightFunction(
        embedding=embedding, values=tuple(values), l1_values=l1_values
    )


def cut_from_height(quiver: McKayQuiver, height: HeightFunction) -> Cut:
    """The cut whose arrows are exactly the drops of the height function."""
    if height.embedding.hnf != quiver.embedding.hnf:
        raise ValueError("height function belongs to a different embedding")
    if len(height.values) != quiver.m:
        raise ValueError("height values must cover all canonical representatives")
    if height.values[0] != 0:
        raise ValueError("a height function must vanish at the origin")
    lifts = quiver.arrow_lifts(height.l1_values)
    return Cut(quiver=quiver, arrows=drops(quiver, height.values, lifts))
