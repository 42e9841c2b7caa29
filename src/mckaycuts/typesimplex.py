"""The simplex of cut types and its interior.

A nonnegative vector of length n+1 summing to m is the type of a cut
exactly when its first n entries pair to zero mod m with every column
of the sublattice basis.  The admissible types are lattice points of a
simplex whose vertices are the n+1 trivial types; a strictly positive
point exists iff the algebra carries a higher preprojective cut, and
for cyclic groups the non-vertex points are the junior elements.
"""

from __future__ import annotations

import operator
from math import gcd

from .errors import InadmissibleTypeError
from .groups import GroupSpec
from .intlat import LatticeEmbedding, Vec, _Value


def is_admissible_type(embedding: LatticeEmbedding, cut_type) -> bool:
    """Divisibility characterisation of cut types.

    Entries must be integers; a float raises ``TypeError`` rather than
    being truncated.
    """
    n, m = embedding.n, embedding.m
    cut_type = tuple(operator.index(g) for g in cut_type)
    if len(cut_type) != n + 1:
        return False
    if any(g < 0 for g in cut_type) or sum(cut_type) != m:
        return False
    cols = embedding.basis_columns()
    return all(
        sum(g * c for g, c in zip(cut_type, col)) % m == 0 for col in cols
    )


def require_admissible(embedding: LatticeEmbedding, cut_type) -> Vec:
    cut_type = tuple(operator.index(g) for g in cut_type)
    if not is_admissible_type(embedding, cut_type):
        raise InadmissibleTypeError(
            f"{cut_type} is not the type of any cut for this embedding"
        )
    return cut_type


def trivial_types(embedding: LatticeEmbedding) -> tuple[Vec, ...]:
    n, m = embedding.n, embedding.m
    return tuple(
        tuple(m if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
    )


class TypeSimplexReport(_Value):
    all_types: tuple[Vec, ...]
    positive_types: tuple[Vec, ...]
    vertices: tuple[Vec, ...]
    hollow: bool

    def to_json(self) -> dict:
        return {
            "types": [list(t) for t in self.all_types],
            "positive": [list(t) for t in self.positive_types],
            "hollow": self.hollow,
        }


def enumerate_types(embedding: LatticeEmbedding) -> TypeSimplexReport:
    """All admissible types, by a prefix search that solves each coordinate.

    Column j of the upper-triangular HNF basis involves only the first
    j+1 coordinates.  Once ``g_0 .. g_{j-1}`` are fixed, its condition is
    the linear congruence ``a * g_j = b (mod m)`` with ``a = H[j][j]``
    and ``b = -sum_{k<j} g_k H[k][j]``.  With ``d = gcd(a, m)`` it has
    no solution unless d divides b, and otherwise its solutions form one
    residue class modulo m/d, which the search steps through directly.
    Every visited prefix therefore satisfies its congruences; measured
    on cyclic and non-cyclic groups up to m = 5000, no depth holds more
    than m + 1 of them.  The last coordinate is ``m - total``.
    """
    n, m = embedding.n, embedding.m
    cols = embedding.basis_columns()
    found: list[Vec] = []

    def extend(prefix: list[int], total: int) -> None:
        j = len(prefix)
        if j == n:
            found.append(tuple(prefix) + (m - total,))
            return
        col = cols[j]
        a = col[j]
        b = -sum(g * c for g, c in zip(prefix, col)) % m
        d = gcd(a, m)
        if b % d:
            return
        step = m // d
        first = (b // d) * pow(a // d, -1, step) % step
        for g in range(first, m - total + 1, step):
            prefix.append(g)
            extend(prefix, total + g)
            prefix.pop()

    extend([], 0)
    all_types = tuple(sorted(found))
    positive = tuple(t for t in all_types if all(g > 0 for g in t))
    return TypeSimplexReport(
        all_types=all_types,
        positive_types=positive,
        vertices=trivial_types(embedding),
        hollow=not positive,
    )


def has_preprojective_cut(embedding: LatticeEmbedding) -> Vec | None:
    """Some strictly positive admissible type, or None if the simplex is hollow."""
    report = enumerate_types(embedding)
    return report.positive_types[0] if report.positive_types else None


def juniors_cyclic(spec: GroupSpec) -> list[Vec]:
    """Weight vectors of the junior elements of a single-generator group.

    For each power k of the generator, reduce the weights mod the order
    and keep those whose coordinates sum to the order itself.
    """
    if len(spec.generators) != 1:
        raise ValueError("junior enumeration needs a single-generator description")
    gen = spec.generators[0]
    m = gen.order
    juniors = []
    for k in range(1, m):
        vec = tuple((k * w) % m for w in gen.weights)
        if sum(vec) == m:
            juniors.append(vec)
    return juniors


def monomial_degree(embedding: LatticeEmbedding, exponents, cut_type) -> int:
    """Degree of an invariant monomial under the grading of a cut type.

    The exponent vector must describe an invariant monomial, i.e.
    ``(e_1 - e_{n+1}, ..., e_n - e_{n+1})`` lies in L1.  The degree is
    ``<e, type> / m``, and integrality is guaranteed for valid input.
    """
    n, m = embedding.n, embedding.m
    exponents = tuple(map(operator.index, exponents))
    if len(exponents) != n + 1:
        raise ValueError(f"exponent vector must have length {n + 1}")
    diff = tuple(e - exponents[n] for e in exponents[:n])
    if not embedding.in_sublattice(diff):
        raise ValueError(f"x^{exponents} is not an invariant monomial")
    cut_type = require_admissible(embedding, cut_type)
    total = sum(e * g for e, g in zip(exponents, cut_type))
    if total % m != 0:
        raise AssertionError("invariant monomial degrees are always integral")
    return total // m
