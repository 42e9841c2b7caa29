"""Group descriptions and their canonical lattice embeddings.

A finite abelian subgroup of SL(n+1) acting diagonally is described by
generators ``1/m_j (w_1, ..., w_{n+1})`` (order plus weight vector).
Only the sublattice L1 = ker(Z^n -> prod_j Z/m_j) matters downstream,
so the embedding is computed once and the group is forgotten.
"""

from __future__ import annotations

import math
import operator

from .errors import NonFaithfulSpecError
from .intlat import LatticeEmbedding, Vec, _Value, hnf, identity_matrix


class Generator(_Value):
    order: int
    weights: Vec


class GroupSpec(_Value):
    """Diagonal generators of an abelian subgroup of SL(n+1)."""

    n: int
    generators: tuple[Generator, ...]

    @classmethod
    def make(cls, n: int, generators) -> "GroupSpec":
        n = operator.index(n)
        if n < 1:
            raise ValueError("dimension parameter n must be at least 1")
        gens = []
        for order, weights in generators:
            order = operator.index(order)
            if order < 1:
                raise ValueError("generator order must be a positive integer")
            weights = tuple(operator.index(w) for w in weights)
            if len(weights) != n + 1:
                raise ValueError(
                    f"generator weights must have length n+1 = {n + 1}"
                )
            weights = tuple(w % order for w in weights)
            if sum(weights) % order != 0:
                raise ValueError(
                    "invalid weights: sum must vanish mod the order"
                    " (the action must land in SL)"
                )
            gens.append(Generator(order=order, weights=weights))
        return cls(n=n, generators=tuple(gens))


def embedding_from_spec(spec: GroupSpec) -> LatticeEmbedding:
    """Canonical embedding whose quotient is the dual of the given group.

    L1 is the kernel of ``v -> (sum_i w_{j,i} v_i mod m_j)_j`` using the
    first n weights of each generator; the last weight is implied by the
    SL condition.  It is cut out one generator at a time, by one HNF
    each.  With H the HNF basis of the lattice L so far, the columns of
    the bordered matrix ``B = [[H, 0], [w H mod r, r]]`` span
    ``{(x, <w, x> + r k) : x in L, k in Z}`` for a generator (r, w).
    The HNF of B is upper triangular, so its first n columns end in 0
    and span exactly the points of that span with last entry 0, the
    ``(x, 0)`` with x in L and ``<w, x> = 0 mod r``.  Their top n x n
    block is upper triangular with reduced rows, so it is the HNF of the
    next lattice, unique as every HNF is.  An order-1 generator cuts
    nothing and is skipped.  Rejects generating data whose direct-sum
    order disagrees with the resulting lattice index.
    """
    n = spec.n
    h = identity_matrix(n)
    for gen in spec.generators:
        r = gen.order
        if r == 1:
            continue
        row = [sum(map(operator.mul, gen.weights, col)) % r for col in zip(*h)]
        bordered = (*(hrow + (0,) for hrow in h), (*row, r))
        h = tuple(hrow[:n] for hrow in hnf(bordered)[0][:n])
    m = math.prod(h[i][i] for i in range(n))
    stated = math.prod(gen.order for gen in spec.generators)
    if stated != m:
        raise NonFaithfulSpecError(
            "non-faithful or redundant generating data: stated group order "
            f"{_number_text(stated)}, lattice index {_number_text(m)}"
        )
    return LatticeEmbedding(n=n, bprime=h, hnf=h, m=m)


def group_order(spec: GroupSpec) -> int:
    """Index of the kernel lattice, i.e. the group order."""
    return embedding_from_spec(spec).m


def _number_text(number: int) -> str:
    """The decimal text of a number, or its size where that text is long.

    Up to 2,048 bits (617 digits) this is ``str(number)``; a longer
    number reads as "a 5000-bit number", since Python refuses the
    decimal text of an int past its digit limit (4,300 digits by
    default, 640 at the least), and an error message must not raise.
    """
    bits = abs(number).bit_length()
    return str(number) if bits <= 2048 else f"a {bits}-bit number"


def _json_int(value, field: str) -> int:
    """A JSON integer, refusing floats and booleans rather than truncating."""
    if type(value) is not int:
        raise ValueError(f'"{field}" must hold JSON integers, got {value!r}')
    return value


def _json_list(value, field: str) -> list:
    """A JSON array, refusing an object, which would iterate as its keys."""
    if type(value) is not list:
        raise ValueError(f'"{field}" must be a JSON array')
    return value


def parse_input(obj: dict) -> tuple[LatticeEmbedding, GroupSpec | None]:
    """Load an embedding from the JSON input schema.

    Accepts either ``{"n": int, "generators": [{"order": int,
    "weights": [int, ...]}, ...]}`` or the direct form ``{"n": int,
    "bprime": [[int, ...], ...]}``.  Every number must be a JSON
    integer; ``2.7`` or ``true`` is refused with ``ValueError``, and so
    are an object in place of the ``generators`` array and an input that
    gives both fields.
    """
    if not isinstance(obj, dict):
        raise ValueError("input must be a JSON object")
    if "n" not in obj:
        raise ValueError('input is missing the "n" field')
    n = _json_int(obj["n"], "n")
    if ("bprime" in obj) == ("generators" in obj):
        raise ValueError('input needs exactly one of "generators" and "bprime"')
    if "bprime" in obj:
        mat = [[_json_int(x, "bprime") for x in row] for row in obj["bprime"]]
        if len(mat) != n:
            raise ValueError('"bprime" must be an n x n matrix')
        return LatticeEmbedding.from_basis(mat), None
    gens = [
        (
            _json_int(entry["order"], "order"),
            [_json_int(w, "weights") for w in entry["weights"]],
        )
        for entry in _json_list(obj["generators"], "generators")
    ]
    spec = GroupSpec.make(n, gens)
    return embedding_from_spec(spec), spec
