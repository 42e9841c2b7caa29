"""McKay quivers as Cayley graphs, elementary cycles, and cuts.

The quiver of an embedding has one vertex per coset of L1 in Z^n and,
for each vertex, one outgoing arrow per step direction alpha_1, ...,
alpha_n, alpha_{n+1} = -(alpha_1 + ... + alpha_n).  An arrow is
identified by the pair ``(source index, type)`` with types 1..n+1.

A cut is an arrow set meeting every elementary cycle exactly once.
There are m * n! elementary cycles, so they are walked on demand
(``McKayQuiver.elementary_cycles``) and never stored; every cut check
scans them with the one walker ``first_violated_cycle``, and the
``analyze`` subcommand reports their number without listing them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations

from .errors import NotACutError
from .intlat import LatticeEmbedding, Vec

Arrow = tuple[int, int]

DOT_COLORS = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
    "#ff7f00", "#a65628", "#f781bf", "#999999",
)


def step_vectors(n: int) -> tuple[Vec, ...]:
    """alpha_1, ..., alpha_{n+1} with the last one minus the sum of the rest."""
    steps = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    steps.append(tuple(-1 for _ in range(n)))
    return tuple(steps)


@dataclass(frozen=True, eq=False)
class McKayQuiver:
    embedding: LatticeEmbedding
    vertices: tuple[Vec, ...]
    index: dict[Vec, int]
    targets: tuple[tuple[int, ...], ...]
    incoming: tuple[tuple[Arrow, ...], ...]
    _lifts: dict[Vec, tuple[tuple[int, ...], ...]] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def n(self) -> int:
        return self.embedding.n

    @property
    def m(self) -> int:
        return self.embedding.m

    @property
    def types(self) -> range:
        return range(1, self.n + 2)

    def target(self, v: int, arrow_type: int) -> int:
        return self.targets[v][arrow_type - 1]

    def arrows(self):
        for v in range(self.m):
            for t in self.types:
                yield (v, t)

    def out_arrows(self, v: int) -> tuple[Arrow, ...]:
        return tuple((v, t) for t in self.types)

    def in_arrows(self, v: int) -> tuple[Arrow, ...]:
        return self.incoming[v]

    @cached_property
    def arrow_wraps(self) -> tuple[tuple[Vec, ...], ...]:
        """HNF coefficients of each arrow's L1 wrap, indexed ``[v][t - 1]``.

        The arrow ``(v, t)`` to ``w`` lifts to ``x_v -> x_v + alpha_t``,
        which lies in the coset of ``x_w`` but may leave the fundamental
        domain; the wrap ``x_v + alpha_t - x_w`` is the L1 vector it
        crosses.  It depends only on the quiver; see ``arrow_lifts``.
        """
        steps = step_vectors(self.n)
        wraps = []
        for v, rep in enumerate(self.vertices):
            row = []
            for step, w in zip(steps, self.targets[v]):
                wrap = tuple(
                    a + s - r for a, s, r in zip(rep, step, self.vertices[w])
                )
                coeffs = self.embedding.l1_coefficients(wrap)
                assert coeffs is not None
                row.append(coeffs)
            wraps.append(tuple(row))
        return tuple(wraps)

    def arrow_lifts(self, l1_values) -> tuple[tuple[int, ...], ...]:
        """Height each arrow's L1 wrap adds, indexed ``[v][t - 1]``.

        That is the wrap's coefficients dotted with the L1 values of a
        height function.  Memoised per quiver, because every cut of one
        type shares its L1 values.
        """
        l1_values = tuple(l1_values)
        lifts = self._lifts.get(l1_values)
        if lifts is None:
            lifts = tuple(
                tuple(sum(c * h for c, h in zip(wrap, l1_values)) for wrap in row)
                for row in self.arrow_wraps
            )
            self._lifts[l1_values] = lifts
        return lifts

    def elementary_cycles(self):
        """Yield the elementary cycles, each rotated to start with type 1.

        A cycle is a length-(n+1) path using each type exactly once;
        rotating the type sequence to put type 1 first makes the start
        vertex canonical, so there are exactly ``m * n!`` of them.  They
        are walked on demand and never stored.
        """
        orders = [(1, *rest) for rest in permutations(range(2, self.n + 2))]
        for start in range(self.m):
            for order in orders:
                cycle = []
                v = start
                for t in order:
                    cycle.append((v, t))
                    v = self.targets[v][t - 1]
                assert v == start
                yield tuple(cycle)


def build_mckay(embedding: LatticeEmbedding) -> McKayQuiver:
    """Cayley-graph McKay quiver; vertex 0 is the coset of the origin."""
    vertices = embedding.fundamental_domain()
    index = {rep: i for i, rep in enumerate(vertices)}
    steps = step_vectors(embedding.n)
    targets = tuple(
        tuple(
            index[embedding.reduce(tuple(a + b for a, b in zip(rep, step)))]
            for step in steps
        )
        for rep in vertices
    )
    incoming: list[list[Arrow]] = [[] for _ in vertices]
    for v, row in enumerate(targets):
        for t, w in enumerate(row, start=1):
            incoming[w].append((v, t))
    return McKayQuiver(
        embedding=embedding,
        vertices=vertices,
        index=index,
        targets=targets,
        incoming=tuple(tuple(arr) for arr in incoming),
    )


def check_arrows(quiver: McKayQuiver, arrows) -> frozenset[Arrow]:
    out = set()
    for arrow in arrows:
        v, t = map(operator.index, arrow)
        if not (0 <= v < quiver.m and 1 <= t <= quiver.n + 1):
            raise NotACutError(f"unknown arrow {arrow!r}")
        out.add((v, t))
    return frozenset(out)


def first_violated_cycle(
    cycles, members
) -> tuple[tuple[Arrow, ...], int] | None:
    """First cycle not met exactly once by ``members``, with its hit count.

    The one walker behind every cut check; ``members`` must already be a
    set of validated arrows.
    """
    for cycle in cycles:
        hits = 0
        for arrow in cycle:
            if arrow in members:
                hits += 1
        if hits != 1:
            return cycle, hits
    return None


def _violation(quiver: McKayQuiver, members: frozenset[Arrow]) -> str | None:
    found = first_violated_cycle(quiver.elementary_cycles(), members)
    if found is None:
        return None
    cycle, hits = found
    path = " -> ".join(str(quiver.vertices[v]) for v, _ in cycle)
    kind = "uncovered" if hits == 0 else f"covered {hits} times"
    return f"elementary cycle {kind}: {path}"


def is_cut(quiver: McKayQuiver, arrows) -> bool:
    """True when every elementary cycle meets the arrow set exactly once."""
    members = check_arrows(quiver, arrows)
    return first_violated_cycle(quiver.elementary_cycles(), members) is None


def first_cut_violation(quiver: McKayQuiver, arrows) -> str | None:
    """Human-readable description of the first violated cycle, if any."""
    return _violation(quiver, check_arrows(quiver, arrows))


@dataclass(frozen=True)
class Cut:
    """An arrow set meeting every elementary cycle exactly once."""

    quiver: McKayQuiver = field(compare=False)
    arrows: frozenset[Arrow] = field(compare=True)

    def sorted_arrows(self) -> tuple[Arrow, ...]:
        return tuple(sorted(self.arrows))

    def __contains__(self, arrow: Arrow) -> bool:
        return arrow in self.arrows


def make_cut(quiver: McKayQuiver, arrows) -> Cut:
    """Validating constructor; raises NotACutError on a bad arrow set."""
    members = check_arrows(quiver, arrows)
    violation = _violation(quiver, members)
    if violation is not None:
        raise NotACutError(violation)
    return Cut(quiver=quiver, arrows=members)


def type_of(cut: Cut) -> Vec:
    """Per-type arrow counts of a cut; the entries sum to m."""
    counts = [0] * (cut.quiver.n + 1)
    for _, t in cut.arrows:
        counts[t - 1] += 1
    return tuple(counts)


@dataclass(frozen=True, eq=False)
class Subquiver:
    """The quiver with a subset of its arrows, e.g. a cut quiver."""

    quiver: McKayQuiver
    arrows: tuple[Arrow, ...]

    def out_map(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.quiver.m)]
        for v, t in self.arrows:
            adj[v].append(self.quiver.target(v, t))
        return adj


def cut_quiver(quiver: McKayQuiver, cut: Cut) -> Subquiver:
    """Same vertices, all arrows not in the cut."""
    keep = tuple(a for a in quiver.arrows() if a not in cut.arrows)
    return Subquiver(quiver=quiver, arrows=keep)


def _has_in_out(sub: Subquiver) -> tuple[list[bool], list[bool]]:
    has_in = [False] * sub.quiver.m
    has_out = [False] * sub.quiver.m
    for v, t in sub.arrows:
        has_out[v] = True
        has_in[sub.quiver.target(v, t)] = True
    return has_in, has_out


def sources(sub: Subquiver) -> tuple[int, ...]:
    has_in, has_out = _has_in_out(sub)
    return tuple(v for v in range(sub.quiver.m) if has_out[v] and not has_in[v])


def sinks(sub: Subquiver) -> tuple[int, ...]:
    has_in, has_out = _has_in_out(sub)
    return tuple(v for v in range(sub.quiver.m) if has_in[v] and not has_out[v])


def is_acyclic(sub: Subquiver) -> bool:
    """Kahn-style check on the underlying multigraph."""
    indegree = [0] * sub.quiver.m
    adj = sub.out_map()
    for v in range(sub.quiver.m):
        for w in adj[v]:
            indegree[w] += 1
    stack = [v for v in range(sub.quiver.m) if indegree[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in adj[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                stack.append(w)
    return seen == sub.quiver.m


def quiver_to_json(quiver: McKayQuiver) -> dict:
    return {
        "n": quiver.n,
        "m": quiver.m,
        "vertices": [list(rep) for rep in quiver.vertices],
        "arrows": [
            {
                "source": list(quiver.vertices[v]),
                "type": t,
                "target": list(quiver.vertices[quiver.target(v, t)]),
            }
            for v, t in quiver.arrows()
        ],
    }


def _vertex_label(rep: Vec) -> str:
    return ",".join(str(c) for c in rep)


def quiver_to_dot(quiver: McKayQuiver, cut: Cut | None = None) -> str:
    """DOT rendering: arrows colored by type, cut arrows dashed."""
    lines = ["digraph mckay {", "  rankdir=LR;"]
    for rep in quiver.vertices:
        lines.append(f'  "{_vertex_label(rep)}";')
    for v, t in quiver.arrows():
        color = DOT_COLORS[(t - 1) % len(DOT_COLORS)]
        attrs = [f'color="{color}"', f'label="{t}"']
        if cut is not None and (v, t) in cut.arrows:
            attrs.append("style=dashed")
        src = _vertex_label(quiver.vertices[v])
        dst = _vertex_label(quiver.vertices[quiver.target(v, t)])
        lines.append(f'  "{src}" -> "{dst}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
