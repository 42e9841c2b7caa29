"""Independent brute-force oracles used to derive expected test values.

Nothing here calls the package's cut or height machinery: lattice
membership is decided by exact rational solving, coset tables are built
by pairwise difference checks, cut enumeration is an exhaustive
exact-cover search over the one-arrow-per-cycle constraints, walking
the quiver's target table directly, and heights come from a walk over
the lattice points of a box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product


def frac_solve(columns, target):
    """Solve ``sum_i x_i * columns[i] == target`` over Q, or None."""
    n = len(target)
    k = len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
            for i in range(n)]
    pivot_cols = []
    r = 0
    for c in range(k):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    solution = [Fraction(0)] * k
    for i, c in enumerate(pivot_cols):
        solution[c] = rows[i][k]
    return solution


def rank(columns) -> int:
    n = len(columns[0])
    sol = frac_solve(columns, (0,) * n)
    assert sol is not None
    rows = [[Fraction(col[i]) for col in columns] for i in range(n)]
    r = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, n):
            if rows[i][c] != 0:
                factor = rows[i][c] / rows[r][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def in_lattice(columns, vector, radius: int = 12) -> bool:
    """Whether a vector is an integer combination of the columns.

    Independent columns give a unique rational solution, which is exact;
    dependent generating sets fall back to an exhaustive coefficient
    search in ``[-radius, radius]`` (only used for tiny fixed cases).
    """
    sol = frac_solve(columns, vector)
    if sol is None:
        return False
    if rank(columns) == len(columns):
        return all(x.denominator == 1 for x in sol)
    if all(x.denominator == 1 for x in sol):
        return True
    n = len(vector)
    for coeffs in product(range(-radius, radius + 1), repeat=len(columns)):
        if all(
            sum(c * col[i] for c, col in zip(coeffs, columns)) == vector[i]
            for i in range(n)
        ):
            return True
    return False


def same_lattice(columns_a, columns_b) -> bool:
    return all(in_lattice(columns_a, v) for v in columns_b) and all(
        in_lattice(columns_b, v) for v in columns_a
    )


def coset_reps_by_table(basis_rows, box: int):
    """Map every point of ``[-box, box]^n`` to a canonical orbit member.

    Canonical means lexicographically smallest among the nonnegative
    orbit members found in the box; the box must be large enough to
    contain one such member per orbit probed.
    """
    n = len(basis_rows)
    columns = list(zip(*basis_rows))
    points = list(product(range(-box, box + 1), repeat=n))
    table = {}
    nonneg = [p for p in points if all(c >= 0 for c in p)]
    for point in points:
        mates = [
            q
            for q in nonneg
            if in_lattice(columns, tuple(a - b for a, b in zip(point, q)))
        ]
        assert mates, "box too small for a canonical representative"
        table[point] = min(mates)
    return table


def quiver_cycle_constraints(quiver):
    """Elementary-cycle arrow sets, walked straight off the target table."""
    n, m = quiver.n, quiver.m
    cycles = []
    for start in range(m):
        for rest in permutations(range(2, n + 2)):
            cycle = []
            v = start
            for t in (1, *rest):
                cycle.append((v, t))
                v = quiver.targets[v][t - 1]
            assert v == start
            cycles.append(tuple(cycle))
    return cycles


def subset_is_cut(cycles, arrows) -> bool:
    members = frozenset(arrows)
    return all(sum(a in members for a in cycle) == 1 for cycle in cycles)


def cuts_by_combinations(quiver):
    """All cuts by checking every arrow subset of size m. Small m only."""
    cycles = quiver_cycle_constraints(quiver)
    all_arrows = [(v, t) for v in range(quiver.m) for t in range(1, quiver.n + 2)]
    return [
        frozenset(subset)
        for subset in combinations(all_arrows, quiver.m)
        if subset_is_cut(cycles, subset)
    ]


def all_cuts_exhaustive(quiver, cut_type=None):
    """All cuts (optionally of one type) by exact-cover backtracking.

    Branches on which arrow of an unsatisfied cycle is the cut arrow and
    propagates the exactly-one constraint, so it explores every cut
    while staying fast enough for the no-cut direction too.
    """
    n, m = quiver.n, quiver.m
    arrows = [(v, t) for v in range(m) for t in range(1, n + 2)]
    arrow_id = {a: i for i, a in enumerate(arrows)}
    cycles = [
        tuple(arrow_id[a] for a in cycle)
        for cycle in quiver_cycle_constraints(quiver)
    ]
    in_cycles = [[] for _ in arrows]
    for ci, cycle in enumerate(cycles):
        for ai in cycle:
            in_cycles[ai].append(ci)

    UNKNOWN, IN, OUT = 0, 1, 2
    status = [UNKNOWN] * len(arrows)
    chosen = [0] * len(cycles)
    open_slots = [len(c) for c in cycles]
    type_count = [0] * (n + 1)
    results = []

    def set_in(ai, trail):
        status[ai] = IN
        trail.append((ai, IN))
        type_count[arrows[ai][1] - 1] += 1
        ok = True
        if cut_type is not None:
            if type_count[arrows[ai][1] - 1] > cut_type[arrows[ai][1] - 1]:
                ok = False
        for ci in in_cycles[ai]:
            chosen[ci] += 1
            open_slots[ci] -= 1
            if chosen[ci] > 1:
                ok = False
        return ok

    def set_out(ai, trail):
        status[ai] = OUT
        trail.append((ai, OUT))
        ok = True
        for ci in in_cycles[ai]:
            open_slots[ci] -= 1
            if chosen[ci] == 0 and open_slots[ci] == 0:
                ok = False
        return ok

    def undo(trail):
        for ai, val in reversed(trail):
            status[ai] = UNKNOWN
            if val == IN:
                type_count[arrows[ai][1] - 1] -= 1
                for ci in in_cycles[ai]:
                    chosen[ci] -= 1
                    open_slots[ci] += 1
            else:
                for ci in in_cycles[ai]:
                    open_slots[ci] += 1

    def propagate(first, trail) -> bool:
        pending = [first]
        while pending:
            ai = pending.pop()
            if status[ai] == IN:
                continue
            if status[ai] == OUT:
                return False
            if not set_in(ai, trail):
                return False
            for ci in in_cycles[ai]:
                for aj in cycles[ci]:
                    if status[aj] != UNKNOWN:
                        continue
                    if not set_out(aj, trail):
                        return False
                    for cj in in_cycles[aj]:
                        if chosen[cj] == 0 and open_slots[cj] == 1:
                            pending.append(
                                next(a for a in cycles[cj] if status[a] == UNKNOWN)
                            )
        return True

    def search():
        best = None
        for ci in range(len(cycles)):
            if chosen[ci] == 0:
                if best is None or open_slots[ci] < open_slots[best]:
                    best = ci
        if best is None:
            results.append(
                frozenset(arrows[ai] for ai in range(len(arrows)) if status[ai] == IN)
            )
            return
        for ai in [a for a in cycles[best] if status[a] == UNKNOWN]:
            trail = []
            if propagate(ai, trail):
                search()
            undo(trail)

    search()
    if cut_type is not None:
        results = [
            cut
            for cut in results
            if tuple(
                sum(t == k for _, t in cut) for k in range(1, n + 2)
            ) == tuple(cut_type)
        ]
    return results


def box_vertices(columns, vertices, box):
    """Map every point of ``product(*box)`` to the index of its vertex.

    The vertex of x is the representative r with x - r in the lattice
    spanned by ``columns``, decided by :func:`in_lattice`.
    """
    return {
        x: next(
            v
            for v, rep in enumerate(vertices)
            if in_lattice(columns, tuple(a - b for a, b in zip(x, rep)))
        )
        for x in product(*box)
    }


def walk_heights(points, n, cut):
    """Heights on the points of a box, by a walk from the origin.

    ``points`` maps each point to its vertex (see :func:`box_vertices`)
    and must hold the origin.  The walk crosses the arrows x -> x +
    alpha_t with both ends in the box, either way: the height rises by
    +1 along an uncut arrow and by -n along a cut one.  Returns None
    when two walks to one point disagree.
    """
    steps = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    steps.append((-1,) * n)
    origin = (0,) * n
    heights = {origin: 0}
    pending = [origin]
    while pending:
        x = pending.pop()
        for t, step in enumerate(steps, start=1):
            ahead = tuple(a + b for a, b in zip(x, step))
            behind = tuple(a - b for a, b in zip(x, step))
            for y, sign, tail in ((ahead, 1, x), (behind, -1, behind)):
                if y not in points:
                    continue
                rise = -n if (points[tail], t) in cut else 1
                value = heights[x] + sign * rise
                if y not in heights:
                    heights[y] = value
                    pending.append(y)
                elif heights[y] != value:
                    return None
    return heights


def random_unimodular(n, rng, steps=8):
    """A random element of SL_n(Z) as a product of shear matrices."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for r in range(n):
            mat[r][j] += c * mat[r][i]
    return tuple(tuple(row) for row in mat)


def matrix_product(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def walk_lattice_by_slacks(quiver, cut_type, seed_arrows):
    """The v-vectors and Hasse edges of one type's cuts, by a tuple walk.

    This is the walk that enumerated cut lattices before the package
    moved to bit masks, kept as a reference.  Along each arrow u -> w a
    cut's v-vector keeps ``v[w] - v[u] - low`` in {0, 1}, low being 0 if
    the seed cut ``seed_arrows`` holds the arrow and -1 if not.  A class
    is a component of the arrows whose type has count 0.  From the
    seed's vector, zero, a class moves by one whenever every difference
    between it and the other classes has the same slack: up when that
    slack is 1, down when it is 0.  Returns the sorted vectors and the
    sorted edges (lower index, upper index, first vertex of the class).
    """
    m = quiver.m
    arrows = [
        (u, t, quiver.targets[u][t - 1], 0 if (u, t) in seed_arrows else -1)
        for u in range(m)
        for t in quiver.types
    ]
    edges = [[] for _ in range(m)]
    for u, _, w, low in arrows:
        edges[u].append((w, low))
        edges[w].append((u, -1 - low))
    zero = [t for t, g in zip(quiver.types, cut_type) if not g]
    label = [-1] * m
    classes = []
    for start in range(m):
        if label[start] < 0:
            label[start] = start
            group = [start]
            for v in group:
                for w in (quiver.targets[v][t - 1] for t in zero):
                    if label[w] < 0:
                        label[w] = start
                        group.append(w)
            leaving = [
                (x, y, low)
                for x in group
                for y, low in edges[x]
                if label[y] != start
            ]
            if start:
                classes.append((group, leaving))
    start = (0,) * m
    seen = {start}
    stack = [start]
    rises = []
    while stack:
        v = stack.pop()
        for k, (members, leaving) in enumerate(classes):
            x, y, low = leaving[0]
            slack = v[y] - v[x] - low
            if all(v[y] - v[x] - low == slack for x, y, low in leaving):
                moved = list(v)
                for u in members:
                    moved[u] += 2 * slack - 1
                moved = tuple(moved)
                if slack:
                    rises.append((v, k))
                if moved not in seen:
                    seen.add(moved)
                    stack.append(moved)
    vectors = sorted(seen)
    order = {v: i for i, v in enumerate(vectors)}
    hasse = []
    for lower, k in rises:
        members = classes[k][0]
        upper = list(lower)
        for u in members:
            upper[u] += 1
        hasse.append((order[lower], order[tuple(upper)], members[0]))
    return tuple(vectors), tuple(sorted(hasse))
