"""Verification harness: run every structural invariant on one instance.

Each check reports pass, fail, or skipped; checks that need the
exhaustive subset oracle are skipped with a notice when the group order
exceeds the budget.  The harness is what the ``verify`` CLI subcommand
runs, and doubles as a self-test for user-provided cut files.

The exhaustive subset search, ``brute_force_cuts_of_type``, lives here:
the oracle and the divisibility check are its only callers.

The mutation-lattice check works on v-vectors: each cut's relative
height must match its vector and each Hasse edge must be a unit step
up.  Difference constraints built from the first cut's arrow set, not
from the walk that produced the lattice, must hold for every vector;
every feasible unit step a +- e_x of a member must be a member, and
every feasible a + e_x a Hasse edge.  Per type: 2|L| height functions
and O(|L| m (n+1)) integer operations.
"""

from __future__ import annotations

import operator
from itertools import combinations, combinations_with_replacement, product
from math import factorial

from .construct import construct_cut
from .groups import GroupSpec
from .heights import cut_from_height, h_gamma, height_from_cut
from .intlat import LatticeEmbedding
from .mutation import (
    enumerate_cut_lattice,
    max_element,
    max_via_p,
    min_element,
    mutable_vertices,
    relative_height_vector,
)
from .quiver import (
    Cut,
    McKayQuiver,
    build_mckay,
    cut_quiver,
    first_cut_violation,
    first_violated_cycle,
    is_acyclic,
    is_cut,
    sources,
    type_of,
)
from .typesimplex import (
    enumerate_types,
    is_admissible_type,
    juniors_cyclic,
    monomial_degree,
    trivial_types,
)


def _simplex_points(n: int, m: int):
    """All nonnegative (n+1)-vectors summing to m."""
    for bars in combinations_with_replacement(range(m + 1), n):
        cuts = (0, *bars, m)
        yield tuple(cuts[i + 1] - cuts[i] for i in range(n + 1))


def brute_force_cuts_of_type(quiver: McKayQuiver, cut_type) -> list[Cut]:
    """Exhaustive search over arrow subsets with the given type counts.

    Works for any nonnegative counts summing to m, admissible or not;
    for inadmissible counts the result is provably empty, which is what
    the harness checks.  The elementary cycles are walked once per call
    and every candidate subset is tested against them.
    """
    cut_type = tuple(map(operator.index, cut_type))
    by_type = [
        [(v, t) for v in range(quiver.m)] for t in quiver.types
    ]
    pools = [
        list(combinations(by_type[t - 1], cut_type[t - 1])) for t in quiver.types
    ]
    cycles = tuple(quiver.elementary_cycles())
    found = []
    for chosen in product(*pools):
        arrows = frozenset(a for group in chosen for a in group)
        if first_violated_cycle(cycles, arrows) is None:
            found.append(Cut(quiver=quiver, arrows=arrows))
    return found


class _Report:
    def __init__(self):
        self.checks = []

    def add(self, name: str, status: str, detail: str = ""):
        entry = {"name": name, "status": status}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)

    def run(self, name: str, fn):
        try:
            detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            self.add(name, "fail", f"{type(exc).__name__}: {exc}")
        else:
            self.add(name, "pass", detail or "")

    def to_json(self) -> dict:
        failures = [c for c in self.checks if c["status"] == "fail"]
        return {
            "checks": self.checks,
            "failures": failures,
            "passed": not failures,
        }


def run_verification(
    embedding: LatticeEmbedding,
    spec: GroupSpec | None = None,
    budget: int = 6,
    cut_arrows=None,
) -> dict:
    report = _Report()
    n, m = embedding.n, embedding.m
    quiver = build_mckay(embedding)
    oracle_ok = m <= budget

    def check_embedding():
        h = embedding.hnf
        for i in range(n):
            assert h[i][i] > 0, "diagonal must be positive"
            for j in range(n):
                if j < i:
                    assert h[i][j] == 0, "must be upper triangular"
                elif j > i:
                    assert 0 <= h[i][j] < h[i][i], "entries must be reduced"
        domain = embedding.fundamental_domain()
        assert len(domain) == m and len(set(domain)) == m
        assert all(embedding.reduce(rep) == rep for rep in domain)
        return f"canonical HNF with index m = {m}"

    report.run("embedding_canonical_form", check_embedding)

    def check_quiver():
        assert len(quiver.vertices) == m
        outdeg = [0] * m
        indeg = [0] * m
        for v, t in quiver.arrows():
            outdeg[v] += 1
            indeg[quiver.target(v, t)] += 1
        assert all(d == n + 1 for d in outdeg)
        assert all(d == n + 1 for d in indeg)
        assert sum(1 for _ in quiver.elementary_cycles()) == m * factorial(n)
        return f"{(n + 1) * m} arrows, {m * factorial(n)} elementary cycles"

    report.run("quiver_regularity", check_quiver)

    simplex = enumerate_types(embedding)

    def check_constructions():
        for cut_type in simplex.all_types:
            cut = construct_cut(quiver, cut_type)
            assert is_cut(quiver, cut.arrows), cut_type
            assert type_of(cut) == cut_type
        return f"constructed a cut for each of {len(simplex.all_types)} types"

    report.run("construct_cut_every_type", check_constructions)

    if oracle_ok:

        def check_divisibility_complete():
            refused = 0
            for point in _simplex_points(n, m):
                if is_admissible_type(embedding, point):
                    continue
                assert not brute_force_cuts_of_type(quiver, point), point
                refused += 1
            return f"{refused} inadmissible simplex points have no cut"

        report.run("divisibility_conditions_complete", check_divisibility_complete)
    else:
        report.add(
            "divisibility_conditions_complete",
            "skipped",
            f"oracle skipped (budget {budget} < m = {m})",
        )

    oracle = {}  # exhaustive subset search, run once per type
    if oracle_ok:
        oracle = {t: brute_force_cuts_of_type(quiver, t) for t in simplex.all_types}
    samples = {}
    for cut_type in simplex.all_types:
        for cut in (construct_cut(quiver, cut_type), *oracle.get(cut_type, ())):
            samples.setdefault(cut.arrows, cut)
    sample_cuts = list(samples.values())

    def check_round_trips():
        for cut in sample_cuts:
            height = height_from_cut(quiver, cut)
            assert cut_from_height(quiver, height).arrows == cut.arrows
            cut_type = type_of(cut)
            expected = tuple(
                h_gamma(embedding, col, cut_type)
                for col in embedding.basis_columns()
            )
            assert height.l1_values == expected
        return f"{len(sample_cuts)} cuts round-trip with matching L1 values"

    report.run("height_bijection_round_trip", check_round_trips)

    def check_acyclicity():
        for cut in sample_cuts:
            positive = all(g > 0 for g in type_of(cut))
            assert is_acyclic(cut_quiver(quiver, cut)) == positive
        return f"acyclic iff positive on {len(sample_cuts)} cuts"

    report.run("acyclicity_dichotomy", check_acyclicity)

    def check_degrees():
        ones = tuple(1 for _ in range(n + 1))
        for cut_type in simplex.all_types:
            assert monomial_degree(embedding, ones, cut_type) == 1
            recovered = tuple(
                monomial_degree(
                    embedding,
                    tuple(m if j == i else 0 for j in range(n + 1)),
                    cut_type,
                )
                for i in range(n + 1)
            )
            assert recovered == cut_type
        return "product of variables has degree 1; pure powers recover each type"

    report.run("central_degrees", check_degrees)

    if spec is not None and len(spec.generators) == 1:

        def check_juniors():
            juniors = set(juniors_cyclic(spec))
            non_vertex = set(simplex.all_types) - set(trivial_types(embedding))
            assert juniors == non_vertex, (juniors, non_vertex)
            return f"{len(juniors)} junior elements match the non-vertex types"

        report.run("junior_correspondence", check_juniors)

    for cut_type in simplex.positive_types:
        name = "mutation_lattice_" + "_".join(str(g) for g in cut_type)

        def check_lattice(cut_type=cut_type):
            lattice = enumerate_cut_lattice(quiver, cut_type)
            cuts, vecs = lattice.cuts, lattice.v_vectors
            details = [f"{len(cuts)} cuts"]
            if oracle_ok:
                assert {c.arrows for c in cuts} == {c.arrows for c in oracle[cut_type]}
                details.append("matches subset oracle")
            for cut, vec in zip(cuts, vecs):
                offset = tuple(v - v0 for v, v0 in zip(vec, vecs[0]))
                assert relative_height_vector(cut, cuts[0]) == offset
            index = {vec: i for i, vec in enumerate(vecs)}
            assert len(index) == len(vecs)
            up = {}  # (lower index, vertex) -> upper index
            for lo, hi, x in lattice.hasse_edges:
                assert (lo, x) not in up, (lo, hi, x)
                a = vecs[lo]
                assert vecs[hi] == (*a[:x], a[x] + 1, *a[x + 1 :]), (lo, hi, x)
                up[lo, x] = hi
            # Built from cuts[0] alone: a vector a belongs to a cut of this
            # type iff a[0] = base[0] and every non-loop arrow u -> w keeps
            # (a[w] - a[u]) - (base[w] - base[u]) in {0, 1} if cuts[0] cuts
            # it and in {-1, 0} if not, so that every step stays +1 or -n.
            # near[x] lists these as c <= a[x] - a[y] <= c + 1.  The feasible
            # set F is closed under componentwise min and max, and for a
            # positive type every cover in F is a unit step a -> a + e_x
            # (proof sketch in enumerate_cut_lattice).  So any two points of
            # F are joined by unit steps through their min, and a set of
            # feasible vectors holding every feasible a +- e_x of its members
            # is all of F.  Each edge is a unit step, hence a cover, and each
            # feasible a + e_x is an edge, so the edges are the covers.
            assert type_of(cuts[0]) == cut_type
            base = vecs[0]
            near = [[] for _ in range(quiver.m)]
            for u, t in quiver.arrows():
                w = quiver.target(u, t)
                if u != w:
                    low = 0 if (u, t) in cuts[0].arrows else -1
                    c = low + base[w] - base[u]
                    near[w].append((u, c))
                    near[u].append((w, -c - 1))
            for i, a in enumerate(vecs):
                assert a[0] == base[0], a
                for x in range(1, quiver.m):
                    slack = {a[x] - a[y] - c for y, c in near[x]}
                    assert slack <= {0, 1}, (a, x)
                    if slack == {0}:
                        assert (i, x) in up, (a, x)
                    elif slack == {1}:
                        assert (*a[:x], a[x] - 1, *a[x + 1 :]) in index, (a, x)
            maximum = max_element(quiver, cut_type)
            assert maximum.arrows == cuts[lattice.max_index].arrows
            assert maximum.arrows == max_via_p(quiver, cut_type).arrows
            minimum = min_element(quiver, cut_type)
            assert minimum.arrows == cuts[lattice.min_index].arrows
            origin_sourced = [c for c in cuts if sources(cut_quiver(quiver, c)) == (0,)]
            assert len(origin_sourced) == 1
            assert origin_sourced[0].arrows == maximum.arrows
            details.append("covers = mutations, closed, extremes agree")
            return "; ".join(details)

        report.run(name, check_lattice)

    if cut_arrows is not None:

        def check_cut_file():
            violation = first_cut_violation(quiver, cut_arrows)
            assert violation is None, violation
            cut = Cut(quiver=quiver, arrows=frozenset(cut_arrows))
            height = height_from_cut(quiver, cut)
            assert cut_from_height(quiver, height).arrows == cut.arrows
            nonzero = [
                v
                for part in mutable_vertices(quiver, cut)
                for v in part
                if v != 0
            ]
            return (
                f"valid cut of type {type_of(cut)}; "
                f"{len(nonzero)} nonzero mutable vertices"
            )

        report.run("cut_file", check_cut_file)

    return report.to_json()
