"""Verification harness: run every structural invariant on one instance.

Each check reports pass, fail, or skipped; checks that need the
exhaustive subset oracle are skipped with a notice when the group order
exceeds the budget.  The harness is what the ``verify`` CLI subcommand
runs, and doubles as a self-test for user-provided cut files.

The mutation-lattice check works on v-vectors: each cut's relative
height must match its vector, each Hasse edge must be a unit step up,
and one pass over all pairs asserts closure under componentwise min/max
and an edge up from each pair's min.  Per type: 2|L| height functions
and O(|L|^2 m) integer operations.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

from .construct import construct_cut
from .groups import GroupSpec
from .heights import cut_from_height, h_gamma, height_from_cut
from .intlat import LatticeEmbedding
from .mutation import (
    brute_force_cuts_of_type,
    enumerate_cut_lattice,
    max_element,
    max_via_p,
    min_element,
    mutable_vertices,
    relative_height_vector,
)
from .quiver import (
    Cut,
    build_mckay,
    cut_quiver,
    first_cut_violation,
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
            # Each edge is a unit step up, hence a cover.  Conversely, for a
            # cover a < b the pair loop below finds an edge from min(a, b) = a
            # to a + e_x with a[x] < b[x]; a + e_x <= b forces it to be b.
            # So the edges are exactly the covers.
            for i, a in enumerate(vecs):
                for b in vecs[i + 1 :]:
                    low = tuple(map(min, a, b))
                    assert low in index and tuple(map(max, a, b)) in index
                    differ = [x for x, (p, q) in enumerate(zip(a, b)) if p != q]
                    assert any((index[low], x) in up for x in differ), (a, b)
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
