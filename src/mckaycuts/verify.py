"""Verification harness: the structural invariants of one instance, as a table.

``run_verification`` builds the shared inputs once: the quiver, the type
simplex, a constructed cut per type and, when m <= budget, the
exhaustive subset oracle: one pass of ``brute_force_cuts`` over the
arrow sets of size m, which buckets every cut by its type.  One runner
then works through a list of checks.  Each check is a module-level
function named after its report entry; it returns its detail string or
raises, and the runner reports ``pass`` with the detail, ``fail`` with
``Type: message``, or ``skipped`` with the reason.  The checks, in
report order, and when each is left out:

    embedding_canonical_form          always run
    quiver_regularity                 always run
    construct_cut_every_type          always run
    divisibility_conditions_complete  reported ``skipped`` when m > budget
    height_bijection_round_trip       always run
    acyclicity_dichotomy              always run
    central_degrees                   always run
    junior_correspondence             omitted unless the spec has one
                                      generator
    mutation_lattice_<type>           one per positive type; omitted for
                                      nonpositive types
    cut_file                          omitted without a cut (``--cut``)

Only ``divisibility_conditions_complete`` is ever reported ``skipped``.
Over budget the other checks that read the oracle lose part of their
input without notice: the round-trip and acyclicity checks see only
the constructed cuts, and each lattice check drops its "matches subset
oracle" comparison (and that phrase from its detail).  Within budget the
buckets feed every check that reads the oracle: the divisibility check
asserts that each type with a cut is admissible, the round-trip and
acyclicity checks take every cut found, and each lattice check compares
its cuts with its type's bucket, which is empty if the search found no
cut of that type.  The harness is what the ``verify`` CLI subcommand
runs, and doubles as a self-test for user-provided cut files.

The mutation-lattice check works on v-vectors: each cut's relative
height must match its vector and each Hasse edge must be a unit step
up.  The lattice is the walk's sorted ints, each cut's packed vector
above its arrow mask.  The check reads the vectors off them once, and
the cuts off their masks, the masks the ``lattice`` command prints; so
those masks are checked against the heights and, within budget, against
the subset oracle.  Each cut's potential, from one ``_cut_potential``
call, certifies it as a cut of the lattice's type and must differ from
the first cut's by m times the difference of their vectors; so every
vector is feasible.  Each cut's nonzero sources, read off its m arrows
by ``mutable_vertices``, must be Hasse edges up from it and its nonzero
sinks steps down to members, and over all cuts each kind must number
the Hasse edges; so the vectors are the lattice and the edges its
covers.  The origin-source check reads the edges too: only the maximum
may lack an edge up, so one cut quiver is built per type.  Per type:
one potential and one ``mutable_vertices`` call per cut, the first
cut's potential once, one relative height vector (the top's against
the first), and O(|L| m (n+1)) integer operations.
"""

from __future__ import annotations

import operator
from itertools import chain, combinations
from math import comb, factorial

from .construct import construct_cut
from .groups import GroupSpec
from .heights import _cut_potential, cut_from_height, height_from_cut
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
    check_arrows,
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


def brute_force_cuts(quiver: McKayQuiver) -> dict[tuple[int, ...], list[Cut]]:
    """Every cut, by exhaustive search over arrow sets, bucketed by type.

    Each arrow lies on n! of the m * n! elementary cycles, so a cut, which
    meets each cycle once, has exactly m arrows.  The cycles are walked
    once and each of the C((n+1)m, m) sets of m arrows is tested against
    them.  By Vandermonde's identity these are the sets with type counts
    gamma, over every point gamma of the simplex, admissible or not: an
    inadmissible point is a type with no bucket, which is what the
    harness checks.
    """
    cycles = tuple(quiver.elementary_cycles())
    found = {}
    for chosen in combinations(quiver.arrows(), quiver.m):
        arrows = frozenset(chosen)
        if first_violated_cycle(cycles, arrows) is None:
            cut = Cut(quiver=quiver, arrows=arrows)
            found.setdefault(type_of(cut), []).append(cut)
    return found


def _report(checks) -> dict:
    """The report of ``(name, check, *args)`` entries, run in order.

    ``check(*args)`` returns the detail string, or raises to fail; a
    string in place of the check is the reason the entry is skipped.
    """
    entries = []
    for name, check, *args in checks:
        if isinstance(check, str):
            status, detail = "skipped", check
        else:
            try:
                status, detail = "pass", check(*args)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                status, detail = "fail", f"{type(exc).__name__}: {exc}"
        entry = {"name": name, "status": status}
        if detail:
            entry["detail"] = detail
        entries.append(entry)
    failures = [c for c in entries if c["status"] == "fail"]
    return {"checks": entries, "failures": failures, "passed": not failures}


def _embedding_canonical_form(embedding: LatticeEmbedding) -> str:
    n, m, h = embedding.n, embedding.m, embedding.hnf
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


def _quiver_regularity(quiver: McKayQuiver) -> str:
    n, m = quiver.n, quiver.m
    assert len(quiver.vertices) == m
    # ``arrows()`` yields n+1 arrows out of each vertex by construction.
    indeg = [0] * m
    for v, t in quiver.arrows():
        indeg[quiver.target(v, t)] += 1
    assert all(d == n + 1 for d in indeg)
    # ``elementary_cycles`` yields m * n! cycles by construction; each
    # one's closure is asserted in every ``is_cut`` walk of the
    # constructed cuts.
    return f"{(n + 1) * m} arrows, {m * factorial(n)} elementary cycles"


def _construct_cut_every_type(quiver: McKayQuiver, constructed) -> str:
    for cut_type, cut in constructed.items():
        assert is_cut(quiver, cut.arrows), cut_type
        assert type_of(cut) == cut_type
    return f"constructed a cut for each of {len(constructed)} types"


def _divisibility_conditions_complete(
    embedding: LatticeEmbedding, types, oracle
) -> str:
    for cut_type in oracle:
        assert is_admissible_type(embedding, cut_type), cut_type
    # The simplex has C(m+n, n) points; all but the admissible types are refused.
    refused = comb(embedding.m + embedding.n, embedding.n) - len(types)
    return f"{refused} inadmissible simplex points have no cut"


def _height_bijection_round_trip(quiver: McKayQuiver, samples) -> str:
    # ``cut_from_height`` reads the type off the L1 values by an injective
    # triangular solve, so the round trip also checks them.
    for cut in samples:
        height = height_from_cut(quiver, cut)
        assert cut_from_height(quiver, height).arrows == cut.arrows
    return f"{len(samples)} cuts round-trip with matching L1 values"


def _acyclicity_dichotomy(quiver: McKayQuiver, samples) -> str:
    for cut in samples:
        positive = all(g > 0 for g in type_of(cut))
        assert is_acyclic(cut_quiver(quiver, cut)) == positive
    return f"acyclic iff positive on {len(samples)} cuts"


def _central_degrees(embedding: LatticeEmbedding, all_types) -> str:
    n, m = embedding.n, embedding.m
    ones = tuple(1 for _ in range(n + 1))
    for cut_type in all_types:
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


def _junior_correspondence(
    spec: GroupSpec, embedding: LatticeEmbedding, all_types
) -> str:
    juniors = set(juniors_cyclic(spec))
    non_vertex = set(all_types) - set(trivial_types(embedding))
    assert juniors == non_vertex, (juniors, non_vertex)
    return f"{len(juniors)} junior elements match the non-vertex types"


def _mutation_lattice(quiver: McKayQuiver, cut_type, oracle_cuts) -> str:
    """The lattice of one positive type; ``oracle_cuts`` is None over budget."""
    lattice = enumerate_cut_lattice(quiver, cut_type)
    # Each access to ``v_vectors`` unpacks a vector, and each access to
    # ``hasse_edges`` reads every edge off the ints, so read them once.
    cuts, vecs, edges = lattice.cuts, tuple(lattice.v_vectors), lattice.hasse_edges
    details = [f"{len(cuts)} cuts"]
    if oracle_cuts is not None:
        assert {c.arrows for c in cuts} == {c.arrows for c in oracle_cuts}
        details.append("matches subset oracle")
    # Each access to ``cuts`` builds a cut, so read these two once.
    first, top = cuts[0], cuts[lattice.max_index]
    assert relative_height_vector(top, first) == tuple(
        map(operator.sub, vecs[lattice.max_index], vecs[0])
    )
    index = {vec: i for i, vec in enumerate(vecs)}
    up = {}  # (lower index, vertex) -> upper index
    for lo, hi, x in edges:
        assert (lo, x) not in up, (lo, hi, x)
        a = vecs[lo]
        assert vecs[hi] == (*a[:x], a[x] + 1, *a[x + 1 :]), (lo, hi, x)
        up[lo, x] = hi
    # ``_cut_potential`` refuses any arrow set that is not a cut, and
    # potentials of one type differ by m times their relative heights,
    # so each vector is feasible.  The feasible set F is closed under
    # componentwise min and max, and for a positive type every cover in
    # F is a unit step (proof sketch in enumerate_cut_lattice); so a set
    # of feasible vectors holding every feasible a +- e_x of its members
    # is all of F.  A positive type has no loops, and a nonzero source
    # (sink) x of cut a is exactly a feasible a + e_x (a - e_x).  Each
    # source is an edge up, and the counts make every edge one, so the
    # edges are the covers.
    m, base = quiver.m, _cut_potential(quiver, first)[1]
    rises = falls = 0
    for i, (cut, a) in enumerate(zip(cuts, vecs)):
        found, potential = _cut_potential(quiver, cut)
        assert found == cut_type, (a, found)
        assert list(map(operator.sub, potential, base)) == [
            m * (x - y) for x, y in zip(a, vecs[0])
        ], a
        rise, fall = mutable_vertices(quiver, cut)
        for x in filter(None, rise):
            assert (i, x) in up, (a, x)
            rises += 1
        for x in filter(None, fall):
            assert (*a[:x], a[x] - 1, *a[x + 1 :]) in index, (a, x)
            falls += 1
    assert rises == falls == len(edges), (rises, falls)
    # The extremes are the first and last cut only if the vectors are
    # sorted; strictly, so they are distinct.
    assert all(map(operator.lt, vecs, vecs[1:]))
    assert max_element(quiver, cut_type) == top
    assert max_via_p(quiver, cut_type) == top
    assert min_element(quiver, cut_type) == cuts[lattice.min_index]
    # Every cut quiver is acyclic, so it has a source: the cuts whose
    # only source is the origin are exactly those with no edge up, and
    # only the maximum may be one.
    assert {lo for lo, _ in up} == set(range(len(cuts))) - {lattice.max_index}
    assert sources(cut_quiver(quiver, top)) == (0,)
    details.append("covers = mutations, closed, extremes agree")
    return "; ".join(details)


def _cut_file(quiver: McKayQuiver, cut_arrows) -> str:
    arrows = check_arrows(quiver, cut_arrows)
    violation = first_cut_violation(quiver, arrows)
    assert violation is None, violation
    cut = Cut(quiver=quiver, arrows=arrows)
    height = height_from_cut(quiver, cut)
    assert cut_from_height(quiver, height).arrows == cut.arrows
    nonzero = [
        v for part in mutable_vertices(quiver, cut) for v in part if v != 0
    ]
    return (
        f"valid cut of type {type_of(cut)}; "
        f"{len(nonzero)} nonzero mutable vertices"
    )


def run_verification(
    embedding: LatticeEmbedding,
    spec: GroupSpec | None = None,
    budget: int = 6,
    cut_arrows=None,
) -> dict:
    m = embedding.m
    quiver = build_mckay(embedding)
    simplex = enumerate_types(embedding)
    types = simplex.all_types
    constructed = {t: construct_cut(quiver, t) for t in types}
    # Every cut by exhaustive search, bucketed by type; none over budget.
    oracle = brute_force_cuts(quiver) if m <= budget else {}
    every_cut = chain(constructed.values(), *oracle.values())
    samples = list({cut.arrows: cut for cut in every_cut}.values())

    divisibility = "divisibility_conditions_complete"
    checks = [
        ("embedding_canonical_form", _embedding_canonical_form, embedding),
        ("quiver_regularity", _quiver_regularity, quiver),
        ("construct_cut_every_type", _construct_cut_every_type, quiver, constructed),
        (divisibility, _divisibility_conditions_complete, embedding, types, oracle)
        if m <= budget
        else (divisibility, f"oracle skipped (budget {budget} < m = {m})"),
        ("height_bijection_round_trip", _height_bijection_round_trip, quiver, samples),
        ("acyclicity_dichotomy", _acyclicity_dichotomy, quiver, samples),
        ("central_degrees", _central_degrees, embedding, types),
    ]
    if spec is not None and len(spec.generators) == 1:
        checks.append(
            ("junior_correspondence", _junior_correspondence, spec, embedding, types)
        )
    for cut_type in simplex.positive_types:
        name = "mutation_lattice_" + "_".join(str(g) for g in cut_type)
        # Within budget a type with no bucket has no cut; None skips the
        # comparison over budget.
        oracle_cuts = oracle.get(cut_type, [] if m <= budget else None)
        checks.append((name, _mutation_lattice, quiver, cut_type, oracle_cuts))
    if cut_arrows is not None:
        checks.append(("cut_file", _cut_file, quiver, cut_arrows))
    return _report(checks)
