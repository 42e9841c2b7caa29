"""Walkthrough: from a group description to its quiver and type simplex.

Three groups tell the whole story.  The cyclic group 1/3(1,1,1) has a
cut of every type including a strictly positive one; the Klein four
group in SL(3) is the classic example whose simplex of types is hollow,
so no higher preprojective cut exists; and the trivial group is hollow
for the boring reason that m = 1 cannot be split into n+1 positive
parts.
"""

from mckaycuts import (
    GroupSpec,
    build_mckay,
    embedding_from_spec,
    enumerate_types,
    has_preprojective_cut,
    quiver_to_dot,
)


def show(title, n, generators):
    print("=" * 64)
    print(title)
    spec = GroupSpec.make(n, generators)
    emb = embedding_from_spec(spec)
    print(f"  sublattice basis (HNF columns): {emb.basis_columns()}")
    print(f"  group order m = {emb.m}")

    quiver = build_mckay(emb)
    print(f"  quiver: {quiver.m} vertices, {(quiver.n + 1) * quiver.m} arrows,"
          f" {sum(1 for _ in quiver.elementary_cycles())} elementary cycles")
    print(f"  vertices (canonical coset representatives): {quiver.vertices}")

    report = enumerate_types(emb)
    print(f"  admissible cut types ({len(report.all_types)}):")
    for t in report.all_types:
        marker = "  <- strictly positive" if all(g > 0 for g in t) else ""
        print(f"    {t}{marker}")
    if report.hollow:
        print("  the simplex is HOLLOW: no higher preprojective cut exists")
    else:
        print(f"  higher preprojective cut exists, e.g. of type "
              f"{has_preprojective_cut(emb)}")
    return emb, quiver


show("cyclic 1/3(1,1,1) in SL(3)", 2, [(3, (1, 1, 1))])

emb, quiver = show(
    "Klein four group C2 x C2 in SL(3)",
    2,
    [(2, (1, 1, 0)), (2, (1, 0, 1))],
)
print("\n  Its six types are the lattice points of the unique exceptional")
print("  hollow triangle: every boundary point is hit, the interior is empty.")

show("trivial group in SL(3)", 2, [])

print("=" * 64)
print("DOT snippet for the 1/3(1,1,1) quiver (render with graphviz):\n")
emb3 = embedding_from_spec(GroupSpec.make(2, [(3, (1, 1, 1))]))
print(quiver_to_dot(build_mckay(emb3)))
