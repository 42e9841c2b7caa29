"""Walkthrough: mutation lattices, their Hasse diagrams, and extremes.

First the positive-type story, where everything is a theorem: the cuts
of a fixed positive type form a finite distributive lattice, covers are
exactly the mutations away from the origin, and the maximum can be
found greedily or built directly from its height function.

Then an open-ended experiment for a nonpositive type, where covers
move whole classes of vertices rather than single ones: the same walk
enumerates the lattice by class moves, and we compare its maximum with
the direct height construction.  No theorem promises
they agree in general; for the instances below they do.  Nothing here
is asserted; the package never relies on this agreement.
"""

from mckaycuts import (
    GroupSpec,
    build_mckay,
    cut_quiver,
    embedding_from_spec,
    enumerate_cut_lattice,
    enumerate_types,
    max_element,
    max_via_p,
    min_element,
    sources,
)

print("POSITIVE TYPES: covers are mutations")
print("=" * 64)
for label, n, gens, cut_type in [
    ("1/2(1,1)", 1, [(2, (1, 1))], (1, 1)),
    ("1/3(1,1,1)", 2, [(3, (1, 1, 1))], (1, 1, 1)),
    ("1/4(1,1,1,1)", 3, [(4, (1, 1, 1, 1))], (1, 1, 1, 1)),
    ("1/6(1,2,3)", 2, [(6, (1, 2, 3))], (1, 2, 3)),
]:
    emb = embedding_from_spec(GroupSpec.make(n, gens))
    quiver = build_mckay(emb)
    lattice = enumerate_cut_lattice(quiver, cut_type)
    print(f"\n{label}, type {cut_type}: {len(lattice.cuts)} cuts")
    print(f"  relative height vectors: {lattice.v_vectors}")
    print(f"  Hasse edges (lower, upper, mutated vertex): {lattice.hasse_edges}")
    maximum = max_element(quiver, cut_type)
    print(f"  greedy max == direct construction: "
          f"{maximum.arrows == max_via_p(quiver, cut_type).arrows}")
    print(f"  unique source of the maximal cut quiver: "
          f"{sources(cut_quiver(quiver, maximum))} (the origin)")
    print(f"  min cut arrows: {min_element(quiver, cut_type).sorted_arrows()}")

print()
print("EXPERIMENT: nonpositive types (covers move classes of vertices)")
print("=" * 64)
for label, n, gens in [
    ("1/4(1,1,2)", 2, [(4, (1, 1, 2))]),
    ("C2 x C2 in SL(3)", 2, [(2, (1, 1, 0)), (2, (1, 0, 1))]),
]:
    emb = embedding_from_spec(GroupSpec.make(n, gens))
    quiver = build_mckay(emb)
    for cut_type in enumerate_types(emb).all_types:
        if all(g > 0 for g in cut_type):
            continue
        lattice = enumerate_cut_lattice(quiver, cut_type)
        if len(lattice.cuts) == 1:
            continue
        direct = max_via_p(quiver, cut_type)
        lattice_max = lattice.cuts[lattice.max_index]
        agree = direct.arrows == lattice_max.arrows
        print(f"\n{label}, nonpositive type {cut_type}: "
              f"{len(lattice.cuts)} cuts (class moves)")
        print(f"  v-vectors: {lattice.v_vectors}")
        print(f"  direct height construction lands on the lattice maximum: "
              f"{agree}")
print()
print("Whether the direct construction is always maximal for nonpositive")
print("types is unknown; the runs above merely report what happens at")
print("desk scale.")
