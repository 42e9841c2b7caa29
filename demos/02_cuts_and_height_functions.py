"""Walkthrough: constructing cuts and reading them off height functions.

Uses 1/6(1,2,3), a cyclic group rich enough to have trivial, positive,
and gcd-degenerate types.  For each admissible type we build the cut
where <x, type'> mod m wraps, convert it to its height function and
back, and inspect the degree-zero quiver the cut leaves behind.
"""

from math import gcd

from mckaycuts import (
    GroupSpec,
    build_mckay,
    construct_cut,
    cut_from_height,
    degree_zero_presentation,
    embedding_from_spec,
    enumerate_types,
    height_from_cut,
    is_acyclic,
    juniors_cyclic,
    sinks,
    sources,
    type_of,
)

spec = GroupSpec.make(2, [(6, (1, 2, 3))])
emb = embedding_from_spec(spec)
quiver = build_mckay(emb)

print(f"group 1/6(1,2,3): m = {emb.m}, HNF basis columns {emb.basis_columns()}")
print(f"junior elements: {juniors_cyclic(spec)}")
print("(these are exactly the non-vertex points of the type simplex)\n")

for cut_type in enumerate_types(emb).all_types:
    cut = construct_cut(quiver, cut_type)
    height = height_from_cut(quiver, cut)
    assert cut_from_height(quiver, height).arrows == cut.arrows
    sub, relations = degree_zero_presentation(quiver, cut)
    print(f"type {cut_type}  (gcd {gcd(*cut_type)})")
    print(f"  cut arrows: {cut.sorted_arrows()}")
    print(f"  height on representatives: "
          f"{list(height.values)}")
    print(f"  homomorphism on L1 basis: {height.l1_values}")
    if is_acyclic(sub):
        print(f"  degree-zero quiver is ACYCLIC: sources {sources(sub)},"
              f" sinks {sinks(sub)}, {len(relations)} surviving relations")
    else:
        print(f"  degree-zero quiver has cycles "
              f"(type {type_of(cut)} is not positive)")
    print()

print("The positive type gives the grading of a higher preprojective")
print("algebra: its degree-zero part is presented by the acyclic quiver")
print("plus the surviving commutativity squares printed above.")
