"""Cut combinatorics for McKay quivers of finite abelian SL(n+1) subgroups.

The package starts from a diagonal abelian subgroup (or directly from a
cofinite sublattice of Z^n), builds the McKay quiver as a Cayley graph,
classifies the admissible cut types, constructs a cut of every type,
converts between cuts and equivariant height functions, and enumerates
the finite distributive lattice of cuts of any fixed type by moves on
height vectors (mutations, for a positive type), including the
extremal elements of a positive type.
"""

from .construct import (
    construct_cut,
    cut_from_json,
    cut_to_json,
    degree_zero_presentation,
    xi_gamma,
)
from .errors import (
    InadmissibleTypeError,
    NonFaithfulSpecError,
    NotACutError,
    SearchBoundExceededError,
    SingularMatrixError,
    UnsupportedLatticeError,
)
from .groups import GroupSpec, embedding_from_spec, group_order, parse_input
from .heights import (
    HeightFunction,
    cut_from_height,
    h_gamma,
    height_from_cut,
    types_equal_iff_h_equal,
)
from .intlat import LatticeEmbedding, Matrix, Vec, det, hnf, snf
from .mutation import (
    MutationLattice,
    enumerate_cut_lattice,
    join,
    max_element,
    max_via_p,
    meet,
    min_element,
    mutable_vertices,
    mutate_sink,
    mutate_source,
    relative_height_vector,
)
from .quiver import (
    Cut,
    McKayQuiver,
    Subquiver,
    build_mckay,
    cut_quiver,
    is_acyclic,
    is_cut,
    make_cut,
    quiver_to_dot,
    quiver_to_json,
    sinks,
    sources,
    type_of,
)
from .typesimplex import (
    TypeSimplexReport,
    enumerate_types,
    has_preprojective_cut,
    is_admissible_type,
    juniors_cyclic,
    monomial_degree,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "Cut",
    "GroupSpec",
    "HeightFunction",
    "InadmissibleTypeError",
    "LatticeEmbedding",
    "Matrix",
    "McKayQuiver",
    "MutationLattice",
    "NonFaithfulSpecError",
    "NotACutError",
    "SearchBoundExceededError",
    "SingularMatrixError",
    "Subquiver",
    "TypeSimplexReport",
    "UnsupportedLatticeError",
    "Vec",
    "build_mckay",
    "construct_cut",
    "cut_from_height",
    "cut_from_json",
    "cut_quiver",
    "cut_to_json",
    "degree_zero_presentation",
    "det",
    "embedding_from_spec",
    "enumerate_cut_lattice",
    "enumerate_types",
    "group_order",
    "h_gamma",
    "has_preprojective_cut",
    "height_from_cut",
    "hnf",
    "is_acyclic",
    "is_admissible_type",
    "is_cut",
    "join",
    "juniors_cyclic",
    "make_cut",
    "max_element",
    "max_via_p",
    "meet",
    "min_element",
    "monomial_degree",
    "mutable_vertices",
    "mutate_sink",
    "mutate_source",
    "parse_input",
    "quiver_to_dot",
    "quiver_to_json",
    "relative_height_vector",
    "run_verification",
    "sinks",
    "snf",
    "sources",
    "type_of",
    "types_equal_iff_h_equal",
    "xi_gamma",
]
