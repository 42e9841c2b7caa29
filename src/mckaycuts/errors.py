"""Exception types shared across the package."""


class SingularMatrixError(ValueError):
    """A matrix that was required to be nonsingular is singular."""


class NonFaithfulSpecError(ValueError):
    """Generator data whose stated order disagrees with the lattice index."""


class NotACutError(ValueError):
    """An arrow set that fails the one-arrow-per-elementary-cycle condition."""


class InadmissibleTypeError(ValueError):
    """A type vector that fails the divisibility characterisation."""


class UnsupportedLatticeError(ValueError):
    """A lattice or extremal-element request outside the supported range.

    Nothing raises it any more: every admissible type has a lattice and
    both extremes.  The name stays exported for callers that catch it.
    """


class SearchBoundExceededError(RuntimeError):
    """The directly constructed maximal height function failed certification.

    ``max_via_p`` checks its result like any other height function; the
    path bound in its docstring says this never happens.  It is the only
    cause of the ``extremes`` subcommand's exit code 5.
    """
