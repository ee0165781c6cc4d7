"""Exception hierarchy. Every error carries a stable machine-readable code."""


class LcpMatchError(Exception):
    """Base class for all library errors."""

    code = "error"


class DegenerateBasis(LcpMatchError):
    """A point triplet is too close to collinear to pin down a rigid motion."""

    code = "degenerate_basis"


class DegeneratePair(LcpMatchError):
    """A point pair is too short to define a direction."""

    code = "degenerate_pair"


class EmptySet(LcpMatchError):
    code = "empty_set"


class TooFewPoints(LcpMatchError):
    code = "too_few_points"


class NoCongruentTriplets(LcpMatchError):
    """No congruent triplet pair was found, so no votes were cast."""

    code = "no_congruent_triplets"


class NoCandidatePairs(LcpMatchError):
    """No source pair survived the pair-length filter."""

    code = "no_candidate_pairs"


class ConstructionFailed(LcpMatchError):
    """Graph generation exhausted its retry budget."""

    code = "construction_failed"


class TooLarge(LcpMatchError):
    """The requested brute-force computation exceeds its safety cap."""

    code = "too_large"


class SizeMismatch(LcpMatchError):
    code = "size_mismatch"


class SpecInfeasible(LcpMatchError):
    """Instance generation could not satisfy the constraints by rejection."""

    code = "spec_infeasible"


class DegreeTooSmall(LcpMatchError):
    """Expander degree below the bound required by the size guarantee."""

    code = "degree_too_small"
