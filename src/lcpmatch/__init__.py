"""Largest-common-point-set matching of 3D point sets under rigid motions.

Public surface: the geometry core (rigid motions, motion bases, distances),
the exact voting algorithms, the dihedral-angle tolerant matcher with
pluggable pair sources, sampling schemes, and the ground-truth oracle used
for verification and instance generation.
"""

from .da import MatchParams, da_exact, da_match, expander_da
from .errors import (
    ConstructionFailed,
    DegenerateBasis,
    DegeneratePair,
    DegreeTooSmall,
    EmptySet,
    LcpMatchError,
    NoCandidatePairs,
    NoCongruentTriplets,
    SizeMismatch,
    SpecInfeasible,
    TooFewPoints,
    TooLarge,
)
from .exact import (
    ExactParams,
    alignment,
    geometric_hashing,
    ght,
    ght_pair_based,
    motion_key,
    pose_clustering,
)
from .geometry import (
    RigidMotion,
    least_squares_motion,
    min_interpoint_distance,
    motion_from_bases,
    tolerant_precondition,
)
from .oracle import (
    GenSpec,
    Instance,
    OracleResult,
    Truth,
    exact_lcp_bruteforce,
    generate_instance,
    verify_motion,
)
from .result import MatchResult
from .sampling import (
    AllPairs,
    Expander,
    ExpanderGraph,
    PairSource,
    Pigeonhole,
    estimate_lambda,
    materialize_pairs,
    pigeonhole_pairs,
    random_regular_graph,
)

__version__ = "0.1.0"
