"""Finite topological spaces, their regularity spectrum, the continuity
ladder for maps between them, kernel decompositions, enumeration, and an
oracle-driven countable space with a constructive embedding."""

from .decomposition import (
    Decomposition,
    ResidueNonEmpty,
    open_decomposition,
    theta_decomposition,
    weak_homeo_witness,
)
from .generate import (
    canonicalize,
    count_spaces,
    enumerate_spaces,
    labeled_rows,
    random_space,
    space_from_rows,
)
from .hedgehog import (
    Embedding,
    HedgehogOracle,
    MalformedToken,
    NotHausdorffWitnessed,
    OracleError,
    OracleRefusal,
    PermutedOracle,
    RegularAtPoint,
    SumOracle,
    VerificationFailure,
    certify_hedgehog_profile,
    embed_hedgehog,
    verify_embedding,
)
from .maps import (
    FinMap,
    MapClass,
    build_map,
    classify_map,
    compose,
    continuity_points,
    identity_map,
    is_weak_homeomorphism,
    reaches,
)
from .regularity import (
    PropertyReport,
    classify_report,
    is_hereditarily_quasi_regular,
    is_locally_regular,
    is_nowhere_regular,
    is_quasi_regular,
    is_regular,
    is_regular_at,
    is_scattered,
    is_t1,
    is_theta_weakly_regular,
    is_w_theta_regular,
    is_weakly_regular,
    sw_witness_search,
)
from .space import (
    FinSpace,
    PointSet,
    TopologyError,
    build_space,
    closure,
    interior,
    is_closed,
    is_open,
    is_theta_open,
    space_from_json,
    space_to_json,
    subspace,
    theta_interior,
    theta_open_part,
    topological_sum,
)
from .survey import check_composition_laws, find_space, parse_predicate, verify_diagram

__version__ = "0.1.0"
