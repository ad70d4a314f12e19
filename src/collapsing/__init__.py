"""Verifiers, bound engine and constructions for vector families with
small subset sums."""

from .bounds import BestBounds, BoundResult, GammaValue, best_bounds, gamma_k, table1
from .constructions import (
    AlmostOrthogonalSet,
    FiniteFieldParams,
    counterexample_tuple,
    fixture_X,
    fixture_Y,
    greedy_unit_vectors,
    lift_almost_orthogonal,
    linf_cross,
    pk_polytope_norm,
    polynomial_vectors,
)
from .family import (
    ConditionReport,
    ScalarFamily,
    VectorFamily,
    bnb_max_subfamily,
    check_full_collapsing,
    check_k_collapsing,
    check_strong_balancing,
    check_weak_balancing,
    diameter_centroid_check,
    far_partner_check,
    make_family,
    normalisation_check,
    scalar_k_collapsing,
)
from .graphtools import (
    EquitableColoring,
    SimpleGraph,
    bm_pipeline_check,
    equitable_coloring,
    max_degree,
    proximity_graph,
)
from .matrixform import (
    CollapseMatrix,
    RankCertificate,
    check_rows,
    family_from_matrix,
    gram_from_family,
    hadamard_power,
    hadamard_rank_bound,
    make_matrix,
    rank,
    rank_certificate,
    row_normalize,
)
from .simplexopt import OptResult, max_pow_general, max_sq_balanced, vertex_oracle
from .spaces import (
    NormSpace,
    dual_unit_vector,
    l1_subspace,
    linf_space,
    lp_space,
    norm_eval,
    slab_space,
)

__version__ = "0.1.0"
